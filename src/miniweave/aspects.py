"""MiniAspect front-end: aspect declarations, the pointcut language, metadata.

An aspect source file (`.ma0`) holds `precedence` statements and aspect
declarations. An aspect is a class with advice, as AspectJ compiles one:
`AspectDecl` is a `ClassDecl` whose helpers are its `methods`, parsed by
the class rules (`MiniParser.parse_members`, with `AspectParser.parse_member`
taking advice and `precedence` where a class takes a constructor or static
block), and its singleton is an object whose class is the aspect. An
advice is a `MethodDecl` named `advice#<index>` whose parameters are its
bindings `thisObject`, `targetObject`, `args` and `jp`, so
`minilang.resolve_program` resolves class and aspect bodies alike. Aspects
are implicitly privileged: advice and helper bodies may read or write
fields of any object.

A pointcut is a tree of frozen nodes: `PcKind` (execution, call, get or
set, with the shadow kind `KIND_OF_WORD` gives its word), `PcBinding` (this
or target), `PcWithin`, `PcArgs` and `PcCflow`, combined by `PcAnd`, `PcOr`
and `PcNot`. A node's `str` is source text that parses back to an equal node.

Annotations: `@hideType` on an aspect, `@hideField` on aspect fields,
`@hideMethod` on helpers or advice, and `@order(<number>)` /
`@loc(file=..., line=..., module=...)` on advice only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import minilang as ml
from .diagnostics import CompileError, Loc, ParseError
from .joinpoints import ShadowKind
from .lexer import EOF, INT, NAME, PUNCT, STRING
from .render import render_literal

ADVICE_BINDINGS = ("thisObject", "targetObject", "args", "jp")


# ---------------------------------------------------------------------------
# Pointcut AST
# ---------------------------------------------------------------------------


# the word of each kinded primitive, with the shadow kind it fixes
KIND_OF_WORD = {
    "execution": ShadowKind.METHOD_EXECUTION,
    "call": ShadowKind.METHOD_CALL,
    "get": ShadowKind.FIELD_GET,
    "set": ShadowKind.FIELD_SET,
}
_WORD_OF_KIND = {kind: word for word, kind in KIND_OF_WORD.items()}


@dataclass(frozen=True)
class PcKind:
    """`execution`, `call`, `get` or `set` of `Class.member`, with `*`
    usable for either segment; a bare segment means "any class, this
    member". The only primitive that fixes a shadow's kind statically."""

    kind: ShadowKind
    cls: str  # literal name or "*"
    member: str  # literal name or "*"

    def __str__(self) -> str:
        return f"{_WORD_OF_KIND[self.kind]}({self.cls}.{self.member})"


@dataclass(frozen=True)
class PcBinding:
    """`this(Type)` or `target(Type)`: a runtime test of one binding's class."""

    binding: str  # "this" | "target"
    type_name: str

    def __str__(self) -> str:
        return f"{self.binding}({self.type_name})"


_WILDCARD = object()


@dataclass(frozen=True)
class PcArgs:
    position: int
    value: object  # literal int/bool/str, or None for null, or the wildcard

    @property
    def is_wildcard(self) -> bool:
        return self.value is _WILDCARD

    def __str__(self) -> str:
        lit = "*" if self.is_wildcard else render_literal(self.value)
        return f"args({self.position}, {lit})"


@dataclass(frozen=True)
class PcWithin:
    type_name: str

    def __str__(self) -> str:
        return f"within({self.type_name})"


@dataclass(frozen=True)
class PcCflow:
    inner: object

    def __str__(self) -> str:
        return f"cflow({self.inner})"


@dataclass(frozen=True)
class PcAnd:
    parts: tuple

    def __str__(self) -> str:
        return " && ".join(_paren(p) for p in self.parts)


@dataclass(frozen=True)
class PcOr:
    parts: tuple

    def __str__(self) -> str:
        return " || ".join(_paren(p) for p in self.parts)


@dataclass(frozen=True)
class PcNot:
    inner: object

    def __str__(self) -> str:
        return f"!{_paren(self.inner)}"


def _paren(pc) -> str:
    if isinstance(pc, (PcAnd, PcOr)):
        return f"({pc})"
    return str(pc)


def anchor(conjunct):
    """A positive `PcKind` every match of `conjunct` needs, or None if it
    has none."""
    if type(conjunct) is PcKind:
        return conjunct
    if type(conjunct) is PcAnd:
        for part in conjunct.parts:
            atom = anchor(part)
            if atom is not None:
                return atom
    return None


def check_matchable(pc, loc: Loc) -> None:
    """Every top-level conjunct needs an anchor."""
    for disjunct in pc.parts if type(pc) is PcOr else (pc,):
        if anchor(disjunct) is None:
            raise CompileError(
                "pointcut needs at least one execution/call/get/set primitive "
                "per top-level conjunct",
                loc,
            )


# ---------------------------------------------------------------------------
# Aspect AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SourceBridge:
    file: str
    line: int
    module: str


@dataclass(kw_only=True, slots=True)
class AdviceDecl(ml.MethodDecl):
    """An advice is a method named `advice#<index>` whose parameters are
    ADVICE_BINDINGS; hide specs and `within` see that name."""

    kind: str  # "before" | "after"
    pointcut: object
    index: int  # declaration index within the aspect
    order: float | None = None
    bridge: SourceBridge | None = None
    aspect_name: str = ""

    def describe(self) -> str:
        return f"{self.aspect_name}#{self.index}"


@dataclass(kw_only=True, slots=True)
class AspectDecl(ml.ClassDecl):
    """An aspect is a class with advice: its helpers are its `methods`, and
    it has no constructor or static block."""

    advice: list[AdviceDecl]

    def bodies(self) -> list[ml.MethodDecl]:
        """The helpers, then the advice."""
        return [*self.methods, *self.advice]


@dataclass
class AspectFile:
    aspects: list[AspectDecl] = field(default_factory=list)
    precedence: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class AspectParser(ml.MiniParser):
    """The class parser, with advice and `precedence` as an aspect's extra members."""

    def parse_file(self) -> AspectFile:
        self.out = out = AspectFile()
        while not self.ts.at(EOF):
            if self.ts.at_name("precedence"):
                out.precedence.extend(self.parse_precedence())
                continue
            anns = self.parse_annotations()
            loc = self.ts.loc()
            if not self.ts.accept(NAME, "aspect"):
                raise self.ts.error("expected 'aspect' or 'precedence'")
            name = self.parse_decl_name()
            self.check_annotations(anns, ("hideType",), "an aspect")
            aspect = AspectDecl(name, [], [], None, None, anns, loc, advice=[])
            out.aspects.append(self.parse_members(aspect))
        return out

    def parse_precedence(self) -> list[str]:
        self.ts.expect(NAME, "precedence")
        names = self.parse_items(lambda: self.ts.expect(NAME), ",")
        self.ts.expect(PUNCT, ";")
        return names

    def parse_method(self, anns) -> ml.MethodDecl:
        for ann in anns:
            if ann.name in ("order", "loc"):
                raise ParseError(f"@{ann.name} is only allowed on advice", ann.loc)
        return super().parse_method(anns)

    def parse_member(self, owner: AspectDecl, anns) -> None:
        if self.ts.at_name("precedence") and not anns:
            self.out.precedence.extend(self.parse_precedence())
        elif self.ts.at_name("before") or self.ts.at_name("after"):
            owner.advice.append(self.parse_advice(owner, anns))
        else:
            raise self.ts.error("expected a field, helper, advice, or precedence")

    def parse_advice(self, owner: AspectDecl, anns) -> AdviceDecl:
        loc = self.ts.loc()
        kind = self.ts.advance()  # before | after
        self.ts.expect(PUNCT, "(")
        self.ts.expect(PUNCT, ")")
        self.ts.expect(PUNCT, ":")
        pc = self.parse_pointcut()
        body = self.parse_block()
        self.check_annotations(anns, ("order", "loc", "hideMethod"), "advice")
        order = None
        bridge = None
        for ann in anns:
            if ann.name == "order":
                if order is not None:
                    raise ParseError("duplicate @order", ann.loc)
                order = self.read_order(ann)
            elif ann.name == "loc":
                if bridge is not None:
                    raise ParseError("duplicate @loc", ann.loc)
                bridge = self.read_bridge(ann)
        check_matchable(pc, loc)
        index = len(owner.advice)
        return AdviceDecl(
            f"advice#{index}", ADVICE_BINDINGS, body, anns, loc, kind=kind, pointcut=pc,
            index=index, order=order, bridge=bridge, aspect_name=owner.name,
        )

    def read_order(self, ann) -> float:
        if ann.args is None or len(ann.args) != 1 or not isinstance(ann.args[0], (int, float)):
            raise ParseError("@order expects a single numeric value", ann.loc)
        try:
            value = float(ann.args[0])
        except OverflowError:  # an int beyond float range
            value = math.inf
        if not math.isfinite(value):
            raise ParseError("@order value must be finite", ann.loc)
        return value

    def read_bridge(self, ann) -> SourceBridge:
        args = ann.args or []
        if not all(isinstance(arg, tuple) for arg in args):
            raise ParseError("@loc expects file=, line=, module=", ann.loc)
        kv = dict(args)
        if len(kv) != len(args) or set(kv) != {"file", "line", "module"}:
            raise ParseError("@loc requires exactly file=, line=, module=", ann.loc)
        if not isinstance(kv["file"], str) or not isinstance(kv["module"], str):
            raise ParseError("@loc file= and module= must be strings", ann.loc)
        if not isinstance(kv["line"], int) or kv["line"] < 1:
            raise ParseError("@loc line= must be a positive integer", ann.loc)
        return SourceBridge(kv["file"], kv["line"], kv["module"])

    # -- pointcuts

    def parse_pointcut(self):
        parts = self.parse_items(self.parse_pc_and, "||")
        return parts[0] if len(parts) == 1 else PcOr(tuple(parts))

    def parse_pc_and(self):
        parts = self.parse_items(self.parse_pc_unary, "&&")
        return parts[0] if len(parts) == 1 else PcAnd(tuple(parts))

    def parse_pc_unary(self):
        if self.ts.accept(PUNCT, "!"):
            return PcNot(self.nested(self.parse_pc_unary))
        if self.ts.accept(PUNCT, "("):
            pc = self.nested(self.parse_pointcut)
            self.ts.expect(PUNCT, ")")
            return pc
        return self.parse_pc_primitive()

    def parse_pc_primitive(self):
        loc = self.ts.loc()
        word = self.ts.expect(NAME)
        self.ts.expect(PUNCT, "(")
        if word in KIND_OF_WORD:
            first = self.parse_pattern_segment()
            if self.ts.accept(PUNCT, "."):
                pc = PcKind(KIND_OF_WORD[word], first, self.parse_pattern_segment())
            else:  # bare segment: any class, this member
                pc = PcKind(KIND_OF_WORD[word], "*", first)
        elif word in ("this", "target"):
            pc = PcBinding(word, self.ts.expect(NAME))
        elif word == "within":
            pc = PcWithin(self.ts.expect(NAME))
        elif word == "args":
            pos = self.ts.expect_int()
            self.ts.expect(PUNCT, ",")
            pc = PcArgs(pos, self.parse_args_literal())
        elif word == "cflow":
            pc = PcCflow(self.nested(self.parse_pointcut))
        else:
            raise ParseError(f"unknown pointcut primitive {word!r}", loc)
        self.ts.expect(PUNCT, ")")
        return pc

    def parse_args_literal(self):
        if self.ts.accept(PUNCT, "*"):
            return _WILDCARD
        if self.ts.kind == INT:
            return self.ts.expect_int()
        if self.ts.kind == STRING:
            return self.ts.advance()
        if self.ts.at_name("true"):
            self.ts.advance()
            return True
        if self.ts.at_name("false"):
            self.ts.advance()
            return False
        if self.ts.at_name("null"):
            self.ts.advance()
            return None
        neg = self.ts.accept(PUNCT, "-")
        if neg and self.ts.kind == INT:
            return -self.ts.expect_int()
        raise self.ts.error("expected a literal or * in args()")

    def parse_pattern_segment(self) -> str:
        if self.ts.accept(PUNCT, "*"):
            return "*"
        return self.ts.expect(NAME)


def parse_aspect_file(text: str, path: str) -> AspectFile:
    """Parse a `.ma0` source: aspects plus any precedence statements."""
    return AspectParser(text, path).parse_file()
