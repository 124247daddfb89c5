"""MiniAspect front-end: aspect declarations, the pointcut language, metadata.

An aspect source file (`.ma0`) holds `precedence` statements and aspect
declarations. Aspects are singletons and implicitly privileged: advice and
helper bodies may read or write fields of any object. Advice bodies see the
implicit bindings `thisObject`, `targetObject`, `args`, and `jp`.

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
from .lexer import EOF, NAME, PUNCT

ADVICE_BINDINGS = ("thisObject", "targetObject", "args", "jp")


# ---------------------------------------------------------------------------
# Pointcut AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NamePattern:
    """`Class.member` with `*` usable for either segment; a bare segment
    means "any class, this member"."""

    cls: str  # literal name or "*"
    member: str

    def __str__(self) -> str:
        return f"{self.cls}.{self.member}"

    def member_matches(self, name: str) -> bool:
        return self.member == "*" or self.member == name


@dataclass(frozen=True)
class PcExecution:
    pattern: NamePattern

    def __str__(self) -> str:
        return f"execution({self.pattern})"


@dataclass(frozen=True)
class PcCall:
    pattern: NamePattern

    def __str__(self) -> str:
        return f"call({self.pattern})"


@dataclass(frozen=True)
class PcGet:
    pattern: NamePattern

    def __str__(self) -> str:
        return f"get({self.pattern})"


@dataclass(frozen=True)
class PcSet:
    pattern: NamePattern

    def __str__(self) -> str:
        return f"set({self.pattern})"


@dataclass(frozen=True)
class PcThis:
    type_name: str

    def __str__(self) -> str:
        return f"this({self.type_name})"


@dataclass(frozen=True)
class PcTarget:
    type_name: str

    def __str__(self) -> str:
        return f"target({self.type_name})"


_WILDCARD = object()


@dataclass(frozen=True)
class PcArgs:
    position: int
    value: object  # literal int/bool/str, or None for null, or the wildcard

    @property
    def is_wildcard(self) -> bool:
        return self.value is _WILDCARD

    def __str__(self) -> str:
        if self.is_wildcard:
            return f"args({self.position}, *)"
        if isinstance(self.value, bool):
            lit = "true" if self.value else "false"
        elif isinstance(self.value, str):
            lit = f'"{self.value}"'
        elif self.value is None:
            lit = "null"
        else:
            lit = str(self.value)
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


# the primitives that fix a shadow's kind statically, with that kind
KIND_FOR_PRIM = {
    PcExecution: ShadowKind.METHOD_EXECUTION,
    PcCall: ShadowKind.METHOD_CALL,
    PcGet: ShadowKind.FIELD_GET,
    PcSet: ShadowKind.FIELD_SET,
}


def anchor(conjunct):
    """A positive execution/call/get/set atom every match of `conjunct`
    needs, or None if it has none."""
    if type(conjunct) in KIND_FOR_PRIM:
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


@dataclass
class AdviceDecl:
    kind: str  # "before" | "after"
    pointcut: object
    body: list
    index: int  # declaration index within the aspect
    order: float | None
    bridge: SourceBridge | None
    annotations: list
    loc: Loc
    aspect_name: str = ""
    local_names: tuple[str, ...] = ()

    @property
    def member_name(self) -> str:
        return f"advice#{self.index}"

    def describe(self) -> str:
        return f"{self.aspect_name}#{self.index}"


@dataclass
class AspectDecl:
    name: str
    annotations: list
    fields: list
    helpers: list
    advice: list[AdviceDecl]
    loc: Loc
    path: str

    def field_names(self) -> set[str]:
        return {f.name for f in self.fields}

    def helper(self, name: str):
        for h in self.helpers:
            if h.name == name:
                return h
        return None


@dataclass
class AspectFile:
    aspects: list[AspectDecl] = field(default_factory=list)
    precedence: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class AspectParser(ml.MiniParser):
    def parse_file(self) -> AspectFile:
        out = AspectFile()
        while not self.ts.at(EOF):
            if self.ts.at_name("precedence"):
                out.precedence.extend(self.parse_precedence())
                continue
            anns = self.parse_annotations()
            if not self.ts.at_name("aspect"):
                raise self.ts.error("expected 'aspect' or 'precedence'")
            out.aspects.append(self.parse_aspect_decl(anns, out))
        seen = set()
        for a in out.aspects:
            if a.name in seen:
                raise ParseError(f"duplicate aspect {a.name!r}", a.loc)
            seen.add(a.name)
        return out

    def parse_precedence(self) -> list[str]:
        self.ts.expect(NAME, "precedence")
        names = [self.ts.expect(NAME).text]
        while self.ts.accept(PUNCT, ","):
            names.append(self.ts.expect(NAME).text)
        self.ts.expect(PUNCT, ";")
        return names

    def parse_aspect_decl(self, anns, out: AspectFile) -> AspectDecl:
        loc = self.ts.loc()
        self.ts.expect(NAME, "aspect")
        name = self.parse_decl_name()
        for ann in anns:
            if ann.name != "hideType":
                raise ParseError(f"annotation @{ann.name} is not allowed on an aspect", ann.loc)
        self.ts.expect(PUNCT, "{")
        fields: list = []
        helpers: list = []
        advice: list[AdviceDecl] = []
        while not self.ts.accept(PUNCT, "}"):
            if self.ts.at_name("precedence"):
                out.precedence.extend(self.parse_precedence())
                continue
            member_anns = self.parse_annotations()
            if self.ts.at_name("var"):
                fields.append(self.parse_field(member_anns))
            elif self.ts.at_name("def"):
                helper = self.parse_method(member_anns)
                self.check_helper_annotations(helper)
                if any(h.name == helper.name for h in helpers):
                    raise ParseError(f"duplicate helper {name}.{helper.name!r}", helper.loc)
                helpers.append(helper)
            elif self.ts.at_name("before") or self.ts.at_name("after"):
                advice.append(self.parse_advice(member_anns, len(advice)))
            else:
                raise self.ts.error("expected a field, helper, advice, or precedence")
        decl = AspectDecl(name, anns, fields, helpers, advice, loc, self.path)
        for adv in advice:
            adv.aspect_name = name
        return decl

    def check_helper_annotations(self, helper) -> None:
        for ann in helper.annotations:
            if ann.name in ("order", "loc"):
                raise ParseError(f"@{ann.name} is only allowed on advice", ann.loc)

    def parse_advice(self, anns, index: int) -> AdviceDecl:
        loc = self.ts.loc()
        kind = self.ts.advance().text  # before | after
        self.ts.expect(PUNCT, "(")
        self.ts.expect(PUNCT, ")")
        self.ts.expect(PUNCT, ":")
        pc = self.parse_pointcut()
        body = self.parse_block()
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
            elif ann.name == "hideMethod":
                pass  # read by collect_hide_specs
            else:
                raise ParseError(f"annotation @{ann.name} is not allowed on advice", ann.loc)
        check_matchable(pc, loc)
        return AdviceDecl(kind, pc, body, index, order, bridge, anns, loc)

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
        kv = {}
        for arg in ann.args or []:
            if not (isinstance(arg, tuple) and len(arg) == 2):
                raise ParseError("@loc expects file=, line=, module=", ann.loc)
            kv[arg[0]] = arg[1]
        if set(kv) != {"file", "line", "module"}:
            raise ParseError("@loc requires exactly file=, line=, module=", ann.loc)
        if not isinstance(kv["file"], str) or not isinstance(kv["module"], str):
            raise ParseError("@loc file= and module= must be strings", ann.loc)
        if not isinstance(kv["line"], int) or kv["line"] < 1:
            raise ParseError("@loc line= must be a positive integer", ann.loc)
        return SourceBridge(kv["file"], kv["line"], kv["module"])

    # -- pointcuts

    def parse_pointcut(self):
        return self.parse_pc_or()

    def parse_pc_or(self):
        parts = [self.parse_pc_and()]
        while self.ts.accept(PUNCT, "||"):
            parts.append(self.parse_pc_and())
        return parts[0] if len(parts) == 1 else PcOr(tuple(parts))

    def parse_pc_and(self):
        parts = [self.parse_pc_unary()]
        while self.ts.accept(PUNCT, "&&"):
            parts.append(self.parse_pc_unary())
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
        tok = self.ts.expect(NAME)
        word = tok.text
        self.ts.expect(PUNCT, "(")
        if word in ("execution", "call", "get", "set"):
            pattern = self.parse_name_pattern()
            self.ts.expect(PUNCT, ")")
            return {
                "execution": PcExecution,
                "call": PcCall,
                "get": PcGet,
                "set": PcSet,
            }[word](pattern)
        if word in ("this", "target", "within"):
            type_name = self.ts.expect(NAME).text
            self.ts.expect(PUNCT, ")")
            return {"this": PcThis, "target": PcTarget, "within": PcWithin}[word](type_name)
        if word == "args":
            pos = self.ts.expect_int()
            self.ts.expect(PUNCT, ",")
            value = self.parse_args_literal()
            self.ts.expect(PUNCT, ")")
            return PcArgs(pos, value)
        if word == "cflow":
            inner = self.nested(self.parse_pointcut)
            self.ts.expect(PUNCT, ")")
            return PcCflow(inner)
        raise ParseError(f"unknown pointcut primitive {word!r}", loc)

    def parse_args_literal(self):
        if self.ts.accept(PUNCT, "*"):
            return _WILDCARD
        tok = self.ts.cur
        if tok.kind == "int":
            return self.ts.expect_int()
        if tok.kind == "string":
            self.ts.advance()
            return tok.text
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
        if neg and self.ts.cur.kind == "int":
            return -self.ts.expect_int()
        raise self.ts.error("expected a literal or * in args()")

    def parse_name_pattern(self) -> NamePattern:
        first = self.parse_pattern_segment()
        if self.ts.accept(PUNCT, "."):
            second = self.parse_pattern_segment()
            return NamePattern(first, second)
        # bare segment: any class, this member
        return NamePattern("*", first)

    def parse_pattern_segment(self) -> str:
        if self.ts.accept(PUNCT, "*"):
            return "*"
        return self.ts.expect(NAME).text


def parse_aspect_file(text: str, path: str) -> AspectFile:
    """Parse a `.ma0` source: aspects plus any precedence statements."""
    return AspectParser(text, path).parse_file()


# ---------------------------------------------------------------------------
# Resolution
# ---------------------------------------------------------------------------


def resolve_aspects(aspects: list[AspectDecl], class_names: set[str]) -> None:
    """Resolve names inside aspect bodies.

    Bare names resolve to params/locals first, then to the aspect's own
    fields (implicit `this.f`). Advice bodies additionally see the implicit
    runtime bindings. `new` refers to base-program classes only.
    """
    for aspect in aspects:
        resolver = ml.Resolver(aspect, set(class_names))
        resolver.resolve_inits(aspect.fields)
        for helper in aspect.helpers:
            resolver.resolve_method(helper, has_this=True)
        for adv in aspect.advice:
            scope = set(ADVICE_BINDINGS)
            ml._collect_locals(adv.body, scope)
            adv.local_names = tuple(sorted(scope - set(ADVICE_BINDINGS)))
            resolver.resolve(adv.body, scope, has_this=True)
