"""MiniLang front-end: AST, parser, and the identifier-resolution pass.

MiniLang is a small dynamically typed class language (`.ml0`). A program
is a set of classes; each class has fields with optional initializers, an
optional constructor, an optional static block, and methods. Statements
are var/assign/if/while/return/expression; expressions cover literals,
lists, `new`, member access, method calls, `spawn`, and a fixed set of
builtins. Declarations may carry `@hideField` / `@hideMethod` /
`@hideType` annotations.

Every node class names its child fields in `child_fields`, and `walk`
yields the nodes under a body in source order from an explicit stack; the
resolver here, shadow extraction and the COOL checker each make one such
walk per body instead of spelling out the AST in their own recursion. An
`if` with its `else if` chain is one `If` node holding a list of
(cond, body) arms.

`MiniParser` is recursive descent over `lexer.tokenize`'s tokens; the
aspect, COOL and audit parsers subclass it. Binary expressions are parsed
by precedence climbing over `_BINARY_PREC` (`||` < `&&` < `== !=` <
`< <= > >=` < `+ -` < `* / %`, all left-associative), so a chain of
operators costs a loop, not a Python frame per operand, and so does an
`else if` chain. Nesting of parentheses, prefix operators, brackets,
argument lists and blocks is bounded by `MAX_NESTING`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import lexer
from .diagnostics import CompileError, Loc, ParseError
from .lexer import EOF, FLOAT, INT, NAME, PUNCT, STRING, TokenStream

BUILTINS = {
    "print",
    "len",
    "push_back",
    "make_monitor",
    "monitor_acquire",
    "monitor_release",
    "monitor_wait",
    "monitor_notify_all",
    "format",
    "audit_emit",
}

RESERVED = {
    "class",
    "def",
    "var",
    "static",
    "constructor",
    "if",
    "else",
    "while",
    "return",
    "new",
    "spawn",
    "true",
    "false",
    "null",
    "this",
}


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


@dataclass
class Annotation:
    name: str
    args: list
    loc: Loc


@dataclass
class Node:
    loc: Loc

    # the fields holding child nodes, in source order; each holds a node,
    # None, or a list (or tuple) of them, possibly nested. This table is the
    # one place the AST's shape is spelled out: `walk` follows it.
    child_fields = ()


# -- expressions


@dataclass
class IntLit(Node):
    value: int


@dataclass
class BoolLit(Node):
    value: bool


@dataclass
class StrLit(Node):
    value: str


@dataclass
class NullLit(Node):
    pass


@dataclass
class ListLit(Node):
    items: list

    child_fields = ("items",)


@dataclass
class ThisRef(Node):
    pass


@dataclass
class LocalRef(Node):
    name: str


@dataclass
class FieldGet(Node):
    obj: Node
    name: str

    child_fields = ("obj",)


@dataclass
class Index(Node):
    obj: Node
    index: Node

    child_fields = ("obj", "index")


@dataclass
class MethodCall(Node):
    obj: Node
    name: str
    args: list

    child_fields = ("obj", "args")


@dataclass
class BuiltinCall(Node):
    name: str
    args: list

    child_fields = ("args",)


@dataclass
class New(Node):
    class_name: str
    args: list

    child_fields = ("args",)


@dataclass
class Spawn(Node):
    call: MethodCall

    child_fields = ("call",)


@dataclass
class Unary(Node):
    op: str
    operand: Node

    child_fields = ("operand",)


@dataclass
class Binary(Node):
    op: str
    left: Node
    right: Node

    child_fields = ("left", "right")


# -- statements


@dataclass
class VarDecl(Node):
    name: str
    init: Node | None

    child_fields = ("init",)


@dataclass
class Assign(Node):
    target: Node  # LocalRef | FieldGet | Index
    value: Node

    child_fields = ("target", "value")


@dataclass
class If(Node):
    arms: list  # [(cond, body)]: `if` and each `else if`, tried in order
    orelse: list

    child_fields = ("arms", "orelse")


@dataclass
class While(Node):
    cond: Node
    body: list

    child_fields = ("cond", "body")


@dataclass
class Return(Node):
    value: Node | None

    child_fields = ("value",)


@dataclass
class ExprStmt(Node):
    expr: Node

    child_fields = ("expr",)


# -- declarations


@dataclass
class FieldDecl:
    name: str
    init: Node | None
    annotations: list[Annotation]
    loc: Loc


@dataclass
class MethodDecl:
    name: str
    params: list[str]
    body: list
    annotations: list[Annotation]
    loc: Loc
    # function-scoped locals, filled in by resolution; the interpreter hoists
    # them to null so a var declared in one branch reads as null elsewhere
    local_names: tuple[str, ...] = ()


@dataclass
class ClassDecl:
    name: str
    fields: list[FieldDecl]
    methods: list[MethodDecl]
    ctor: MethodDecl | None
    static_block: MethodDecl | None
    annotations: list[Annotation]
    loc: Loc

    def field_names(self) -> set[str]:
        return {f.name for f in self.fields}

    def method(self, name: str) -> MethodDecl | None:
        for m in self.methods:
            if m.name == name:
                return m
        return None


@dataclass
class Program:
    classes: list[ClassDecl] = field(default_factory=list)

    def by_name(self) -> dict[str, ClassDecl]:
        return {c.name: c for c in self.classes}


def walk(roots):
    """Yield every node under `roots` (a node or a list of nodes), pre-order.

    Nodes come in source order, each before its children, from an explicit
    stack: a long operator chain or `else if` chain costs no Python frames.
    A node's children are read when the walk resumes after yielding it, so a
    pass may replace them first and the walk follows the replacements.
    """
    stack = [roots]
    pop = stack.pop
    push = stack.append
    while stack:
        item = pop()
        kind = type(item)
        if kind is list or kind is tuple:
            stack.extend(reversed(item))
        elif item is not None:
            yield item
            for name in reversed(kind.child_fields):
                push(getattr(item, name))


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


# Deepest nesting of parentheses, unary operators, brackets, argument lists
# and blocks the parser accepts. Each level costs up to ten Python frames
# here, and the passes that still recurse by nesting (the block scans such
# as `_collect_locals`, rendering, the interpreter) take more, so the limit
# keeps them well inside Python's default recursion limit. Operator and
# `else if` chains are not nesting: the parser loops over them and `walk`
# needs no frames for them.
MAX_NESTING = 64

# Binding strength of each binary operator, loosest first; a higher number
# binds tighter.
_BINARY_PREC = {
    op: prec
    for prec, ops in enumerate(("||", "&&", "== !=", "< <= > >=", "+ -", "* / %"), 1)
    for op in ops.split()
}


class MiniParser:
    """Recursive-descent parser for MiniLang; subclassed by the aspect parser."""

    def __init__(self, text: str, path: str):
        self.ts = TokenStream(lexer.tokenize(text, path), path)
        self.path = path
        self.depth = 0

    def nested(self, parse):
        """Run `parse` one nesting level deeper; past MAX_NESTING, a ParseError."""
        if self.depth == MAX_NESTING:
            raise self.ts.error(f"nesting deeper than {MAX_NESTING} levels")
        self.depth += 1
        try:
            return parse()
        finally:
            self.depth -= 1

    # -- annotations

    def parse_annotations(self) -> list[Annotation]:
        anns = []
        while self.ts.at_punct("@"):
            loc = self.ts.loc()
            self.ts.advance()
            name = self.ts.expect(NAME).text
            args: list = []
            if self.ts.accept(PUNCT, "("):
                args = self.parse_annotation_args(name)
                self.ts.expect(PUNCT, ")")
            else:
                args = None  # bare annotation: defaults apply
            anns.append(Annotation(name, args, loc))
        return anns

    def parse_annotation_args(self, name: str) -> list:
        args: list = []
        if self.ts.at_punct(")"):
            return args
        while True:
            args.append(self.parse_annotation_arg())
            if not self.ts.accept(PUNCT, ","):
                return args

    def parse_annotation_arg(self):
        loc = self.ts.loc()
        if self.ts.at(NAME):
            name = self.ts.advance().text
            if self.ts.accept(PUNCT, "="):
                return (name, self.parse_annotation_value())
            return name
        return self.parse_annotation_value()

    def parse_annotation_value(self):
        neg = self.ts.accept(PUNCT, "-") is not None
        tok = self.ts.cur
        if tok.kind == INT:
            value = self.ts.expect_int()
            return -value if neg else value
        if tok.kind == FLOAT:
            self.ts.advance()
            return -float(tok.text) if neg else float(tok.text)
        if neg:
            raise self.ts.error("expected a number after '-'")
        if tok.kind == STRING:
            self.ts.advance()
            return tok.text
        if tok.kind == NAME and tok.text in ("true", "false"):
            self.ts.advance()
            return tok.text == "true"
        raise self.ts.error("bad annotation argument")

    # -- declarations

    def parse_program(self) -> Program:
        classes = []
        while not self.ts.at(EOF):
            anns = self.parse_annotations()
            if not self.ts.at_name("class"):
                raise self.ts.error("expected 'class'")
            classes.append(self.parse_class(anns))
        prog = Program(classes)
        self.check_duplicates(prog)
        return prog

    def check_duplicates(self, prog: Program) -> None:
        seen: dict[str, Loc] = {}
        for c in prog.classes:
            if c.name in seen:
                raise ParseError(f"duplicate class {c.name!r}", c.loc)
            seen[c.name] = c.loc

    def parse_class(self, anns: list[Annotation]) -> ClassDecl:
        loc = self.ts.loc()
        self.ts.expect(NAME, "class")
        name = self.parse_decl_name()
        self.ts.expect(PUNCT, "{")
        fields: list[FieldDecl] = []
        methods: list[MethodDecl] = []
        ctor: MethodDecl | None = None
        static_block: MethodDecl | None = None
        while not self.ts.accept(PUNCT, "}"):
            member_anns = self.parse_annotations()
            mloc = self.ts.loc()
            if self.ts.at_name("var"):
                fields.append(self.parse_field(member_anns))
            elif self.ts.at_name("def"):
                m = self.parse_method(member_anns)
                if any(prev.name == m.name for prev in methods):
                    raise ParseError(f"duplicate method {name}.{m.name!r}", m.loc)
                methods.append(m)
            elif self.ts.at_name("constructor"):
                if member_anns:
                    raise ParseError("annotations are not allowed on constructors", mloc)
                if ctor is not None:
                    raise ParseError("duplicate constructor", mloc)
                self.ts.advance()
                self.ts.expect(PUNCT, "(")
                params = self.parse_params()
                body = self.parse_block()
                ctor = MethodDecl("constructor", params, body, [], mloc)
            elif self.ts.at_name("static"):
                if member_anns:
                    raise ParseError("annotations are not allowed on static blocks", mloc)
                if static_block is not None:
                    raise ParseError("duplicate static block", mloc)
                self.ts.advance()
                body = self.parse_block()
                static_block = MethodDecl("static", [], body, [], mloc)
            else:
                raise self.ts.error("expected a field, method, constructor, or static block")
        seen_fields: set[str] = set()
        for f in fields:
            if f.name in seen_fields:
                raise ParseError(f"duplicate field {name}.{f.name!r}", f.loc)
            seen_fields.add(f.name)
        return ClassDecl(name, fields, methods, ctor, static_block, anns, loc)

    def parse_decl_name(self) -> str:
        tok = self.ts.expect(NAME)
        if tok.text in RESERVED:
            raise ParseError(f"{tok.text!r} is a reserved word", tok.loc(self.path))
        return tok.text

    def parse_field(self, anns: list[Annotation]) -> FieldDecl:
        loc = self.ts.loc()
        self.ts.expect(NAME, "var")
        name = self.parse_decl_name()
        init = None
        if self.ts.accept(PUNCT, "="):
            init = self.parse_expr()
        self.ts.expect(PUNCT, ";")
        return FieldDecl(name, init, anns, loc)

    def parse_method(self, anns: list[Annotation]) -> MethodDecl:
        loc = self.ts.loc()
        self.ts.expect(NAME, "def")
        name = self.parse_decl_name()
        self.ts.expect(PUNCT, "(")
        params = self.parse_params()
        body = self.parse_block()
        return MethodDecl(name, params, body, anns, loc)

    def parse_params(self) -> list[str]:
        params: list[str] = []
        if not self.ts.at_punct(")"):
            while True:
                params.append(self.parse_decl_name())
                if not self.ts.accept(PUNCT, ","):
                    break
        self.ts.expect(PUNCT, ")")
        if len(set(params)) != len(params):
            raise self.ts.error("duplicate parameter name")
        return params

    # -- statements

    def parse_block(self) -> list:
        self.ts.expect(PUNCT, "{")
        stmts = []
        while not self.ts.accept(PUNCT, "}"):
            stmts.append(self.parse_stmt())
        return stmts

    def parse_stmt(self) -> Node:
        loc = self.ts.loc()
        if self.ts.at_name("var"):
            self.ts.advance()
            name = self.parse_decl_name()
            init = None
            if self.ts.accept(PUNCT, "="):
                init = self.parse_expr()
            self.ts.expect(PUNCT, ";")
            return VarDecl(loc, name, init)
        if self.ts.at_name("if"):
            return self.parse_if()
        if self.ts.at_name("while"):
            self.ts.advance()
            self.ts.expect(PUNCT, "(")
            cond = self.parse_expr()
            self.ts.expect(PUNCT, ")")
            body = self.nested(self.parse_block)
            return While(loc, cond, body)
        if self.ts.at_name("return"):
            self.ts.advance()
            value = None
            if not self.ts.at_punct(";"):
                value = self.parse_expr()
            self.ts.expect(PUNCT, ";")
            return Return(loc, value)
        expr = self.parse_expr()
        if self.ts.accept(PUNCT, "="):
            if not isinstance(expr, (LocalRef, FieldGet, Index)):
                raise ParseError("cannot assign to this expression", loc)
            value = self.parse_expr()
            self.ts.expect(PUNCT, ";")
            return Assign(loc, expr, value)
        self.ts.expect(PUNCT, ";")
        return ExprStmt(loc, expr)

    def parse_if(self) -> Node:
        loc = self.ts.loc()
        self.ts.expect(NAME, "if")
        arms = []
        while True:
            self.ts.expect(PUNCT, "(")
            cond = self.parse_expr()
            self.ts.expect(PUNCT, ")")
            arms.append((cond, self.nested(self.parse_block)))
            if not self.ts.accept(NAME, "else"):
                return If(loc, arms, [])
            if not self.ts.accept(NAME, "if"):
                return If(loc, arms, self.nested(self.parse_block))

    # -- expressions (precedence climbing)

    def parse_expr(self, min_prec: int = 0) -> Node:
        """An expression whose binary operators all bind tighter than `min_prec`.

        Every binary operator is left-associative, so a chain of operators at
        one level is a loop here, and only a tighter operand recurses.
        """
        left = self.parse_unary()
        ts = self.ts
        while True:
            tok = ts.cur
            prec = _BINARY_PREC.get(tok.text, 0) if tok.kind == PUNCT else 0
            if prec <= min_prec:
                return left
            ts.advance()
            right = self.parse_expr(prec)
            left = Binary(tok.loc(self.path), tok.text, left, right)

    def parse_unary(self) -> Node:
        tok = self.ts.cur
        if tok.kind == PUNCT and (tok.text == "!" or tok.text == "-"):
            self.ts.advance()
            return Unary(tok.loc(self.path), tok.text, self.nested(self.parse_unary))
        return self.parse_postfix()

    def parse_postfix(self) -> Node:
        expr = self.parse_primary()
        while True:
            if self.ts.accept(PUNCT, "."):
                loc = self.ts.loc()
                name = self.ts.expect(NAME).text
                if self.ts.accept(PUNCT, "("):
                    args = self.parse_args()
                    expr = MethodCall(loc, expr, name, args)
                else:
                    expr = FieldGet(loc, expr, name)
            elif self.ts.at_punct("["):
                loc = self.ts.loc()
                self.ts.advance()
                index = self.nested(self.parse_expr)
                self.ts.expect(PUNCT, "]")
                expr = Index(loc, expr, index)
            else:
                return expr

    def parse_args(self) -> list:
        args = []
        if not self.ts.at_punct(")"):
            while True:
                args.append(self.nested(self.parse_expr))
                if not self.ts.accept(PUNCT, ","):
                    break
        self.ts.expect(PUNCT, ")")
        return args

    def parse_primary(self) -> Node:
        tok = self.ts.cur
        if self.ts.at_punct("("):
            self.ts.advance()
            expr = self.nested(self.parse_expr)
            self.ts.expect(PUNCT, ")")
            return expr
        loc = tok.loc(self.path)
        if tok.kind == INT:
            return IntLit(loc, self.ts.expect_int())
        if tok.kind == FLOAT:
            raise self.ts.error("float literals are not part of the language")
        if tok.kind == STRING:
            self.ts.advance()
            return StrLit(loc, tok.text)
        if self.ts.at_punct("["):
            self.ts.advance()
            items = []
            if not self.ts.at_punct("]"):
                while True:
                    items.append(self.nested(self.parse_expr))
                    if not self.ts.accept(PUNCT, ","):
                        break
            self.ts.expect(PUNCT, "]")
            return ListLit(loc, items)
        if tok.kind == NAME:
            word = tok.text
            if word == "true":
                self.ts.advance()
                return BoolLit(loc, True)
            if word == "false":
                self.ts.advance()
                return BoolLit(loc, False)
            if word == "null":
                self.ts.advance()
                return NullLit(loc)
            if word == "this":
                self.ts.advance()
                return ThisRef(loc)
            if word == "new":
                self.ts.advance()
                cls = self.ts.expect(NAME).text
                self.ts.expect(PUNCT, "(")
                args = self.parse_args()
                return New(loc, cls, args)
            if word == "spawn":
                self.ts.advance()
                call = self.nested(self.parse_postfix)
                if not isinstance(call, MethodCall):
                    raise ParseError("spawn expects a method call", loc)
                return Spawn(loc, call)
            self.ts.advance()
            if self.ts.accept(PUNCT, "("):
                args = self.parse_args()
                return BuiltinCall(loc, word, args)
            return LocalRef(loc, word)
        raise self.ts.error("expected an expression")


def parse_base(text: str, path: str) -> Program:
    """Parse MiniLang source into a Program. Raises ParseError with file:line."""
    parser = MiniParser(text, path)
    return parser.parse_program()


# ---------------------------------------------------------------------------
# Resolution
# ---------------------------------------------------------------------------


def _collect_locals(body: list, acc: set[str]) -> None:
    for stmt in body:
        if isinstance(stmt, VarDecl):
            acc.add(stmt.name)
        elif isinstance(stmt, If):
            for _, block in stmt.arms:
                _collect_locals(block, acc)
            _collect_locals(stmt.orelse, acc)
        elif isinstance(stmt, While):
            _collect_locals(stmt.body, acc)


class Resolver:
    """Rewrites bare identifiers and checks that every name resolves.

    A bare name in a method body resolves to a parameter or local first,
    then to a field of the enclosing class or aspect `owner` (rewritten to
    an implicit `this.name` access). Anything else is a compile error, and
    the first one in source order is raised. Methods are function-scoped: a
    `var` anywhere in the body introduces the name for the whole body.
    """

    def __init__(self, owner, class_names: set[str]):
        self.fields = owner.field_names()
        self.class_names = class_names

    def resolve_inits(self, fields: list) -> None:
        """Resolve the field initializers, which see `this` and no locals."""
        inits = [f for f in fields if f.init is not None]
        roots = [f.init for f in inits]
        self.resolve(roots, set(), has_this=True)
        for f, init in zip(inits, roots):
            f.init = init

    def resolve_method(self, m: MethodDecl, has_this: bool) -> None:
        scope = set(m.params)
        _collect_locals(m.body, scope)
        m.local_names = tuple(sorted(scope - set(m.params)))
        self.resolve(m.body, scope, has_this)

    def resolve(self, roots: list, scope: set[str], has_this: bool) -> None:
        """Resolve every node under `roots` in one walk, rewriting in place."""
        # a bare name in `bare` becomes `this.name` in its parent before the
        # walk reaches it
        bare = self.fields - scope if has_this else ()
        _bind(roots, bare)
        for node in walk(roots):
            kind = type(node)
            if kind is LocalRef:
                if node.name not in scope:
                    raise CompileError(f"unresolved name {node.name!r}", node.loc)
                continue
            if kind is ThisRef:
                if not has_this:
                    raise CompileError("'this' is not available here", node.loc)
                continue
            if kind is BuiltinCall:
                if node.name not in BUILTINS:
                    raise CompileError(f"unknown function {node.name!r}", node.loc)
            elif kind is New:
                if node.class_name not in self.class_names:
                    raise CompileError(f"unknown class {node.class_name!r}", node.loc)
            if not bare:
                continue
            if kind is If:
                conds = [cond for cond, _ in node.arms]
                _bind(conds, bare)
                node.arms = [(cond, body) for cond, (_, body) in zip(conds, node.arms)]
                continue
            for name in kind.child_fields:
                child = getattr(node, name)
                if type(child) is list:
                    _bind(child, bare)
                elif type(child) is LocalRef and child.name in bare:
                    setattr(node, name, FieldGet(child.loc, ThisRef(child.loc), child.name))


def _bind(nodes: list, bare) -> None:
    """Replace each bare name in `bare` among `nodes` by `this.name`."""
    for i, node in enumerate(nodes):
        if type(node) is LocalRef and node.name in bare:
            nodes[i] = FieldGet(node.loc, ThisRef(node.loc), node.name)


def resolve_program(program: Program) -> None:
    names = set(program.by_name())
    for cls in program.classes:
        resolver = Resolver(cls, names)
        resolver.resolve_inits(cls.fields)
        for m in cls.methods:
            resolver.resolve_method(m, has_this=True)
        if cls.ctor is not None:
            resolver.resolve_method(cls.ctor, has_this=True)
        if cls.static_block is not None:
            resolver.resolve_method(cls.static_block, has_this=False)
