"""MiniLang front-end: AST, parser, and the identifier-resolution pass.

MiniLang is a small dynamically typed class language (`.ml0`). A program
is a set of classes; each class has fields with optional initializers, an
optional constructor, an optional static block, and methods. Statements
are var/assign/if/while/return/expression; expressions cover literals,
lists, `new`, member access, method calls, `spawn`, and a fixed set of
builtins. Declarations may carry `@hideField` / `@hideMethod` /
`@hideType` annotations; the parser rejects one on the wrong declaration.

Every node class names its child fields in `child_fields`, and `walk`
yields the nodes under a body in source order from an explicit stack; the
resolver here and the COOL checker each make one such walk per body instead
of spelling out the AST in their own recursion. The resolver's walk also
records each body's `shadow_nodes` (its field gets, method calls,
assignments and spawns, in walk order) and whether it names `jp`, so shadow
extraction and advice dispatch never walk a body again. An
`if` with its `else if` chain is one `If` node holding a list of
(cond, body) arms.

`MiniParser` is recursive descent over `lexer.tokenize`'s tokens; the
aspect, COOL and audit parsers subclass it. One loop, `parse_members`,
reads the members of every class and aspect: `var` is a field, `def` a
method (an aspect's helper), each name declared once, and any other word
goes to `parse_member`: a constructor or static block here, advice or
`precedence` in the aspect parser. A field is a `VarDecl`, read by
`parse_var` as a `var` statement is, with its annotations: a field is a
`var` of its class, as an aspect is a class and an advice a method. One
list rule serves every front-end: `parse_list` reads zero or more
comma-separated items and the closing punctuation (arguments, parameters,
list literals, annotation arguments, COOL method sets), and `parse_items`
one or more items with any separator (`precedence` names, COOL conditions,
the pointcut `||` and `&&` chains).
`resolve_program` resolves classes and aspects alike, each over its
`bodies()`. Binary expressions are parsed by precedence climbing over
`_BINARY_PREC` (`||` < `&&` < `== !=` < `< <= > >=` < `+ -` < `* / %`, all
left-associative), so a chain of operators costs a loop, not a Python frame
per operand, and so does an `else if` chain. Nesting of parentheses, prefix
operators, brackets, argument lists and blocks is bounded by `MAX_NESTING`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import lexer
from .diagnostics import CompileError, Loc, ParseError
from .lexer import EOF, FLOAT, INT, NAME, PUNCT, STRING

# the builtins by name, each with its argument count; `format` takes a
# template and any number of values
BUILTINS = {
    "print": 1, "len": 1, "push_back": 2, "format": None, "audit_emit": 1, "make_monitor": 0,
    "monitor_acquire": 1, "monitor_release": 1, "monitor_wait": 1, "monitor_notify_all": 1,
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


@dataclass(slots=True)
class Annotation:
    name: str
    args: list
    loc: Loc


@dataclass(slots=True)
class Node:
    loc: Loc

    # the fields holding child nodes, in source order; each holds a node,
    # None, or a list (or tuple) of them, possibly nested. This table is the
    # one place the AST's shape is spelled out: `walk` follows it.
    child_fields = ()


# -- expressions


@dataclass(slots=True)
class IntLit(Node):
    value: int


@dataclass(slots=True)
class BoolLit(Node):
    value: bool


@dataclass(slots=True)
class StrLit(Node):
    value: str


@dataclass(slots=True)
class NullLit(Node):
    value = None  # so null reads as the literals do


@dataclass(slots=True)
class ListLit(Node):
    items: list

    child_fields = ("items",)


@dataclass(slots=True)
class ThisRef(Node):
    pass


@dataclass(slots=True)
class LocalRef(Node):
    name: str


@dataclass(slots=True)
class FieldGet(Node):
    obj: Node
    name: str

    child_fields = ("obj",)


@dataclass(slots=True)
class Index(Node):
    obj: Node
    index: Node

    child_fields = ("obj", "index")


@dataclass(slots=True)
class MethodCall(Node):
    obj: Node
    name: str
    args: list

    child_fields = ("obj", "args")


@dataclass(slots=True)
class BuiltinCall(Node):
    name: str
    args: list

    child_fields = ("args",)


@dataclass(slots=True)
class New(Node):
    class_name: str
    args: list

    child_fields = ("args",)


@dataclass(slots=True)
class Spawn(Node):
    call: MethodCall

    child_fields = ("call",)


@dataclass(slots=True)
class Unary(Node):
    op: str
    operand: Node

    child_fields = ("operand",)


@dataclass(slots=True)
class Binary(Node):
    op: str
    left: Node
    right: Node

    child_fields = ("left", "right")


# -- statements


@dataclass(slots=True)
class VarDecl(Node):
    """A `var` statement, or a field: the `var` of a class or aspect."""

    name: str
    init: Node | None
    annotations: list[Annotation] | tuple = ()  # a field's `@hideField`s

    child_fields = ("init",)


@dataclass(slots=True)
class Assign(Node):
    target: Node  # LocalRef | FieldGet | Index
    value: Node

    child_fields = ("target", "value")


@dataclass(slots=True)
class If(Node):
    arms: list  # [(cond, body)]: `if` and each `else if`, tried in order
    orelse: list

    child_fields = ("arms", "orelse")


@dataclass(slots=True)
class While(Node):
    cond: Node
    body: list

    child_fields = ("cond", "body")


@dataclass(slots=True)
class Return(Node):
    value: Node | None

    child_fields = ("value",)


@dataclass(slots=True)
class ExprStmt(Node):
    expr: Node

    child_fields = ("expr",)


# -- declarations


@dataclass(slots=True)
class MethodDecl:
    name: str
    params: list[str]
    body: list
    annotations: list[Annotation]
    loc: Loc
    # filled in by resolution (`scan_locals`): the function-scoped locals,
    # which the interpreter hoists to null so a var declared in one branch
    # reads as null elsewhere, and a (local, class) pair for each local with
    # a static class
    local_names: tuple[str, ...] = ()
    local_classes: tuple[tuple[str, str], ...] = ()
    # also filled in by resolution (`_resolve`): the body's join-point nodes
    # in walk order, and whether the body names `jp`
    shadow_nodes: list | tuple = ()
    names_jp: bool = False


@dataclass(slots=True)
class ClassDecl:
    name: str
    fields: list[VarDecl]
    methods: list[MethodDecl]
    ctor: MethodDecl | None
    static_block: MethodDecl | None
    annotations: list[Annotation]
    loc: Loc
    # the field initializers' join-point nodes, filled in by resolution
    init_shadow_nodes: list | tuple = ()
    # each of `methods` by name, filled in by `MiniParser.parse_members`
    method_index: dict[str, MethodDecl] = field(default_factory=dict, repr=False, compare=False)

    def field_names(self) -> set[str]:
        return {f.name for f in self.fields}

    def method(self, name: str) -> MethodDecl | None:
        return self.method_index.get(name)

    def bodies(self) -> list[MethodDecl]:
        """The methods, then the constructor and static block when present."""
        return [*self.methods, *(m for m in (self.ctor, self.static_block) if m is not None)]


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
# here, and the passes that still recurse by nesting (rendering, the
# interpreter) take more, so the limit keeps them well inside Python's
# default recursion limit. Operator and `else if` chains are not nesting:
# the parser loops over them and `walk` needs no frames for them.
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
        self.ts = lexer.tokenize(text, path)
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

    def parse_list(self, item, close: str) -> list:
        """Zero or more of `item` separated by commas, then the `close` punctuation."""
        items = [] if self.ts.at_punct(close) else self.parse_items(item, ",")
        self.ts.expect(PUNCT, close)
        return items

    def parse_items(self, item, sep: str) -> list:
        """One or more of `item` separated by the `sep` punctuation."""
        items = [item()]
        while self.ts.accept(PUNCT, sep):
            items.append(item())
        return items

    # -- annotations

    def parse_annotations(self) -> list[Annotation]:
        anns = []
        while self.ts.at_punct("@"):
            loc = self.ts.loc()
            self.ts.advance()
            name = self.ts.expect(NAME)
            args = None  # bare annotation: defaults apply
            if self.ts.accept(PUNCT, "("):
                args = self.parse_list(self.parse_annotation_arg, ")")
            anns.append(Annotation(name, args, loc))
        return anns

    def parse_annotation_arg(self):
        loc = self.ts.loc()
        if self.ts.at(NAME):
            name = self.ts.advance()
            if self.ts.accept(PUNCT, "="):
                return (name, self.parse_annotation_value())
            return name
        return self.parse_annotation_value()

    def parse_annotation_value(self):
        neg = self.ts.accept(PUNCT, "-")
        kind = self.ts.kind
        if kind == INT:
            value = self.ts.expect_int()
            return -value if neg else value
        if kind == FLOAT:
            value = float(self.ts.advance())
            return -value if neg else value
        if neg:
            raise self.ts.error("expected a number after '-'")
        if kind == STRING:
            return self.ts.advance()
        raise self.ts.error("bad annotation argument")

    def check_annotations(self, anns: list[Annotation], allowed, what: str) -> None:
        """Reject the first annotation on `what` (say, "a field") not in `allowed`."""
        for ann in anns:
            if ann.name not in allowed:
                raise ParseError(f"annotation @{ann.name} is not allowed on {what}", ann.loc)

    # -- declarations

    def parse_program(self) -> Program:
        classes = []
        while not self.ts.at(EOF):
            anns = self.parse_annotations()
            if not self.ts.at_name("class"):
                raise self.ts.error("expected 'class'")
            classes.append(self.parse_class(anns))
        return Program(classes)

    def parse_class(self, anns: list[Annotation]) -> ClassDecl:
        loc = self.ts.loc()
        self.ts.expect(NAME, "class")
        name = self.parse_decl_name()
        self.check_annotations(anns, ("hideType",), "a class")
        return self.parse_members(ClassDecl(name, [], [], None, None, anns, loc))

    def parse_members(self, owner: ClassDecl) -> ClassDecl:
        """Read the `{ ... }` of the class or aspect `owner` into it and
        return it: fields and methods here, any other member by
        `parse_member`. A field or method name is declared once."""
        self.ts.expect(PUNCT, "{")
        while not self.ts.accept(PUNCT, "}"):
            anns = self.parse_annotations()
            if self.ts.at_name("var"):
                self.check_annotations(anns, ("hideField",), "a field")
                owner.fields.append(self.parse_var(anns))
            elif self.ts.at_name("def"):
                m = self.parse_method(anns)
                if owner.method_index.setdefault(m.name, m) is not m:
                    raise ParseError(f"duplicate method {owner.name}.{m.name!r}", m.loc)
                owner.methods.append(m)
            else:
                self.parse_member(owner, anns)
        first: dict[str, VarDecl] = {}
        for f in owner.fields:
            if first.setdefault(f.name, f) is not f:
                raise ParseError(f"duplicate field {owner.name}.{f.name!r}", f.loc)
        return owner

    def parse_member(self, owner: ClassDecl, anns: list[Annotation]) -> None:
        """A class's constructor or static block; the aspect parser
        overrides this for advice and `precedence`."""
        loc = self.ts.loc()
        if self.ts.at_name("constructor"):
            if anns:
                raise ParseError("annotations are not allowed on constructors", loc)
            if owner.ctor is not None:
                raise ParseError("duplicate constructor", loc)
            self.ts.advance()
            params = self.parse_params()
            owner.ctor = MethodDecl("constructor", params, self.parse_block(), [], loc)
        elif self.ts.at_name("static"):
            if anns:
                raise ParseError("annotations are not allowed on static blocks", loc)
            if owner.static_block is not None:
                raise ParseError("duplicate static block", loc)
            self.ts.advance()
            owner.static_block = MethodDecl("static", [], self.parse_block(), [], loc)
        else:
            raise self.ts.error("expected a field, method, constructor, or static block")

    def parse_decl_name(self) -> str:
        ts = self.ts
        if ts.kind == NAME and ts.text in RESERVED:
            raise ts.error(f"{ts.text!r} is a reserved word")
        return ts.expect(NAME)

    def parse_var(self, anns=()) -> VarDecl:
        """A `var` statement; a field is one with its annotations `anns`."""
        loc = self.ts.loc()
        self.ts.expect(NAME, "var")
        name = self.parse_decl_name()
        init = self.parse_expr() if self.ts.accept(PUNCT, "=") else None
        self.ts.expect(PUNCT, ";")
        return VarDecl(loc, name, init, anns)

    def parse_method(self, anns: list[Annotation]) -> MethodDecl:
        self.check_annotations(anns, ("hideMethod",), "a method")
        loc = self.ts.loc()
        self.ts.expect(NAME, "def")
        name = self.parse_decl_name()
        params = self.parse_params()
        body = self.parse_block()
        return MethodDecl(name, params, body, anns, loc)

    def parse_params(self) -> list[str]:
        self.ts.expect(PUNCT, "(")
        params = self.parse_list(self.parse_decl_name, ")")
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
        if self.ts.at_name("var"):
            return self.parse_var()
        loc = self.ts.loc()
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
            prec = _BINARY_PREC.get(ts.text, 0) if ts.kind == PUNCT else 0
            if prec <= min_prec:
                return left
            loc = ts.loc()
            op = ts.advance()
            right = self.parse_expr(prec)
            left = Binary(loc, op, left, right)

    def parse_unary(self) -> Node:
        ts = self.ts
        if ts.kind == PUNCT and (ts.text == "!" or ts.text == "-"):
            loc = ts.loc()
            op = ts.advance()
            return Unary(loc, op, self.nested(self.parse_unary))
        return self.parse_postfix()

    def parse_postfix(self) -> Node:
        expr = self.parse_primary()
        while True:
            if self.ts.accept(PUNCT, "."):
                loc = self.ts.loc()
                name = self.ts.expect(NAME)
                if self.ts.accept(PUNCT, "("):
                    expr = MethodCall(loc, expr, name, self.parse_list(self.parse_arg, ")"))
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

    def parse_arg(self) -> Node:
        """An argument or list item: an expression one nesting level deeper."""
        return self.nested(self.parse_expr)

    def parse_primary(self) -> Node:
        ts = self.ts
        if ts.at_punct("("):
            ts.advance()
            expr = self.nested(self.parse_expr)
            ts.expect(PUNCT, ")")
            return expr
        loc = ts.loc()
        kind = ts.kind
        if kind == INT:
            return IntLit(loc, ts.expect_int())
        if kind == FLOAT:
            raise ts.error("float literals are not part of the language")
        if kind == STRING:
            return StrLit(loc, ts.advance())
        if kind == NAME:
            word = ts.advance()
            if word == "true":
                return BoolLit(loc, True)
            if word == "false":
                return BoolLit(loc, False)
            if word == "null":
                return NullLit(loc)
            if word == "this":
                return ThisRef(loc)
            if word == "new":
                cls = ts.expect(NAME)
                ts.expect(PUNCT, "(")
                return New(loc, cls, self.parse_list(self.parse_arg, ")"))
            if word == "spawn":
                call = self.nested(self.parse_postfix)
                if not isinstance(call, MethodCall):
                    raise ParseError("spawn expects a method call", loc)
                return Spawn(loc, call)
            if ts.accept(PUNCT, "("):
                return BuiltinCall(loc, word, self.parse_list(self.parse_arg, ")"))
            return LocalRef(loc, word)
        if ts.accept(PUNCT, "["):
            return ListLit(loc, self.parse_list(self.parse_arg, "]"))
        raise self.ts.error("expected an expression")


def parse_base(text: str, path: str) -> Program:
    """Parse MiniLang source into a Program. Raises ParseError with file:line."""
    parser = MiniParser(text, path)
    return parser.parse_program()


# ---------------------------------------------------------------------------
# Resolution
# ---------------------------------------------------------------------------


def scan_locals(body: list, params=(), self_cls: str | None = None):
    """The locals a body declares and the static class of each that has one.

    One scan over the statements of `body`, nested blocks included (a `var`
    or an assignment to a local is always a statement). Returns the
    function-scoped locals that are not `params`, sorted, and a (local,
    class) pair for each local with a static class. A local has one when it
    is declared once, as `var x = new C(...)` (class C) or `var x = this`
    (class `self_cls`), is not a parameter, and is never assigned.
    """
    inits: dict[str, object] = {}  # local -> its one declaration's init; None if declared twice
    assigned: set[str] = set()
    blocks = [body]
    while blocks:
        for stmt in blocks.pop():
            kind = type(stmt)
            if kind is VarDecl:
                inits[stmt.name] = None if stmt.name in inits else stmt.init
            elif kind is Assign:
                if type(stmt.target) is LocalRef:
                    assigned.add(stmt.target.name)
            elif kind is If:
                blocks.extend(block for _, block in stmt.arms)
                blocks.append(stmt.orelse)
            elif kind is While:
                blocks.append(stmt.body)
    classes = []
    for name, init in inits.items():
        if name in assigned or name in params:
            continue
        if type(init) is New:
            classes.append((name, init.class_name))
        elif type(init) is ThisRef:
            classes.append((name, self_cls))
    names = tuple(sorted(name for name in inits if name not in params))
    return names, tuple(classes)


def resolve_owner(owner: ClassDecl, class_names: set[str]) -> None:
    """Resolve every body of the class or aspect `owner`, rewriting in place.

    `owner`'s field initializers see `this` and no locals; then each of
    `owner.bodies()` gets its `local_names` and `local_classes` from
    `scan_locals` and is resolved. A bare name in a body resolves to a
    parameter or local first, then to a field of `owner` (rewritten to an
    implicit `this.name` access). Anything else is a compile error, and the
    first one met is raised. Bodies are function-scoped: a `var` anywhere in
    a body introduces the name for the whole body. Only the static block
    has no `this`.
    """
    fields = owner.field_names()
    inits = [f for f in owner.fields if f.init is not None]
    roots = [f.init for f in inits]
    owner.init_shadow_nodes, _ = _resolve(roots, set(), fields, True, class_names)
    for f, init in zip(inits, roots):
        f.init = init
    for m in owner.bodies():
        m.local_names, m.local_classes = scan_locals(m.body, m.params, owner.name)
        scope = {*m.params, *m.local_names}
        has_this = m is not owner.static_block
        bare = fields - scope if has_this else ()
        m.shadow_nodes, m.names_jp = _resolve(m.body, scope, bare, has_this, class_names)


# the nodes a body's call, get and set shadows arise from (see joinpoints)
_SHADOW_NODES = {FieldGet, MethodCall, Assign, Spawn}


def _resolve(roots: list, scope: set[str], bare, has_this: bool, class_names):
    """Resolve every node under `roots` in one walk, rewriting in place; a
    bare name in `bare` becomes `this.name` in its parent before the walk
    reaches it. Returns the resolved nodes of `_SHADOW_NODES` kinds, in walk
    order, and whether a name `jp` is read."""
    _bind(roots, bare)
    shadow_nodes = []
    names_jp = False
    for node in walk(roots):
        kind = type(node)
        if kind is LocalRef:
            if node.name not in scope:
                raise CompileError(f"unresolved name {node.name!r}", node.loc)
            names_jp = names_jp or node.name == "jp"
            continue
        if kind in _SHADOW_NODES:
            shadow_nodes.append(node)
        if kind is ThisRef:
            if not has_this:
                raise CompileError("'this' is not available here", node.loc)
            continue
        if kind is BuiltinCall:
            if node.name not in BUILTINS:
                raise CompileError(f"unknown function {node.name!r}", node.loc)
        elif kind is New:
            if node.class_name not in class_names:
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
    return shadow_nodes or (), names_jp


def _bind(nodes: list, bare) -> None:
    """Replace each bare name in `bare` among `nodes` by `this.name`."""
    for i, node in enumerate(nodes):
        if type(node) is LocalRef and node.name in bare:
            nodes[i] = FieldGet(node.loc, ThisRef(node.loc), node.name)


def resolve_program(program: Program, aspects=()) -> None:
    """Resolve every class of `program`, then each aspect of `aspects`;
    `new` names a class of `program`."""
    names = set(program.by_name())
    for owner in (*program.classes, *aspects):
        resolve_owner(owner, names)
