"""COOL-style coordination DSAL: parser, validator, and aspect generator.

A `.cool` file declares one coordinator for a target class: selfex/mutex
method sets, condition variables, coordinator fields, and per-method
requires/on_entry/on_exit additions. The conditions and coordinator fields
are one state list, the conditions first whatever the source order; that
list numbers their slots in each target object's state row, after one busy
count per coordinated method. The transformer emits one MiniAspect whose
helpers implement a monitor protocol per target object:

    enter: acquire; while not canEnter: wait; busy+=1; on_entry; release
    exit:  acquire; busy-=1; on_exit; notify_all; release

Every generated helper and field carries full-default hide annotations and
the aspect carries @hideType, so the woven protocol adds no visible join
point shadows. Each advice carries @loc pointing back at the coordinator
clause it came from.

Coordinator code is rendered into the helpers with one renaming per scope
(see `render`): a local stays as written, a condition or coordinator field
becomes its state-row slot `st[<n>]`, and any other name becomes `t.<name>`.
No rewritten copy of the AST is built: `validate_cool` alone decides what
coordinator code may contain, before the generated aspect is woven.

The toolchain evaluates a `requires` guard only as generated MiniAspect
code; the reference model of the entry guard that tests compare the woven
protocol against lives in `tests/oracles.py`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from . import minilang as ml
from .diagnostics import CompileError, Loc, ParseError
from .lexer import EOF, NAME, PUNCT
from .render import escape_string, render_block, render_expr

# names the generated protocol code uses internally
_RESERVED_COOL = {"t", "st", "i", "entry", "this", "thisObject", "targetObject", "args", "jp"}


@dataclass
class MethodAddition:
    name: str
    requires: object | None
    on_entry: list
    on_exit: list
    loc: Loc


@dataclass
class CoordinatorDecl:
    target: str
    selfex: list[tuple[list[str], Loc]]
    mutex: list[tuple[list[str], Loc]]
    # the conditions, then the coordinator fields: (name, initializer, loc)
    state: list[tuple[str, object, Loc]]
    additions: dict[str, MethodAddition]
    loc: Loc

    def coordinated_methods(self) -> list[str]:
        """Union of selfex/mutex/addition methods in first-appearance order."""
        named = [name for group, _ in self.selfex + self.mutex for name in group]
        return list(dict.fromkeys([*named, *self.additions]))


class CoolParser(ml.MiniParser):
    def parse_coordinator(self) -> CoordinatorDecl:
        loc = self.ts.loc()
        self.ts.expect(NAME, "coordinator")
        target = self.ts.expect(NAME)
        self.ts.expect(PUNCT, "{")
        selfex: list = []
        mutex: list = []
        conditions: list = []
        fields: list = []
        additions: dict[str, MethodAddition] = {}
        while not self.ts.accept(PUNCT, "}"):
            item_loc = self.ts.loc()
            if self.ts.at_name("selfex") or self.ts.at_name("mutex"):
                sets = selfex if self.ts.advance() == "selfex" else mutex
                self.ts.expect(PUNCT, "{")
                sets.append((self.parse_list(lambda: self.ts.expect(NAME), "}"), item_loc))
                self.ts.expect(PUNCT, ";")
            elif self.ts.accept(NAME, "condition"):
                conditions.extend(self.parse_items(self.parse_state_decl, ","))
                self.ts.expect(PUNCT, ";")
            elif self.ts.accept(NAME, "var"):
                fields.append(self.parse_state_decl())
                self.ts.expect(PUNCT, ";")
            elif self.ts.at_name("requires"):
                raise ParseError("requires is only allowed inside a method addition", item_loc)
            elif self.ts.at(NAME):
                add = self.parse_addition(item_loc)
                if add.name in additions:
                    raise ParseError(f"duplicate addition for method {add.name!r}", item_loc)
                additions[add.name] = add
            else:
                raise self.ts.error("expected a coordinator clause")
        if not self.ts.at(EOF):
            raise self.ts.error("unexpected text after coordinator")
        state = conditions + fields
        seen: set[str] = set()
        for name, _, nloc in state:
            if name in seen:
                raise ParseError(f"duplicate condition/field name {name!r}", nloc)
            if name in _RESERVED_COOL:
                raise ParseError(f"{name!r} is reserved in coordinator code", nloc)
            seen.add(name)
        return CoordinatorDecl(target, selfex, mutex, state, additions, loc)

    def parse_state_decl(self) -> tuple[str, object, Loc]:
        """`name = expr` of a condition or coordinator field, with its loc."""
        loc = self.ts.loc()
        name = self.parse_decl_name()
        self.ts.expect(PUNCT, "=")
        return name, self.parse_expr(), loc

    def parse_addition(self, loc: Loc) -> MethodAddition:
        name = self.ts.expect(NAME)
        self.ts.expect(PUNCT, ":")
        requires = None
        on_entry: list = []
        on_exit: list = []
        if self.ts.accept(NAME, "requires"):
            self.ts.expect(PUNCT, "(")
            requires = self.parse_expr()
            self.ts.expect(PUNCT, ")")
            self.ts.accept(PUNCT, ";")
        if self.ts.accept(NAME, "on_entry"):
            on_entry = self.parse_block()
        if self.ts.accept(NAME, "on_exit"):
            on_exit = self.parse_block()
        return MethodAddition(name, requires, on_entry, on_exit, loc)


def parse_cool(text: str, path: str) -> CoordinatorDecl:
    """Parse a `.cool` coordinator. Raises ParseError with file:line."""
    return CoolParser(text, path).parse_coordinator()


def validate_cool(coord: CoordinatorDecl, program: ml.Program) -> None:
    """Check the coordinator against the base program at compile time."""
    cls = program.by_name().get(coord.target)
    if cls is None:
        raise CompileError(f"coordinator target class {coord.target!r} not found", coord.loc)
    named = [(name, gloc) for group, gloc in coord.selfex + coord.mutex for name in group]
    named += [(add.name, add.loc) for add in coord.additions.values()]
    for name, nloc in named:
        if cls.method(name) is None:
            raise CompileError(f"method {name!r} does not exist on {coord.target}", nloc)
    target_fields = cls.field_names()
    state = {name for name, _, _ in coord.state}
    for _, init, _ in coord.state:
        _check_cool(init, set(), set(), target_fields)
    for add in coord.additions.values():
        if add.requires is not None:
            _check_cool(add.requires, set(), state, target_fields)
        for block in (add.on_entry, add.on_exit):
            scope, _ = ml.scan_locals(block)
            for name in scope:
                if name in _RESERVED_COOL:
                    raise CompileError(f"{name!r} is reserved in coordinator code", add.loc)
            _check_cool(block, scope, state, target_fields)


# what coordinator code may contain besides names, assignments and `len`
_COOL_NODES = (
    ml.IntLit, ml.BoolLit, ml.StrLit, ml.NullLit, ml.Unary, ml.Binary, ml.ListLit, ml.Index,
    ml.VarDecl, ml.If, ml.While, ml.ExprStmt,
)


def _check_cool(roots, scope, state, target_fields) -> None:
    """Check coordinator code in one walk; the first fault in source order raises.

    Names may be locals in `scope`, fields of the target class, or the
    conditions and coordinator fields in `state`; assignments may target
    only locals and `state`. A local may not take the name of a condition
    or coordinator field: the generated code would write only the local.
    """
    for node in ml.walk(roots):
        kind = type(node)
        if kind is ml.VarDecl:
            if node.name in state:
                raise CompileError(
                    f"local {node.name!r} shadows a condition or coordinator field", node.loc
                )
        elif kind is ml.LocalRef:
            name = node.name
            if name not in scope and name not in target_fields and name not in state:
                raise CompileError(f"unknown name {name!r} in coordinator code", node.loc)
        elif kind is ml.Assign:
            if type(node.target) is not ml.LocalRef:
                raise CompileError("coordinator code can only assign to names", node.loc)
            name = node.target.name
            if name not in scope and name not in state:
                raise CompileError(
                    f"cannot assign to {name!r}: not a condition, coordinator field, or local",
                    node.loc,
                )
        elif kind is ml.Return:
            raise CompileError("return is not allowed in coordinator code", node.loc)
        elif kind is ml.BuiltinCall:
            if node.name != "len":
                msg = f"builtin {node.name!r} not allowed in coordinator code"
                raise CompileError(msg, node.loc)
        elif kind not in _COOL_NODES:
            raise CompileError("expression not allowed in coordinator code", node.loc)


# ---------------------------------------------------------------------------
# Code generation
# ---------------------------------------------------------------------------


def _mutates_state(block, index: dict[str, int]) -> bool:
    return any(
        type(node) is ml.Assign and type(node.target) is ml.LocalRef and node.target.name in index
        for node in ml.walk(block)
    )


def _renaming(index: dict[str, int], scope: tuple[str, ...]):
    """How coordinator code in `scope` writes a bare name (see module doc)."""

    def rename(name: str) -> str:
        if name in scope:
            return name
        if name in index:
            return f"st[{index[name]}]"
        return f"t.{name}"

    return rename


def clause_line(coord: CoordinatorDecl, method: str) -> int:
    """The coordinator line an advice for `method` bridges back to: its
    addition clause if present, else the first selfex/mutex set naming it."""
    add = coord.additions.get(method)
    if add is not None:
        return add.loc.line
    for group, gloc in coord.selfex + coord.mutex:
        if method in group:
            return gloc.line
    return coord.loc.line


def gen_cool_aspect(coord: CoordinatorDecl) -> str:
    """Emit the MiniAspect source implementing the coordinator protocol.

    One monitor per coordinator (an aspect field, so it exists before any
    thread runs); per-target-object state rows [busy counts..., conditions...,
    fields...] are created lazily under that monitor, which keeps the lookup
    race-free."""
    methods = coord.coordinated_methods()
    busy_index = {m: i for i, m in enumerate(methods)}
    index = {name: slot for slot, (name, _, _) in enumerate(coord.state, len(methods))}
    on_state = _renaming(index, ())
    aspect_name = f"Coord_{coord.target}"
    # escaped: both go into string literals, and the path into a one-line comment
    path = escape_string(coord.loc.path)
    module = escape_string(os.path.basename(coord.loc.path))

    init_exprs = ["0"] * len(methods) + [render_expr(init, on_state) for _, init, _ in coord.state]

    def emit_state_lookup(out: list[str]) -> None:
        out.append("    var st = null;")
        out.append("    var i = 0;")
        out.append("    while (st == null && i < len(this.states)) {")
        out.append("      var entry = this.states[i];")
        out.append("      if (entry[0] == t) {")
        out.append("        st = entry[1];")
        out.append("      }")
        out.append("      i = i + 1;")
        out.append("    }")
        out.append("    if (st == null) {")
        out.append(f"      st = [{', '.join(init_exprs)}];")
        out.append("      push_back(this.states, [t, st]);")
        out.append("    }")

    out: list[str] = []
    out.append(f"// generated by the cool transformer from {path}")
    out.append("@hideType")
    out.append(f"aspect {aspect_name} {{")
    out.append("  @hideField")
    out.append("  var states = [];")
    if methods:
        out.append("")
        out.append("  @hideField")
        out.append("  var mon = make_monitor();")
    for m in methods:
        add = coord.additions.get(m)
        out.append("")
        out.append("  @hideMethod")
        out.append(f"  def canEnter_{m}(t, st) {{")
        # m itself when a selfex set names it, then each other member of
        # each mutex set holding m, repeats kept
        blockers = [m] if any(m in group for group, _ in coord.selfex) else []
        blockers += [o for group, _ in coord.mutex if m in group for o in group if o != m]
        for blocker in blockers:
            out.append(f"    if (st[{busy_index[blocker]}] != 0) {{")
            out.append("      return false;")
            out.append("    }")
        if add is not None and add.requires is not None:
            out.append(f"    return {render_expr(add.requires, on_state)};")
        else:
            out.append("    return true;")
        out.append("  }")

        on_entry = add.on_entry if add is not None else []
        on_exit = add.on_exit if add is not None else []
        entry_scope, _ = ml.scan_locals(on_entry)
        exit_scope, _ = ml.scan_locals(on_exit)

        out.append("")
        out.append("  @hideMethod")
        out.append(f"  def enter_{m}(t) {{")
        out.append("    monitor_acquire(this.mon);")
        emit_state_lookup(out)
        out.append(f"    while (!(this.canEnter_{m}(t, st))) {{")
        out.append("      monitor_wait(this.mon);")
        out.append("    }")
        out.append(f"    st[{busy_index[m]}] = st[{busy_index[m]}] + 1;")
        out.extend(render_block(on_entry, "    ", _renaming(index, entry_scope)))
        if _mutates_state(on_entry, index):
            out.append("    monitor_notify_all(this.mon);")
        out.append("    monitor_release(this.mon);")
        out.append("  }")

        out.append("")
        out.append("  @hideMethod")
        out.append(f"  def exit_{m}(t) {{")
        out.append("    monitor_acquire(this.mon);")
        emit_state_lookup(out)
        out.append(f"    st[{busy_index[m]}] = st[{busy_index[m]}] - 1;")
        out.extend(render_block(on_exit, "    ", _renaming(index, exit_scope)))
        out.append("    monitor_notify_all(this.mon);")
        out.append("    monitor_release(this.mon);")
        out.append("  }")

    for m in methods:
        line = clause_line(coord, m)
        bridge = f'@loc(file="{path}", line={line}, module="{module}")'
        out.append("")
        out.append(f"  {bridge}")
        out.append(f"  before(): execution({coord.target}.{m}) {{")
        out.append(f"    this.enter_{m}(thisObject);")
        out.append("  }")
        out.append("")
        out.append(f"  {bridge}")
        out.append(f"  after(): execution({coord.target}.{m}) {{")
        out.append(f"    this.exit_{m}(thisObject);")
        out.append("  }")
    out.append("}")
    return "\n".join(out) + "\n"
