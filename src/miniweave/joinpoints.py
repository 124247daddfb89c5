"""Join-point shadow model: extraction from compilation units and @hide filtering.

A shadow is the static location a join point arises from. Extraction is one
loop over every class and aspect and each body that `bodies()` returns; it
walks no body itself, but reads the resolver's `shadow_nodes`, the field
gets, method calls, assignments and spawns of the body in walk order. Each
field get, method call and field set is a shadow, except the field an
assignment writes (the set is its shadow) and the call a `spawn` launches.
A body adds one more shadow by its role: a constructor its class's
initialization, a static block its static initialization, a method or an
aspect's helper its execution; an advice adds none. A class also has a
pre-initialization shadow at its first initialized field, and shadows in
its field initializers within `<init>`; an aspect's fields have neither.
The result is one table in source order. Every shadow arises at a token of
its own, so sorting by location decides each sid and the order in which
owners and bodies are read decides none. A shadow records where it arises
(`loc`), not which input produced it: a shadow in generated code is one
whose `loc.path` is a generated file.

A call, get or set shadow has a static receiver class when its receiver is
`this`, `new C(...)`, or a local the resolver gave a static class in the
body's `local_classes` (declared once as one of those, not a parameter,
never assigned); otherwise its `cls` is None, and matching turns a class
in the pattern into a `target` residue.

Hide specs (from @hideField/@hideMethod/@hideType annotations) suppress
shadows before matching; `within` suppression is positional (all shadows
lexically inside the annotated member), the other kinds suppress by
signature.

Every (spec, kind) rule is an equality test on one key of the shadow, and
one index holds them all under (head, cls, member): the shadow kind heads
(kind, cls, member) for the signature kinds, "within" heads (within_cls,
within_member) for @hideMethod(within), and "body" heads the same within
key, looked up for body kinds only, for @hideType(within_init,
within_static_init). The filter does at most three lookups per shadow. A
shadow hidden by several rules is attributed to the first spec in
declaration order and, within it, the first kind in the order written on
the annotation: each index entry keeps the smallest (spec index, kind
index), and the filter takes the smallest of its hits.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from . import minilang as ml
from .diagnostics import CompileError, Loc
from .render import render_literal


class ShadowKind(enum.Enum):
    METHOD_EXECUTION = "method_execution"
    METHOD_CALL = "method_call"
    FIELD_GET = "field_get"
    FIELD_SET = "field_set"
    PRE_INITIALIZATION = "pre_initialization"
    INITIALIZATION = "initialization"
    STATIC_INITIALIZATION = "static_initialization"

    # the members are singletons that compare by identity: hashing them by
    # identity keeps a dict lookup keyed by a kind in C, where Enum's
    # __hash__ is a Python call
    __hash__ = object.__hash__

    def __str__(self) -> str:
        return self.value


# the body kinds, each also bound to a name: reading an enum member off its
# class costs more than a global lookup, once per shadow
_BODY_KINDS = _METHOD_CALL, _FIELD_GET, _FIELD_SET = (
    ShadowKind.METHOD_CALL, ShadowKind.FIELD_GET, ShadowKind.FIELD_SET
)

# pseudo member names for initializer enclosures
INIT_MEMBER = "<init>"
PREINIT_MEMBER = "<preinit>"
STATIC_MEMBER = "<clinit>"


@dataclass(slots=True)
class Shadow:
    sid: int
    kind: ShadowKind
    cls: str | None  # None = receiver class not statically known
    member: str | None  # method/field name; None for init kinds
    arity: int | None
    within_cls: str
    within_member: str
    loc: Loc
    # the AST node the interpreter dispatches this join point from
    node: object = field(default=None, compare=False, repr=False)

    @property
    def signature(self) -> str:
        if self.kind in (ShadowKind.METHOD_EXECUTION, ShadowKind.METHOD_CALL):
            return f"{self.cls or '?'}.{self.member}/{self.arity}"
        if self.kind in (ShadowKind.FIELD_GET, ShadowKind.FIELD_SET):
            return f"{self.cls or '?'}.{self.member}"
        return str(self.cls)

    def describe(self) -> str:
        return f"{self.kind} {self.signature} @ {self.loc}"


@dataclass
class HideSpec:
    """Suppression metadata attached to one declaration."""

    target: str  # "field" | "method" | "type"
    cls: str
    member: str | None  # None for type specs
    kinds: tuple[str, ...]
    loc: Loc

    def describe(self) -> str:
        where = self.cls if self.member is None else f"{self.cls}.{self.member}"
        return f"@{_HIDE_ANN_FOR[self.target]}({', '.join(self.kinds)}) {where}"


_HIDE_DEFAULTS = {
    "field": ("set", "get"),
    "method": ("call", "execution", "within"),
    "type": ("pre_init", "init", "static_init", "within_init", "within_static_init"),
}

_HIDE_ANN_FOR = {"field": "hideField", "method": "hideMethod", "type": "hideType"}


def _shown_hide_arg(arg) -> str:
    """A positional argument by its repr; a keyword argument, a (name,
    value) pair, as the source spells it: `call=1`, `call="x"`."""
    if not isinstance(arg, tuple):
        return repr(arg)
    name, value = arg
    return f"{name}={render_literal(value)}"


def hide_spec_of(target: str, annotations, cls: str, member: str | None = None) -> HideSpec | None:
    """Build the HideSpec for one declaration, or None when no @hide is present.

    A bare annotation hides the full default kind set for its category; an
    explicit argument list hides exactly the listed kinds (an empty list
    hides nothing).
    """
    wanted = _HIDE_ANN_FOR[target]
    spec = None
    for ann in annotations:
        if ann.name != wanted:
            continue
        if spec is not None:
            raise CompileError(f"duplicate @{wanted}", ann.loc)
        if ann.args is None:
            kinds = _HIDE_DEFAULTS[target]
        else:
            for k in ann.args:
                if not isinstance(k, str) or k not in _HIDE_DEFAULTS[target]:
                    shown = _shown_hide_arg(k)
                    raise CompileError(f"unknown join point kind {shown} for @{wanted}", ann.loc)
            kinds = tuple(dict.fromkeys(ann.args))
        spec = HideSpec(target, cls, member, kinds, ann.loc)
    return spec


@dataclass
class ShadowTable:
    shadows: list[Shadow]
    suppressed: list[tuple[Shadow, HideSpec, str]] = field(default_factory=list)

    def __iter__(self):
        return iter(self.shadows)

    def __len__(self) -> int:
        return len(self.shadows)

    def diagnostics(self) -> list[str]:
        return [
            f"HIDDEN {shadow.describe()} by {spec.describe()} [{kind}]"
            for shadow, spec, kind in self.suppressed
        ]


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------


def _receiver_class(expr, self_cls: str, locals_map) -> str | None:
    """The static class of a receiver: `this`, `new C(...)`, or a local in
    `locals_map` (from `minilang.scan_locals`); else None."""
    kind = type(expr)
    if kind is ml.ThisRef:
        return self_cls
    if kind is ml.New:
        return expr.class_name
    if kind is ml.LocalRef:
        return locals_map.get(expr.name)
    return None


def _take_body(shadows: list, nodes, self_cls: str, within_member: str, locals_map) -> None:
    """Append the call, get and set shadows of one body from its `nodes`,
    the resolver's record of its gets, calls, assignments and spawns."""
    append = shadows.append
    # an assignment's target and a spawn's call are not shadows of their
    # own; each comes right after its parent
    skip = None
    for node in nodes:
        kind = type(node)
        if kind is ml.Assign:
            target = skip = node.target
            if type(target) is ml.FieldGet:
                cls = _receiver_class(target.obj, self_cls, locals_map)
                append(Shadow(0, _FIELD_SET, cls, target.name, None,
                              self_cls, within_member, target.loc, node))
        elif kind is ml.Spawn:
            # spawn is a thread-launch primitive, not a call site: only
            # the execution join point on the new thread exists
            skip = node.call
        elif node is not skip:
            cls = _receiver_class(node.obj, self_cls, locals_map)
            if kind is ml.FieldGet:
                append(Shadow(0, _FIELD_GET, cls, node.name, None,
                              self_cls, within_member, node.loc, node))
            else:
                append(Shadow(0, _METHOD_CALL, cls, node.name, len(node.args),
                              self_cls, within_member, node.loc, node))


def extract_shadows(program: ml.Program, aspects=()) -> ShadowTable:
    """Extract every join-point shadow from the resolved program and aspect
    declarations.

    Each shadow carries the node it arises from (the expression or
    statement for call/get/set, the method for execution, the class, its
    constructor or its static block for the init kinds); the AST itself is
    not modified. Iteration order of the result is source order (path,
    line, col).
    """
    K = ShadowKind
    shadows: list[Shadow] = []
    for cls in program.classes:
        name = cls.name
        initialized = [f for f in cls.fields if f.init is not None]
        if initialized:
            shadows.append(Shadow(0, K.PRE_INITIALIZATION, name, None, None,
                                  name, PREINIT_MEMBER, initialized[0].loc, cls))
        # field initializers run as part of instance initialization
        _take_body(shadows, cls.init_shadow_nodes, name, INIT_MEMBER, {})
    for owner in (*program.classes, *aspects):
        name = owner.name
        for m in owner.bodies():
            within = m.name
            if m is owner.ctor:
                within = INIT_MEMBER
                shadows.append(Shadow(0, K.INITIALIZATION, name, None, None,
                                      name, within, m.loc, m))
            elif m is owner.static_block:
                within = STATIC_MEMBER
                shadows.append(Shadow(0, K.STATIC_INITIALIZATION, name, None, None,
                                      name, within, m.loc, m))
            elif type(m) is ml.MethodDecl:  # not an advice, a subclass with no execution
                shadows.append(Shadow(0, K.METHOD_EXECUTION, name, m.name, len(m.params),
                                      name, within, m.loc, m))
            _take_body(shadows, m.shadow_nodes, name, within, dict(m.local_classes))
    shadows.sort(key=lambda s: (s.loc.path, s.loc.line, s.loc.col))
    for sid, shadow in enumerate(shadows):
        shadow.sid = sid
    return ShadowTable(shadows)


# ---------------------------------------------------------------------------
# Hide specs
# ---------------------------------------------------------------------------


def collect_hide_specs(program: ml.Program, aspects=()) -> list[HideSpec]:
    """Gather the HideSpecs of every declaration, in declaration order: per
    class or aspect its type, fields and bodies (an aspect's helpers, then
    its advice). The parsers have already placed each annotation."""
    found = []
    for owner in (*program.classes, *aspects):
        name = owner.name
        found.append(hide_spec_of("type", owner.annotations, name))
        found += [hide_spec_of("field", f.annotations, name, f.name) for f in owner.fields]
        found += [hide_spec_of("method", m.annotations, name, m.name) for m in owner.bodies()]
    return [spec for spec in found if spec is not None]


# (spec target, kind) -> the head of the index key a rule is filed under,
# and the member of that key when it is not the spec's own
_RULE_KEYS = {
    ("method", "execution"): (ShadowKind.METHOD_EXECUTION, None),
    # signature-based: only call sites whose receiver class resolved
    ("method", "call"): (ShadowKind.METHOD_CALL, None),
    ("method", "within"): ("within", None),
    ("field", "get"): (ShadowKind.FIELD_GET, None),
    ("field", "set"): (ShadowKind.FIELD_SET, None),
    ("type", "pre_init"): (ShadowKind.PRE_INITIALIZATION, None),
    ("type", "init"): (ShadowKind.INITIALIZATION, None),
    ("type", "static_init"): (ShadowKind.STATIC_INITIALIZATION, None),
    ("type", "within_init"): ("body", INIT_MEMBER),
    ("type", "within_static_init"): ("body", STATIC_MEMBER),
}


def _hide_index(specs: list[HideSpec]) -> dict[tuple, tuple[int, int]]:
    """Index every (spec, kind) rule under the one key it tests for equality,
    (head, cls, member) as the module docstring sets out; each key keeps the
    smallest (spec index, kind index) that hides it."""
    index: dict[tuple, tuple[int, int]] = {}
    for i, spec in enumerate(specs):
        for j, kind in enumerate(spec.kinds):
            head, member = _RULE_KEYS[spec.target, kind]
            index.setdefault((head, spec.cls, member or spec.member), (i, j))
    return index


def apply_hide_filter(table: ShadowTable, specs: list[HideSpec]) -> ShadowTable:
    """Return the table minus suppressed shadows.

    Each suppressed shadow is attributed to exactly one (spec, kind) pair:
    the first match in spec declaration order, kinds in the order listed on
    the annotation (see the module docstring for the index that finds it).
    No specs returns a copy of the input.
    """
    if not specs:
        return ShadowTable(list(table.shadows))
    get = _hide_index(specs).get
    visible: list[Shadow] = []
    suppressed: list[tuple[Shadow, HideSpec, str]] = []
    for shadow in table.shadows:
        kind, cls, member = shadow.kind, shadow.within_cls, shadow.within_member
        hits = [get((kind, shadow.cls, shadow.member)), get(("within", cls, member))]
        if kind in _BODY_KINDS:
            hits.append(get(("body", cls, member)))
        hit = min((h for h in hits if h is not None), default=None)
        if hit is None:
            visible.append(shadow)
        else:
            spec = specs[hit[0]]
            suppressed.append((shadow, spec, spec.kinds[hit[1]]))
    return ShadowTable(visible, suppressed)
