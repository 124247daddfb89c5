"""Join-point shadow model: extraction from compilation units and @hide filtering.

A shadow is the static location a join point arises from. Extraction
reads each body of the resolved base program and the aspect declarations
from its `shadow_nodes`, the field gets, method calls, assignments and
spawns the resolver recorded in walk order, and walks no body itself: each
field get, method call and field set is a shadow, except the field an
assignment writes (the set is its shadow) and the call a `spawn` launches.
Method executions and the init kinds come from the declarations; an
aspect's helpers are its methods, and each advice body is one more body.
The result is one table in source order. A shadow records where it arises
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

Every (spec, kind) rule is an equality test on one key of the shadow:
(kind, cls, member) for the signature kinds, (within_cls, within_member)
for @hideMethod(within), and the same within key, for body kinds only, for
@hideType(within_init, within_static_init). The filter builds one dict per
key form and does at most three lookups per shadow. A shadow hidden by
several rules is attributed to the first spec in declaration order and,
within it, the first kind in the order written on the annotation: each
dict entry keeps the smallest (spec index, kind index), and the filter
takes the smallest of its hits.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from . import minilang as ml
from .diagnostics import CompileError, Loc


class ShadowKind(enum.Enum):
    METHOD_EXECUTION = "method_execution"
    METHOD_CALL = "method_call"
    FIELD_GET = "field_get"
    FIELD_SET = "field_set"
    PRE_INITIALIZATION = "pre_initialization"
    INITIALIZATION = "initialization"
    STATIC_INITIALIZATION = "static_initialization"

    def __str__(self) -> str:
        return self.value


_BODY_KINDS = (ShadowKind.METHOD_CALL, ShadowKind.FIELD_GET, ShadowKind.FIELD_SET)

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
        tag = {"field": "@hideField", "method": "@hideMethod", "type": "@hideType"}[self.target]
        where = self.cls if self.member is None else f"{self.cls}.{self.member}"
        return f"{tag}({', '.join(self.kinds)}) {where}"


_HIDE_DEFAULTS = {
    "field": ("set", "get"),
    "method": ("call", "execution", "within"),
    "type": ("pre_init", "init", "static_init", "within_init", "within_static_init"),
}

_HIDE_ANN_FOR = {"field": "hideField", "method": "hideMethod", "type": "hideType"}


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
                    raise CompileError(
                        f"unknown join point kind {k!r} for @{wanted}", ann.loc
                    )
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


class _Extractor:
    def __init__(self):
        self.shadows: list[Shadow] = []

    def add(self, kind, loc, node, cls, member, arity, within_cls, within_member) -> None:
        # sid 0 until `finish` numbers the shadows
        self.shadows.append(
            Shadow(0, kind, cls, member, arity, within_cls, within_member, loc, node)
        )

    def take_body(self, nodes, self_cls: str, within_member: str, locals_map) -> None:
        """Add the call, get and set shadows of one body from its `nodes`,
        the resolver's record of its gets, calls, assignments and spawns."""
        add = self.add
        # an assignment's target and a spawn's call are not shadows of their
        # own; each comes right after its parent
        skip = None
        for node in nodes:
            kind = type(node)
            if kind is ml.Assign:
                target = skip = node.target
                if type(target) is ml.FieldGet:
                    cls = _receiver_class(target.obj, self_cls, locals_map)
                    add(ShadowKind.FIELD_SET, target.loc, node, cls, target.name, None,
                        self_cls, within_member)
            elif kind is ml.Spawn:
                # spawn is a thread-launch primitive, not a call site: only
                # the execution join point on the new thread exists
                skip = node.call
            elif node is not skip:
                cls = _receiver_class(node.obj, self_cls, locals_map)
                if kind is ml.FieldGet:
                    add(ShadowKind.FIELD_GET, node.loc, node, cls, node.name, None,
                        self_cls, within_member)
                else:
                    add(ShadowKind.METHOD_CALL, node.loc, node, cls, node.name, len(node.args),
                        self_cls, within_member)

    def take_method(self, m, self_cls: str, within_member: str) -> None:
        self.take_body(m.shadow_nodes, self_cls, within_member, dict(m.local_classes))

    def take_class(self, cls: ml.ClassDecl) -> None:
        # init-kind shadows exist only where their span does: a field-initializer
        # span, a constructor body, a static block
        initialized = [f for f in cls.fields if f.init is not None]
        if initialized:
            self.add(ShadowKind.PRE_INITIALIZATION, initialized[0].loc, cls,
                     cls.name, None, None, cls.name, PREINIT_MEMBER)
        if cls.ctor is not None:
            self.add(ShadowKind.INITIALIZATION, cls.ctor.loc, cls.ctor,
                     cls.name, None, None, cls.name, INIT_MEMBER)
        if cls.static_block is not None:
            self.add(ShadowKind.STATIC_INITIALIZATION, cls.static_block.loc, cls.static_block,
                     cls.name, None, None, cls.name, STATIC_MEMBER)
        # field initializers are evaluated as part of instance initialization,
        # so their shadows sit within <init> (same as constructor-body shadows)
        self.take_body(cls.init_shadow_nodes, cls.name, INIT_MEMBER, {})
        if cls.ctor is not None:
            self.take_method(cls.ctor, cls.name, INIT_MEMBER)
        if cls.static_block is not None:
            self.take_method(cls.static_block, cls.name, STATIC_MEMBER)
        self.take_methods(cls, cls.methods)

    def take_aspect(self, aspect) -> None:
        # aspect fields are initialized by the runtime outside any join point
        # span; their initializer expressions yield no shadows
        self.take_methods(aspect, aspect.methods)
        for adv in aspect.advice:
            self.take_method(adv, aspect.name, adv.name)

    def take_methods(self, owner, methods) -> None:
        """Add each method's execution shadow, then its body shadows."""
        for m in methods:
            self.add(ShadowKind.METHOD_EXECUTION, m.loc, m,
                     owner.name, m.name, len(m.params), owner.name, m.name)
            self.take_method(m, owner.name, m.name)

    def finish(self) -> ShadowTable:
        """Number the shadows in source order; the sort is stable, so shadows
        at one location keep the order they were added in."""
        shadows = self.shadows
        shadows.sort(key=lambda s: (s.loc.path, s.loc.line, s.loc.col))
        for sid, shadow in enumerate(shadows):
            shadow.sid = sid
        return ShadowTable(shadows)


def extract_shadows(program: ml.Program, aspects=()) -> ShadowTable:
    """Extract every join-point shadow from the resolved program and aspect
    declarations.

    Each shadow carries the node it arises from (the expression or
    statement for call/get/set, the method for execution, the class, its
    constructor or its static block for the init kinds); the AST itself is
    not modified. Iteration order of the result is source order (path,
    line, col).
    """
    ex = _Extractor()
    for cls in program.classes:
        ex.take_class(cls)
    for aspect in aspects:
        ex.take_aspect(aspect)
    return ex.finish()


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


# (spec target, kind) -> the shadow kind a signature rule hides; the key is
# (shadow kind, cls, member), with member None for the type kinds
_SIGNATURE_RULES = {
    ("method", "execution"): ShadowKind.METHOD_EXECUTION,
    # signature-based: only call sites whose receiver class resolved
    ("method", "call"): ShadowKind.METHOD_CALL,
    ("field", "get"): ShadowKind.FIELD_GET,
    ("field", "set"): ShadowKind.FIELD_SET,
    ("type", "pre_init"): ShadowKind.PRE_INITIALIZATION,
    ("type", "init"): ShadowKind.INITIALIZATION,
    ("type", "static_init"): ShadowKind.STATIC_INITIALIZATION,
}

# (spec target, kind) -> the enclosing member a type spec hides the body
# shadows of; the key is (within_cls, within_member)
_BODY_WITHIN_RULES = {
    ("type", "within_init"): INIT_MEMBER,
    ("type", "within_static_init"): STATIC_MEMBER,
}


def _hide_index(specs: list[HideSpec]):
    """Index every (spec, kind) rule under the one key it tests for equality.

    Returns three dicts: (kind, cls, member) for signature rules,
    (within_cls, within_member) for @hideMethod(within), and the same key
    for the type-level within rules, which hide body kinds only. Each key
    keeps the smallest (spec index, kind index) that hides it.
    """
    by_signature: dict[tuple, tuple[int, int]] = {}
    by_within: dict[tuple, tuple[int, int]] = {}
    by_body_within: dict[tuple, tuple[int, int]] = {}
    for i, spec in enumerate(specs):
        for j, kind in enumerate(spec.kinds):
            rule = (spec.target, kind)
            if rule in _SIGNATURE_RULES:
                by_signature.setdefault((_SIGNATURE_RULES[rule], spec.cls, spec.member), (i, j))
            elif rule == ("method", "within"):
                by_within.setdefault((spec.cls, spec.member), (i, j))
            elif rule in _BODY_WITHIN_RULES:
                by_body_within.setdefault((spec.cls, _BODY_WITHIN_RULES[rule]), (i, j))
    return by_signature, by_within, by_body_within


def apply_hide_filter(table: ShadowTable, specs: list[HideSpec]) -> ShadowTable:
    """Return the table minus suppressed shadows.

    Each suppressed shadow is attributed to exactly one (spec, kind) pair:
    the first match in spec declaration order, kinds in the order listed on
    the annotation (see the module docstring for the index that finds it).
    No specs returns a copy of the input.
    """
    if not specs:
        return ShadowTable(list(table.shadows))
    by_signature, by_within, by_body_within = _hide_index(specs)
    visible: list[Shadow] = []
    suppressed: list[tuple[Shadow, HideSpec, str]] = []
    for shadow in table.shadows:
        within = (shadow.within_cls, shadow.within_member)
        hits = [by_signature.get((shadow.kind, shadow.cls, shadow.member)), by_within.get(within)]
        if shadow.kind in _BODY_KINDS:
            hits.append(by_body_within.get(within))
        hit = min((h for h in hits if h is not None), default=None)
        if hit is None:
            visible.append(shadow)
        else:
            spec = specs[hit[0]]
            suppressed.append((shadow, spec, spec.kinds[hit[1]]))
    return ShadowTable(visible, suppressed)
