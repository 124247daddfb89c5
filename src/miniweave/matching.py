"""Pointcut matching, advice ordering, and the match table.

Static matching decides each `PcKind` (execution/call/get/set) and within
against the shadow; `PcBinding` (this/target), args and cflow tests are
collected into a residue that the interpreter evaluates at dispatch time.
When a call/get/set shadow's receiver class could not be resolved
statically, a concrete class segment in the pattern also becomes a residue
(a runtime `target` test).

The match table is built with kinded fast-match: `aspects.check_matchable`
guarantees every top-level disjunct an `aspects.anchor`, a positive
`PcKind`, and a shadow can only match that disjunct if its kind and member
agree with the anchor, and, when the shadow's class is known statically,
its class too. Each advice is indexed under the anchor's (kind, member,
class) per disjunct, with "*" for a wildcard member or class, so a shadow
runs the full `match` only on the advice filed under its kind, its member
or "*", and its class or "*". A shadow of unknown class gets every class's
advice, since `match` turns the class into a `target` residue. Advice
reaches the table only through the aspect parser, so there is no fallback
for an unanchored disjunct. The advice is sorted into precedence order once
per build, by `advice_sort_key` over the `precedence_ranks` map, and the
index keeps that order.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

from .aspects import (
    AdviceDecl,
    AspectDecl,
    PcAnd,
    PcArgs,
    PcBinding,
    PcCflow,
    PcKind,
    PcNot,
    PcOr,
    PcWithin,
    anchor,
)
from .joinpoints import Shadow, ShadowKind, ShadowTable
from .values import class_name_of, value_eq


class _True:
    """The empty residue: statically matched, nothing left to test."""

    def __repr__(self) -> str:
        return "TRUE"


TRUE = _True()


def match(pc, shadow: Shadow):
    """Match a pointcut against a shadow: None for no, a residue for yes.

    TRUE is the empty residue. `not` over a residue-bearing subtree yields
    a negated residue; combinators fold the three-valued outcomes.
    """
    cls = type(pc)
    if cls is PcKind:
        if shadow.kind is not pc.kind:
            return None
        if pc.member != "*" and pc.member != shadow.member:
            return None
        if pc.cls == "*":
            return TRUE
        if shadow.cls is None:
            # receiver class unknown statically: test the runtime target
            return PcBinding("target", pc.cls)
        return TRUE if pc.cls == shadow.cls else None
    if cls is PcWithin:
        return TRUE if shadow.within_cls == pc.type_name else None
    if cls in (PcBinding, PcArgs, PcCflow):
        return pc
    if cls is PcNot:
        inner = match(pc.inner, shadow)
        if inner is None:
            return TRUE
        if inner is TRUE:
            return None
        return PcNot(inner)
    if cls is PcAnd:
        residues = []
        for part in pc.parts:
            r = match(part, shadow)
            if r is None:
                return None
            if r is not TRUE:
                residues.append(r)
        if not residues:
            return TRUE
        return residues[0] if len(residues) == 1 else PcAnd(tuple(residues))
    if cls is PcOr:
        residues = []
        for part in pc.parts:
            r = match(part, shadow)
            if r is TRUE:
                return TRUE
            if r is not None:
                residues.append(r)
        if not residues:
            return None
        return residues[0] if len(residues) == 1 else PcOr(tuple(residues))
    raise TypeError(f"not a pointcut node: {pc!r}")


def render_residue(residue) -> str:
    return "" if residue is TRUE else str(residue)


# ---------------------------------------------------------------------------
# Advice ordering
# ---------------------------------------------------------------------------


def precedence_ranks(precedence: list[str]) -> dict[str, int]:
    """Aspect name -> position of its first mention in a precedence list."""
    ranks: dict[str, int] = {}
    for pos, name in enumerate(precedence):
        ranks.setdefault(name, pos)
    return ranks


def advice_sort_key(advice: AdviceDecl, ranks: dict[str, int]):
    """Total order on advice: @order value (missing sorts last), then the
    global precedence declaration (listed aspects before unlisted), then
    aspect name, then declaration index.

    `ranks` is the `precedence_ranks` map of the declaration list.
    Lexicographic keying keeps the order transitive even when @order and
    aspect-level rules disagree pairwise.
    """
    order = advice.order if advice.order is not None else inf
    pos = ranks.get(advice.aspect_name)
    if pos is None:
        return (order, 1, 0, advice.aspect_name, advice.index)
    return (order, 0, pos, advice.aspect_name, advice.index)


# ---------------------------------------------------------------------------
# Match table
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class MatchEntry:
    advice: AdviceDecl
    residue: object


@dataclass
class MatchTable:
    """Map shadow id -> advice entries in precedence order (highest first)."""

    entries: dict[int, tuple[MatchEntry, ...]]
    shadows: dict[int, Shadow]

    def at(self, sid: int) -> tuple[MatchEntry, ...]:
        return self.entries.get(sid, ())

    def pairs(self):
        for sid in self.entries:
            for entry in self.entries[sid]:
                yield self.shadows[sid], entry


def _index_advice(ordered: list[AdviceDecl]) -> dict[ShadowKind, dict[str, dict]]:
    """ShadowKind -> member or "*" -> class, "*" or None -> positions in
    `ordered`, ascending.

    Each disjunct's anchor files its advice under the anchor's member and
    class. A member's entry also holds the kind's "*" member, and a class's
    list the "*" class, so two lookups give a shadow its candidates: under
    its member, else "*", then under its class, else "*". A shadow whose
    class is unknown looks up None, which holds every class: its match may
    still pass by a `target` residue. Every disjunct has an anchor:
    `check_matchable` rejects advice with one that has none.
    """
    anchors: dict[ShadowKind, dict[str, dict[str, set[int]]]] = {}
    for pos, adv in enumerate(ordered):
        pc = adv.pointcut
        for disjunct in pc.parts if type(pc) is PcOr else (pc,):
            atom = anchor(disjunct)
            by_member = anchors.setdefault(atom.kind, {})
            by_class = by_member.setdefault(atom.member, {})
            by_class.setdefault(atom.cls, set()).add(pos)
    index: dict[ShadowKind, dict[str, dict]] = {}
    for kind, by_member in anchors.items():
        wild = by_member.get("*", {})
        index[kind] = {}
        for member, by_class in by_member.items():
            merged = {c: by_class.get(c, set()) | wild.get(c, set()) for c in {*by_class, *wild}}
            any_class = merged.get("*", set())
            lists = {c: sorted(found | any_class) for c, found in merged.items()}
            lists[None] = sorted(set().union(*merged.values()))
            index[kind][member] = lists
    return index


def build_match_table(
    aspects: list[AspectDecl], visible: ShadowTable, precedence: list[str]
) -> MatchTable:
    """Match each visible shadow against its fast-match candidates, in
    precedence order."""
    ranks = precedence_ranks(precedence)
    ordered = sorted(
        (adv for aspect in aspects for adv in aspect.advice),
        key=lambda adv: advice_sort_key(adv, ranks),
    )
    index = _index_advice(ordered)
    entries: dict[int, tuple[MatchEntry, ...]] = {}
    shadows: dict[int, Shadow] = {}
    for shadow in visible:
        shadows[shadow.sid] = shadow
        by_member = index.get(shadow.kind)
        if by_member is None:
            continue
        by_class = by_member.get(shadow.member) or by_member.get("*")
        if by_class is None:
            continue
        hits = []
        for pos in by_class.get(shadow.cls) or by_class.get("*", ()):
            adv = ordered[pos]
            residue = match(adv.pointcut, shadow)
            if residue is not None:
                hits.append(MatchEntry(adv, residue))
        if hits:
            entries[shadow.sid] = tuple(hits)
    return MatchTable(entries, shadows)


def advice_sequence_at(sid: int, table: MatchTable):
    """Runtime dispatch order at a shadow: before-advice in precedence order,
    after-advice in reverse precedence order (highest precedence last)."""
    entries = table.at(sid)
    before = tuple(e for e in entries if e.advice.kind == "before")
    after = tuple(reversed([e for e in entries if e.advice.kind == "after"]))
    return before, after


# ---------------------------------------------------------------------------
# Residue evaluation (dispatch time)
# ---------------------------------------------------------------------------


class CflowFrame:
    """One entered join point on a thread's stack, with its bindings."""

    __slots__ = ("shadow", "this_obj", "target_obj", "args")

    def __init__(self, shadow: Shadow, this_obj, target_obj, args: tuple):
        self.shadow = shadow
        self.this_obj = this_obj
        self.target_obj = target_obj
        self.args = args


def cflow_active(frames, scope_pc) -> bool:
    """True iff some entered frame on this thread matches the scope pointcut."""
    for frame in frames:
        residue = match(scope_pc, frame.shadow)
        if residue is None:
            continue
        if eval_residue(residue, frame.this_obj, frame.target_obj, frame.args, frames):
            return True
    return False


def eval_residue(residue, this_obj, target_obj, args, frames) -> bool:
    if residue is TRUE:
        return True
    cls = type(residue)
    if cls is PcBinding:
        obj = this_obj if residue.binding == "this" else target_obj
        return class_name_of(obj) == residue.type_name
    if cls is PcArgs:
        if residue.position >= len(args):
            return False
        if residue.is_wildcard:
            return True
        return value_eq(args[residue.position], residue.value)
    if cls is PcCflow:
        return cflow_active(frames, residue.inner)
    if cls is PcNot:
        return not eval_residue(residue.inner, this_obj, target_obj, args, frames)
    if cls is PcAnd:
        return all(eval_residue(p, this_obj, target_obj, args, frames) for p in residue.parts)
    if cls is PcOr:
        return any(eval_residue(p, this_obj, target_obj, args, frames) for p in residue.parts)
    raise TypeError(f"not a residue node: {residue!r}")
