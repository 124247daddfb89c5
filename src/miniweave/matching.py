"""Pointcut matching, advice ordering, and the match table.

Static matching decides each `PcKind` (execution/call/get/set) and within
against the shadow; `PcBinding` (this/target), args and cflow tests are
collected into a residue that the interpreter evaluates at dispatch time.
The empty residue, a static match with nothing left to test, is `TRUE`, the
empty conjunction `PcAnd(())`: it holds, and its text is "".
When a call/get/set shadow's receiver class could not be resolved
statically, a concrete class segment in the pattern also becomes a residue
(a runtime `target` test).

One index, built by `_candidates`, decides which pointcuts a shadow may
match, for advice in `build_match_table` and for cflow scopes in
`scope_membership`. A disjunct can only match a shadow whose kind and
member agree with its anchor (`aspects.anchor`, a positive `PcKind`) and,
when the shadow's class is known statically, whose class does too; so each
disjunct is filed under its anchor's kind, member and class, with "*"
folded in, and a shadow runs the full `match` only on the pointcuts filed
under it. A shadow of unknown class gets every class's, since `match` turns
the class into a `target` residue. `aspects.check_matchable` gives every
advice disjunct an anchor; a scope's may have none, and is then filed
under a `within` type it needs, else under every shadow. The advice is
sorted into precedence order once per build, by `advice_sort_key` over the
`precedence_ranks` map, and the index keeps that order.

Cflow is decided by counters, not by walking frames. At weave time
`number_scopes` numbers the distinct `cflow(P)` scopes that the table's
residues can reach, nested ones included, and `scope_membership` records
for each visible shadow the scopes it enters: statically where
`match(P, shadow)` is TRUE, else with the residue that match leaves. At run
time each thread keeps a `CflowState`: per scope, a count of the entered
join points that enter it statically, and a (frame, residue) for each that
enters it by a residue, the frame being the join point's (this_obj,
target_obj, args) tuple. `cflow_active` holds when the count is positive,
else when one of those residues holds on its own frame's bindings.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import reduce
from math import inf
from operator import or_

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


# the empty residue, statically matched with nothing left to test: an empty
# conjunction holds, and its text is ""
TRUE = PcAnd(())


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


def _candidates(pointcuts: list) -> Callable[[Shadow], tuple[int, ...]]:
    """A function from a shadow to the ascending positions in `pointcuts`
    of those the shadow may match: a superset of those `match` passes.

    Each top-level disjunct is filed under its anchor (`aspects.anchor`) by
    kind, member and class, as a bitmask over positions. A member's entry
    also holds the kind's "*" member, and a class's the "*" class, so two
    lookups give a shadow its anchored candidates: under its member, else
    "*", then under its class, else "*". A shadow whose class is unknown
    looks up None, which holds every class: its match may still pass by a
    `target` residue. A disjunct with no anchor (only a cflow scope's can
    lack one) is filed under a `within` type it needs, else under every
    shadow. Shadows with one mask share one positions tuple.
    """
    anchored: dict[ShadowKind, dict[str, dict[str | None, int]]] = {}
    by_within: dict[str, int] = {}
    everywhere = 0
    for pos, pc in enumerate(pointcuts):
        bit = 1 << pos
        for disjunct in pc.parts if type(pc) is PcOr else (pc,):
            atom = anchor(disjunct)
            if atom is not None:
                by_class = anchored.setdefault(atom.kind, {}).setdefault(atom.member, {})
                by_class[atom.cls] = by_class.get(atom.cls, 0) | bit
                continue
            parts = disjunct.parts if type(disjunct) is PcAnd else (disjunct,)
            within = next((p.type_name for p in parts if type(p) is PcWithin), None)
            if within is None:
                everywhere |= bit
            else:
                by_within[within] = by_within.get(within, 0) | bit
    for by_member in anchored.values():
        wild = by_member.get("*", {})
        for member, by_class in by_member.items():
            merged = {c: by_class.get(c, 0) | wild.get(c, 0) for c in {*by_class, *wild}}
            any_class = merged.get("*", 0)
            folded = {c: found | any_class for c, found in merged.items()}
            folded[None] = reduce(or_, merged.values())
            by_member[member] = folded
    positions: dict[int, tuple[int, ...]] = {}

    def candidates(shadow: Shadow) -> tuple[int, ...]:
        mask = everywhere
        if by_within:
            mask |= by_within.get(shadow.within_cls, 0)
        by_member = anchored.get(shadow.kind)
        if by_member is not None:
            by_class = by_member.get(shadow.member) or by_member.get("*")
            if by_class is not None:
                mask |= by_class.get(shadow.cls) or by_class.get("*", 0)
        found = positions.get(mask)
        if found is None:
            found = positions[mask] = _bits(mask)
        return found

    return candidates


def _bits(mask: int) -> tuple[int, ...]:
    """The positions of the set bits of `mask`, ascending."""
    return tuple(n for n in range(mask.bit_length()) if mask >> n & 1)


def build_match_table(
    aspects: list[AspectDecl], visible: ShadowTable, precedence: list[str]
) -> MatchTable:
    """Match each visible shadow against its candidate advice, in
    precedence order."""
    ranks = precedence_ranks(precedence)
    ordered = sorted(
        (adv for aspect in aspects for adv in aspect.advice),
        key=lambda adv: advice_sort_key(adv, ranks),
    )
    candidates = _candidates([adv.pointcut for adv in ordered])
    entries: dict[int, tuple[MatchEntry, ...]] = {}
    shadows: dict[int, Shadow] = {}
    for shadow in visible:
        shadows[shadow.sid] = shadow
        hits = []
        for pos in candidates(shadow):
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
    if not entries:
        return (), ()
    before = tuple(e for e in entries if e.advice.kind == "before")
    after = tuple(reversed([e for e in entries if e.advice.kind == "after"]))
    return before, after


# ---------------------------------------------------------------------------
# Cflow scopes (weave time)
# ---------------------------------------------------------------------------


def number_scopes(table: MatchTable) -> tuple[tuple[PcCflow, ...], dict[int, int]]:
    """The distinct cflow scopes of the table's residues, scopes nested in
    a scope's pointcut included, numbered in order of first occurrence (by
    shadow, then precedence, then depth first), and a map from id() of
    every `PcCflow` node that a residue can reach to its scope's number.

    Scopes are told apart by their text, which parses back to the same
    pointcut, so two advice that name one scope share its number.
    """
    scopes: list[PcCflow] = []
    by_text: dict[str, int] = {}
    numbers: dict[int, int] = {}
    for entries in table.entries.values():
        for entry in entries:
            _number_scopes_in(entry.residue, scopes, by_text, numbers)
    return tuple(scopes), numbers


def _number_scopes_in(pc, scopes: list, by_text: dict[str, int], numbers: dict[int, int]) -> None:
    cls = type(pc)
    if cls is PcCflow:
        if id(pc) in numbers:
            return
        text = str(pc)
        if text not in by_text:
            by_text[text] = len(scopes)
            scopes.append(pc)
        numbers[id(pc)] = by_text[text]
        _number_scopes_in(pc.inner, scopes, by_text, numbers)
    elif cls is PcNot:
        _number_scopes_in(pc.inner, scopes, by_text, numbers)
    elif cls is PcAnd or cls is PcOr:
        for part in pc.parts:
            _number_scopes_in(part, scopes, by_text, numbers)


def scope_membership(scopes: tuple[PcCflow, ...], visible: ShadowTable) -> dict[int, tuple]:
    """sid -> (numbers of the scopes the shadow enters statically,
    (number, residue) of each scope it enters by a residue), for each
    visible shadow that enters a scope.

    A shadow is matched only against its candidate scopes (`_candidates`),
    and shadows that enter the same scopes statically share one entry.
    """
    candidates = _candidates([scope.inner for scope in scopes])
    entered: dict[int, tuple] = {}
    static_only: dict[tuple, tuple] = {}  # scopes entered statically -> their entry
    for shadow in visible:
        static, dynamic = (), ()
        for n in candidates(shadow):
            residue = match(scopes[n].inner, shadow)
            if residue is TRUE:
                static += (n,)
            elif residue is not None:
                dynamic += ((n, residue),)
        if dynamic:
            entered[shadow.sid] = (static, dynamic)
        elif static:
            entry = static_only.get(static)
            if entry is None:
                entry = static_only[static] = (static, ())
            entered[shadow.sid] = entry
    return entered


# ---------------------------------------------------------------------------
# Residue evaluation (dispatch time)
# ---------------------------------------------------------------------------


class CflowState:
    """One thread's cflow scopes. Per scope number: `counts`, how many
    entered join points enter it statically, and `pending`, a (frame,
    residue) for each one that enters it by a residue, innermost last,
    where the frame is the join point's (this_obj, target_obj, args).
    `numbers` is the unit's map from id() of a `PcCflow` node to its
    scope's number (`number_scopes`)."""

    __slots__ = ("numbers", "counts", "pending")

    def __init__(self, numbers: dict[int, int], n_scopes: int):
        self.numbers = numbers
        self.counts = [0] * n_scopes
        self.pending: list[list[tuple[tuple, object]]] = [[] for _ in range(n_scopes)]


def cflow_active(state: CflowState, scope: PcCflow) -> bool:
    """True iff some entered join point on this thread matches the scope:
    one that enters it statically, or one whose residue holds on its own
    bindings."""
    n = state.numbers[id(scope)]
    if state.counts[n]:
        return True
    for (this_obj, target_obj, args), residue in state.pending[n]:
        if eval_residue(residue, this_obj, target_obj, args, state):
            return True
    return False


def eval_residue(residue, this_obj, target_obj, args, state: CflowState) -> bool:
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
        return cflow_active(state, residue)
    if cls is PcNot:
        return not eval_residue(residue.inner, this_obj, target_obj, args, state)
    if cls is PcAnd:
        return all(eval_residue(p, this_obj, target_obj, args, state) for p in residue.parts)
    if cls is PcOr:
        return any(eval_residue(p, this_obj, target_obj, args, state) for p in residue.parts)
    raise TypeError(f"not a residue node: {residue!r}")
