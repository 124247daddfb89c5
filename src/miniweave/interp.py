"""Deterministic concurrent interpreter with advice dispatch.

`WovenUnit.build` makes a parsed program and its aspects runnable: it is
the one place where class and aspect names are checked, then one
`minilang.resolve_program` call resolves them all, and the shadow table,
hide filter and match table follow.

Logical threads are Python generators run by a round-robin scheduler;
the rotation order is derived from the run seed, so a fixed (unit, entry,
seed, step_limit) always produces a byte-identical event trace. Each
scheduling point is one step: before each statement, before each later
`else if` arm, before each loop test and at each woven join point. There
the running thread asks `_switch` for the next pick, as the run loop would;
it yields only when the scheduler switches threads or the step limit is
reached, and otherwise counts the step and goes on without suspending its
`yield from` chain. A thread that must wait parks itself: it sets its own
`status` (BLOCKED on a held monitor, WAITING in `monitor_wait`) and
`monitor`, joins that monitor's `blocked` or `waiting` list, then yields.

The scheduler does not scan threads. `ready` is an int bitmask over
rotation indexes: bit i is set while the thread at `rotation[i]` can run
(RUNNABLE, or BLOCKED on a free monitor). `pick_next`, the one method a
subclass overrides to choose otherwise, returns the index of the lowest set
bit at or after `rot_pos`, wrapping. The mask changes only where
eligibility does: a spawn shifts it at the insert index; a finish or a
park clears the running thread's bit (`cur_idx`, kept across inserts by
`add_thread`); `_set_holder` sets or clears the bits of a monitor's
BLOCKED threads as it is freed or taken. A monitor caches those bits until
a spawn moves the indexes or a notify moves its `waiting` list to `blocked`.

Each MiniLang frame is one `_Env` on its thread's `frames`: locals, `this`
and the monitors it acquired. A method, constructor, static block or advice
runs in a frame of its own. `_push_frame` builds every frame: its `this`,
each local the body declares null, then the bound parameters. `instantiate`
runs all of a class's field initializers for one `new` in one frame;
`_main` gives each initialized aspect field its own frame. Monitors are
non-reentrant and frame-scoped: whatever a frame still holds when it
returns is released. A thread holding MAX_CALL_DEPTH frames ends the run
with a runtime error. `exec_block`
dispatches each statement in place; a `return` is its value, passed up
through `if` and `while` to `run_decl`, which runs every method,
constructor and static block. Frames leave only by returning: a runtime
error ends the run, and nothing reads a thread's frames, cflow state or
monitors after that, so nothing unwinds them. `eval_expr` walks a binary
chain's left spine down to its leftmost operand, then applies the
operators on the way back up, so a left-deep chain costs no Python frames.
A statement, expression, operator or builtin that the parser and resolver
cannot produce has no check here: it ends in a Python error, which the CLI
reports as an internal error.

The interpreter's cost is Python calls, so each step makes as few as it
can. Every operand site (binary operands, receivers, arguments, list items
and indexes, `=` and `var` values, conditions, `return`) reads a local,
`this`, a literal or null in place, by the node's exact type; only other
nodes create an `eval_expr` generator. An
operator on two exact ints, a condition that is exactly a bool and a field
an object has take the direct path; bools, strings, `/`, `%`, join-point
records and every error go through `apply_operator`, `as_bool`,
`field_read` and `field_write`. When the running thread is the only one
that can run, `_switch` makes `pick_next`'s pick itself, with no call,
unless a subclass overrides `pick_next`.

Each join-point site looks its AST node up in the unit's `sites`. For a
visible shadow it takes a scheduling point, then `_jp_enter` (the `jp`
event; the counts and residue frames of the cflow scopes the shadow
enters, in the thread's `matching.CflowState`), then `_advise` over its
before-advice in precedence order; after its own work, `_advise` over its
after-advice in reverse precedence order, then `_jp_exit`, which leaves
those scopes. So a join point is in its own control flow for both kinds of
advice. `_jp_enter` and `_jp_exit` are plain calls, so a shadow with no
advice costs no generator. Hidden shadows have no site: no events, no
cflow scope. An advice is a method whose parameters are its bindings
(`thisObject`, `targetObject`, `args`, `jp`): `_advise` binds them in the
advice's frame as `run_decl` binds a method's arguments, with the aspect's
singleton as `this`. `jp` is a record only when the advice body names it
(`names_jp`, recorded by the resolver), else null.

Events are kept as plain (step, thread, kind, text) tuples; the text of
`jp` and advice events is built once per run and shadow. `ExecutionResult`
reads its views (output, audit lines, trace) from the tuples and turns
them into `Event` objects only when `events` is read.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from functools import cached_property

from . import joinpoints as jp
from . import matching
from . import minilang as ml
from .aspects import AspectDecl
from .diagnostics import CompileError, Loc, MiniRuntimeError
from .joinpoints import ShadowTable
from .matching import CflowState, MatchTable, advice_sequence_at, eval_residue
from .minilang import LocalRef, ThisRef
from .values import (
    JpInfo,
    MObject,
    Monitor,
    class_name_of,
    format_message,
    render_value,
    shown_value,
    value_eq,
)

DEFAULT_STEP_LIMIT = 1_000_000

# MiniLang frames (method, constructor, static, advice, initializer) per
# thread; keeps deep recursion inside Python's own recursion limit
MAX_CALL_DEPTH = 100

# the nodes that evaluate to their `value`: the literals and null
_CONSTS = frozenset((ml.IntLit, ml.StrLit, ml.BoolLit, ml.NullLit))

# the nodes whose receiver `eval_expr` evaluates first
_RECEIVERS = frozenset((ml.FieldGet, ml.MethodCall, ml.Index, ml.Spawn))

# the binary operators `eval_expr` applies in place to two operands of type
# exactly int; `/` and `%` also check for a zero divisor, in `apply_operator`
_INT_FAST = {
    "+": operator.add, "-": operator.sub, "*": operator.mul, "==": operator.eq,
    "!=": operator.ne, "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}
_INT_OPS = {**_INT_FAST, "/": operator.floordiv, "%": operator.mod}

RUNNABLE = "runnable"
BLOCKED = "blocked"
WAITING = "waiting"
FINISHED = "finished"


# exec_block's value when its statements run to the end, not into a `return`
_NO_RETURN = object()

# the (enters, pending) of a site that enters no cflow scope
_NO_SCOPES = ((), ())


def _render_event(step: int, thread: int, kind: str, text: str) -> str:
    return f"step={step} t{thread} {kind} {text}".rstrip()


@dataclass(frozen=True)
class Event:
    step: int
    thread: int
    kind: str  # jp | advice_enter | advice_exit | print | audit | spawn | finish
    text: str

    def render(self) -> str:
        return _render_event(self.step, self.thread, self.kind, self.text)


@dataclass(frozen=True)
class StuckThread:
    tid: int
    monitor: Monitor
    holder: int | None  # None for a thread parked in wait with no holder
    how: str  # "blocked" | "waiting"


@dataclass
class DeadlockReport:
    step: int
    stuck: list[StuckThread]

    def self_edges(self) -> list[StuckThread]:
        return [s for s in self.stuck if s.holder == s.tid]

    def render(self) -> str:
        lines = [f"deadlock at step {self.step}:"]
        for s in sorted(self.stuck, key=lambda s: s.tid):
            where = f" (created at {s.monitor.created_at})" if s.monitor.created_at else ""
            if s.holder is None:
                lines.append(f"  t{s.tid} waits on {s.monitor}{where}, no holder")
            elif s.holder == s.tid:
                lines.append(f"  t{s.tid} {s.how} on {s.monitor}{where}, held by itself")
            else:
                lines.append(f"  t{s.tid} {s.how} on {s.monitor}{where}, held by t{s.holder}")
        return "\n".join(lines)


@dataclass
class ExecutionResult:
    """A run's outcome. `records` holds each event as a plain
    (step, thread, kind, text) tuple in schedule order; the views below
    read those, and `events` turns them into `Event`s on first read."""

    status: str  # completed | deadlock | step-limit-exceeded | runtime-error
    records: list[tuple[int, int, str, str]]
    steps: int
    deadlock: DeadlockReport | None = None
    error: str | None = None

    @cached_property
    def events(self) -> list[Event]:
        return [Event(*r) for r in self.records]

    @property
    def output(self) -> list[str]:
        """stdout lines: prints and audit lines in schedule order."""
        return [text for _, _, kind, text in self.records if kind == "print" or kind == "audit"]

    @property
    def audit_lines(self) -> list[str]:
        return [text for _, _, kind, text in self.records if kind == "audit"]

    def render_trace(self) -> str:
        return "".join(_render_event(*r) + "\n" for r in self.records)

    def count_jp(self, prefix: str) -> int:
        return sum(
            1 for _, _, kind, text in self.records if kind == "jp" and text.startswith(prefix)
        )


@dataclass
class WovenUnit:
    """Everything run() needs: the program, aspects, and the match relation.

    `sites` maps id(node) of each visible shadow's AST node to its site,
    the tuple (shadow, (before, after), (enters, pending)): its before- and
    after-advice in run order, the numbers of the cflow scopes it enters
    statically, and a (number, residue) for each scope it enters by a
    residue. `scopes` holds each cflow scope of the match table by number,
    and `scope_numbers` maps id() of each `PcCflow` node a residue can
    reach to its number (`matching.number_scopes`). The unit holds the
    nodes, so the ids stay valid, and the AST itself carries no weaving
    state: one parsed AST may be woven twice.
    `build` is the one place where class and aspect names are checked: each
    is declared once across every input, and no aspect takes a class's name.
    """

    program: ml.Program
    aspects: list[AspectDecl]
    precedence: list[str]
    all_shadows: ShadowTable
    visible: ShadowTable
    match_table: MatchTable
    sites: dict[int, tuple]
    scopes: tuple
    scope_numbers: dict[int, int]

    @classmethod
    def build(
        cls,
        program: ml.Program,
        aspects: list[AspectDecl] = (),
        precedence: list[str] = (),
        strip_hide: bool = False,
    ) -> "WovenUnit":
        aspects = list(aspects)
        is_aspect: dict[str, bool] = {}  # each name met so far: declared by an aspect?
        for decl in (*program.classes, *aspects):
            aspect = isinstance(decl, AspectDecl)
            if decl.name in is_aspect:
                if aspect and not is_aspect[decl.name]:
                    raise CompileError(f"aspect {decl.name!r} collides with a class name", decl.loc)
                kind = "aspect" if aspect else "class"
                raise CompileError(f"duplicate {kind} {decl.name!r}", decl.loc)
            is_aspect[decl.name] = aspect
        ml.resolve_program(program, aspects)
        specs = jp.collect_hide_specs(program, aspects)
        table = jp.extract_shadows(program, aspects)
        visible = jp.apply_hide_filter(table, [] if strip_hide else specs)
        mt = matching.build_match_table(aspects, visible, list(precedence))
        scopes, numbers = matching.number_scopes(mt)
        entered = matching.scope_membership(scopes, visible) if scopes else {}
        sites = {
            id(s.node): (s, advice_sequence_at(s.sid, mt), entered.get(s.sid, _NO_SCOPES))
            for s in visible
        }
        return cls(program, aspects, list(precedence), table, visible, mt, sites, scopes, numbers)


def _method_of(recv, name: str, args, loc: Loc) -> ml.MethodDecl:
    """The method or aspect helper a call of `name` on `recv` with `args` runs."""
    if recv is None:
        raise MiniRuntimeError(f"null dereference calling {name!r}", loc)
    decl = recv.cls.method(name) if isinstance(recv, MObject) else None
    if decl is None:
        raise MiniRuntimeError(
            f"unknown method {name!r} on {class_name_of(recv) or shown_value(recv)}", loc
        )
    if len(decl.params) != len(args):
        raise MiniRuntimeError(
            f"{class_name_of(recv)}.{name} expects {len(decl.params)} argument(s), "
            f"got {len(args)}",
            loc,
        )
    return decl


class _Env:
    """One MiniLang frame. It defines no __eq__, so frames compare by identity."""

    __slots__ = ("locals", "this", "acquired")

    def __init__(self, locals_: dict, this):
        self.locals = locals_
        self.this = this
        self.acquired: list[Monitor] = []


class _Thread:
    __slots__ = ("tid", "gen", "status", "monitor", "frames", "cflow")

    def __init__(self, tid: int, gen, cflow: CflowState | None = None):
        self.tid = tid
        self.gen = gen
        self.status = RUNNABLE
        self.monitor: Monitor | None = None  # blocked/waiting target
        self.frames: list[_Env] = []
        self.cflow = cflow


def detect_deadlock(threads: list[_Thread], step: int) -> DeadlockReport | None:
    """The report of a run no thread can continue: each thread parked on a
    monitor, in thread order. None when no thread is parked."""
    stuck = [
        StuckThread(t.tid, t.monitor, t.monitor.holder, t.status)
        for t in threads
        if t.monitor is not None
    ]
    return DeadlockReport(step, stuck) if stuck else None


class Interp:
    def __init__(self, unit: WovenUnit, seed: int = 0, step_limit: int = DEFAULT_STEP_LIMIT):
        if step_limit <= 0:
            raise ValueError("step_limit must be positive")
        self.unit = unit
        self.step_limit = step_limit
        self.rng = random.Random(seed)
        self.threads: list[_Thread] = []
        self.rotation: list[int] = []
        self.rot_pos = 0
        self.ready = 0  # bit i: the thread at rotation[i] can run
        self.current: _Thread | None = None
        self.cur_idx = -1  # the rotation index of `current`
        self.picked: int | None = None  # the pick a scheduling point yielded on
        # `_switch` may pick the one runnable thread itself, with no
        # `pick_next` call, only while no subclass chooses otherwise
        self.own_pick = type(self).pick_next is Interp.pick_next
        self.steps = 0
        self.records: list[tuple[int, int, str, str]] = []
        self.next_obj = 0
        self.next_mon = 0
        # every aspect's singleton exists before any aspect field initializer
        # runs, since one may reach advice of an aspect declared later
        self.aspect_instances = {a.name: MObject(a, None) for a in unit.aspects}
        self.classes = unit.program.by_name()
        # built on first dispatch: the `jp` event text per shadow, and per
        # (advice, shadow) pair the advice event tag plus, for advice whose
        # body names `jp`, the static strings of its JpInfo (else None)
        self.texts: dict = {}

    # -- events

    def emit(self, kind: str, text: str) -> None:
        self.records.append((self.steps, self.current.tid, kind, text))

    # -- scheduling

    def add_thread(self, gen) -> int:
        tid = len(self.threads)
        t = _Thread(tid, gen, CflowState(self.unit.scope_numbers, len(self.unit.scopes)))
        self.threads.append(t)
        idx = 0
        if self.rotation:
            idx = self.rng.randrange(len(self.rotation) + 1)
            if idx <= self.rot_pos:
                self.rot_pos += 1
            if idx <= self.cur_idx:
                self.cur_idx += 1
        self.rotation.insert(idx, tid)
        low = self.ready & ((1 << idx) - 1)
        self.ready = (self.ready - low) << 1 | low | 1 << idx
        return tid

    def finish_thread(self) -> None:
        self.current.status = FINISHED
        self.ready &= ~(1 << self.cur_idx)

    def _park(self, status: str, mon: Monitor) -> None:
        """The running thread parks BLOCKED or WAITING on `mon`."""
        t = self.current
        t.status = status
        t.monitor = mon
        bit = 1 << self.cur_idx
        if status == BLOCKED:
            mon.blocked.append(t)
            mon.bits |= bit
        else:
            mon.waiting.append(t)
        self.ready &= ~bit

    def _set_holder(self, mon: Monitor, tid: int | None) -> None:
        """Give `mon` to thread `tid`, or free it (None): a thread BLOCKED on
        it can run exactly while it is free."""
        mon.holder = tid
        if mon.blocked:
            if mon.bits_at != len(self.rotation):  # a spawn or notify since
                mon.bits = sum(1 << self.rotation.index(w.tid) for w in mon.blocked)
                mon.bits_at = len(self.rotation)
            self.ready = self.ready | mon.bits if tid is None else self.ready & ~mon.bits

    def _notify_all(self, mon: Monitor) -> None:
        for w in mon.waiting:
            w.status = BLOCKED
        mon.blocked += mon.waiting
        mon.waiting.clear()
        mon.bits_at = -1

    def _resume(self, idx: int) -> _Thread:
        """Run the thread at rotation index `idx` next; a BLOCKED one leaves
        its monitor's list, as it was picked only once the monitor was free."""
        self.cur_idx = idx
        self.current = t = self.threads[self.rotation[idx]]
        if t.status == BLOCKED:
            t.status = RUNNABLE
            t.monitor.blocked.remove(t)
            t.monitor.bits &= ~(1 << idx)
            t.monitor = None
        return t

    def pick_next(self) -> int | None:
        """The rotation index of the first eligible thread from `rot_pos`,
        wrapping, with `rot_pos` moved past it; None when none can run."""
        ready = self.ready
        pos = self.rot_pos
        later = ready >> pos
        if later:
            idx = pos + (later & -later).bit_length() - 1
        elif ready:
            idx = (ready & -ready).bit_length() - 1
        else:
            return None
        self.rot_pos = (idx + 1) % len(self.rotation)
        return idx

    def _switch(self) -> bool:
        """A scheduling point of the running thread: take the step in place
        when the scheduler picks that thread again within the step limit,
        else keep the pick for `run` and return True (the caller yields)."""
        idx = self.cur_idx
        # the running thread alone can run: pick_next would pick it again,
        # and rot_pos already lies just past it (the last pick chose it, and
        # only a spawn moves the rotation, and that makes a second thread
        # runnable), so the call is skipped
        if self.ready != 1 << idx or not self.own_pick:
            idx = self.pick_next()
        if idx == self.cur_idx and self.steps < self.step_limit:
            self.steps += 1
            return False
        self.picked = idx
        return True

    def run(self, entry: str) -> ExecutionResult:
        entry_cls, entry_decl = self._check_entry(entry)
        self.add_thread(self._main(entry_cls, entry_decl))
        while True:
            # a scheduling point that yielded left its pick; a parked or
            # finished thread did not
            idx, self.picked = self.picked, None
            if idx is None:
                idx = self.pick_next()
            if idx is None:
                report = detect_deadlock(self.threads, self.steps)
                if report is None:
                    return self._result("completed")
                return self._result("deadlock", deadlock=report)
            if self.steps >= self.step_limit:
                return self._result("step-limit-exceeded")
            self.steps += 1
            t = self._resume(idx)
            try:
                next(t.gen)
            except StopIteration:
                self.finish_thread()
                self.emit("finish", "")
            except MiniRuntimeError as e:
                return self._result("runtime-error", error=str(e))

    def _result(self, status: str, deadlock=None, error=None) -> ExecutionResult:
        return ExecutionResult(status, self.records, self.steps, deadlock, error)

    def _check_entry(self, entry: str):
        if "." not in entry:
            raise CompileError(f"entry must be Class.method, got {entry!r}")
        cls_name, method_name = entry.split(".", 1)
        cls = self.classes.get(cls_name)
        if cls is None:
            raise CompileError(f"entry class {cls_name!r} not found")
        m = cls.method(method_name)
        if m is None:
            raise CompileError(f"entry method {entry!r} not found")
        if m.params:
            raise CompileError(f"entry method {entry!r} must take no parameters")
        if cls.ctor is not None and cls.ctor.params:
            raise CompileError(f"entry class {cls_name!r} needs a zero-arg constructor")
        return cls, m

    # -- thread bodies

    def _main(self, entry_cls, entry_decl):
        # aspect fields first, then static blocks in program order, then entry
        for aspect in self.unit.aspects:
            inst = self.aspect_instances[aspect.name]
            for f in aspect.fields:
                if f.init is not None:
                    env = self._push_frame(f.loc, (), (), inst)
                    inst.fields[f.name] = yield from self.eval_expr(f.init, env)
                    self._pop_frame(env)
        for cls in self.unit.program.classes:
            block = cls.static_block
            if block is not None:
                yield from self.run_decl(None, block, (), block.loc)
        obj = yield from self.instantiate(entry_cls, [], entry_cls.loc)
        yield from self.run_decl(obj, entry_decl, [], entry_cls.loc)

    def _spawned(self, recv, name: str, args, loc: Loc):
        # a spawned call's checks run on the new thread, when it first runs
        yield from self.run_decl(recv, _method_of(recv, name, args, loc), args, loc)

    # -- frames

    def _push_frame(self, loc: Loc, names, bound, this) -> _Env:
        """A new frame on the running thread, with `this` and as locals each
        of `names` null, then the (name, value) pairs of `bound`."""
        frames = self.current.frames
        if len(frames) >= MAX_CALL_DEPTH:
            raise MiniRuntimeError(f"call depth exceeds {MAX_CALL_DEPTH}", loc)
        locals_ = dict.fromkeys(names)
        locals_.update(bound)
        env = _Env(locals_, this)
        frames.append(env)
        return env

    def _pop_frame(self, env: _Env) -> None:
        t = self.current
        t.frames.pop()
        for mon in env.acquired:
            if mon.holder == t.tid:
                self._set_holder(mon, None)

    # -- join point dispatch

    def _jp_enter(self, site, this_obj, target_obj, args) -> tuple:
        """A visible join point begins, after its scheduling point: its `jp`
        event, then the cflow scopes it enters. Returns its (before, after)
        advice."""
        shadow, advice, (enters, pending) = site
        text = self.texts.get(id(shadow))
        if text is None:
            text = self.texts[id(shadow)] = shadow.describe()
        self.emit("jp", text)
        if enters:
            counts = self.current.cflow.counts
            for n in enters:
                counts[n] += 1
        if pending:
            frames = self.current.cflow.pending
            frame = (this_obj, target_obj, tuple(args))
            for n, residue in pending:
                frames[n].append((frame, residue))
        return advice

    def _jp_exit(self, site) -> None:
        """A visible join point ends, after its after-advice: it leaves the
        cflow scopes it entered."""
        enters, pending = site[2]
        if enters:
            counts = self.current.cflow.counts
            for n in enters:
                counts[n] -= 1
        if pending:
            frames = self.current.cflow.pending
            for n, _ in pending:
                frames[n].pop()

    def _advise(self, entries, site, this_obj, target_obj, args):
        """Run each advice of `entries` whose residue holds, in order, each
        in a frame of its own with its aspect's singleton as `this`."""
        cflow = self.current.cflow
        shadow = site[0]
        for entry in entries:
            if not eval_residue(entry.residue, this_obj, target_obj, args, cflow):
                continue
            advice = entry.advice
            key = (id(advice), id(shadow))
            texts = self.texts.get(key)
            if texts is None:
                texts = self.texts[key] = (
                    f"{advice.describe()} at {shadow.kind} {shadow.signature}",
                    (str(shadow.kind), shadow.signature, str(shadow.loc))
                    if advice.names_jp
                    else None,
                )
            tag, jp_texts = texts
            self.emit("advice_enter", tag)
            info = None
            if jp_texts is not None:
                info = JpInfo(
                    *jp_texts,
                    class_name_of(target_obj) or class_name_of(this_obj) or (shadow.cls or ""),
                    shadow.member or "",
                    shadow.arity if shadow.arity is not None else len(args),
                )
            # the bindings' zip is a temporary: held in a local, it would live
            # as long as the body runs
            env = self._push_frame(
                shadow.loc,
                advice.local_names,
                zip(advice.params, (this_obj, target_obj, list(args), info)),
                self.aspect_instances[advice.aspect_name],
            )
            yield from self.exec_block(advice.body, env)
            self._pop_frame(env)
            self.emit("advice_exit", tag)

    # -- object lifecycle and method bodies

    def instantiate(self, cls, args, loc: Loc):
        expected = len(cls.ctor.params) if cls.ctor is not None else 0
        if len(args) != expected:
            raise MiniRuntimeError(
                f"constructor of {cls.name} expects {expected} argument(s), got {len(args)}",
                loc,
            )
        obj = MObject(cls, self.next_obj)
        self.next_obj += 1
        site = self.unit.sites.get(id(cls))
        if site is not None:
            if self._switch():  # every woven join point is a scheduling point
                yield None
            before, after = self._jp_enter(site, obj, obj, args)
            if before:
                yield from self._advise(before, site, obj, obj, args)
        env = self._push_frame(loc, (), (), obj)
        for f in cls.fields:
            if f.init is not None:
                obj.fields[f.name] = yield from self.eval_expr(f.init, env)
        self._pop_frame(env)
        if site is not None:
            if after:
                yield from self._advise(after, site, obj, obj, args)
            self._jp_exit(site)
        if cls.ctor is not None:
            yield from self.run_decl(obj, cls.ctor, args, loc)
        return obj

    def run_decl(self, this, decl, args, loc: Loc):
        """Run a method, helper, constructor or static block on `this` inside
        its execution or init join point and its own frame; the value of its
        `return`, or null when the body runs to the end."""
        site = self.unit.sites.get(id(decl))
        if site is not None:
            if self._switch():
                yield None
            before, after = self._jp_enter(site, this, this, args)
            if before:
                yield from self._advise(before, site, this, this, args)
        env = self._push_frame(loc, decl.local_names, zip(decl.params, args), this)
        result = yield from self.exec_block(decl.body, env)
        self._pop_frame(env)
        if site is not None:
            if after:
                yield from self._advise(after, site, this, this, args)
            self._jp_exit(site)
        return None if result is _NO_RETURN else result

    # -- statements

    def exec_block(self, stmts, env: _Env):
        """Run `stmts`: the value of the `return` that ended them, else _NO_RETURN."""
        for stmt in stmts:
            if self._switch():
                yield None
            kind = type(stmt)
            if kind is ml.ExprStmt:
                yield from self.eval_expr(stmt.expr, env)
            elif kind is ml.If:
                later = False
                for x, body in stmt.arms:
                    # the step of the nested `if` an `else if` abbreviates
                    if later and self._switch():
                        yield None
                    k = type(x)
                    cond = env.locals[x.name] if k is LocalRef else env.this if k is ThisRef else (
                        x.value if k in _CONSTS else (yield from self.eval_expr(x, env)))
                    if cond is not True and cond is not False:
                        self.as_bool(cond, x.loc if later else stmt.loc)  # raises
                    if cond:
                        result = yield from self.exec_block(body, env)
                        break
                    later = True
                else:
                    result = yield from self.exec_block(stmt.orelse, env)
                if result is not _NO_RETURN:
                    return result
            elif kind is ml.While:
                while True:
                    if self._switch():
                        yield None
                    k = type(x := stmt.cond)
                    cond = env.locals[x.name] if k is LocalRef else env.this if k is ThisRef else (
                        x.value if k in _CONSTS else (yield from self.eval_expr(x, env)))
                    if cond is not True and cond is not False:
                        self.as_bool(cond, stmt.loc)  # raises
                    if not cond:
                        break
                    result = yield from self.exec_block(stmt.body, env)
                    if result is not _NO_RETURN:
                        return result
            else:  # `=`, `var` or `return`: the operands in order, then the value
                x = stmt.init if kind is ml.VarDecl else stmt.value
                target = stmt.target if kind is ml.Assign else None
                tk = type(target)
                if tk is ml.FieldGet or tk is ml.Index:  # a field's object or an index's list
                    k = type(y := target.obj)
                    obj = env.locals[y.name] if k is LocalRef else env.this if k is ThisRef else (
                        y.value if k in _CONSTS else (yield from self.eval_expr(y, env)))
                if tk is ml.Index:
                    k = type(y := target.index)
                    idx = env.locals[y.name] if k is LocalRef else env.this if k is ThisRef else (
                        y.value if k in _CONSTS else (yield from self.eval_expr(y, env)))
                k = type(x)
                value = None if x is None else env.locals[x.name] if k is LocalRef else (
                    env.this if k is ThisRef else x.value if k in _CONSTS
                    else (yield from self.eval_expr(x, env)))
                if kind is ml.Return:
                    return value
                if kind is ml.VarDecl:
                    env.locals[stmt.name] = value
                elif tk is LocalRef:
                    env.locals[target.name] = value
                elif tk is ml.Index:
                    self.index_check(obj, idx, target.loc)
                    obj[idx] = value
                else:  # field set join point
                    site = self.unit.sites.get(id(stmt))
                    if site is not None:
                        if self._switch():
                            yield None
                        before, after = self._jp_enter(site, env.this, obj, (value,))
                        if before:
                            yield from self._advise(before, site, env.this, obj, (value,))
                    name = target.name
                    if type(obj) is MObject and name in obj.fields:
                        obj.fields[name] = value
                    else:
                        self.field_write(obj, name, value, target.loc)
                    if site is not None:
                        if after:
                            yield from self._advise(after, site, env.this, obj, (value,))
                        self._jp_exit(site)
        return _NO_RETURN

    # -- expressions

    def eval_expr(self, expr, env: _Env):
        kind = type(expr)
        if kind is LocalRef:
            return env.locals[expr.name]
        if kind is ThisRef:
            return env.this
        if kind in _CONSTS:
            return expr.value
        if kind is ml.Binary:
            # down the left spine to the leftmost operand, then each operator
            # on the way back up; `&&` and `||` short-circuit per node
            spine = []
            x, k = expr, kind
            while k is ml.Binary:
                spine.append(x)
                x = x.left
                k = type(x)
            value = env.locals[x.name] if k is LocalRef else env.this if k is ThisRef else (
                x.value if k in _CONSTS else (yield from self.eval_expr(x, env)))
            for node in reversed(spine):
                op = node.op
                logic = op == "&&" or op == "||"
                # `&&` goes on past true, `||` past false; otherwise the value stands
                if logic and self.as_bool(value, node.loc) is not (op == "&&"):
                    continue
                k = type(x := node.right)
                right = env.locals[x.name] if k is LocalRef else env.this if k is ThisRef else (
                    x.value if k in _CONSTS else (yield from self.eval_expr(x, env)))
                if logic:
                    value = self.as_bool(right, node.loc)
                elif type(value) is int and type(right) is int and op in _INT_FAST:
                    value = _INT_FAST[op](value, right)
                else:
                    value = self.apply_operator(op, value, right, node.loc)
            return value
        if kind is ml.Unary:
            value = yield from self.eval_expr(expr.operand, env)
            if expr.op == "!":
                return not self.as_bool(value, expr.loc)
            return -self.as_int(value, expr.loc)
        # the other nodes: first the receiver of a field get, index, call or
        # spawn, then an index, or the arguments or items
        call = expr.call if kind is ml.Spawn else expr
        if kind in _RECEIVERS:
            k = type(x := call.obj)
            obj = env.locals[x.name] if k is LocalRef else env.this if k is ThisRef else (
                x.value if k in _CONSTS else (yield from self.eval_expr(x, env)))
        if kind is ml.FieldGet:
            site = self.unit.sites.get(id(expr))
            if site is not None:
                if self._switch():
                    yield None
                before, after = self._jp_enter(site, env.this, obj, ())
                if before:
                    yield from self._advise(before, site, env.this, obj, ())
            name = expr.name
            if type(obj) is MObject and name in obj.fields:
                result = obj.fields[name]
            else:
                result = self.field_read(obj, name, expr.loc)
            if site is not None:
                if after:
                    yield from self._advise(after, site, env.this, obj, ())
                self._jp_exit(site)
            return result
        if kind is ml.Index:
            k = type(x := expr.index)
            idx = env.locals[x.name] if k is LocalRef else env.this if k is ThisRef else (
                x.value if k in _CONSTS else (yield from self.eval_expr(x, env)))
            self.index_check(obj, idx, expr.loc)
            return obj[idx]
        args = []
        for x in expr.items if kind is ml.ListLit else call.args:
            k = type(x)
            args.append(env.locals[x.name] if k is LocalRef else env.this if k is ThisRef else (
                x.value if k in _CONSTS else (yield from self.eval_expr(x, env))))
        if kind is ml.MethodCall:
            site = self.unit.sites.get(id(expr))
            if site is not None:
                if self._switch():
                    yield None
                before, after = self._jp_enter(site, env.this, obj, args)
                if before:
                    yield from self._advise(before, site, env.this, obj, args)
            decl = _method_of(obj, expr.name, args, expr.loc)
            result = yield from self.run_decl(obj, decl, args, expr.loc)
            if site is not None:
                if after:
                    yield from self._advise(after, site, env.this, obj, args)
                self._jp_exit(site)
            return result
        if kind is ml.BuiltinCall:
            return (yield from self.eval_builtin(expr, args, env))
        if kind is ml.New:
            return (yield from self.instantiate(self.classes[expr.class_name], args, expr.loc))
        if kind is ml.ListLit:
            return args
        if not isinstance(obj, MObject):  # a spawn
            raise MiniRuntimeError("spawn needs an object receiver", expr.loc)
        tid = self.add_thread(self._spawned(obj, call.name, args, call.loc))
        self.emit("spawn", f"t{tid}")
        return tid

    def apply_operator(self, op: str, left, right, loc: Loc):
        """A binary operator other than `&&`/`||` on evaluated operands."""
        if op == "==":
            return value_eq(left, right)
        if op == "!=":
            return not value_eq(left, right)
        if op == "+" and isinstance(left, str) and isinstance(right, str):
            return left + right
        a = self.as_int(left, loc)
        b = self.as_int(right, loc)
        if b == 0 and (op == "/" or op == "%"):
            raise MiniRuntimeError("division by zero", loc)
        return _INT_OPS[op](a, b)

    def eval_builtin(self, expr: ml.BuiltinCall, args: list, env: _Env):
        """Apply the builtin `expr` calls to its evaluated `args`."""
        name = expr.name
        loc = expr.loc
        arity = ml.BUILTINS[name]
        if arity is not None and len(args) != arity:
            raise MiniRuntimeError(f"{name} expects {arity} argument(s)", loc)
        if name == "print":
            try:
                text = render_value(args[0])
            except MiniRuntimeError as e:
                raise MiniRuntimeError(e.msg, loc) from None
            self.emit("print", text)
            return None
        if name == "len":
            if isinstance(args[0], (list, str)):
                return len(args[0])
            raise MiniRuntimeError("len expects a list or string", loc)
        if name == "push_back":
            if not isinstance(args[0], list):
                raise MiniRuntimeError("push_back expects a list", loc)
            args[0].append(args[1])
            return None
        if name == "format":
            if not args or not isinstance(args[0], str):
                raise MiniRuntimeError("format expects a template string", loc)
            try:
                return format_message(args[0], args[1:])
            except MiniRuntimeError as e:
                raise MiniRuntimeError(e.msg, loc) from None
        if name == "audit_emit":
            if not isinstance(args[0], str):
                raise MiniRuntimeError("audit_emit expects a string", loc)
            self.emit("audit", args[0])
            return None
        if name == "make_monitor":
            mon = Monitor(self.next_mon, loc)
            self.next_mon += 1
            return mon
        # monitor operations
        mon = args[0]
        if not isinstance(mon, Monitor):
            raise MiniRuntimeError(f"{name} expects a monitor", loc)
        t = self.current
        if name == "monitor_release":
            if mon.holder != t.tid:
                raise MiniRuntimeError("release of a monitor not held", loc)
            self._set_holder(mon, None)
            for frame in reversed(t.frames):
                if mon in frame.acquired:
                    frame.acquired.remove(mon)
                    break
            return None
        if name == "monitor_notify_all":
            if mon.holder != t.tid:
                raise MiniRuntimeError("notify on a monitor not held", loc)
            self._notify_all(mon)
            return None
        if name == "monitor_wait":
            if mon.holder != t.tid:
                raise MiniRuntimeError("wait on a monitor not held", loc)
            # atomic release-and-park; re-acquire before continuing
            self._set_holder(mon, None)
            self._park(WAITING, mon)
            yield None
        while mon.holder is not None:  # parked until pick_next finds it free
            self._park(BLOCKED, mon)
            yield None
        self._set_holder(mon, t.tid)
        if name == "monitor_acquire":
            env.acquired.append(mon)
        return None

    # -- value helpers

    def field_read(self, obj, name: str, loc: Loc):
        if obj is None:
            raise MiniRuntimeError(f"null dereference reading {name!r}", loc)
        if isinstance(obj, MObject):
            if name in obj.fields:
                return obj.fields[name]
            raise MiniRuntimeError(f"unknown field {name!r} on {obj.cls.name}", loc)
        if isinstance(obj, JpInfo):
            if name in JpInfo.FIELDS:
                return getattr(obj, name)
            raise MiniRuntimeError(f"unknown join point attribute {name!r}", loc)
        raise MiniRuntimeError(f"unknown field {name!r} on {shown_value(obj)}", loc)

    def field_write(self, obj, name: str, value, loc: Loc) -> None:
        if obj is None:
            raise MiniRuntimeError(f"null dereference writing {name!r}", loc)
        if isinstance(obj, MObject):
            if name in obj.fields:
                obj.fields[name] = value
                return
            raise MiniRuntimeError(f"unknown field {name!r} on {obj.cls.name}", loc)
        raise MiniRuntimeError(f"cannot write field {name!r} on {shown_value(obj)}", loc)

    def index_check(self, seq, idx, loc: Loc) -> None:
        if not isinstance(seq, list):
            raise MiniRuntimeError("indexing expects a list", loc)
        if isinstance(idx, bool) or not isinstance(idx, int):
            raise MiniRuntimeError("list index must be an int", loc)
        if idx < 0 or idx >= len(seq):
            raise MiniRuntimeError(f"list index {idx} out of range (len {len(seq)})", loc)

    def as_bool(self, value, loc: Loc) -> bool:
        if isinstance(value, bool):
            return value
        raise MiniRuntimeError(f"expected a bool, got {shown_value(value)}", loc)

    def as_int(self, value, loc: Loc) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise MiniRuntimeError(f"expected an int, got {shown_value(value)}", loc)
        return value


def run(
    unit: WovenUnit,
    entry: str = "Main.main",
    seed: int = 0,
    step_limit: int = DEFAULT_STEP_LIMIT,
) -> ExecutionResult:
    """Interpret a woven unit to completion, deadlock, error, or step limit."""
    return Interp(unit, seed, step_limit).run(entry)
