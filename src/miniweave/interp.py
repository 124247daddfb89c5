"""Deterministic concurrent interpreter with advice dispatch.

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
`monitor`, then yields, and `pick_next` passes it over until the monitor
is free. `pick_next` scans only the unfinished threads, in rotation order.

Each MiniLang frame (method, constructor, static block, advice, field
initializer) is one `_Env` on its thread's `frames`: locals, `this` and the
monitors it acquired. Monitors are non-reentrant and frame-scoped: whatever
a frame still holds when it returns is released. A thread holding
MAX_CALL_DEPTH frames ends the run with a runtime error. `exec_block`
dispatches each statement in place; a `return` is its value, passed up
through `if` and `while` to `run_decl`, which runs every method,
constructor and static block. Frames leave only by returning: a runtime
error ends the run, and nothing reads a thread's frames, cflow stack or
monitors after that, so nothing unwinds them. `eval_expr` walks a binary
chain's left spine down to its leftmost operand, then applies the
operators on the way back up, so a left-deep chain costs no Python frames.

Each join-point site looks its AST node up in the unit's `sites` and, for
a visible shadow, brackets its own work with `_jp_enter` (scheduling
point, `jp` event, cflow push, before-advice in precedence order) and
`_jp_exit` (after-advice in reverse precedence order, cflow pop). Hidden
shadows have no site: no events, no cflow state. Advice gets a `jp`
record only when its body names `jp`.

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
from .aspects import AspectDecl, resolve_aspects
from .diagnostics import CompileError, Loc, MiniRuntimeError
from .joinpoints import ShadowTable
from .matching import CflowFrame, MatchTable, advice_sequence_at, eval_residue
from .values import (
    AspectInstance,
    JpInfo,
    MObject,
    Monitor,
    class_name_of,
    format_message,
    render_value,
    value_eq,
)

DEFAULT_STEP_LIMIT = 1_000_000

# MiniLang frames (method, constructor, static, advice, initializer) per
# thread; keeps deep recursion inside Python's own recursion limit
MAX_CALL_DEPTH = 100

# argument counts of the builtins; `format` takes a template and any number of values
_BUILTIN_ARITY = {
    "print": 1, "len": 1, "push_back": 2, "audit_emit": 1, "make_monitor": 0,
    "monitor_acquire": 1, "monitor_release": 1, "monitor_wait": 1, "monitor_notify_all": 1,
}

_LITERALS = (ml.IntLit, ml.BoolLit, ml.StrLit)  # evaluate to their `value`

# binary operators on two ints; `/` and `%` also check for a zero divisor
_INT_OPS = {
    "-": operator.sub, "*": operator.mul, "/": operator.floordiv, "%": operator.mod,
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}

RUNNABLE = "runnable"
BLOCKED = "blocked"
WAITING = "waiting"
FINISHED = "finished"


# exec_block's value when its statements run to the end, not into a `return`
_NO_RETURN = object()


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

    `sites` maps id(node) of each visible shadow's AST node to that shadow
    and its (before, after) advice sequences; the unit holds the nodes, so
    the ids stay valid, and the AST itself carries no weaving state.
    `build` also checks that class and aspect names are unique across inputs.
    """

    program: ml.Program
    aspects: list[AspectDecl]
    precedence: list[str]
    all_shadows: ShadowTable
    visible: ShadowTable
    match_table: MatchTable
    sites: dict[int, tuple]

    @classmethod
    def build(
        cls,
        program: ml.Program,
        aspects: list[AspectDecl] = (),
        precedence: list[str] = (),
        strip_hide: bool = False,
    ) -> "WovenUnit":
        aspects = list(aspects)
        class_names: set[str] = set()
        for c in program.classes:
            if c.name in class_names:
                raise CompileError(f"duplicate class {c.name!r}", c.loc)
            class_names.add(c.name)
        aspect_names: set[str] = set()
        for a in aspects:
            if a.name in aspect_names:
                raise CompileError(f"duplicate aspect {a.name!r}", a.loc)
            aspect_names.add(a.name)
        for a in aspects:
            if a.name in class_names:
                raise CompileError(f"aspect {a.name!r} collides with a class name", a.loc)
        ml.resolve_program(program)
        resolve_aspects(aspects, set(program.by_name()))
        specs = jp.collect_hide_specs(program, aspects)
        table = jp.extract_shadows(program, aspects)
        visible = jp.apply_hide_filter(table, specs, strip_hide)
        mt = matching.build_match_table(aspects, visible, list(precedence))
        sites = {
            id(shadow.node): (shadow, *advice_sequence_at(shadow.sid, mt)) for shadow in visible
        }
        return cls(program, aspects, list(precedence), table, visible, mt, sites)


def _frame_locals(decl, bound=()) -> dict:
    """The locals of a new frame: each declared local None, then `bound`
    (a mapping or (name, value) pairs)."""
    locals_ = dict.fromkeys(decl.local_names)
    locals_.update(bound)
    return locals_


def _names_jp(advice) -> bool:
    return any(type(n) is ml.LocalRef and n.name == "jp" for n in ml.walk(advice.body))


def _method_of(recv, name: str, args, loc: Loc) -> ml.MethodDecl:
    """The method or aspect helper a call of `name` on `recv` with `args` runs."""
    if recv is None:
        raise MiniRuntimeError(f"null dereference calling {name!r}", loc)
    if isinstance(recv, MObject):
        decl = recv.cls.method(name)
    elif isinstance(recv, AspectInstance):
        decl = recv.decl.helper(name)
    else:
        decl = None
    if decl is None:
        raise MiniRuntimeError(
            f"unknown method {name!r} on {class_name_of(recv) or render_value(recv)}", loc
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
    def __init__(self, tid: int, gen):
        self.tid = tid
        self.gen = gen
        self.status = RUNNABLE
        self.monitor: Monitor | None = None  # blocked/waiting target
        self.frames: list[_Env] = []
        self.cflow: list[CflowFrame] = []


def _eligible(t: _Thread) -> bool:
    if t.status == RUNNABLE:
        return True
    if t.status == BLOCKED:
        return t.monitor is not None and t.monitor.holder is None
    return False


def detect_deadlock(threads: list[_Thread], step: int) -> DeadlockReport | None:
    """Report the stuck threads, or None while anything can still run."""
    unfinished = [t for t in threads if t.status != FINISHED]
    if not unfinished or any(_eligible(t) for t in threads):
        return None
    stuck = [
        StuckThread(t.tid, t.monitor, t.monitor.holder, t.status)
        for t in unfinished
        if t.monitor is not None
    ]
    return DeadlockReport(step, stuck)


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
        # (rotation index, thread) of each unfinished thread, in rotation
        # order, and for each rotation index the position in `live` of the
        # first entry at or after it, wrapping; rebuilt on spawn and finish
        self.live: list[tuple[int, _Thread]] = []
        self.live_from: list[int] = []
        self.current: _Thread | None = None
        self.picked: _Thread | None = None  # the pick a scheduling point yielded on
        self.steps = 0
        self.records: list[tuple[int, int, str, str]] = []
        self.next_obj = 0
        self.next_mon = 0
        self.aspect_instances: dict[str, AspectInstance] = {}
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
        t = _Thread(tid, gen)
        self.threads.append(t)
        if not self.rotation:
            self.rotation.append(tid)
        else:
            idx = self.rng.randrange(len(self.rotation) + 1)
            self.rotation.insert(idx, tid)
            if idx <= self.rot_pos:
                self.rot_pos += 1
        self._rebuild_live()
        return tid

    def finish_thread(self, t: _Thread) -> None:
        t.status = FINISHED
        self._rebuild_live()

    def _rebuild_live(self) -> None:
        threads = self.threads
        self.live = live = [
            (idx, threads[tid])
            for idx, tid in enumerate(self.rotation)
            if threads[tid].status != FINISHED
        ]
        live_from = []
        pos = 0
        for idx in range(len(self.rotation)):
            while pos < len(live) and live[pos][0] < idx:
                pos += 1
            live_from.append(pos if pos < len(live) else 0)
        self.live_from = live_from

    def pick_next(self) -> _Thread | None:
        """The first eligible thread in rotation order from `rot_pos`."""
        live = self.live
        n = len(live)
        start = self.live_from[self.rot_pos]
        for off in range(n):
            idx, t = live[(start + off) % n]
            if _eligible(t):
                self.rot_pos = (idx + 1) % len(self.rotation)
                return t
        return None

    def _switch(self) -> bool:
        """A scheduling point of the running thread: take the step in place
        when the scheduler picks that thread again within the step limit,
        else keep the pick for `run` and return True (the caller yields)."""
        t = self.pick_next()
        if t is self.current and self.steps < self.step_limit:
            self.steps += 1
            return False
        self.picked = t
        return True

    def run(self, entry: str) -> ExecutionResult:
        entry_cls, entry_decl = self._check_entry(entry)
        self.add_thread(self._main(entry_cls, entry_decl))
        while True:
            # a scheduling point that yielded left its pick; a parked or
            # finished thread did not
            t, self.picked = self.picked, None
            if t is None:
                t = self.pick_next()
            if t is None:
                report = detect_deadlock(self.threads, self.steps)
                if report is None:
                    return self._result("completed")
                return self._result("deadlock", deadlock=report)
            if self.steps >= self.step_limit:
                return self._result("step-limit-exceeded")
            self.steps += 1
            self.current = t
            if t.status == BLOCKED:
                t.status = RUNNABLE
                t.monitor = None
            try:
                next(t.gen)
            except StopIteration:
                self.finish_thread(t)
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
        # aspect singletons first, then static blocks in program order, then entry
        for aspect in self.unit.aspects:
            inst = AspectInstance(aspect)
            self.aspect_instances[aspect.name] = inst
            for f in aspect.fields:
                if f.init is not None:
                    env = self._push_frame(f.loc, {}, inst)
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

    def _push_frame(self, loc: Loc, locals_: dict, this) -> _Env:
        frames = self.current.frames
        if len(frames) >= MAX_CALL_DEPTH:
            raise MiniRuntimeError(f"call depth exceeds {MAX_CALL_DEPTH}", loc)
        env = _Env(locals_, this)
        frames.append(env)
        return env

    def _pop_frame(self, env: _Env) -> None:
        t = self.current
        t.frames.pop()
        for mon in env.acquired:
            if mon.holder == t.tid:
                mon.holder = None

    # -- join point dispatch

    def _jp_enter(self, site, this_obj, target_obj, args):
        shadow, before, _ = site
        if self._switch():  # every woven join point is a scheduling point
            yield None
        text = self.texts.get(id(shadow))
        if text is None:
            text = self.texts[id(shadow)] = shadow.describe()
        self.emit("jp", text)
        cflow = self.current.cflow
        cflow.append(CflowFrame(shadow, this_obj, target_obj, tuple(args)))
        for entry in before:
            if eval_residue(entry.residue, this_obj, target_obj, args, cflow):
                yield from self.run_advice(entry.advice, shadow, this_obj, target_obj, args)

    def _jp_exit(self, site, this_obj, target_obj, args):
        shadow, _, after = site
        cflow = self.current.cflow
        for entry in after:
            if eval_residue(entry.residue, this_obj, target_obj, args, cflow):
                yield from self.run_advice(entry.advice, shadow, this_obj, target_obj, args)
        cflow.pop()

    def run_advice(self, advice, shadow, this_obj, target_obj, args):
        inst = self.aspect_instances[advice.aspect_name]
        key = (id(advice), id(shadow))
        texts = self.texts.get(key)
        if texts is None:
            texts = self.texts[key] = (
                f"{advice.describe()} at {shadow.kind} {shadow.signature}",
                (str(shadow.kind), shadow.signature, str(shadow.loc))
                if _names_jp(advice)
                else None,
            )
        tag, jp_texts = texts
        self.emit("advice_enter", tag)
        locals_ = _frame_locals(advice)
        locals_["thisObject"] = this_obj
        locals_["targetObject"] = target_obj
        locals_["args"] = list(args)
        if jp_texts is not None:
            locals_["jp"] = JpInfo(
                *jp_texts,
                class_name_of(target_obj) or class_name_of(this_obj) or (shadow.cls or ""),
                shadow.member or "",
                shadow.arity if shadow.arity is not None else len(args),
            )
        env = self._push_frame(shadow.loc, locals_, inst)
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
            yield from self._jp_enter(site, obj, obj, args)
        env = self._push_frame(loc, {}, obj)
        for f in cls.fields:
            if f.init is not None:
                obj.fields[f.name] = yield from self.eval_expr(f.init, env)
        self._pop_frame(env)
        if site is not None:
            yield from self._jp_exit(site, obj, obj, args)
        if cls.ctor is not None:
            yield from self.run_decl(obj, cls.ctor, args, loc)
        return obj

    def run_decl(self, this, decl, args, loc: Loc):
        """Run a method, helper, constructor or static block on `this` inside
        its execution or init join point and its own frame; the value of its
        `return`, or null when the body runs to the end."""
        site = self.unit.sites.get(id(decl))
        if site is not None:
            yield from self._jp_enter(site, this, this, args)
        env = self._push_frame(loc, _frame_locals(decl, zip(decl.params, args)), this)
        result = yield from self.exec_block(decl.body, env)
        self._pop_frame(env)
        if site is not None:
            yield from self._jp_exit(site, this, this, args)
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
            elif kind is ml.Assign:
                target = stmt.target
                if type(target) is ml.LocalRef:
                    env.locals[target.name] = yield from self.eval_expr(stmt.value, env)
                elif type(target) is ml.Index:
                    seq = yield from self.eval_expr(target.obj, env)
                    idx = yield from self.eval_expr(target.index, env)
                    value = yield from self.eval_expr(stmt.value, env)
                    self.index_check(seq, idx, target.loc)
                    seq[idx] = value
                else:  # field set join point
                    obj = yield from self.eval_expr(target.obj, env)
                    value = yield from self.eval_expr(stmt.value, env)
                    site = self.unit.sites.get(id(stmt))
                    if site is not None:
                        yield from self._jp_enter(site, env.this, obj, (value,))
                    self.field_write(obj, target.name, value, target.loc)
                    if site is not None:
                        yield from self._jp_exit(site, env.this, obj, (value,))
            elif kind is ml.VarDecl:
                init = stmt.init
                value = None if init is None else (yield from self.eval_expr(init, env))
                env.locals[stmt.name] = value
            elif kind is ml.If:
                later = False
                for test, body in stmt.arms:
                    # the step of the nested `if` an `else if` abbreviates
                    if later and self._switch():
                        yield None
                    cond = yield from self.eval_expr(test, env)
                    if self.as_bool(cond, test.loc if later else stmt.loc):
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
                    cond = yield from self.eval_expr(stmt.cond, env)
                    if not self.as_bool(cond, stmt.loc):
                        break
                    result = yield from self.exec_block(stmt.body, env)
                    if result is not _NO_RETURN:
                        return result
            elif kind is ml.Return:
                value = stmt.value
                return None if value is None else (yield from self.eval_expr(value, env))
            else:
                raise MiniRuntimeError(f"cannot execute {kind.__name__}", stmt.loc)
        return _NO_RETURN

    # -- expressions

    def eval_expr(self, expr, env: _Env):
        kind = type(expr)
        if kind in _LITERALS:
            return expr.value
        if kind is ml.LocalRef:
            return env.locals[expr.name]
        if kind is ml.ThisRef:
            return env.this
        if kind is ml.NullLit:
            return None
        if kind is ml.Binary:
            # down the left spine to the leftmost operand, then each operator
            # on the way back up; `&&` and `||` short-circuit per node
            spine = []
            while kind is ml.Binary:
                spine.append(expr)
                expr = expr.left
                kind = type(expr)
            value = yield from self.eval_expr(expr, env)
            for node in reversed(spine):
                op = node.op
                if op == "&&" or op == "||":
                    # `&&` goes on past true, `||` past false; otherwise the value stands
                    if self.as_bool(value, node.loc) is (op == "&&"):
                        right = yield from self.eval_expr(node.right, env)
                        value = self.as_bool(right, node.loc)
                else:
                    right = yield from self.eval_expr(node.right, env)
                    value = self.apply_operator(op, value, right, node.loc)
            return value
        if kind is ml.FieldGet:
            obj = yield from self.eval_expr(expr.obj, env)
            site = self.unit.sites.get(id(expr))
            if site is not None:
                yield from self._jp_enter(site, env.this, obj, ())
            result = self.field_read(obj, expr.name, expr.loc)
            if site is not None:
                yield from self._jp_exit(site, env.this, obj, ())
            return result
        if kind is ml.MethodCall:
            recv = yield from self.eval_expr(expr.obj, env)
            args = []
            for a in expr.args:
                args.append((yield from self.eval_expr(a, env)))
            site = self.unit.sites.get(id(expr))
            if site is not None:
                yield from self._jp_enter(site, env.this, recv, args)
            decl = _method_of(recv, expr.name, args, expr.loc)
            result = yield from self.run_decl(recv, decl, args, expr.loc)
            if site is not None:
                yield from self._jp_exit(site, env.this, recv, args)
            return result
        if kind is ml.BuiltinCall:
            return (yield from self.eval_builtin(expr, env))
        if kind is ml.Index:
            seq = yield from self.eval_expr(expr.obj, env)
            idx = yield from self.eval_expr(expr.index, env)
            self.index_check(seq, idx, expr.loc)
            return seq[idx]
        if kind is ml.ListLit:
            items = []
            for item in expr.items:
                items.append((yield from self.eval_expr(item, env)))
            return items
        if kind is ml.New:
            cls = self.classes[expr.class_name]
            args = []
            for a in expr.args:
                args.append((yield from self.eval_expr(a, env)))
            return (yield from self.instantiate(cls, args, expr.loc))
        if kind is ml.Spawn:
            call = expr.call
            recv = yield from self.eval_expr(call.obj, env)
            args = []
            for a in call.args:
                args.append((yield from self.eval_expr(a, env)))
            if not isinstance(recv, (MObject, AspectInstance)):
                raise MiniRuntimeError("spawn needs an object receiver", expr.loc)
            tid = self.add_thread(self._spawned(recv, call.name, args, call.loc))
            self.emit("spawn", f"t{tid}")
            return tid
        if kind is ml.Unary:
            value = yield from self.eval_expr(expr.operand, env)
            if expr.op == "!":
                return not self.as_bool(value, expr.loc)
            return -self.as_int(value, expr.loc)
        raise MiniRuntimeError(f"cannot evaluate {kind.__name__}", expr.loc)

    def apply_operator(self, op: str, left, right, loc: Loc):
        """A binary operator other than `&&`/`||` on evaluated operands."""
        if op == "==":
            return value_eq(left, right)
        if op == "!=":
            return not value_eq(left, right)
        if op == "+":
            if isinstance(left, str) and isinstance(right, str):
                return left + right
            return self.as_int(left, loc) + self.as_int(right, loc)
        a = self.as_int(left, loc)
        b = self.as_int(right, loc)
        fn = _INT_OPS.get(op)
        if fn is None:
            raise MiniRuntimeError(f"unknown operator {op!r}", loc)
        if b == 0 and (op == "/" or op == "%"):
            raise MiniRuntimeError("division by zero", loc)
        return fn(a, b)

    def eval_builtin(self, expr: ml.BuiltinCall, env: _Env):
        name = expr.name
        args = []
        for a in expr.args:
            args.append((yield from self.eval_expr(a, env)))
        loc = expr.loc
        arity = _BUILTIN_ARITY.get(name)
        if arity is not None and len(args) != arity:
            raise MiniRuntimeError(f"{name} expects {arity} argument(s)", loc)
        if name == "print":
            self.emit("print", render_value(args[0]))
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
            mon.holder = None
            for frame in reversed(t.frames):
                if mon in frame.acquired:
                    frame.acquired.remove(mon)
                    break
            return None
        if name == "monitor_notify_all":
            if mon.holder != t.tid:
                raise MiniRuntimeError("notify on a monitor not held", loc)
            for other in self.threads:
                if other.status == WAITING and other.monitor is mon:
                    other.status = BLOCKED
            return None
        if name == "monitor_wait":
            if mon.holder != t.tid:
                raise MiniRuntimeError("wait on a monitor not held", loc)
            # atomic release-and-park; re-acquire before continuing
            mon.holder = None
            t.status = WAITING
            t.monitor = mon
            yield None
        elif name != "monitor_acquire":
            raise MiniRuntimeError(f"unknown builtin {name!r}", loc)
        while mon.holder is not None:  # parked until pick_next finds it free
            t.status = BLOCKED
            t.monitor = mon
            yield None
        mon.holder = t.tid
        if name == "monitor_acquire":
            env.acquired.append(mon)
        return None

    # -- value helpers

    def field_read(self, obj, name: str, loc: Loc):
        if obj is None:
            raise MiniRuntimeError(f"null dereference reading {name!r}", loc)
        if isinstance(obj, (MObject, AspectInstance)):
            if name in obj.fields:
                return obj.fields[name]
            raise MiniRuntimeError(f"unknown field {name!r} on {obj.class_name}", loc)
        if isinstance(obj, JpInfo):
            if name in JpInfo.FIELDS:
                return getattr(obj, name)
            raise MiniRuntimeError(f"unknown join point attribute {name!r}", loc)
        raise MiniRuntimeError(f"unknown field {name!r} on {render_value(obj)}", loc)

    def field_write(self, obj, name: str, value, loc: Loc) -> None:
        if obj is None:
            raise MiniRuntimeError(f"null dereference writing {name!r}", loc)
        if isinstance(obj, (MObject, AspectInstance)):
            if name in obj.fields:
                obj.fields[name] = value
                return
            raise MiniRuntimeError(f"unknown field {name!r} on {obj.class_name}", loc)
        raise MiniRuntimeError(f"cannot write field {name!r} on {render_value(obj)}", loc)

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
        raise MiniRuntimeError(f"expected a bool, got {render_value(value)}", loc)

    def as_int(self, value, loc: Loc) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise MiniRuntimeError(f"expected an int, got {render_value(value)}", loc)
        return value


def run(
    unit: WovenUnit,
    entry: str = "Main.main",
    seed: int = 0,
    step_limit: int = DEFAULT_STEP_LIMIT,
) -> ExecutionResult:
    """Interpret a woven unit to completion, deadlock, error, or step limit."""
    return Interp(unit, seed, step_limit).run(entry)
