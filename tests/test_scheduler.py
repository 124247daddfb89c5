"""The mask scheduler against the full-rotation scan it replaced.

`OracleScheduler` keeps `add_thread` and `pick_next` as they were before
the scheduler kept state: every pick walks the whole rotation from the
cursor, finished threads included, and tests each thread's status. Both
sides see the same sequence of spawns, finishes and monitor state changes
and must pick the same threads and leave the cursor at the same place. The
interpreter's side changes state only through its own transition methods,
so each pick also checks the `ready` mask they keep.

`ScanInterp` puts the same scan into a real interpreter. Runs of the stack
demo, the `stack_cool` generator and the golden corpus's monitor program
must end alike under both schedulers at 30 seeds, run in full and cut at
a step limit.
"""

from __future__ import annotations

import gc
import importlib.util
import os
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ROOT, build_unit
from oracles import ScanInterp, eligible

from miniweave.interp import BLOCKED, FINISHED, RUNNABLE, WAITING, Interp, _Thread, run
from miniweave.values import Monitor

UNIT = build_unit("class Main {\n  def main() {\n  }\n}\n")


class OracleScheduler:
    """The scheduler before the live-thread scan, as a reference."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.threads: list[_Thread] = []
        self.rotation: list[int] = []
        self.rot_pos = 0

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
        return tid

    def pick_next(self) -> _Thread | None:
        n = len(self.rotation)
        for off in range(n):
            idx = (self.rot_pos + off) % n
            t = self.threads[self.rotation[idx]]
            if eligible(t):
                self.rot_pos = (idx + 1) % n
                return t
        return None


class Pair:
    """The interpreter's scheduler and the oracle driven in lockstep.

    The interpreter changes state only through its transition methods, the
    ones its builtins and run loop call; the oracle's threads are written
    directly. As in a run, only a RUNNABLE thread acts: it is made the
    running thread as the run loop does after a pick, then finishes or
    parks. Monitors are shared, so a holder change reaches both sides at
    once."""

    def __init__(self, seed: int, rng=None):
        self.new = Interp(UNIT, seed=seed)
        self.old = OracleScheduler(seed)
        if rng is not None:
            self.new.rng, self.old.rng = rng(), rng()
        self.monitors = [Monitor(i) for i in range(3)]
        self.picks: list[int | None] = []

    def run_as(self, k: int) -> bool:
        """Make thread k the running one, if it is RUNNABLE."""
        if self.new.threads[k].status != RUNNABLE:
            return False
        self.new._resume(self.new.rotation.index(k))
        return True

    def spawn(self) -> None:
        assert self.new.add_thread(None) == self.old.add_thread(None)

    def finish(self, k: int) -> None:
        if self.run_as(k):
            self.new.finish_thread()
            self.old.threads[k].status = FINISHED

    def park(self, k: int, status: str, m: int) -> None:
        if self.run_as(k):
            self.new._park(status, self.monitors[m])
            self.old.threads[k].status = status
            self.old.threads[k].monitor = self.monitors[m]

    def set_holder(self, m: int, tid: int | None) -> None:
        self.new._set_holder(self.monitors[m], tid)

    def notify_all(self, m: int) -> None:
        mon = self.monitors[m]
        self.new._notify_all(mon)
        # a notify on a free monitor is a notify and then a release
        self.new._set_holder(mon, mon.holder)
        for t in self.old.threads:
            if t.status == WAITING and t.monitor is mon:
                t.status = BLOCKED

    def pick(self) -> None:
        old = self.old
        scan = [eligible(old.threads[tid]) for tid in old.rotation]
        assert self.new.ready == sum(1 << i for i, ok in enumerate(scan) if ok)
        idx, b = self.new.pick_next(), old.pick_next()
        tid = None if idx is None else self.new.rotation[idx]
        assert tid == (None if b is None else b.tid)
        assert self.new.rot_pos == self.old.rot_pos
        self.picks.append(tid)
        if tid is None:
            return
        mon = self.new.threads[tid].monitor
        self.new._resume(idx)  # as the run loop does
        if mon is not None:
            # as monitor_acquire does: the picked thread takes the monitor
            self.new._set_holder(mon, tid)
            old.threads[tid].status = RUNNABLE
            old.threads[tid].monitor = None


def apply(pair: Pair, op: tuple) -> None:
    kind, k, m, holder = op
    n = len(pair.new.threads)
    if kind == "spawn":
        pair.spawn()
    elif kind == "finish":
        pair.finish(k % n)
    elif kind == "block":
        pair.park(k % n, BLOCKED, m)
        pair.set_holder(m, None if holder is None else holder % n)
    elif kind == "release":
        pair.set_holder(m, None)
    elif kind == "wait":
        pair.park(k % n, WAITING, m)
    elif kind == "notify_all":
        pair.notify_all(m)
    else:
        pair.pick()


OPS = st.tuples(
    st.sampled_from(["spawn", "finish", "block", "release", "wait", "notify_all", "pick", "pick"]),
    st.integers(0, 40),
    st.integers(0, 2),
    st.none() | st.integers(0, 40),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.lists(OPS, max_size=80))
def test_live_scan_picks_as_the_full_rotation_scan(seed, ops):
    pair = Pair(seed)
    pair.spawn()  # a run starts with its main thread
    for op in ops:
        apply(pair, op)
    pair.pick()


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.lists(st.integers(0, 40), max_size=30))
def test_spawn_and_finish_churn(seed, width, finishes):
    """Many short threads: the rotation keeps every finished thread."""
    pair = Pair(seed)
    for _ in range(width):
        pair.spawn()
    for k in finishes:
        pair.pick()
        pair.finish(k % len(pair.new.threads))
        pair.spawn()
    pair.pick()
    while pair.picks[-1] is not None:
        pair.finish(pair.picks[-1])
        pair.pick()
    assert len(pair.new.rotation) == width + len(finishes)


class ScriptedRng:
    """Stands in for the seeded rng: `randrange` returns the scripted
    insertion indexes, with -1 meaning the end of the rotation."""

    def __init__(self, draws):
        self.draws = list(draws)

    def randrange(self, n: int) -> int:
        d = self.draws.pop(0)
        return n - 1 if d == -1 else d


@pytest.mark.parametrize("insert_at", [0, -1], ids=["first", "last"])
def test_wrap_after_every_thread_past_the_cursor_finished(insert_at):
    pair = Pair(0, rng=lambda: ScriptedRng([-1, -1, -1, insert_at]))
    for _ in range(4):
        pair.spawn()  # rotation [0, 1, 2, 3]
    pair.pick()
    pair.pick()  # t0, t1: the cursor is at index 2
    pair.finish(2)
    pair.finish(3)  # nothing live at or after the cursor
    pair.spawn()  # t4 goes first or last
    assert pair.new.rotation == ([4, 0, 1, 2, 3] if insert_at == 0 else [0, 1, 2, 3, 4])
    for _ in range(4):
        pair.pick()
    assert pair.picks == [0, 1, 4, 0, 1, 4]


def test_no_live_thread_picks_none():
    pair = Pair(5)
    pair.spawn()
    pair.spawn()
    pair.finish(0)
    pair.finish(1)
    pair.pick()
    assert pair.picks == [None]
    assert pair.new.ready == 0


# ---------------------------------------------------------------------------
# Real runs under the mask scheduler and under ScanInterp
# ---------------------------------------------------------------------------

_spec = importlib.util.spec_from_file_location(
    "golden_runs", os.path.join(ROOT, "scripts", "golden_runs.py")
)
golden_runs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_runs)

SEEDS = range(30)

# how every run of each program ends
ENDINGS = {
    "demo_stack": {"completed"},
    "demo_stack-strip-hide": {"deadlock"},
    "stack_cool": {"completed"},
    "monitor-program": {"runtime-error"},
}


@pytest.fixture(scope="module")
def monitor_units(tmp_path_factory):
    """The unit of each program whose threads park on monitors: the stack
    demo with its hides honored and stripped (a deadlock), the `stack_cool`
    generator and the golden corpus's monitor program."""
    cwd = os.getcwd()
    os.chdir(tmp_path_factory.mktemp("units"))
    try:
        stack = [os.path.join(ROOT, "demo_stack", name)
                 for name in ("stack.ml0", "stack.cool", "auditor.ma0")]
        dsals = os.path.join(ROOT, "demo_stack", "dsals.txt")
        case = golden_runs.WORKLOADS["stack_cool"]().generate(0, ".")
        errors = [
            golden_runs._write("errors/runtime.ml0", golden_runs.RUNTIME_ERROR_ML0),
            golden_runs._write("errors/watch.ma0", golden_runs.RUNTIME_ERROR_MA0),
        ]
        return {
            "demo_stack": golden_runs._compile(stack, dsals, "gen/stack"),
            "demo_stack-strip-hide":
                golden_runs._compile(stack, dsals, "gen/stack", strip_hide=True),
            "stack_cool": golden_runs._compile(case.inputs, case.dsals, case.gen_dir),
            "monitor-program": golden_runs._compile(errors),
        }
    finally:
        os.chdir(cwd)


def _outcome(interp_cls, unit, seed: int, step_limit: int | None = None):
    kw = {} if step_limit is None else {"step_limit": step_limit}
    res = interp_cls(unit, seed, **kw).run("Main.main")
    report = res.deadlock.render() if res.deadlock else None
    return res.status, res.steps, res.render_trace(), report, res.error


@pytest.mark.parametrize("name", list(ENDINGS))
def test_runs_end_alike_under_the_scan(monitor_units, name):
    unit = monitor_units[name]
    statuses = set()
    for seed in SEEDS:
        full = _outcome(Interp, unit, seed)
        assert _outcome(ScanInterp, unit, seed) == full, seed
        statuses.add(full[0])
        # a cut that moves with the seed, so the runs stop in many states
        limit = 1 + seed * full[1] // len(SEEDS)
        assert _outcome(ScanInterp, unit, seed, limit) == _outcome(Interp, unit, seed, limit)
    assert statuses == ENDINGS[name]


def _spawn_unit(n: int):
    """`Main` spawns `n` threads that each return at once."""
    return build_unit(
        "class W {\n  def w() {\n  }\n}\n"
        "class Main {\n  def main() {\n    var w = new W();\n    var i = 0;\n"
        f"    while (i < {n}) {{\n      spawn w.w();\n      i = i + 1;\n    }}\n  }}\n}}\n"
    )


def _run_seconds(unit, n: int) -> float:
    """The process time of one run. As `timeit` does, the run goes without
    the garbage collector, whose full passes scan every object of the test
    process, not just the run's; the garbage before it is collected first."""
    gc.collect()
    gc.disable()
    try:
        t0 = time.process_time()
        res = run(unit)
        seconds = time.process_time() - t0
    finally:
        gc.enable()
    assert res.status == "completed"
    assert sum(kind == "finish" for _, _, kind, _ in res.records) == n + 1
    return seconds


def test_spawn_and_finish_cost_grows_linearly():
    """8,000 spawns cost at most 5x what 2,000 do, in the best of 3 pairs of
    runs. Each pair times the two sizes back to back, so a change in the
    host's load between pairs reaches both sides of a ratio."""
    small, large = _spawn_unit(2000), _spawn_unit(8000)
    times = [(_run_seconds(small, 2000), _run_seconds(large, 8000)) for _ in range(3)]
    assert min(t_large / t_small for t_small, t_large in times) <= 5, times
