"""The live-thread scheduler against the full-rotation scan it replaced.

`OracleScheduler` keeps `add_thread` and `pick_next` as they were before
finished threads left the scan: every pick walks the whole rotation from
the cursor, finished threads included. Both sides see the same sequence of
spawns, finishes and monitor state changes and must pick the same threads
and leave the cursor at the same place.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_unit

from miniweave.interp import BLOCKED, FINISHED, RUNNABLE, WAITING, Interp, _eligible, _Thread
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
            if _eligible(t):
                self.rot_pos = (idx + 1) % n
                return t
        return None


class Pair:
    """The interpreter's scheduler and the oracle driven in lockstep.

    Monitors are shared, so a holder change reaches both sides at once."""

    def __init__(self, seed: int, rng=None):
        self.new = Interp(UNIT, seed=seed)
        self.old = OracleScheduler(seed)
        if rng is not None:
            self.new.rng, self.old.rng = rng(), rng()
        self.monitors = [Monitor(i) for i in range(3)]
        self.picks: list[int | None] = []

    def sides(self):
        return (self.new.threads, self.old.threads)

    def spawn(self) -> None:
        assert self.new.add_thread(None) == self.old.add_thread(None)

    def finish(self, k: int) -> None:
        if self.new.threads[k].status != FINISHED:
            self.new.finish_thread(self.new.threads[k])
            self.old.threads[k].status = FINISHED

    def park(self, k: int, status: str, m: int) -> None:
        for threads in self.sides():
            if threads[k].status != FINISHED:
                threads[k].status = status
                threads[k].monitor = self.monitors[m]

    def notify_all(self, m: int) -> None:
        for threads in self.sides():
            for t in threads:
                if t.status == WAITING and t.monitor is self.monitors[m]:
                    t.status = BLOCKED

    def pick(self) -> None:
        a, b = self.new.pick_next(), self.old.pick_next()
        tid = None if a is None else a.tid
        assert tid == (None if b is None else b.tid)
        assert self.new.rot_pos == self.old.rot_pos
        self.picks.append(tid)
        if tid is not None and a.status == BLOCKED:
            # as the run loop and monitor_acquire do: the picked thread takes the monitor
            a.monitor.holder = tid
            for threads in self.sides():
                threads[tid].status = RUNNABLE
                threads[tid].monitor = None


def apply(pair: Pair, op: tuple) -> None:
    kind, k, m, holder = op
    n = len(pair.new.threads)
    if kind == "spawn":
        pair.spawn()
    elif kind == "finish":
        pair.finish(k % n)
    elif kind == "block":
        pair.park(k % n, BLOCKED, m)
        pair.monitors[m].holder = None if holder is None else holder % n
    elif kind == "release":
        pair.monitors[m].holder = None
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
    assert pair.new.live == []
