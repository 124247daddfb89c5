#!/usr/bin/env python3
"""Run the bounded-stack synchronization demo with and without @hide.

With the hide annotations honored, the auditor aspect never sees the
coordinator's internal join points and every seed completes with balanced
push/pop counts. With --strip-hide semantics (the weaver ignoring the
annotations), the auditor advises a coordinator-internal call made while
the coordinator monitor is held; its logging push re-enters the monitor
and the run self-deadlocks at a seed-stable step.

Exits 1 unless both hold for every seed: the honored run completes with
pushes=20 and pops=20, and the stripped run deadlocks with a thread that
re-entered a monitor it holds.

Usage: python3 scripts/hide_experiment.py [--seeds N]
"""

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from miniweave import interp, pipeline  # noqa: E402

DEMO = os.path.join(ROOT, "demo_stack")
INPUTS = [
    os.path.join(DEMO, "stack.ml0"),
    os.path.join(DEMO, "stack.cool"),
    os.path.join(DEMO, "auditor.ma0"),
]


def compile_demo():
    options = pipeline.CompileOptions(
        dsals_path=os.path.join(DEMO, "dsals.txt"), gen_dir=os.path.join(ROOT, "gen")
    )
    return pipeline.compile(INPUTS, options)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=5, help="seeds 0..N-1 (default 5)")
    args = ap.parse_args()

    honored = compile_demo().unit
    # the same parsed inputs, woven again with the hide filter off
    stripped = interp.WovenUnit.build(
        honored.program, honored.aspects, honored.precedence, strip_hide=True
    )

    ok = True
    print("== hide annotations honored ==")
    for seed in range(args.seeds):
        res = interp.run(honored, seed=seed)
        pushes = res.count_jp("method_execution BoundedStack.push/1 ")
        pops = res.count_jp("method_execution BoundedStack.pop/0 ")
        print(f"seed {seed}: {res.status}, pushes={pushes}, pops={pops}, steps={res.steps}")
        ok = ok and (res.status, pushes, pops) == ("completed", 20, 20)

    print("\n== hide annotations stripped ==")
    for seed in range(args.seeds):
        res = interp.run(stripped, seed=seed)
        line = f"seed {seed}: {res.status}"
        selfies = []
        if res.deadlock is not None:
            selfies = res.deadlock.self_edges()
            line += f" at step {res.deadlock.step}"
            if selfies:
                s = selfies[0]
                line += f"; t{s.tid} re-entered {s.monitor} (created at {s.monitor.created_at})"
        print(line)
        ok = ok and res.status == "deadlock" and bool(selfies)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
