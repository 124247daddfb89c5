#!/usr/bin/env python3
"""Count the Python and C calls one interpreted run makes, per step.

Usage (from anywhere):

    python3 scripts/calls_per_step.py WORKLOAD [--seed N]

WORKLOAD is one workload of `perfbench/workloads.py`. Its inputs are
generated at seed N (default 7) into a temporary directory and compiled
once; then one `interp.run` of the woven unit, with the scheduler seed the
benchmark's first op uses, runs under `sys.setprofile`. Every `call` event
(a Python function called, or a generator resumed) and every `c_call`
event (a builtin or C method) counts as one call. The output is the run's
steps, its calls, calls per step, and the 15 functions that took the
most calls. The counts depend only on the code and the inputs,
never on the host's speed, so two runs of one checkout print the same.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import tempfile
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from miniweave import interp, pipeline  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def count_calls(workload: str, seed: int = 7, scale: float = 1.0) -> tuple[int, Counter]:
    """(steps, calls by function) of one run of `workload` at `seed`."""
    wl = WORKLOADS[workload](scale)
    with tempfile.TemporaryDirectory() as out_dir:
        case = wl.generate(seed, out_dir)
        options = pipeline.CompileOptions(dsals_path=case.dsals, gen_dir=case.gen_dir)
        unit = pipeline.compile(case.inputs, options).unit
    sched_seed = seed * 1000 if wl.per_op_sched_seed else seed
    calls: Counter = Counter()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            calls[f"{os.path.basename(code.co_filename)}:{code.co_name}"] += 1
        elif event == "c_call":
            calls[f"<C>:{arg.__qualname__}"] += 1

    # the collector is off during the run, so that no finalizer of an
    # earlier run's garbage (say, a suspended thread's generator) is counted
    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        res = interp.run(unit, case.entry, sched_seed)
    finally:
        sys.setprofile(None)
        gc.enable()
    calls["<C>:setprofile"] -= 1  # the call that turned the profile off
    return res.steps, +calls


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args(argv)
    steps, calls = count_calls(args.workload, args.seed)
    total = sum(calls.values())
    print(f"workload {args.workload} seed {args.seed}")
    print(f"steps {steps}  calls {total}  calls/step {total / steps:.1f}")
    for name, n in calls.most_common(15):
        print(f"{n:10d}  {n / steps:6.2f}/step  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
