#!/usr/bin/env python3
"""Per-layer split of one large compile, at the size of the ROADMAP probe.

Generates the weave_large workload at 300 classes x 10 methods with 61
advice (seed 0), compiles it once untraced and once under the tracer, and
prints each layer's self time as a share of the traced compile. The
numbers are recorded in NOTES.md. Run from the repository root:

    python3 perfbench/reanchor.py
"""

from __future__ import annotations

import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import Tracer  # noqa: E402
from workloads import WeaveLarge  # noqa: E402

OUT_DIR = os.path.join(".perfbench_work", "reanchor")


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from miniweave import pipeline

    wl = WeaveLarge()
    wl.classes, wl.methods, wl.advice = 300, 10, 61
    shutil.rmtree(OUT_DIR, ignore_errors=True)
    os.makedirs(OUT_DIR)
    try:
        case = wl.generate(0, OUT_DIR)
        options = pipeline.CompileOptions(
            dsals_path=case.dsals, gen_dir=case.gen_dir, relationships_path=case.relationships
        )
        t0 = time.perf_counter()
        pipeline.compile(case.inputs, options)
        plain_s = time.perf_counter() - t0
        tr = Tracer(1)
        tr.install()
        try:
            tr.op = 1
            pipeline.compile(case.inputs, options)
        finally:
            tr.restore()
    finally:
        shutil.rmtree(os.path.dirname(OUT_DIR), ignore_errors=True)
    total = tr.durations("pipeline.compile")[0]
    print(f"untraced compile {plain_s:.3f} s, traced {total:.3f} s")
    for key in ("joinpoints.shadows", "joinpoints.hidden", "aspects.advice",
                "matching.match_calls", "matching.match_hits", "matching.entries",
                "minilang.tokens", "bridge.records"):
        print(f"  {key:24s} {tr.counts[key]}")
    names = sorted({s.name for s in tr.spans}, key=lambda n: -tr.self_times(n)[0])
    print(f"  {'span':32s} {'self s':>8s} {'share':>7s}")
    for name in names:
        self_s = tr.self_times(name)[0]
        print(f"  {name:32s} {self_s:8.3f} {self_s / total:7.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
