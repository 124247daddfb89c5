#!/usr/bin/env python3
"""Pinned digests of each workload's reference trace and relationships.json.

The reference input of a workload is its generator at seed 0, run with
scheduler seed 0. Its event trace and its relationships report must stay
byte-identical across changes that claim no change in behaviour; `check`
compares them with pins.json on every benchmark run.

Run `python3 perfbench/pins.py` from the repository root to print the
digests of the current code, or with `--write` to store them in pins.json.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINS = os.path.join(HERE, "pins.json")
REF_DIR = os.path.join(".perfbench_work", "pin")

sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


def digests(name: str) -> dict[str, str]:
    """Digests of the reference run of one workload (paths relative to cwd)."""
    from miniweave import interp, pipeline

    out_dir = os.path.join(REF_DIR, name)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    try:
        case = WORKLOADS[name]().generate(0, out_dir)
        report = os.path.join(out_dir, "relationships.json")
        options = pipeline.CompileOptions(
            dsals_path=case.dsals, gen_dir=case.gen_dir, relationships_path=report
        )
        art = pipeline.compile(case.inputs, options)
        res = interp.run(art.unit, case.entry, 0)
        with open(report, "rb") as fh:
            rel = fh.read()
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return {
        "trace": hashlib.sha256(res.render_trace().encode("utf-8")).hexdigest(),
        "relationships": hashlib.sha256(rel).hexdigest(),
    }


def check(name: str) -> list[str]:
    with open(PINS, encoding="utf-8") as fh:
        pinned = json.load(fh)[name]
    have = digests(name)
    return [f"{what} digest changed" for what in pinned if pinned[what] != have[what]]


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    pins = {name: digests(name) for name in WORKLOADS}
    shutil.rmtree(os.path.dirname(REF_DIR), ignore_errors=True)
    text = json.dumps(pins, indent=2, sort_keys=True) + "\n"
    if "--write" in sys.argv[1:]:
        with open(PINS, "w", encoding="utf-8") as fh:
            fh.write(text)
    print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
