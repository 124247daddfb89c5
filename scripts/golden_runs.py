#!/usr/bin/env python3
"""Golden digests of interpreter runs: status, steps, trace and output.

The corpus is both demos, the stack demo with @hide stripped (a
deadlock), each benchmark workload generator at seeds 0-2 run with
scheduler seeds 0-2, a runtime error and a call-depth overflow. Each run
is repeated cut at step limits 1, 2, half its steps, steps - 1 and steps.
An entry records (status, steps, sha256 of the event trace, sha256 of the
printed output). tests/golden_runs.json holds the digests of the current
interpreter; a change that claims no change in behaviour keeps them
byte-identical.

Every input is compiled under relative paths inside a scratch directory,
so the locations in the traces do not depend on where the repository is.

Usage: python3 scripts/golden_runs.py [--write]
  prints the digests; --write also stores them in tests/golden_runs.json
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden_runs.json")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from miniweave import interp, pipeline  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = range(3)  # generator seeds, and scheduler seeds for each

# Two workers share a monitor-guarded counter while a third divides by a
# shrinking number; the advice adds join-point events and a cflow residue.
RUNTIME_ERROR_ML0 = """\
class Counter {
  var mon = null;
  var n = 0;
  constructor() { this.mon = make_monitor(); }
  def add(k) {
    monitor_acquire(this.mon);
    this.n = this.n + k;
    monitor_notify_all(this.mon);
    monitor_release(this.mon);
  }
  def await(k) {
    monitor_acquire(this.mon);
    while (this.n < k) { monitor_wait(this.mon); }
    monitor_release(this.mon);
  }
}

class Worker {
  var c = null;
  constructor(c) { this.c = c; }
  def run(k) {
    var i = 0;
    while (i < k) {
      if (i % 3 == 0) { this.c.add(1); }
      else if (i % 3 == 1) { this.c.add(2); }
      else { this.c.add(0); }
      i = i + 1;
    }
  }
  def divide(k) {
    var acc = 0;
    this.c.await(4);
    while (true) {
      acc = acc + 100 / k;
      k = k - 1;
    }
  }
}

class Main {
  def main() {
    var c = new Counter();
    spawn new Worker(c).run(6);
    spawn new Worker(c).run(4);
    spawn new Worker(c).divide(3);
    print("spawned");
  }
}
"""

RUNTIME_ERROR_MA0 = """\
aspect Watch {
  var adds = 0;
  before(): call(Counter.add) && !cflow(within(Watch)) {
    this.adds = this.adds + 1;
  }
  after(): execution(Worker.divide) {
    print("never");
  }
}
"""

# Two threads recurse; one has no base case and passes the call-depth limit.
CALL_DEPTH_ML0 = """\
class Diver {
  var seen = 0;
  def down(n) {
    this.seen = this.seen + 1;
    if (n == 0) { return 0; }
    return 1 + this.down(n - 1);
  }
  def forever(n) {
    return this.forever(n + 1);
  }
}

class Main {
  def main() {
    var d = new Diver();
    spawn d.down(30);
    spawn d.forever(0);
    print(format("depth {0}", d.down(20)));
  }
}
"""


def _write(path: str, text: str) -> str:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _compile(inputs, dsals=None, gen_dir="gen", strip_hide=False):
    options = pipeline.CompileOptions(dsals_path=dsals, gen_dir=gen_dir, strip_hide=strip_hide)
    return pipeline.compile(inputs, options).unit


def corpus():
    """Yield (name, unit, entry, scheduler seed); cwd must be a scratch dir."""
    for demo in ("demo", "demo_stack"):
        shutil.copytree(os.path.join(ROOT, demo), demo)
    jobs = ["demo/jobs.ml0", "demo/jobs.audit"]
    yield "demo", _compile(jobs, "demo/dsals.txt", "gen/demo"), "Main.main", 0
    stack = ["demo_stack/stack.ml0", "demo_stack/stack.cool", "demo_stack/auditor.ma0"]
    yield "demo_stack", _compile(stack, "demo_stack/dsals.txt", "gen/stack"), "Main.main", 0
    stripped = _compile(stack, "demo_stack/dsals.txt", "gen/stack", strip_hide=True)
    yield "demo_stack --strip-hide", stripped, "Main.main", 0
    for name, workload in WORKLOADS.items():
        for seed in SEEDS:
            out_dir = f"{name}/g{seed}"
            os.makedirs(out_dir)
            case = workload().generate(seed, out_dir)
            unit = _compile(case.inputs, case.dsals, case.gen_dir)
            for sched in SEEDS:
                yield f"{name} g{seed} s{sched}", unit, case.entry, sched
    errors = [
        _write("errors/runtime.ml0", RUNTIME_ERROR_ML0),
        _write("errors/watch.ma0", RUNTIME_ERROR_MA0),
    ]
    yield "runtime error", _compile(errors), "Main.main", 0
    yield "call depth", _compile([_write("errors/depth.ml0", CALL_DEPTH_ML0)]), "Main.main", 0


def _entry(res) -> dict:
    output = "".join(line + "\n" for line in res.output)
    return {
        "status": res.status,
        "steps": res.steps,
        "trace": hashlib.sha256(res.render_trace().encode("utf-8")).hexdigest(),
        "output": hashlib.sha256(output.encode("utf-8")).hexdigest(),
    }


def digests() -> dict[str, dict]:
    """Digests of every run of the corpus, keyed by `<case>` and `<case> limit=N`."""
    out: dict[str, dict] = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            for name, unit, entry, seed in corpus():
                full = interp.run(unit, entry, seed)
                out[name] = _entry(full)
                n = full.steps
                for limit in sorted({1, 2, n // 2, n - 1, n} - {0}):
                    out[f"{name} limit={limit}"] = _entry(interp.run(unit, entry, seed, limit))
        finally:
            os.chdir(cwd)
    return out


def main() -> int:
    text = json.dumps(digests(), indent=1, sort_keys=True) + "\n"
    if "--write" in sys.argv[1:]:
        with open(GOLDEN, "w", encoding="utf-8") as fh:
            fh.write(text)
    print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
