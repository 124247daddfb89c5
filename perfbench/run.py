#!/usr/bin/env python3
"""The miniweave benchmark: seeded workloads through compile -> weave -> run.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One op is one `pipeline.compile` of the generated inputs followed by one
`interp.run` of the woven unit, the same public calls
`scripts/hide_experiment.py` makes. The load is a closed loop with one
client: each op starts when the previous one ends, in this one process,
with no worker threads (MiniLang threads are simulated).

--trace 0 times ops for S seconds and prints the end-to-end metrics.
--trace 1 runs a fixed number of ops untraced, then the same ops with every
layer's public functions wrapped (see tracer.py), and prints the per-layer
metrics plus the tracing overhead. Either way every op's output is checked
against facts the generator knows, one `cli.main` call checks exit codes,
and the traces of a fixed reference input are compared with the digests in
pins.json. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = ".perfbench_work"  # inputs and generated aspects, removed after a run
OUT = ".perfbench_out"  # span dumps of traced passes

sys.path.insert(0, HERE)

from workloads import WORKLOADS, StackCool  # noqa: E402

# ops in each half of a traced run; counts are per op over exactly these ops
TRACED_OPS = {"weave_large": 10, "jobs_audit": 10, "stack_cool": 20, "spy_deep": 10}
SETUP_REPEATS = 5


class Bench:
    """One workload at one seed: its inputs, its ops and their checks."""

    def __init__(self, workload, seed: int, out_dir: str):
        from miniweave import interp, pipeline

        self.interp, self.pipeline = interp, pipeline
        self.wl = workload
        self.seed = seed
        self.out_dir = out_dir
        self.case = None
        self.attempted = 0
        self.failures: list[str] = []

    def setup(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        os.makedirs(self.out_dir)
        self.case = self.wl.generate(self.seed, self.out_dir)

    def options(self, strip_hide: bool = False):
        case = self.case
        return self.pipeline.CompileOptions(
            dsals_path=case.dsals,
            gen_dir=case.gen_dir,
            strip_hide=strip_hide,
            relationships_path=case.relationships,
        )

    def sched_seed(self, i: int) -> int:
        return self.seed * 1000 + i if self.wl.per_op_sched_seed else self.seed

    def op(self, i: int, strip_hide: bool = False):
        """One timed op: returns (artifacts, result, compile_s, run_s).

        Garbage left by earlier ops is collected first, untimed, so that an
        op pays only for the collections its own allocations cause."""
        gc.collect()
        t0 = time.perf_counter()
        art = self.pipeline.compile(self.case.inputs, self.options(strip_hide))
        t1 = time.perf_counter()
        res = self.interp.run(art.unit, self.case.entry, self.sched_seed(i))
        t2 = time.perf_counter()
        return art, res, t1 - t0, t2 - t1

    def record(self, what: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failures.append(f"{what}: {errors[0]}")

    def checked_op(self, i: int):
        art, res, c_s, r_s = self.op(i)
        self.record(f"op {i}", self.wl.check(self.case, art, res))
        return art, res, c_s, r_s

    def extra_checks(self) -> None:
        """Untimed checks made once per run besides the cli call."""
        import pins

        if isinstance(self.wl, StackCool):
            _, res, _, _ = self.op(0, strip_hide=True)
            self.record("strip-hide op", StackCool.check_strip_hide(res))
        self.record("pinned digests", pins.check(self.wl.name))

    def cli_check(self) -> None:
        """One in-process `miniweave run`, checking exit code and stdout."""
        from miniweave import cli

        case = self.case
        argv = ["run", *case.inputs, "--dsals", case.dsals, "--gen-dir", case.gen_dir,
                "--entry", case.entry, "--seed", str(self.sched_seed(0))]
        expected = [(argv, 0)]
        if isinstance(self.wl, StackCool):
            expected.append((argv + ["--strip-hide"], 2))
        for args, want in expected:
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(args)
            errors = [] if code == want else [f"exit {code}, expected {want}"]
            out = self.case.facts.get("output")
            if want == 0 and out is not None and sink.getvalue().splitlines() != out:
                errors.append(f"printed {sink.getvalue()[:60]!r} != {out}")
            self.record(f"cli {' '.join(args[-2:])}", errors)

    def peak_mem_mb(self) -> float:
        tracemalloc.start()
        try:
            self.op(0)
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()


def tail(values: list[float]) -> tuple[float, int, int]:
    """Highest whole percentile with at least ten values beyond it
    (nearest rank): returns (value, percentile, values beyond)."""
    ordered = sorted(values)
    n = len(ordered)
    for p in range(99, 0, -1):
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return ordered[rank - 1], p, n - rank
    return ordered[-1], 100, 0


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import miniweave.cli; print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Median time to import miniweave in a fresh interpreter, over several
    interpreters run one after another."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, SRC],
                              capture_output=True, text=True, check=True, timeout=120)
        times.append(float(proc.stdout))
    return statistics.median(times)


def setup_seconds(bench: Bench) -> float:
    """Import time plus the median of several (generate, write, warm-up op)."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        bench.setup()
        bench.checked_op(0)
        times.append(time.perf_counter() - t0)
    return import_seconds() + statistics.median(times)


# The machines this benchmark runs on share their CPUs with other tenants.
# Their load moved a fixed pure-Python loop's median time by up to 30%
# between 20 s windows, and a run's op times moved with it. So a fixed
# kernel is timed before every op, and every time metric is scaled to the
# machine speed at which that kernel takes CAL_REF_MS. The report shows
# the times as measured next to the scaled ones.
CAL_REF_MS = 3.0


class _Cell:
    __slots__ = ("v",)

    def __init__(self, v: int):
        self.v = v

    def bump(self, k: int) -> int:
        self.v += k
        return self.v


def _count(n: int):
    yield from range(n)


def calibration_ms() -> float:
    """Time one fixed kernel of calls, generator steps, dict and str work."""
    t0 = time.perf_counter()
    cells: dict[int, _Cell] = {}
    total = 0
    for i in _count(10_000):
        cell = cells.get(i & 63)
        if cell is None:
            cell = cells[i & 63] = _Cell(i)
        total += cell.bump(i & 7)
        if i % 97 == 0:
            total += len(f"{i}:{total}")
    return (time.perf_counter() - t0) * 1e3


def timed_pass(bench: Bench, seconds: float) -> dict:
    op_s, compile_s, run_s, rate, cal = [], [], [], [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or i < 3:
        i += 1
        cal.append(calibration_ms())
        _, res, c_s, r_s = bench.checked_op(i)
        op_s.append(c_s + r_s)
        compile_s.append(c_s)
        run_s.append(r_s)
        rate.append(res.steps / r_s)
    tail_s, pct, beyond = tail(op_s)
    return {
        "ops": len(op_s),
        "cal_ms": statistics.median(cal),
        "op_ms_p50": statistics.median(op_s) * 1e3,
        "op_ms_tail": tail_s * 1e3,
        "tail_pct": pct,
        "tail_beyond": beyond,
        "compile_ms_p50": statistics.median(compile_s) * 1e3,
        "run_ms_p50": statistics.median(run_s) * 1e3,
        "steps_per_s": statistics.median(rate),
    }


E2E_UNITS = {
    "setup_s": "s", "op_ms_p50": "ms", "op_ms_tail": "ms", "compile_ms_p50": "ms",
    "run_ms_p50": "ms", "steps_per_s": "1/s", "peak_mem_mb": "MB",
}


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, list[str]]:
    raw = {"setup_s": setup_seconds(bench)}
    t = timed_pass(bench, seconds)
    raw.update((k, t[k]) for k in E2E_UNITS if k in t)
    raw["peak_mem_mb"] = bench.peak_mem_mb()
    bench.cli_check()
    bench.extra_checks()
    scale = CAL_REF_MS / t["cal_ms"]  # < 1 when this run's machine was slower than the reference
    value = {k: v * scale for k, v in raw.items()}
    value["steps_per_s"] = raw["steps_per_s"] / scale
    value["peak_mem_mb"] = raw["peak_mem_mb"]
    report = [
        f"  ops             {t['ops']} (closed loop, 1 client)",
        f"  calibration     {t['cal_ms']:.4f} ms p50 (reference {CAL_REF_MS} ms): "
        f"times scaled by {scale:.4f}",
    ]
    for k, unit in E2E_UNITS.items():
        line = f"  {k:15s} {value[k]:.4f} {unit}"
        if value[k] != raw[k]:
            line += f"  (measured {raw[k]:.4f})"
        if k == "op_ms_tail":
            line += f"  p{t['tail_pct']}, {t['tail_beyond']} of {t['ops']} ops beyond"
        report.append(line)
    fail_ratio = len(bench.failures) / bench.attempted
    report.append(f"  fail_ratio      {fail_ratio:.4f} ({len(bench.failures)}/{bench.attempted})")
    return {k: metric(value[k], unit) for k, unit in E2E_UNITS.items()}, report


# per-layer metric -> (unit, function of the finished tracer, wrapped names it needs)
def _p50_ms(name):
    return lambda tr: statistics.median(tr.durations(name)) * 1e3


def _per_op(counter):
    return lambda tr: tr.counts[counter] / tr.n_ops


def _ratio(num, den):
    return lambda tr: tr.counts[num] / tr.counts[den] if tr.counts[den] else 0.0


def _rate(counter, span):
    def f(tr):
        busy = sum(tr.durations(span))
        return tr.counts[counter] / busy if busy else 0.0

    return f


DSAL_COOL = ["dsal_cool.parse_cool", "dsal_cool.gen_cool_aspect", "dsal_cool.validate_cool"]
DSAL_AUDIT = ["dsal_audit.parse_audit", "dsal_audit.gen_audit_aspect", "dsal_audit.validate_audit"]
COMPILE_CHILDREN = [
    "pipeline.transform_inputs", "minilang.parse_base", "pipeline.parse_aspect_file",
    "dsal_cool.validate_cool", "dsal_audit.validate_audit", "minilang.resolve_program",
    "joinpoints.extract_shadows", "joinpoints.apply_hide_filter",
    "matching.build_match_table", "bridge.emit_relationship_map",
]


def _sum_p50_ms(names):
    def f(tr):
        per_op = [sum(ops) for ops in zip(*(tr.durations(n) for n in names))]
        return statistics.median(per_op) * 1e3

    return f


PER_LAYER = {
    "minilang.parse_ms": ("ms", _p50_ms("minilang.parse_base"), ["minilang.parse_base"]),
    "minilang.tokens": ("count", _per_op("minilang.tokens"), ["lexer.tokenize", "minilang.parse_base"]),
    "minilang.tokens_per_s": ("1/s", _rate("minilang.tokens", "minilang.parse_base"),
                              ["lexer.tokenize", "minilang.parse_base"]),
    "minilang.resolve_ms": ("ms", _p50_ms("minilang.resolve_program"), ["minilang.resolve_program"]),
    "aspects.parse_ms": ("ms", _p50_ms("pipeline.parse_aspect_file"), ["pipeline.parse_aspect_file"]),
    "aspects.advice": ("count", _per_op("aspects.advice"), ["pipeline.parse_aspect_file"]),
    "dsal_cool.transform_ms": ("ms", _sum_p50_ms(DSAL_COOL), DSAL_COOL),
    "dsal_cool.gen_bytes": ("bytes", _per_op("dsal_cool.gen_bytes"), ["dsal_cool.gen_cool_aspect"]),
    "dsal_audit.transform_ms": ("ms", _sum_p50_ms(DSAL_AUDIT), DSAL_AUDIT),
    "dsal_audit.gen_bytes": ("bytes", _per_op("dsal_audit.gen_bytes"), ["dsal_audit.gen_audit_aspect"]),
    "pipeline.self_ms": ("ms", lambda tr: statistics.median(tr.self_times("pipeline.compile")) * 1e3,
                         ["pipeline.compile"] + COMPILE_CHILDREN),
    "joinpoints.extract_ms": ("ms", _p50_ms("joinpoints.extract_shadows"), ["joinpoints.extract_shadows"]),
    "joinpoints.shadows": ("count", _per_op("joinpoints.shadows"), ["joinpoints.extract_shadows"]),
    "joinpoints.hide_ms": ("ms", _p50_ms("joinpoints.apply_hide_filter"), ["joinpoints.apply_hide_filter"]),
    "joinpoints.hidden_ratio": ("ratio", _ratio("joinpoints.hidden", "joinpoints.hide_in"),
                                ["joinpoints.apply_hide_filter"]),
    "matching.build_ms": ("ms", _p50_ms("matching.build_match_table"), ["matching.build_match_table"]),
    "matching.match_calls": ("count", _per_op("matching.match_calls"),
                             ["matching.match", "matching.build_match_table"]),
    "matching.match_hit_ratio": ("ratio", _ratio("matching.match_hits", "matching.match_calls"),
                                 ["matching.match", "matching.build_match_table"]),
    "matching.entries": ("count", _per_op("matching.entries"), ["matching.build_match_table"]),
    "matching.residue_tests": ("count", _per_op("matching.residue_tests"), ["interp.eval_residue"]),
    "matching.residue_pass_ratio": ("ratio", _ratio("matching.residue_passes", "matching.residue_tests"),
                                    ["interp.eval_residue"]),
    "matching.cflow_tests": ("count", _per_op("matching.cflow_tests"), ["matching.cflow_active"]),
    "matching.cflow_frames_walked": ("count", _per_op("matching.cflow_frames_walked"),
                                     ["matching.cflow_active", "matching.match"]),
    "matching.cflow_match_calls": ("count", _per_op("matching.cflow_match_calls"),
                                   ["matching.cflow_active", "matching.match"]),
    "interp.run_ms": ("ms", _p50_ms("interp.run"), ["interp.run"]),
    "interp.steps": ("count", _per_op("interp.steps"), ["interp.run"]),
    "interp.us_per_step": ("us", lambda tr: sum(tr.durations("interp.run")) * 1e6
                           / max(1, tr.counts["interp.steps"]), ["interp.run"]),
    "interp.jp_dispatches": ("count", _per_op("interp.jp_dispatches"), ["interp.run"]),
    "interp.advice_runs": ("count", _per_op("interp.advice_runs"), ["interp.run"]),
    "interp.threads": ("count", _per_op("interp.threads"), ["interp.run"]),
    "interp.events_retained": ("count", _per_op("interp.events_retained"), ["interp.run"]),
    "bridge.report_ms": ("ms", _p50_ms("bridge.emit_relationship_map"), ["bridge.emit_relationship_map"]),
    "bridge.records": ("count", _per_op("bridge.records"), ["bridge.build_relationship_map"]),
    "bridge.json_bytes": ("bytes", _per_op("bridge.json_bytes"), ["bridge.render_relationship_map"]),
    "cli.main_ms": ("ms", lambda tr: tr.outside_ops_ms("cli.main"), []),
}


def per_layer(bench: Bench, seed: int) -> tuple[dict, list[str]]:
    from tracer import Tracer

    bench.setup()
    bench.checked_op(0)  # warm-up
    n = TRACED_OPS[bench.wl.name]
    plain = [sum(bench.checked_op(i)[2:]) for i in range(1, n + 1)]
    tr = Tracer(n)
    tr.install()
    try:
        traced = []
        for i in range(1, n + 1):
            tr.op = i
            idx = tr.begin("op")
            _, _, c_s, r_s = bench.checked_op(i)
            tr.end(idx)
            traced.append(c_s + r_s)
    finally:
        tr.restore()
    tr.op = 0  # the cli span belongs to no op; it runs with the wrappers off
    idx = tr.begin("cli.main")
    bench.cli_check()
    tr.end(idx)
    bench.extra_checks()
    metrics: dict = {}
    for name, (unit, compute, needs) in PER_LAYER.items():
        gone = [tr.missing[q] for q in needs if q in tr.missing]
        if gone:
            metrics[name] = {"value": None, "unit": unit, "absent": gone[0]}
        else:
            metrics[name] = metric(compute(tr), unit)
    overhead = statistics.median(traced) / statistics.median(plain)
    metrics["bench.trace_overhead"] = metric(overhead, "ratio")
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{bench.wl.name}-seed{seed}-spans.json"), "w") as fh:
        json.dump({"spans": tr.dump(), "counts": dict(tr.counts), "missing": tr.missing}, fh)
    report = [f"  traced ops      {n} (untraced {n} first)"]
    for name, m in metrics.items():
        shown = m.get("absent") or f"{m['value']:.6g}"
        report.append(f"  {name:30s} {shown} {m['unit']}")
    return metrics, report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "miniweave", "pipeline.py")):
        print(f"error: no miniweave sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)  # input paths, and so traces and reports, are relative to the root
    sys.path.insert(0, SRC)
    work = os.path.join(WORK, args.workload)
    bench = Bench(WORKLOADS[args.workload](), args.seed, work)
    try:
        if args.trace:
            metrics, report = per_layer(bench, args.seed)
        else:
            metrics, report = end_to_end(bench, args.seconds)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("\n".join(report))
    for failure in bench.failures[:10]:
        print(f"  FAILED {failure}")
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
