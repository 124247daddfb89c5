#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, summarised per end-to-end metric.

Usage:

    python3 scripts/ab_bench.py PARENT_DIR CHANGE_DIR --workload W --pairs N \\
        --seconds S --seed K

W is one workload of `BENCHMARK.json`, a comma-separated list of them, or
`all`; the workloads run one after the other, N pairs each. Each pair runs
`perfbench/run.py --workload W --seed K --seconds S --trace 0` once in each
checkout, one after the other. The side that runs first alternates from
pair to pair, starting with the parent, so a drift in the host's load falls
on both sides alike. Each run's last line of standard output is its JSON
result. For every end-to-end metric of `BENCHMARK.json` the summary gives
each side's median and quartiles, the median ratio change/parent, how many
pairs each side won (a tie counts for neither), whether the medians differ
by more than the parent's interquartile range, and whether the change's
median is worse than the parent's by more than the metric's `bound`: its
relative change, (change - parent) / parent, or the negative of that where
higher is better, exceeds the bound. That column reads `unresolved` where
it is not, but either side's interquartile range is wider than the bound
times that side's median, so the runs spread too widely to tell; it reads
`no` whenever every change run beats every parent run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")


def _spec(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def end_to_end_metrics(path: str = BENCHMARK) -> list[tuple[str, str]]:
    """(name, "lower" or "higher" is better) of each end-to-end metric."""
    return [(m["name"], m["better"]) for m in _spec(path)["end_to_end"]]


def metric_bounds(path: str = BENCHMARK) -> dict[str, float]:
    """Each end-to-end metric's bound: the largest relative change for the
    worse that the benchmark allows."""
    return {m["name"]: m["bound"] for m in _spec(path)["end_to_end"]}


def select_workloads(arg: str, path: str = BENCHMARK) -> list[str]:
    """The workloads named by `--workload`: one name, a comma-separated
    list, or `all` for every workload in declaration order."""
    known = [w["name"] for w in _spec(path)["workloads"]]
    if arg == "all":
        return known
    names = [name.strip() for name in arg.split(",")]
    unknown = [name for name in names if name not in known]
    if unknown:
        raise ValueError(f"unknown workload(s) {', '.join(unknown)}; known: {', '.join(known)}")
    return names


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), interpolated inclusively."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(parent: list[dict], change: list[dict], metrics, bounds=None) -> list[dict]:
    """One row per metric present in every run: `parent` and `change` hold
    each pair's metric values ({name: value}), in pair order. With `bounds`
    ({name: bound}), each row also says whether the change's median is
    worse than the parent's by more than its metric's bound and, if not,
    whether the runs spread too widely to tell (see the module docstring)."""
    rows = []
    for name, better in metrics:
        if not all(name in run for run in parent + change):
            continue
        p = [run[name] for run in parent]
        c = [run[name] for run in change]
        sign = 1 if better == "lower" else -1
        p_q, c_q = quartiles(p), quartiles(c)
        ratio = c_q[1] / p_q[1] if p_q[1] else float("nan")
        row = {
            "metric": name,
            "better": better,
            "parent": p_q,
            "change": c_q,
            "ratio": ratio,
            "change_wins": sum(sign * (b - a) < 0 for a, b in zip(p, c)),
            "parent_wins": sum(sign * (b - a) > 0 for a, b in zip(p, c)),
            "resolved": abs(c_q[1] - p_q[1]) > p_q[2] - p_q[0],
        }
        if bounds is not None:
            bound = row["bound"] = bounds[name]
            row["over_bound"] = sign * (ratio - 1) > bound
            spread = any(q[2] - q[0] > bound * q[1] for q in (p_q, c_q))
            every_run_wins = all(sign * (b - a) < 0 for a in p for b in c)
            row["unresolved"] = not row["over_bound"] and spread and not every_run_wins
        rows.append(row)
    return rows


def render(rows: list[dict], pairs: int) -> str:
    def span(q):
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    bounded = any("bound" in r for r in rows)
    lines = [
        "| metric | parent p50 [q1, q3] | change p50 [q1, q3] | change/parent "
        f"| change wins /{pairs} | parent wins /{pairs} | gap > parent IQR |"
        + (" worse by > bound |" if bounded else ""),
        "|---|---|---|---|---|---|---|" + ("---|" if bounded else ""),
    ]
    for r in rows:
        lines.append(
            f"| {r['metric']} ({r['better']}) | {span(r['parent'])} | {span(r['change'])} "
            f"| {r['ratio']:.3f} | {r['change_wins']} | {r['parent_wins']} "
            f"| {'yes' if r['resolved'] else 'no'} |"
            + (f" {_verdict(r)} ({r['bound']:g}) |" if bounded else "")
        )
    return "\n".join(lines)


def _verdict(row: dict) -> str:
    if row["over_bound"]:
        return "YES"
    return "unresolved" if row["unresolved"] else "no"


def run_once(checkout: str, workload: str, seconds: float, seed: int) -> dict:
    """The JSON result of one `perfbench/run.py --trace 0` run in `checkout`."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: perfbench/run.py exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_dir")
    ap.add_argument("change_dir")
    ap.add_argument("--workload", required=True,
                    help="a workload, a comma-separated list of them, or all")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    try:
        workloads = select_workloads(args.workload)
    except ValueError as e:
        ap.error(str(e))
    sides = {"parent": args.parent_dir, "change": args.change_dir}
    for n, workload in enumerate(workloads):
        results: dict[str, list[dict]] = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                res = run_once(sides[side], workload, args.seconds, args.seed)
                results[side].append(res)
                print(f"{workload} pair {i + 1}/{args.pairs} {side}: correct {res['correct']}, "
                      f"failed {res['failed']}/{res['attempted']}", file=sys.stderr)
        values = {side: [{k: m["value"] for k, m in res["metrics"].items() if "value" in m}
                         for res in runs] for side, runs in results.items()}
        if n:
            print()
        print(f"workload {workload} seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s")
        for side, runs in results.items():
            print(f"{side}: {sum(r['failed'] for r in runs)} of "
                  f"{sum(r['attempted'] for r in runs)} ops failed")
        rows = summarize(values["parent"], values["change"], end_to_end_metrics(), metric_bounds())
        print(render(rows, args.pairs), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
