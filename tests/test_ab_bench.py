"""The summary of scripts/ab_bench.py on fixed numbers (no benchmark runs)."""

from __future__ import annotations

import importlib.util
import os

import pytest

from conftest import ROOT

_spec = importlib.util.spec_from_file_location(
    "ab_bench", os.path.join(ROOT, "scripts", "ab_bench.py")
)
ab_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_bench)


def test_summary_of_fixed_pairs():
    parent = [{"compile_ms_p50": v, "steps_per_s": s}
              for v, s in [(60, 100), (62, 110), (58, 90), (61, 100), (59, 95)]]
    change = [{"compile_ms_p50": v, "steps_per_s": s}
              for v, s in [(50, 100), (51, 100), (59, 91), (62, 99), (49, 96)]]
    metrics = [("compile_ms_p50", "lower"), ("steps_per_s", "higher"), ("setup_s", "lower")]
    rows = ab_bench.summarize(parent, change, metrics)
    # a metric absent from the runs has no row
    assert [r["metric"] for r in rows] == ["compile_ms_p50", "steps_per_s"]
    compile_row, steps_row = rows
    assert compile_row["parent"] == (59, 60, 61)
    assert compile_row["change"] == (50, 51, 59)
    assert compile_row["ratio"] == pytest.approx(51 / 60)
    # pairs 1, 2 and 5 favour the change, 3 and 4 the parent
    assert (compile_row["change_wins"], compile_row["parent_wins"]) == (3, 2)
    assert compile_row["resolved"]  # 9 ms apart, parent IQR 2 ms
    # higher is better here; pair 1 is a tie
    assert (steps_row["change_wins"], steps_row["parent_wins"]) == (2, 2)
    assert steps_row["parent"] == (95, 100, 100)
    assert not steps_row["resolved"]
    table = ab_bench.render(rows, 5).splitlines()
    assert table[2] == (
        "| compile_ms_p50 (lower) | 60 [59, 61] | 51 [50, 59] | 0.850 | 3 | 2 | yes |"
    )


def test_one_pair_has_degenerate_quartiles():
    assert ab_bench.quartiles([4.0]) == (4.0, 4.0, 4.0)


def test_metrics_are_read_from_the_benchmark_declaration():
    names = dict(ab_bench.end_to_end_metrics())
    assert names["compile_ms_p50"] == "lower"
    assert names["steps_per_s"] == "higher"


def test_rows_flag_a_median_worse_than_its_bound():
    parent = [{"setup_s": v, "steps_per_s": s} for v, s in [(0.10, 200), (0.12, 210), (0.11, 190)]]
    change = [{"setup_s": v, "steps_per_s": s} for v, s in [(0.14, 170), (0.13, 150), (0.15, 160)]]
    metrics = [("setup_s", "lower"), ("steps_per_s", "higher")]
    rows = ab_bench.summarize(parent, change, metrics, {"setup_s": 0.25, "steps_per_s": 0.2})
    setup_row, steps_row = rows
    # 0.11 -> 0.14 is 27% worse; 200 -> 160 is 20% worse, not more
    assert setup_row["over_bound"] and not steps_row["over_bound"]
    rows = ab_bench.summarize(parent, change, metrics, {"setup_s": 0.3, "steps_per_s": 0.19})
    assert [r["over_bound"] for r in rows] == [False, True]
    # a gain is never over its bound
    assert not ab_bench.summarize(change, parent, metrics, {"setup_s": 0, "steps_per_s": 0})[0][
        "over_bound"
    ]
    table = ab_bench.render(rows, 3).splitlines()
    assert table[0].endswith("| gap > parent IQR | worse by > bound |")
    assert table[1] == "|---|---|---|---|---|---|---|---|"
    assert table[2].endswith("| no (0.3) |")
    assert table[3].endswith("| YES (0.19) |")


def test_runs_spread_wider_than_the_bound_are_unresolved():
    metrics = [("op_ms_tail", "lower"), ("steps_per_s", "higher")]
    bounds = {"op_ms_tail": 0.25, "steps_per_s": 0.2}
    # parent tail IQR 50-90 ms around 60: wider than 0.25 x 60, medians equal
    parent = [{"op_ms_tail": t, "steps_per_s": s}
              for t, s in [(50, 100), (60, 101), (90, 99), (50, 100), (90, 100)]]
    change = [{"op_ms_tail": t, "steps_per_s": s}
              for t, s in [(60, 100), (59, 101), (61, 99), (60, 100), (60, 100)]]
    tail_row, steps_row = ab_bench.summarize(parent, change, metrics, bounds)
    assert tail_row["unresolved"] and not tail_row["over_bound"]
    assert not steps_row["unresolved"]
    # the change's own spread counts as well
    tail_row, _ = ab_bench.summarize(change, parent, metrics, bounds)
    assert tail_row["unresolved"]
    # every change run beats every parent run: no, however wide the spread
    faster = [{"op_ms_tail": t, "steps_per_s": 100} for t in (10, 40, 45)]
    tail_row, _ = ab_bench.summarize(parent[:3], faster, metrics, bounds)
    assert not tail_row["unresolved"] and not tail_row["over_bound"]
    # a median past its bound stays YES
    slower = [{"op_ms_tail": t + 40, "steps_per_s": 100} for t in (50, 60, 90)]
    tail_row, _ = ab_bench.summarize(parent[:3], slower, metrics, bounds)
    assert tail_row["over_bound"] and not tail_row["unresolved"]
    rows = ab_bench.summarize(parent, change, metrics, bounds)
    table = ab_bench.render(rows + [tail_row], 5).splitlines()
    assert [line.rsplit("|", 2)[1] for line in table[2:]] == [
        " unresolved (0.25) ", " no (0.2) ", " YES (0.25) "
    ]


def test_workloads_are_one_a_list_or_all():
    assert ab_bench.select_workloads("spy_deep") == ["spy_deep"]
    assert ab_bench.select_workloads("spy_deep, weave_large") == ["spy_deep", "weave_large"]
    assert ab_bench.select_workloads("all") == [
        "weave_large", "jobs_audit", "stack_cool", "spy_deep"
    ]
    with pytest.raises(ValueError, match="unknown workload"):
        ab_bench.select_workloads("spy_deep,nope")
