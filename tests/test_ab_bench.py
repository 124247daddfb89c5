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
