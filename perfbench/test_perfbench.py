"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

TINY = 0.1


@pytest.fixture
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)
    return ROOT


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload for the runs made by run.main."""
    small = {name: (lambda cls=cls: cls(scale=TINY)) for name, cls in workloads.WORKLOADS.items()}
    monkeypatch.setattr(run, "WORKLOADS", small)  # the pinned reference stays full size
    for name in run.TRACED_OPS:
        monkeypatch.setitem(run.TRACED_OPS, name, 2)


def bench_main(*argv: str) -> tuple[str, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(list(argv)) == 0
    text = out.getvalue()
    return text, json.loads(text.strip().splitlines()[-1])


def read_tree(path: str) -> dict[str, bytes]:
    files = {}
    for dirpath, _, names in os.walk(path):
        for name in names:
            full = os.path.join(dirpath, name)
            with open(full, "rb") as fh:
                files[os.path.relpath(full, path)] = fh.read()
    return files


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(tmp_path, name):
    trees = []
    for i, seed in enumerate((7, 7, 8)):
        out = tmp_path / str(i)
        out.mkdir()
        workloads.WORKLOADS[name]().generate(seed, str(out))
        trees.append(read_tree(str(out)))
    assert trees[0] == trees[1]
    if name != "spy_deep":  # spy_deep's seed may pick the same names
        assert trees[0] != trees[2]


def test_tail_is_highest_percentile_with_ten_beyond():
    values = list(range(1, 101))
    assert run.tail(values) == (90, 90, 10)
    assert run.tail(values[:25]) == (15, 60, 10)
    assert run.tail([3.0, 1.0]) == (3.0, 100, 0)


def _wrapped_attrs():
    from miniweave import bridge, dsal_audit, dsal_cool, interp, joinpoints, lexer
    from miniweave import matching, minilang, pipeline

    mods = (bridge, dsal_audit, dsal_cool, interp, joinpoints, lexer, matching, minilang, pipeline)
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items() if callable(v)}


def test_tracer_restores_every_original():
    before = _wrapped_attrs()
    tr = tracer.Tracer(1)
    tr.install()
    during = _wrapped_attrs()
    tr.restore()
    changed = {k for k in before if during[k] is not before[k]}
    assert ("miniweave.matching", "match") in changed
    assert ("miniweave.interp", "run") in changed
    assert not tr.missing
    after = _wrapped_attrs()
    assert all(after[k] is before[k] for k in before)


def test_trace_pass_leaves_no_wrappers_and_counts_repeat(at_root, tiny):
    before = _wrapped_attrs()
    _, first = bench_main("--workload", "spy_deep", "--seed", "3", "--seconds", "0.1", "--trace", "1")
    _, second = bench_main("--workload", "spy_deep", "--seed", "3", "--seconds", "0.1", "--trace", "1")
    after = _wrapped_attrs()
    assert all(after[k] is before[k] for k in before)
    for name in ("interp.steps", "matching.match_calls", "matching.cflow_frames_walked",
                 "joinpoints.shadows"):
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"] > 0


def test_missing_function_marks_metric_absent(at_root, tiny, monkeypatch):
    install = tracer.Tracer.install

    def install_with_ghost(self):
        install(self)
        self.spanned("matching.ghost")

    monkeypatch.setattr(tracer.Tracer, "install", install_with_ghost)
    monkeypatch.setitem(run.PER_LAYER, "matching.ghost_ms", ("ms", None, ["matching.ghost"]))
    _, result = bench_main("--workload", "stack_cool", "--seed", "1", "--seconds", "0.1", "--trace", "1")
    ghost = result["metrics"]["matching.ghost_ms"]
    assert ghost["value"] is None and "no longer exists" in ghost["absent"]
    assert result["correct"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_prints_every_metric_and_passes_checks(at_root, tiny, name):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        text, result = bench_main("--workload", name, "--seed", "5", "--seconds", "0.2",
                                  "--trace", str(trace))
        assert result["correct"], text
        assert result["failed"] == 0 and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in spec[group]}
        have = {k: v["unit"] for k, v in result["metrics"].items()}
        assert have == want
        for key, m in result["metrics"].items():
            assert isinstance(m["value"], (int, float)), key
            if trace == 0:
                assert m["value"] > 0, key
                assert key in text.split("\n", 1)[1]
        if trace == 0:
            assert "fail_ratio" in text
    assert not os.path.exists(run.WORK)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spy_deep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
