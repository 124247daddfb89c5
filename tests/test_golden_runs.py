"""Interpreter runs against the committed golden digests.

tests/golden_runs.json pins (status, steps, trace sha256, output sha256)
for the corpus of scripts/golden_runs.py. A change that claims no change
in behaviour keeps every entry; an intended one rewrites the file with
`python3 scripts/golden_runs.py --write`.
"""

from __future__ import annotations

import importlib.util
import json
import os

from conftest import ROOT

_spec = importlib.util.spec_from_file_location(
    "golden_runs", os.path.join(ROOT, "scripts", "golden_runs.py")
)
golden_runs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_runs)


def test_runs_match_committed_digests():
    with open(golden_runs.GOLDEN, encoding="utf-8") as fh:
        pinned = json.load(fh)
    have = golden_runs.digests()
    assert sorted(have) == sorted(pinned)
    changed = [name for name in pinned if have[name] != pinned[name]]
    assert changed == []


def test_corpus_covers_every_ending():
    with open(golden_runs.GOLDEN, encoding="utf-8") as fh:
        pinned = json.load(fh)
    statuses = {entry["status"] for entry in pinned.values()}
    assert statuses == {"completed", "deadlock", "runtime-error", "step-limit-exceeded"}
    assert pinned["demo_stack --strip-hide"]["status"] == "deadlock"
    assert pinned["runtime error"]["status"] == "runtime-error"
    assert pinned["call depth"]["status"] == "runtime-error"
    # a run cut at its own step count ends as the full run does
    for name, entry in pinned.items():
        if " limit=" not in name:
            assert pinned[f"{name} limit={entry['steps']}"] == entry
            assert pinned[f"{name} limit={entry['steps'] - 1}"]["status"] == "step-limit-exceeded"
