"""Shared helpers: build woven units from inline sources and load the demos."""

from __future__ import annotations

import os

import pytest

import miniweave.minilang as ml
from miniweave.aspects import parse_aspect_file
from miniweave.interp import WovenUnit, run

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMO_AUDIT = os.path.join(ROOT, "demo")
DEMO_STACK = os.path.join(ROOT, "demo_stack")


def build_unit(
    base_src: str,
    *aspect_srcs: str,
    strip_hide: bool = False,
    base_path: str = "base.ml0",
) -> WovenUnit:
    """Parse inline sources fresh and weave them."""
    program = ml.parse_base(base_src, base_path)
    aspects = []
    precedence: list[str] = []
    for i, src in enumerate(aspect_srcs):
        part = parse_aspect_file(src, f"aspects{i}.ma0")
        aspects.extend(part.aspects)
        precedence.extend(part.precedence)
    return WovenUnit.build(program, aspects, precedence, strip_hide=strip_hide)


def run_src(base_src: str, *aspect_srcs: str, seed: int = 0, entry: str = "Main.main", **kw):
    return run(build_unit(base_src, *aspect_srcs, **kw), entry=entry, seed=seed)


@pytest.fixture
def in_repo_root(monkeypatch):
    monkeypatch.chdir(ROOT)
    return ROOT
