"""Spans and counters for the benchmark's traced pass.

The tracer wraps public functions of miniweave at their module attributes,
from outside the package, for the length of one pass, and puts every
original back afterwards. Each wrapped call that is a layer boundary
records a span (name, start, end, parent, op id) in memory; hot functions
(`matching.match`, `interp.eval_residue`, `matching.cflow_active`) only
bump counters. A name that no longer exists is recorded as missing, and
the metrics that need it are reported absent instead of crashing the run.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span, None at top level
    op: int


class Tracer:
    def __init__(self, n_ops: int):
        self.n_ops = n_ops  # ops are numbered 1..n_ops; op 0 is outside any op
        self.spans: list[Span] = []
        self.counts: Counter = Counter()  # counter name -> total over the pass
        self.missing: dict[str, str] = {}  # wrapped name -> why it is absent
        self.op = 0
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        # context for the match() counters
        self._match_depth = 0
        self._cflow_depth = 0

    # -- spans

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._open.pop()

    def parent_name(self) -> str | None:
        return self.spans[self._open[-1]].name if self._open else None

    # -- installing and restoring wrappers

    def _patch(self, qualname: str, make):
        mod_name, attr = qualname.rsplit(".", 1)
        try:
            module = importlib.import_module(f"miniweave.{mod_name}")
        except ImportError:
            module = None
        original = getattr(module, attr, None)
        if original is None:
            self.missing[qualname] = f"miniweave.{qualname} no longer exists"
            return
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def spanned(self, qualname: str, on_result=None):
        """Wrap `qualname` so each call records a span named after it."""

        def make(original):
            def wrapper(*args, **kwargs):
                idx = self.begin(qualname)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self.end(idx)
                if on_result is not None:
                    on_result(args, result)
                return result

            return wrapper

        self._patch(qualname, make)

    def install(self) -> None:
        c = self.counts

        def tokens(args, result):
            if self.parent_name() == "minilang.parse_base":
                c["minilang.tokens"] += len(result)

        def gen_bytes(name):
            def count(args, result):
                c[name] += len(result.encode("utf-8"))

            return count

        def shadows(args, result):
            c["joinpoints.shadows"] += len(result)

        def hidden(args, result):
            c["joinpoints.hide_in"] += len(args[0])
            c["joinpoints.hidden"] += len(args[0]) - len(result)

        def advice(args, result):
            c["aspects.advice"] += sum(len(a.advice) for a in result.aspects)

        def entries(args, result):
            c["matching.entries"] += sum(len(e) for e in result.entries.values())

        def records(args, result):
            c["bridge.records"] += len(result["advises"])

        def json_bytes(args, result):
            c["bridge.json_bytes"] += len(result.encode("utf-8"))

        def run_result(args, res):
            c["interp.steps"] += res.steps
            c["interp.events_retained"] += len(res.events)
            for event in res.events:
                if event.kind == "jp":
                    c["interp.jp_dispatches"] += 1
                elif event.kind == "advice_enter":
                    c["interp.advice_runs"] += 1
                elif event.kind == "spawn":
                    c["interp.threads"] += 1
            c["interp.threads"] += 1  # the main thread

        self.spanned("lexer.tokenize", tokens)
        self.spanned("minilang.parse_base")
        self.spanned("minilang.resolve_program")
        self.spanned("pipeline.parse_aspect_file", advice)
        self.spanned("pipeline.transform_inputs")
        self.spanned("dsal_cool.parse_cool")
        self.spanned("dsal_cool.gen_cool_aspect", gen_bytes("dsal_cool.gen_bytes"))
        self.spanned("dsal_cool.validate_cool")
        self.spanned("dsal_audit.parse_audit")
        self.spanned("dsal_audit.gen_audit_aspect", gen_bytes("dsal_audit.gen_bytes"))
        self.spanned("dsal_audit.validate_audit")
        self.spanned("joinpoints.extract_shadows", shadows)
        self.spanned("joinpoints.apply_hide_filter", hidden)
        self.spanned("matching.build_match_table", entries)
        self.spanned("bridge.emit_relationship_map")
        self.spanned("bridge.build_relationship_map", records)
        self.spanned("bridge.render_relationship_map", json_bytes)
        self.spanned("pipeline.compile")
        self.spanned("interp.run", run_result)
        self._patch("matching.match", self._count_match)
        self._patch("matching.cflow_active", self._count_cflow)
        self._patch("interp.eval_residue", self._count_residue)

    def restore(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    # -- counting wrappers for the hot matching functions

    def _count_match(self, original):
        c = self.counts

        def wrapper(pc, shadow):
            top = self._match_depth == 0
            if self._cflow_depth:
                c["matching.cflow_match_calls"] += 1
                if top:
                    c["matching.cflow_frames_walked"] += 1
            self._match_depth += 1
            try:
                residue = original(pc, shadow)
            finally:
                self._match_depth -= 1
            if top and self.parent_name() == "matching.build_match_table":
                c["matching.match_calls"] += 1
                if residue is not None:
                    c["matching.match_hits"] += 1
            return residue

        return wrapper

    def _count_cflow(self, original):
        c = self.counts

        def wrapper(frames, scope_pc):
            c["matching.cflow_tests"] += 1
            self._cflow_depth += 1
            try:
                return original(frames, scope_pc)
            finally:
                self._cflow_depth -= 1

        return wrapper

    def _count_residue(self, original):
        c = self.counts

        def wrapper(*args):
            passed = original(*args)
            c["matching.residue_tests"] += 1
            if passed:
                c["matching.residue_passes"] += 1
            return passed

        return wrapper

    # -- reading the pass back

    def durations(self, name: str) -> list[float]:
        """Per-op total seconds spent in spans called `name`, indexed by op."""
        per_op = [0.0] * (self.n_ops + 1)
        for span in self.spans:
            if span.name == name:
                per_op[span.op] += span.end - span.start
        return per_op[1:]

    def self_times(self, name: str) -> list[float]:
        """Per-op self time of spans called `name`: duration minus children."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        per_op = [0.0] * (self.n_ops + 1)
        for i, span in enumerate(self.spans):
            if span.name == name:
                per_op[span.op] += span.end - span.start - child_time[i]
        return per_op[1:]

    def outside_ops_ms(self, name: str) -> float:
        """Milliseconds in spans called `name` that belong to no op."""
        return sum(s.end - s.start for s in self.spans if s.name == name and s.op == 0) * 1e3

    def dump(self) -> list[dict]:
        return [vars(s) for s in self.spans]
