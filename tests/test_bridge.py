"""Advice handles and the relationship report."""

import json
import os

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_unit
from oracles import parse_aspect

from miniweave.aspects import AdviceDecl, SourceBridge
from miniweave.bridge import (
    advice_handle,
    build_relationship_map,
    emit_relationship_map,
    render_relationship_map,
)
from miniweave.diagnostics import Loc


def adv(loc: Loc, bridge: SourceBridge | None) -> AdviceDecl:
    return AdviceDecl("advice#0", (), [], [], loc, kind="before", pointcut=None, index=0,
                      bridge=bridge, aspect_name="A")


class TestAdviceHandle:
    def test_bridged_handle_uses_loc(self):
        bridge = SourceBridge("/mucommander/job/jobs.audit", 9, "jobs.audit")
        a = adv(Loc("gen/Logs.ma0", 14), bridge)
        assert advice_handle(a) == "/mucommander/job/jobs.audit:9"

    def test_fallback_uses_actual_location(self):
        a = adv(Loc("gen/Logs.ma0", 14), None)
        assert advice_handle(a) == "gen/Logs.ma0:14"

    def test_distinct_lines_distinct_handles(self):
        b1 = adv(Loc("x.ma0", 1), SourceBridge("jobs.audit", 2, "jobs.audit"))
        b2 = adv(Loc("x.ma0", 1), SourceBridge("jobs.audit", 3, "jobs.audit"))
        assert advice_handle(b1) != advice_handle(b2)

    def test_parsed_advice_round_trip(self):
        a = parse_aspect(
            'aspect L { @loc(file="demo/jobs.audit", line=9, module="jobs.audit")\n'
            "after(): execution(start) { } }",
            "gen/L.ma0",
        )
        assert advice_handle(a.advice[0]) == "demo/jobs.audit:9"


BASE = """
class CopyJob { def start() { } def run() { } }
class Main { def main() { } }
"""

LOGS = """
aspect Logs {
  @loc(file="demo/jobs.audit", line=2, module="jobs.audit")
  after(): execution(start) && this(CopyJob) { }
  @loc(file="demo/jobs.audit", line=3, module="jobs.audit")
  after(): execution(run) && this(CopyJob) { }
}
"""


class TestRelationshipMap:
    def test_empty_table(self):
        unit = build_unit("class Main { def main() { } }")
        rel = build_relationship_map(unit.match_table)
        assert rel == {"advises": [], "advised_by": []}

    def test_records_link_dsal_lines_to_shadows(self):
        unit = build_unit(BASE, LOGS)
        rel = build_relationship_map(unit.match_table)
        advices = {r["advice"] for r in rel["advises"]}
        assert advices == {"demo/jobs.audit:2", "demo/jobs.audit:3"}
        start = next(r for r in rel["advises"] if r["advice"].endswith(":2"))
        assert start["shadow"] == "method_execution CopyJob.start/0"
        assert start["module"] == "jobs.audit"
        assert start["residue"] == "this(CopyJob)"
        assert start["at"].startswith("base.ml0:")

    def test_two_directions_are_transposes(self):
        unit = build_unit(BASE, LOGS)
        rel = build_relationship_map(unit.match_table)
        assert len(rel["advises"]) == len(rel["advised_by"])
        assert sorted(map(json.dumps, rel["advises"])) == sorted(
            map(json.dumps, rel["advised_by"])
        )

    def test_sorted_by_handle_then_location(self):
        unit = build_unit(BASE, LOGS)
        rel = build_relationship_map(unit.match_table)
        keys = [(r["advice"], r["at"]) for r in rel["advises"]]
        assert keys == sorted(keys)
        by = [(r["at"], r["advice"]) for r in rel["advised_by"]]
        assert by == sorted(by)

    def test_bridged_advice_never_mentions_actual_file(self):
        unit = build_unit(BASE, LOGS)
        rel = build_relationship_map(unit.match_table)
        text = render_relationship_map(rel)
        assert "aspects0.ma0" not in text

    def test_emit_is_byte_identical(self, tmp_path):
        p1 = tmp_path / "r1.json"
        p2 = tmp_path / "r2.json"
        emit_relationship_map(build_unit(BASE, LOGS).match_table, str(p1))
        emit_relationship_map(build_unit(BASE, LOGS).match_table, str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        assert json.loads(p1.read_text())["advises"]


# quotes, backslashes, control characters and non-ASCII text, besides plain ASCII
_JSON_TEXT = st.text(
    st.sampled_from('ab Z0:,{}[]"\\/\b\f\n\r\t\x00\x1f\x7f\x80é\u2028中😀'), max_size=12
)
_RECORDS = st.lists(st.dictionaries(_JSON_TEXT, _JSON_TEXT, min_size=1, max_size=5), max_size=4)


@settings(max_examples=150, deadline=None)
@given(_RECORDS, _RECORDS)
def test_render_equals_json_dumps_indent_2(advises, others):
    # like a built map, the second list holds the first list's records too
    rel = {"advises": advises, "advised_by": others + advises[::-1]}
    assert render_relationship_map(rel) == json.dumps(rel, indent=2) + "\n"
