"""Event records: kept as tuples during a run, turned into `Event`s on read.

`interp.run` appends one (step, thread, kind, text) tuple per event. The
views a run is read through (`output`, `audit_lines`, `count_jp`,
`render_trace`, the CLI) read the tuples; only `ExecutionResult.events`
builds `Event` objects, once. Advice gets a `jp` record only when its body
names `jp`.
"""

from __future__ import annotations

import shutil

import pytest

from conftest import DEMO_AUDIT, DEMO_STACK
from test_golden_runs import golden_runs

import miniweave.minilang as ml
from miniweave import interp, pipeline, values
from miniweave.aspects import PcWithin, parse_aspect_file
from miniweave.cli import main
from miniweave.interp import WovenUnit, run


def _count_inits(monkeypatch, cls) -> list:
    """Patch `cls.__init__` to log each call; returns the log."""
    built = []
    init = cls.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counting)
    return built


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    shutil.copytree(DEMO_AUDIT, tmp_path / "demo")
    shutil.copytree(DEMO_STACK, tmp_path / "demo_stack")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_no_event_objects_unless_events_is_read(workdir, monkeypatch, capsys):
    built = _count_inits(monkeypatch, interp.Event)
    jobs = ["demo/jobs.ml0", "demo/jobs.audit"]
    assert main(["run", *jobs]) == 0
    assert main(["run", *jobs, "--audit-sink", "sink.txt", "--trace", "trace.txt"]) == 0
    assert main(["run", "demo_stack/stack.ml0", "demo_stack/stack.cool",
                 "demo_stack/auditor.ma0", "--strip-hide", "--trace", "t2.txt"]) == 2
    capsys.readouterr()
    options = pipeline.CompileOptions(dsals_path="demo/dsals.txt")
    res = run(pipeline.compile(jobs, options).unit)
    assert res.output and res.audit_lines and res.render_trace()
    assert res.count_jp("method_execution") > 0
    assert built == []
    events = res.events
    assert len(built) == len(res.records) == len(events) > 0
    assert res.events is events  # built once


def _corpus_at_one_seed():
    """Both demos, the stripped stack demo, the error programs, and each
    workload generator at generator and scheduler seed 0."""
    for name, unit, entry, seed in golden_runs.corpus():
        if " g" in name and not name.endswith(" g0 s0"):
            continue
        yield name, run(unit, entry, seed)


def test_tuple_views_equal_their_event_definitions(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    seen = []
    for name, res in _corpus_at_one_seed():
        seen.append(name)
        events = res.events
        assert [(e.step, e.thread, e.kind, e.text) for e in events] == res.records, name
        assert res.render_trace() == "".join(e.render() + "\n" for e in events), name
        assert res.output == [e.text for e in events if e.kind in ("print", "audit")], name
        assert res.audit_lines == [e.text for e in events if e.kind == "audit"], name
        for prefix in ("", "method_execution", "method_call ", "field_get", "field_set"):
            want = sum(1 for e in events if e.kind == "jp" and e.text.startswith(prefix))
            assert res.count_jp(prefix) == want, (name, prefix)
    assert len(seen) == 3 + 4 + 2  # demos, workloads, error programs


_BOX = """\
class Box {
  var v = 1;
  constructor(x) { this.v = x; }
  static { var s = 0; }
  def get() { return this.v; }
  def poke(o, n) { return o.get(); }
}

class Main {
  def main() {
    var b = new Box(5);
    print(b.get());
    print(b.poke(b, 7));
  }
}
"""

_PROBE = """\
aspect Probe {
  before(): execution(Box.get) {
    print(format("{0} | {1} | {2} | {3} | {4} | {5} | {6}",
                 jp.kind, jp.signature, jp.loc, jp.cls, jp.member, jp.arity, jp));
  }
  after(): execution(Box.get) {
    print(format("{0} | {1} | {2}", thisObject, targetObject, args));
  }
}
"""

# one line per advice run: the before-advice prints the six `jp` fields and
# `jp` itself, the after-advice (which never names `jp`) its three bindings
_PROBE_OUTPUT = """\
static_initialization | Box | box.ml0:4 | Box |  | 0 | Box
null | null | []
pre_initialization | Box | box.ml0:2 | Box |  | 1 | Box
<Box@1> | <Box@1> | [5]
initialization | Box | box.ml0:3 | Box |  | 1 | Box
field_set | Box.v | box.ml0:3 | Box | v | 1 | Box.v
<Box@1> | <Box@1> | [5]
<Box@1> | <Box@1> | [5]
method_execution | Box.get/0 | box.ml0:5 | Box | get | 0 | Box.get/0
field_get | Box.v | box.ml0:5 | Box | v | 0 | Box.v
<Box@1> | <Box@1> | []
<Box@1> | <Box@1> | []
5
method_execution | Box.poke/2 | box.ml0:6 | Box | poke | 2 | Box.poke/2
method_call | ?.get/0 | box.ml0:6 | Box | get | 0 | ?.get/0
method_execution | Box.get/0 | box.ml0:5 | Box | get | 0 | Box.get/0
field_get | Box.v | box.ml0:5 | Box | v | 0 | Box.v
<Box@1> | <Box@1> | []
<Box@1> | <Box@1> | []
<Box@1> | <Box@1> | []
<Box@1> | <Box@1> | [<Box@1>, 7]
5
"""


def test_jp_fields_at_every_shadow_kind(monkeypatch):
    # no pointcut primitive selects the initialization kinds, so both advice
    # are re-pointed at `within(Box)`: every shadow inside Box, seven kinds.
    # The parser rejects a pointcut with no kind anchor, but the match table
    # files an anchorless pointcut under a `within` type it needs
    program = ml.parse_base(_BOX, "box.ml0")
    part = parse_aspect_file(_PROBE, "probe.ma0")
    for adv in part.aspects[0].advice:
        adv.pointcut = PcWithin("Box")
    built = _count_inits(monkeypatch, values.JpInfo)
    res = run(WovenUnit.build(program, part.aspects))
    assert res.status == "completed"
    assert "".join(line + "\n" for line in res.output) == _PROBE_OUTPUT
    # only the advice that names `jp` got one
    assert len(built) == sum(1 for line in res.output if line.count(" | ") == 6) == 10


@pytest.mark.parametrize(
    "body",
    [
        "if (false) { } else if (true) { print(jp.member); }",
        "var i = 0; while (i < 1) { i = i + 1; var xs = [jp.member]; print(xs[0]); }",
        "var m = \"\"; m = jp.member; print(m);",
    ],
    ids=["else-if-arm", "loop-list", "assigned"],
)
def test_jp_named_anywhere_in_the_body_is_bound(body):
    program = ml.parse_base(_BOX, "box.ml0")
    part = parse_aspect_file(f"aspect P {{\n  before(): execution(Box.get) {{ {body} }}\n}}\n",
                             "p.ma0")
    res = run(WovenUnit.build(program, part.aspects))
    assert (res.status, res.output) == ("completed", ["get", "5", "get", "5"])
