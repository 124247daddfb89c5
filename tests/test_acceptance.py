"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own verdicts.
"""

import itertools
import json
import os
import random
import shutil
import time

import pytest

from conftest import DEMO_AUDIT, DEMO_STACK, build_unit, run_src
from oracles import compare_advice, restricted_keys, sort_key

import miniweave as mw
import miniweave.minilang as ml
from miniweave.aspects import AdviceDecl, parse_aspect_file
from miniweave.bridge import render_relationship_map
from miniweave.cli import main as cli_main
from miniweave.diagnostics import Loc
from miniweave.dsal_cool import gen_cool_aspect, parse_cool
from miniweave.interp import WovenUnit, run
from miniweave.joinpoints import apply_hide_filter, collect_hide_specs, extract_shadows
from miniweave.pipeline import CompileOptions, compile as pipeline_compile

from randprog import random_coordinator_source, random_program_source


def ok(n: int, msg: str) -> None:
    print(f"\n[acceptance] criterion {n}: PASS ({msg})")


def read(*parts: str) -> str:
    with open(os.path.join(*parts)) as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# 1. Hide-default semantics (exact set equality, hand-enumerated)
# ---------------------------------------------------------------------------

HIDE_FIXTURE = """
class Helper {{
  def helped() {{ }}
}}
{type_ann}class Fixture {{
  {field_ann}var data = 0;
  static {{
    var boot = new Helper();
    boot.helped();
  }}
  constructor() {{
    this.data = 1;
  }}
  {method_ann}def secret() {{
    this.data = this.data + 1;
    this.util();
  }}
  def util() {{
    this.secret();
    var h = new Helper();
    h.helped();
  }}
}}
"""


def _fixture_tables(type_ann="", field_ann="", method_ann=""):
    src = HIDE_FIXTURE.format(type_ann=type_ann, field_ann=field_ann, method_ann=method_ann)
    prog = mw.parse_base(src, "fix.ml0")
    ml.resolve_program(prog)
    table = extract_shadows(prog)
    visible = apply_hide_filter(table, collect_hide_specs(prog))
    return table, visible


def _described(shadows):
    return sorted((str(s.kind), s.signature) for s in shadows)


def test_criterion_1_hide_default_semantics():
    start = time.monotonic()
    base_all, base_vis = _fixture_tables()
    assert _described(base_all) == _described(base_vis)

    # @hideMethod bare on secret: its execution, every call to it, and every
    # shadow inside its body -- nothing else (exact multiset equality)
    all_t, vis = _fixture_tables(method_ann="@hideMethod\n  ")
    hidden = sorted((str(s.kind), s.signature) for s, _, _ in vis.suppressed)
    expected = sorted(
        [
            ("method_execution", "Fixture.secret/0"),
            ("method_call", "Fixture.secret/0"),  # the call site inside util
            ("field_get", "Fixture.data"),  # inside secret's body
            ("field_set", "Fixture.data"),
            ("method_call", "Fixture.util/0"),
        ]
    )
    assert hidden == expected
    assert _described(vis) == sorted(
        [
            ("method_execution", "Helper.helped/0"),
            ("method_execution", "Fixture.util/0"),
            ("method_call", "Helper.helped/0"),  # static block
            ("method_call", "Helper.helped/0"),  # inside util
            ("pre_initialization", "Fixture"),
            ("initialization", "Fixture"),
            ("static_initialization", "Fixture"),
            ("field_set", "Fixture.data"),  # inside the constructor
        ]
    )

    # @hideField bare on data: exactly its get and set shadows
    all_t, vis = _fixture_tables(field_ann="@hideField\n  ")
    hidden = {(str(s.kind), s.signature) for s, _, _ in vis.suppressed}
    assert hidden == {("field_get", "Fixture.data"), ("field_set", "Fixture.data")}
    gets_sets = [
        s for s in all_t if s.signature == "Fixture.data"
    ]
    assert len(vis.suppressed) == len(gets_sets)

    # @hideType bare: the five init-related groups, nothing from plain methods
    all_t, vis = _fixture_tables(type_ann="@hideType\n")
    hidden = sorted((str(s.kind), s.signature) for s, _, _ in vis.suppressed)
    expected = sorted(
        [
            ("pre_initialization", "Fixture"),
            ("initialization", "Fixture"),
            ("static_initialization", "Fixture"),
            ("method_call", "Helper.helped/0"),  # within the static block
            ("field_set", "Fixture.data"),  # within the constructor
        ]
    )
    assert hidden == expected
    # Fixture's ordinary methods keep all their shadows
    visible = {(str(s.kind), s.signature) for s in vis}
    assert ("method_execution", "Fixture.secret/0") in visible
    assert ("field_get", "Fixture.data") in visible  # inside secret, untouched
    assert time.monotonic() - start < 1.0
    ok(1, "Listing-style defaults hide exactly the enumerated shadow sets")


# ---------------------------------------------------------------------------
# 2. Deadlock reproduction
# ---------------------------------------------------------------------------


def _stack_unit(strip: bool) -> WovenUnit:
    base = mw.parse_base(read(DEMO_STACK, "stack.ml0"), "demo_stack/stack.ml0")
    coord = parse_cool(read(DEMO_STACK, "stack.cool"), "demo_stack/stack.cool")
    gen = parse_aspect_file(gen_cool_aspect(coord), "gen/stack_cool.ma0")
    aud = parse_aspect_file(read(DEMO_STACK, "auditor.ma0"), "demo_stack/auditor.ma0")
    return WovenUnit.build(base, gen.aspects + aud.aspects, strip_hide=strip)


def test_criterion_2_deadlock_reproduction(tmp_path, monkeypatch, capsys):
    for seed in range(5):
        t0 = time.monotonic()
        res = run(_stack_unit(strip=False), seed=seed)
        assert time.monotonic() - t0 < 5.0
        assert res.status == "completed"
        assert res.count_jp("method_execution BoundedStack.push/1 ") == 20
        assert res.count_jp("method_execution BoundedStack.pop/0 ") == 20

    steps = []
    for attempt in range(2):
        t0 = time.monotonic()
        res = run(_stack_unit(strip=True), seed=0)
        assert time.monotonic() - t0 < 5.0
        assert res.status == "deadlock"
        selfies = res.deadlock.self_edges()
        assert selfies, "expected a self-edge on the coordinator monitor"
        assert all("stack_cool.ma0" in str(s.monitor.created_at) for s in selfies)
        steps.append(res.deadlock.step)
    assert steps[0] == steps[1]

    # exit codes through the CLI
    monkeypatch.chdir(tmp_path)
    shutil.copytree(DEMO_STACK, tmp_path / "demo_stack")
    argv = ["run", "demo_stack/stack.ml0", "demo_stack/stack.cool", "demo_stack/auditor.ma0"]
    assert cli_main(argv) == 0
    assert cli_main(argv + ["--strip-hide"]) == 2
    assert "held by itself" in capsys.readouterr().err
    ok(2, "20/20 with hides on seeds 0-4; strip-hide self-deadlocks at a stable step")


# ---------------------------------------------------------------------------
# 3. Audit end-to-end
# ---------------------------------------------------------------------------


def _audit_artifacts(tmp_path, rel_path=None):
    opts = CompileOptions(
        dsals_path=os.path.join(DEMO_AUDIT, "dsals.txt"),
        gen_dir=str(tmp_path / "gen"),
        relationships_path=rel_path,
    )
    paths = [os.path.join(DEMO_AUDIT, "jobs.ml0"), os.path.join(DEMO_AUDIT, "jobs.audit")]
    return pipeline_compile(paths, opts)


def test_criterion_3_audit_end_to_end(tmp_path):
    art = _audit_artifacts(tmp_path)
    res = run(art.unit)
    assert res.status == "completed"
    assert (
        "start copying 2 files from /home/ to /tmp/ ([/home/a.pdf, /home/b.pdf])"
        in res.audit_lines
    )
    ok(3, "byte-exact sample message produced by the woven demo")


# ---------------------------------------------------------------------------
# 4. Top-down case matching
# ---------------------------------------------------------------------------


def _mkdir_run(mkfile_mode: bool):
    base = read(DEMO_AUDIT, "jobs.ml0")
    head, _, _ = base.partition("class Main")
    flag = "true" if mkfile_mode else "false"
    base = head + (
        "class Main {\n"
        "  def main() {\n"
        f'    var mk = new MkdirJob(["/tmp/x"], {flag});\n'
        "    mk.start();\n"
        "  }\n"
        "}\n"
    )
    from miniweave.dsal_audit import gen_audit_aspect, parse_audit, parse_catalog

    model = parse_audit(read(DEMO_AUDIT, "jobs.audit"), "demo/jobs.audit")
    catalog = parse_catalog(read(DEMO_AUDIT, "messages.txt"), "messages.txt")
    unit = build_unit(base, gen_audit_aspect(model, catalog), base_path="demo/jobs.ml0")
    return run(unit)


def test_criterion_4_top_down_case_matching():
    res_true = _mkdir_run(True)
    assert res_true.status == "completed"
    starts = [l for l in res_true.audit_lines if l.startswith("start")]
    assert starts == ["start creating file [/tmp/x]"]
    assert not any("directory" in l for l in res_true.audit_lines)

    res_false = _mkdir_run(False)
    starts = [l for l in res_false.audit_lines if l.startswith("start")]
    assert starts == ["start creating directory [/tmp/x]"]
    assert not any("file" in l and "creating file" in l for l in res_false.audit_lines)

    # exactly one audit line per transition event: start + finish here
    for res in (res_true, res_false):
        transition_events = res.count_jp("method_execution MkdirJob.start/0 ") + res.count_jp(
            "method_execution MkdirJob.run/0 "
        )
        assert transition_events == 2
        assert len(res.audit_lines) == 2
    ok(4, "guarded case wins top-down, one line per transition event")


# ---------------------------------------------------------------------------
# 5. Ordering
# ---------------------------------------------------------------------------

ORDER_BASE = """
class Probe { def poke() { } }
class Main {
  def main() {
    var p = new Probe();
    p.poke();
  }
}
"""


def _order_fixture(kind: str, o1: float, o2: float) -> str:
    return f"""
    aspect AlphaOrdered {{ @order({o1}) {kind}(): execution(Probe.poke) {{ }} }}
    aspect BetaOrdered  {{ @order({o2}) {kind}(): execution(Probe.poke) {{ }} }}
    aspect GammaPlain   {{ {kind}(): execution(Probe.poke) {{ }} }}
    precedence AlphaOrdered, BetaOrdered, GammaPlain;
    """


def _entries(res):
    return [e.text.split(" ")[0] for e in res.events if e.kind == "advice_enter"]


def test_criterion_5_ordering():
    res = run_src(ORDER_BASE, _order_fixture("before", 1.0, 2.0))
    assert _entries(res) == ["AlphaOrdered#0", "BetaOrdered#0", "GammaPlain#0"]

    res = run_src(ORDER_BASE, _order_fixture("before", -1.0, -2.0))
    assert _entries(res) == ["BetaOrdered#0", "AlphaOrdered#0", "GammaPlain#0"]

    res = run_src(ORDER_BASE, _order_fixture("after", 1.0, 2.0))
    assert _entries(res) == ["GammaPlain#0", "BetaOrdered#0", "AlphaOrdered#0"]

    # 100 random order assignments against the sort-by-comparator oracle
    rng = random.Random(42)
    names = ["Ax", "Bx", "Cx"]
    for _ in range(100):
        orders = [rng.choice([None, round(rng.uniform(-3, 3), 1)]) for _ in names]
        decls = []
        for name, order in zip(names, orders):
            tag = "" if order is None else f"@order({order}) "
            decls.append(f"aspect {name} {{ {tag}before(): execution(Probe.poke) {{ }} }}")
        src = "\n".join(decls) + "\nprecedence Ax, Bx, Cx;\n"
        res = run_src(ORDER_BASE, src)
        def key(pair):
            name, order = pair
            probe = AdviceDecl("advice#0", (), [], [], Loc("t", 1), kind="before", pointcut=None,
                               index=0, order=order, aspect_name=name)
            return sort_key(probe, names)
        oracle = [f"{n}#0" for n, _ in sorted(zip(names, orders), key=key)]
        assert _entries(res) == oracle
    ok(5, "entry order [1.0, 2.0, unordered]; negation flips the pair; after reversed")


# ---------------------------------------------------------------------------
# 6. Bridged relationships
# ---------------------------------------------------------------------------


def test_criterion_6_bridged_relationships(tmp_path, monkeypatch):
    monkeypatch.chdir(os.path.dirname(DEMO_AUDIT))
    rel_path = str(tmp_path / "relationships.json")
    opts = CompileOptions(
        dsals_path="demo/dsals.txt",
        gen_dir=str(tmp_path / "gen"),
        relationships_path=rel_path,
    )
    art = pipeline_compile(["demo/jobs.ml0", "demo/jobs.audit"], opts)
    with open(rel_path) as fh:
        rel = json.loads(fh.read())

    from miniweave.dsal_audit import parse_audit

    model = parse_audit(read(DEMO_AUDIT, "jobs.audit"), "demo/jobs.audit")
    case_lines = {c.loc.line for cmd in model.commands for c in cmd.cases}
    assert rel["advises"]
    advised_methods = set()
    for record in rel["advises"]:
        path, line = record["advice"].rsplit(":", 1)
        assert path == "demo/jobs.audit"
        assert int(line) in case_lines
        assert record["shadow"].startswith("method_execution ")
        advised_methods.add(record["shadow"].split(".")[-1].split("/")[0])
    assert advised_methods == {"start", "run", "interrupt", "setPaused"}
    text = render_relationship_map(rel)
    assert "gen/" not in text
    ok(6, "every advice maps to a jobs.audit case line; no gen/ paths appear")


# ---------------------------------------------------------------------------
# 7. Semantic preservation
# ---------------------------------------------------------------------------

AUDITOR_SRC = """
aspect Auditor {
  def note() { }
  before(): call(*.*) && !cflow(within(Auditor)) {
    this.note();
  }
}
"""


def _auditor_keys(base_src, base_path, gen_srcs):
    prog = mw.parse_base(base_src, base_path)
    aspects = []
    for i, gen_src in enumerate(gen_srcs):
        aspects.extend(parse_aspect_file(gen_src, f"gen/g{i}.ma0").aspects)
    aspects.extend(parse_aspect_file(AUDITOR_SRC, "auditor.ma0").aspects)
    unit = WovenUnit.build(prog, aspects)
    return restricted_keys(unit.match_table, {"Auditor"})


def test_criterion_7_semantic_preservation(tmp_path):
    # both demo corpora
    stack_base = read(DEMO_STACK, "stack.ml0")
    coord = parse_cool(read(DEMO_STACK, "stack.cool"), "demo_stack/stack.cool")
    with_gen = _auditor_keys(stack_base, "demo_stack/stack.ml0", [gen_cool_aspect(coord)])
    without = _auditor_keys(stack_base, "demo_stack/stack.ml0", [])
    assert with_gen == without

    from miniweave.dsal_audit import gen_audit_aspect, parse_audit, parse_catalog

    audit_base = read(DEMO_AUDIT, "jobs.ml0")
    model = parse_audit(read(DEMO_AUDIT, "jobs.audit"), "demo/jobs.audit")
    catalog = parse_catalog(read(DEMO_AUDIT, "messages.txt"), "messages.txt")
    with_gen = _auditor_keys(audit_base, "demo/jobs.ml0", [gen_audit_aspect(model, catalog)])
    without = _auditor_keys(audit_base, "demo/jobs.ml0", [])
    assert with_gen == without

    # 50 randomized base programs with randomized hide specs; the oracle is
    # brute-force set difference over the two match tables
    made = 0
    seed = 0
    while made < 50:
        rng = random.Random(10_000 + seed)
        seed += 1
        base_src = random_program_source(rng)
        cool_src = random_coordinator_source(rng, base_src)
        if cool_src is None:
            continue
        made += 1
        coord = parse_cool(cool_src, "rand.cool")
        gen_src = gen_cool_aspect(coord)
        a = _auditor_keys(base_src, "rand.ml0", [gen_src])
        b = _auditor_keys(base_src, "rand.ml0", [])
        assert (a - b) == set() and (b - a) == set(), f"case {seed}"
    ok(7, "auditor match tables identical with and without hidden generated aspects")


# ---------------------------------------------------------------------------
# 8. Determinism
# ---------------------------------------------------------------------------


def test_criterion_8_determinism(tmp_path):
    traces, audits = [], []
    for _ in range(3):
        res = run(_stack_unit(strip=False), seed=0)
        traces.append(res.render_trace())
        audits.append("\n".join(res.audit_lines))
    assert traces[0] == traces[1] == traces[2]
    assert audits[0] == audits[1] == audits[2]

    audit_traces = []
    rel_bytes = []
    for i in range(3):
        rel_path = str(tmp_path / f"rel{i}.json")
        art = _audit_artifacts(tmp_path, rel_path)
        res = run(art.unit, seed=0)
        audit_traces.append((res.render_trace(), "\n".join(res.audit_lines)))
        with open(rel_path, "rb") as fh:
            rel_bytes.append(fh.read())
    assert audit_traces[0] == audit_traces[1] == audit_traces[2]
    assert rel_bytes[0] == rel_bytes[1] == rel_bytes[2]
    ok(8, "three identical-seed runs: byte-identical traces, audit output, reports")


# ---------------------------------------------------------------------------
# 9. Comparator laws
# ---------------------------------------------------------------------------


def _advice(aspect: str, index: int, order):
    return AdviceDecl(f"advice#{index}", (), [], [], Loc("t.ma0", 1), kind="before",
                      pointcut=None, index=index, order=order, aspect_name=aspect)


def test_criterion_9_comparator_laws():
    orders = [None, 1.0, 2.0]
    aspects = ["A", "B"]
    precedences = [[], ["A", "B"], ["B", "A"]]
    configs = 0
    for n in range(2, 6):
        for combo in itertools.product(itertools.product(aspects, orders), repeat=n):
            # deterministic declaration indexes per aspect
            counters = {a: 0 for a in aspects}
            advs = []
            for aspect, order in combo:
                advs.append(_advice(aspect, counters[aspect], order))
                counters[aspect] += 1
            for prec in precedences:
                configs += 1
                ranked = sorted(advs, key=lambda a: sort_key(a, prec))
                for i, x in enumerate(ranked):
                    for y in ranked[i + 1 :]:
                        assert compare_advice(x, y, prec) == -1
                        assert compare_advice(y, x, prec) == 1
    # literal transitivity spot check over all triples at n = 3
    for combo in itertools.product(itertools.product(aspects, orders), repeat=3):
        counters = {a: 0 for a in aspects}
        advs = []
        for aspect, order in combo:
            advs.append(_advice(aspect, counters[aspect], order))
            counters[aspect] += 1
        for prec in precedences:
            for x, y, z in itertools.permutations(advs, 3):
                if compare_advice(x, y, prec) == -1 and compare_advice(y, z, prec) == -1:
                    assert compare_advice(x, z, prec) == -1
    assert configs > 20_000
    ok(9, f"total, antisymmetric, transitive across {configs} configurations")
