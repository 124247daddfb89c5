"""Dynamic control-flow scoping: cflow residues and self-advising freedom.

`cflow(P)` holds on a thread while some entered visible join point, the
current one included, matches `P`; a residue of `P` is tested on that join
point's own bindings. The interpreter decides it by per-thread scope
counters (`matching.CflowState`). `oracles.WalkInterp` keeps the full
stack of entered join points beside them and checks every cflow test by a
walk over it, on random programs with random residues and on the demos.
"""

import importlib.util
import os
import random

import pytest

from conftest import ROOT, build_unit, run_src
from oracles import WalkInterp
from randprog import main_source, random_aspect_source, random_program_source

import miniweave.minilang as ml
from miniweave import interp, matching
from miniweave.aspects import parse_aspect_file
from miniweave.interp import Interp, WovenUnit, run
from miniweave.matching import cflow_active

_spec = importlib.util.spec_from_file_location(
    "golden_runs", os.path.join(ROOT, "scripts", "golden_runs.py")
)
golden_runs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_runs)


WITHIN_X = build_unit(
    "class X { def m() { } }\nclass Y { def m() { } }\n"
    "class Main { def main() { new X().m(); } }\n",
    "aspect A { before(): call(*.*) && cflow(within(X)) { } }",
)


def _entered(unit, within_cls: str):
    """A thread of a fresh interpreter, having entered the execution join
    point of `within_cls.m`."""
    it = Interp(unit)
    it.add_thread(None)
    it._resume(0)
    (site,) = [
        s for s in unit.sites.values()
        if s[0].within_cls == within_cls and str(s[0].kind) == "method_execution"
    ]
    it._jp_enter(site, None, None, ())
    return it, site


def test_empty_stack_inactive():
    it = Interp(WITHIN_X)
    it.add_thread(None)
    assert cflow_active(it.threads[0].cflow, WITHIN_X.scopes[0]) is False


def test_matching_frame_activates():
    (scope,) = WITHIN_X.scopes
    it, site = _entered(WITHIN_X, "X")
    assert cflow_active(it.current.cflow, scope) is True
    it._jp_exit(site)
    assert cflow_active(it.current.cflow, scope) is False
    it, _ = _entered(WITHIN_X, "Y")
    assert cflow_active(it.current.cflow, scope) is False


AUDITOR = """
aspect Auditor {
  var seen = [];
  before(): call(*.*) && !cflow(within(Auditor)) {
    this.note(jp);
  }
  def note(jp) {
    push_back(this.seen, jp.signature);
    this.deeper();
  }
  def deeper() { }
}
"""


def test_self_advising_freedom_via_helper_calls():
    # the auditor's own helper calls are visible call shadows, but the cflow
    # guard keeps them from being advised while the auditor is running
    res = run_src(
        """
        class A { def f() { } }
        class Main {
          def main() {
            var a = new A();
            a.f();
          }
        }
        """,
        AUDITOR,
    )
    assert res.status == "completed"
    enters = [e for e in res.events if e.kind == "advice_enter"]
    assert len(enters) == 1  # only the base call a.f(), not note/deeper
    # no advice entry is nested inside another advice frame
    depth = 0
    for e in res.events:
        if e.kind == "advice_enter":
            assert depth == 0
            depth += 1
        elif e.kind == "advice_exit":
            depth -= 1


def test_cflow_active_inside_scope_queried_from_advice():
    # an aspect that advises calls only outside Worker's control flow
    res = run_src(
        """
        class Helper { def assist() { } }
        class Worker {
          def job() {
            var h = new Helper();
            h.assist();
          }
        }
        class Main {
          def main() {
            var w = new Worker();
            w.job();
            var h2 = new Helper();
            h2.assist();
          }
        }
        """,
        """
        aspect Outside {
          before(): call(Helper.assist) && !cflow(within(Worker)) { print("outside"); }
        }
        aspect Inside {
          before(): call(Helper.assist) && cflow(within(Worker)) { print("inside"); }
        }
        """,
    )
    assert res.output == ["inside", "outside"]


def test_cflow_is_per_thread():
    # the scope is active on the worker thread only; the other thread's
    # identical call is advised as outside
    res = run_src(
        """
        class Helper { def assist() { } }
        class Scoped {
          var h = null;
          constructor(h) { this.h = h; }
          def go() {
            this.h.assist();
          }
        }
        class Plain {
          var h = null;
          constructor(h) { this.h = h; }
          def go() {
            this.h.assist();
          }
        }
        class Main {
          def main() {
            var h = new Helper();
            var s = new Scoped(h);
            var p = new Plain(h);
            spawn s.go();
            spawn p.go();
          }
        }
        """,
        """
        aspect Watch {
          before(): call(Helper.assist) && cflow(within(Scoped)) { print("scoped"); }
        }
        """,
    )
    assert res.status == "completed"
    assert res.output == ["scoped"]


# ---------------------------------------------------------------------------
# Scopes that a join point enters by a residue
# ---------------------------------------------------------------------------


def _walked(base: str, aspect: str):
    """The run of `base` woven with `aspect`, made by the interpreter and by
    the frame walk, which must agree."""
    unit = build_unit(base, aspect)
    res = run(unit)
    walk = WalkInterp(unit).run("Main.main")
    assert (walk.status, walk.steps, walk.render_trace()) == (
        res.status, res.steps, res.render_trace()
    )
    return unit, res


def test_scope_with_an_args_residue_holds_only_under_the_matching_call():
    unit, res = _walked(
        """
        class B { def g() { } }
        class A { def f(x) { var b = new B(); b.g(); } }
        class Main { def main() { var a = new A(); a.f(0); a.f(1); a.f(2); } }
        """,
        """
        aspect W {
          before(): call(B.g) && cflow(call(A.f) && args(0, 1)) { print("under f(1)"); }
          before(): call(B.g) && !cflow(call(A.f) && args(0, 1)) { print("elsewhere"); }
        }
        """,
    )
    assert [str(s) for s in unit.scopes] == ["cflow(call(A.f) && args(0, 1))"]
    assert res.output == ["elsewhere", "under f(1)", "elsewhere"]


def test_scope_with_a_this_residue():
    # `j` is a parameter, so `call(Job.work)` leaves `target(Job)` beside `this(C)`
    _, res = _walked(
        """
        class Helper { def assist() { } }
        class Job { def work(h) { h.assist(); } }
        class C { def go(j, h) { j.work(h); } }
        class D { def go(j, h) { j.work(h); } }
        class Main {
          def main() {
            var h = new Helper();
            var j = new Job();
            new D().go(j, h);
            new C().go(j, h);
            new D().go(j, h);
          }
        }
        """,
        """
        aspect W {
          before(): call(Helper.assist) && cflow(call(Job.work) && this(C)) { print("from C"); }
        }
        """,
    )
    assert res.output == ["from C"]


def test_a_disjunctive_residue():
    # each receiver is a `new C()` local, so the residue is the `||` alone
    unit, res = _walked(
        """
        class C { def m(x) { } }
        class A { def go() { var c = new C(); c.m(0); } }
        class B { def go() { var c = new C(); c.m(0); c.m(1); } }
        class Main { def main() { new A().go(); new B().go(); } }
        """,
        """
        aspect W {
          before(): call(C.m) && (this(A) || args(0, 1)) { print(args[0]); }
        }
        """,
    )
    assert {str(e.residue) for _, e in unit.match_table.pairs()} == {"this(A) || args(0, 1)"}
    assert res.output == ["0", "1"]


def test_a_wildcard_args_residue():
    # `args(0, *)` holds at a join point with a first argument, only there
    _, res = _walked(
        """
        class C { def m(x) { } def n() { } }
        class Main { def main() { var c = new C(); c.m(5); c.n(); c.m(null); } }
        """,
        """
        aspect W {
          before(): call(C.*) && args(0, *) { print(args[0]); }
        }
        """,
    )
    assert res.output == ["5", "null"]


def test_cflow_nested_in_a_scope():
    unit, res = _walked(
        """
        class T { def tick() { } }
        class B { def g() { var t = new T(); t.tick(); } }
        class W { def run(b) { b.g(); } }
        class Main { def main() { var b = new B(); b.g(); new W().run(b); b.g(); } }
        """,
        """
        aspect N {
          before(): call(T.tick) && cflow(execution(B.g) && cflow(within(W))) { print("nested"); }
        }
        """,
    )
    assert [str(s) for s in unit.scopes] == [
        "cflow(execution(B.g) && cflow(within(W)))",
        "cflow(within(W))",
    ]
    assert res.output == ["nested"]


def test_recursion_enters_a_scope_twice():
    # rec(2) -> rec(1) -> rec(0): each probes after its inner call returns
    _, res = _walked(
        """
        class R {
          def rec(n) {
            if (n > 0) { this.rec(n - 1); }
            this.probe();
          }
          def probe() { }
        }
        class Main { def main() { var r = new R(); r.rec(2); r.probe(); } }
        """,
        """
        aspect P {
          before(): call(R.probe) && cflow(execution(R.rec)) { print("in"); }
          before(): call(R.probe) && cflow(execution(R.rec) && args(0, 1)) { print("in1"); }
          before(): call(R.probe) && !cflow(execution(R.rec)) { print("out"); }
        }
        """,
    )
    # in rec(0) and rec(1) both scopes hold; once rec(1) has returned,
    # rec(2) holds only the static one; after rec(2), neither
    assert res.output == ["in", "in1", "in", "in1", "in", "out"]


def test_a_join_point_is_in_its_own_control_flow():
    _, res = _walked(
        """
        class A { def f() { print("body"); } }
        class Main { def main() { var a = new A(); a.f(); } }
        """,
        """
        aspect S {
          before(): execution(A.f) && cflow(execution(A.f)) { print("before f"); }
          after(): execution(A.f) && cflow(execution(A.f)) { print("after f"); }
        }
        """,
    )
    assert res.output == ["before f", "body", "after f"]


def test_after_advice_residue_sees_its_own_join_point():
    _, res = _walked(
        """
        class A { def f(x) { } }
        class Main { def main() { var a = new A(); a.f(7); a.f(8); } }
        """,
        """
        aspect S {
          after(): call(A.f) && cflow(call(A.f) && args(0, 7)) { print("after f(7)"); }
        }
        """,
    )
    assert res.output == ["after f(7)"]


HIDDEN_BASE = """
class T { def tick() { } }
class H {
  @hideMethod(execution)
  def secret() { var t = new T(); t.tick(); }
  def open() { var t = new T(); t.tick(); }
}
class Main { def main() { var h = new H(); h.secret(); h.open(); } }
"""

HIDDEN_ASPECT = """
aspect S {
  before(): call(T.tick) && cflow(execution(H.secret)) { print("in secret"); }
  before(): call(T.tick) && cflow(execution(H.open)) { print("in open"); }
}
"""


def test_hidden_shadow_activates_no_scope():
    # one parsed AST woven twice: the scope numbers live in each unit
    program = ml.parse_base(HIDDEN_BASE, "hidden.ml0")
    aspects = parse_aspect_file(HIDDEN_ASPECT, "hidden.ma0").aspects
    honored = WovenUnit.build(program, aspects)
    stripped = WovenUnit.build(program, aspects, strip_hide=True)
    assert run(honored).output == ["in open"]
    assert run(stripped).output == ["in secret", "in open"]
    assert run(honored).output == ["in open"]
    for unit in (honored, stripped):
        walk = WalkInterp(unit).run("Main.main")
        assert walk.render_trace() == run(unit).render_trace()


def test_scope_numbers_follow_first_occurrence():
    # a shadow's entries in precedence order, nested scopes right after
    # their own; one scope named twice keeps one number
    unit = build_unit(
        """
        class K0 { def m() { } }
        class K1 { def m() { new K0().m(); } }
        class K2 { def m() { new K1().m(); } }
        class Main { def main() { new K2().m(); } }
        """,
        """
        aspect Z {
          before(): call(K0.m) && cflow(within(K2)) { }
          before(): call(K0.m) && !cflow(execution(K1.m) && cflow(within(K2))) { }
          before(): call(K1.m) && cflow(within(Main)) && !cflow(within(K2)) { }
          before(): call(K0.m) && cflow(within(K1)) { }
        }
        """,
    )
    assert [str(s) for s in unit.scopes] == [
        "cflow(within(K2))",
        "cflow(execution(K1.m) && cflow(within(K2)))",
        "cflow(within(K1))",
        "cflow(within(Main))",
    ]
    assert sorted(set(unit.scope_numbers.values())) == [0, 1, 2, 3]


# ---------------------------------------------------------------------------
# Counts: no match at run time, few at build time
# ---------------------------------------------------------------------------


def _spy_unit(depth: int):
    return build_unit(
        "class Walker {\n  var visits = 0;\n  def down(n) {\n"
        "    this.visits = this.visits + 1;\n    if (n == 0) {\n      return 0;\n    }\n"
        "    return 1 + this.down(n - 1);\n  }\n}\n"
        "class Main {\n  def main() {\n    var w = new Walker();\n"
        f"    print(w.down({depth}));\n  }}\n}}\n",
        "aspect Spy {\n  var seen = 0;\n"
        "  before(): call(*.*) && !cflow(within(Spy)) {\n"
        "    this.seen = this.seen + 1;\n  }\n}\n",
    )


@pytest.mark.parametrize("depth", [10, 80])
def test_spy_run_makes_no_match_call(monkeypatch, depth):
    unit = _spy_unit(depth)
    calls = []
    real_match, real_cflow = matching.match, matching.cflow_active

    def counted_cflow(state, scope):
        calls.append("cflow")
        return real_cflow(state, scope)

    monkeypatch.setattr(matching, "match", lambda pc, s: calls.append("match") or real_match(pc, s))
    monkeypatch.setattr(matching, "cflow_active", counted_cflow)
    res = run(unit)
    assert res.status == "completed"
    assert res.output == [str(depth)]
    # one cflow test per advised call: main's w.down and each recursive call
    assert calls == ["cflow"] * (depth + 1)
    assert res.count_jp("method_call") == depth + 1


def test_scope_membership_matches_candidates_only(monkeypatch):
    n_cls, n_meth = 16, 4
    base = []
    for c in range(n_cls):
        body = "".join(
            f"  def m{m}() {{ this.f = this.f + 1; {f'this.m{m - 1}();' if m else ''} }}\n"
            for m in range(n_meth)
        )
        base.append(f"class K{c} {{\n  var f = 0;\n{body}}}\n")
    base.append("class Main { def main() { new K0().m3(); } }\n")
    advice = "".join(
        f"  before(): call(*.m{c % n_meth}) && !cflow(within(K{c})) {{ }}\n"
        if c % 2 else
        f"  before(): call(*.m{c % n_meth}) && cflow(execution(K{c}.m{c % n_meth})) {{ }}\n"
        for c in range(n_cls)
    )
    program = ml.parse_base("".join(base), "many.ml0")
    aspects = parse_aspect_file(f"aspect Many {{\n{advice}}}\n", "many.ma0").aspects
    calls = []
    inside = [False]
    real_match, real_membership = matching.match, matching.scope_membership

    def counted_match(pc, shadow):
        if inside[0]:  # each scope here is one primitive: match does not recurse
            calls.append(pc)
        return real_match(pc, shadow)

    def membership(scopes, visible):
        inside[0] = True
        try:
            return real_membership(scopes, visible)
        finally:
            inside[0] = False

    monkeypatch.setattr(matching, "match", counted_match)
    monkeypatch.setattr(matching, "scope_membership", membership)
    unit = WovenUnit.build(program, aspects)
    assert len(unit.scopes) == n_cls
    assert len(unit.visible) >= 200
    # a candidate shares its (class, member) or its within class with the scope
    assert len(calls) * 10 < len(unit.scopes) * len(unit.visible)
    assert run(unit).status == "completed"


# ---------------------------------------------------------------------------
# The counters against the frame walk
# ---------------------------------------------------------------------------


def _outcome(interp_cls, unit, seed: int, step_limit: int):
    it = interp_cls(unit, seed, step_limit)
    res = it.run("Main.main")
    return (res.status, res.steps, res.render_trace(), res.error), it


def test_random_programs_run_alike_under_the_frame_walk():
    statuses, tests, held = set(), 0, 0
    for seed in range(80):
        rng = random.Random(seed)
        src = random_program_source(rng)
        program = ml.parse_base(src, "rand.ml0")
        unit = build_unit(src + main_source(program), random_aspect_source(rng, program, True))
        for sched, limit in ((0, 3000), (1, 1 + seed * 5)):
            want, _ = _outcome(Interp, unit, sched, limit)
            got, walker = _outcome(WalkInterp, unit, sched, limit)
            assert got == want, seed
            statuses.add(want[0])
            tests += walker.cflow_tests
            held += walker.cflow_held
    assert statuses == {"completed", "runtime-error", "step-limit-exceeded"}
    assert 0 < held < tests


# the golden corpus's runs that reach a cflow test, one per program
WALKED = {
    "demo", "demo_stack", "demo_stack --strip-hide", "weave_large g0 s0",
    "stack_cool g0 s0", "spy_deep g0 s0", "runtime error", "call depth",
}


def test_demos_and_cflow_workloads_run_alike_under_the_frame_walk(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    checked = 0
    for name, unit, entry, seed in golden_runs.corpus():
        if name not in WALKED:
            continue
        want = interp.run(unit, entry, seed)
        got = WalkInterp(unit, seed).run(entry)
        assert (got.status, got.steps, got.render_trace(), got.error) == (
            want.status, want.steps, want.render_trace(), want.error
        ), name
        checked += 1
    assert checked == len(WALKED)
