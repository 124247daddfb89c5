"""The interpreter's fast paths against the checked ones.

`Interp` reads leaf operands in place, applies int operators, bool
conditions and field accesses directly, and skips `pick_next` when one
thread can run. `oracles.TreeInterp` keeps the interpreter as it was before those
paths: each operand by its own generator, each operator, condition and
field by its checked helper, each pick by `pick_next`. Random expression
programs must run alike under both, errors included. The other tests here
check that the methods a subclass overrides are still reached as often as
before, and that `scripts/calls_per_step.py` counts deterministically and
within a bound.
"""

from __future__ import annotations

import importlib.util
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ROOT, build_unit, run_src
from oracles import ScanInterp, TreeInterp, WalkInterp

from miniweave import interp, matching
from miniweave.interp import Interp

# ---------------------------------------------------------------------------
# Random expression programs under both interpreters
# ---------------------------------------------------------------------------

# `Obj` and `Main` have the same members, so `this` in `main` is an object
# like `o`
_MEMBERS = (
    "  var f = 2;\n  var g = true;\n"
    "  def m(a) {\n    return a;\n  }\n"
    "  def k() {\n    return this.f + 1;\n  }\n"
)
_BASE = "class Obj {\n" + _MEMBERS + "}\n"
_MAIN = "class Main {\n" + _MEMBERS + "  def main() {\n"

# the locals of `main` by type: ints (0 and a negative among them), a bool,
# strings, null, a list and an object; `c` counts loop rounds
_PRELUDE = (
    "    var i = 7;\n    var z = 0;\n    var neg = -3;\n    var b = true;\n"
    '    var s = "ab";\n    var e = "";\n    var n = null;\n    var l = [1, 2, 3];\n'
    "    var o = new Obj();\n    var c = 0;\n"
)
_LOCALS = {
    "int": ["i", "z", "neg"], "bool": ["b"], "str": ["s", "e"], "null": ["n"],
    "list": ["l"], "obj": ["o"],
}
_LEAVES = {
    "int": [str(v) for v in range(-2, 4)] + ["o.f", "len(s)"],
    "bool": ["true", "false", "o.g"],
    "str": ['"x"', '""'],
    "null": ["null"],
    "list": ["[1, 2]"],
    "obj": ["new Obj()", "this"],
}
_TYPES = list(_LOCALS)
_ANY_OP = ["+", "-", "*", "/", "%", "==", "!=", "<", "<=", ">", ">=", "&&", "||"]


def _binary(t) -> str:
    return f"{t[0]} {t[1]} {t[2]}" if t[3] else f"({t[0]} {t[1]} {t[2]})"


def _typed_exprs(depth: int) -> dict:
    """A strategy per type for expressions of that type, nested up to
    `depth` levels. One node in ten is drawn from a mix of types instead:
    an operator on any two ints or bools, a field of anything, anything.
    So most programs are well typed, and some meet `true + 1`, a null
    receiver or an unknown field; `==` and `!=` mix ints and bools often."""
    if depth == 0:
        return {t: st.sampled_from(_LOCALS[t] + _LEAVES[t]) for t in _TYPES}
    sub = _typed_exprs(depth - 1)
    # unparenthesized too, so that chains share a left spine
    paren = st.booleans()
    ints, bools, anything = sub["int"], sub["bool"], st.one_of(*sub.values())
    scalars = st.one_of(ints, bools)
    small = st.sampled_from(["0", "1", "z"])
    compound = {
        "int": [
            st.tuples(ints, st.sampled_from(["+", "-", "*", "/", "%"]), ints, paren).map(_binary),
            ints.map(lambda x: f"-({x})"),
            ints.map(lambda x: f"o.m({x})"),
            sub["obj"].map(lambda x: f"({x}).f"),
            sub["obj"].map(lambda x: f"({x}).k()"),
            st.tuples(sub["list"], small).map(lambda t: f"({t[0]})[{t[1]}]"),
            st.one_of(sub["str"], sub["list"]).map(lambda x: f"len({x})"),
        ],
        "bool": [
            st.tuples(ints, st.sampled_from(["<", "<=", ">", ">="]), ints, paren).map(_binary),
            st.tuples(scalars, st.sampled_from(["==", "!="]), scalars, paren).map(_binary),
            st.tuples(anything, st.sampled_from(["==", "!="]), anything, paren).map(_binary),
            st.tuples(bools, st.sampled_from(["&&", "||"]), bools, paren).map(_binary),
            bools.map(lambda x: f"!({x})"),
            sub["obj"].map(lambda x: f"({x}).g"),
        ],
        "str": [st.tuples(sub["str"], st.just("+"), sub["str"], paren).map(_binary)],
        "null": [sub["obj"].map(lambda x: f"({x}).m(null)")],
        "list": [st.lists(anything, max_size=3).map(lambda xs: f"[{', '.join(xs)}]")],
        "obj": [sub["obj"].map(lambda x: f"({x}).m(o)")],
    }
    mixed = st.one_of(
        st.tuples(scalars, st.sampled_from(_ANY_OP), scalars, paren).map(_binary),
        st.tuples(anything, st.sampled_from(["f", "g", "nope"])).map(lambda t: f"({t[0]}).{t[1]}"),
        anything,
    )

    def typed(t):
        good = st.one_of(sub[t], *compound[t])
        return st.integers(0, 9).flatmap(lambda k: mixed if k == 0 else good)

    return {t: typed(t) for t in _TYPES}


_EXPRS = _typed_exprs(3)
_any = st.one_of(*_EXPRS.values())
_scalars = st.one_of(_EXPRS["int"], _EXPRS["bool"])


@st.composite
def _statements(draw) -> str:
    form = draw(st.integers(0, 9))
    ints, bools = _EXPRS["int"], _EXPRS["bool"]
    if form == 0:
        return f"    print({draw(_any)});\n"
    if form == 1:
        t = draw(st.sampled_from(_TYPES))
        name = draw(st.sampled_from(_LOCALS[t]))
        return f"    var {name} = {draw(_EXPRS[t])};\n    print({name});\n"
    if form == 2:
        t = draw(st.sampled_from(["int", "bool", "str"]))
        return f"    {draw(st.sampled_from(_LOCALS[t]))} = {draw(_EXPRS[t])};\n"
    if form == 3:
        return (
            f"    if ({draw(bools)}) {{\n      print({draw(_any)});\n"
            f"    }} else if ({draw(bools)}) {{\n      print(1);\n    }}\n"
        )
    if form == 4:
        return (
            f"    c = 0;\n    while (c < 2 && {draw(bools)}) {{\n"
            f"      c = c + 1;\n      print({draw(ints)});\n    }}\n"
        )
    if form == 5:
        return f"    ({draw(_EXPRS['obj'])}).f = {draw(ints)};\n    print(o.f);\n"
    if form == 6:
        index = draw(st.sampled_from(["0", "2", "z", "i"]))
        return f"    ({draw(_EXPRS['list'])})[{index}] = {draw(_any)};\n    print(l);\n"
    if form == 7:
        return f"    spawn ({draw(_EXPRS['obj'])}).m({draw(_any)});\n"
    operands = _scalars if form == 8 else _any
    return f"    print({draw(operands)} {draw(st.sampled_from(_ANY_OP))} {draw(operands)});\n"


def _outcome(interp_cls, unit, seed: int):
    res = interp_cls(unit, seed, step_limit=400).run("Main.main")
    return res.status, res.steps, res.render_trace(), res.error


@settings(deadline=None)
@given(st.lists(_statements(), min_size=1, max_size=4), st.integers(0, 3))
def test_expression_programs_run_alike_on_the_checked_paths(stmts, seed):
    src = _BASE + _MAIN + _PRELUDE + "".join(stmts) + "  }\n}\n"
    unit = build_unit(src)
    assert _outcome(Interp, unit, seed) == _outcome(TreeInterp, unit, seed), src


@pytest.mark.parametrize(
    "expr, out",
    [
        ("1 == true", "false"),
        ("true != 1", "true"),
        ("0 - 3 < -2", "true"),
        ('"a" + "b"', "ab"),
        ("o.f * -(2)", "-4"),
        ("b && i > z", "true"),
        ("n == null", "true"),
    ],
)
def test_mixed_operands_take_the_checked_path(expr, out):
    src = (
        _BASE + _MAIN + _PRELUDE + f"    print({expr});\n  }}\n}}\n"
    )
    res = run_src(src)
    assert (res.status, res.output) == ("completed", [out])


@pytest.mark.parametrize(
    "stmt, error",
    [
        ("print(true + 1);", "expected an int, got true"),
        ("print(1 < false);", "expected an int, got false"),
        ("print(i / z);", "division by zero"),
        ("print(i % 0);", "division by zero"),
        ("print(n.f);", "null dereference reading 'f'"),
        ("n.f = 1;", "null dereference writing 'f'"),
        ("print(o.nope);", "unknown field 'nope' on Obj"),
        ("o.nope = 1;", "unknown field 'nope' on Obj"),
        ("if (i) { }", "expected a bool, got 7"),
        ("while (n) { }", "expected a bool, got null"),
        ("print(l[b]);", "list index must be an int"),
        ("print(n.m(1));", "null dereference calling 'm'"),
    ],
)
def test_fast_path_errors_keep_their_text(stmt, error):
    src = _BASE + _MAIN + _PRELUDE + f"    {stmt}\n  }}\n}}\n"
    unit = build_unit(src)
    res = Interp(unit).run("Main.main")
    assert res.status == "runtime-error"
    assert res.error.endswith(error), res.error
    assert _outcome(Interp, unit, 0) == _outcome(TreeInterp, unit, 0)


# ---------------------------------------------------------------------------
# The methods a subclass overrides are still reached
# ---------------------------------------------------------------------------

# `main` spawns a worker, runs alone once it has finished, then spawns two
# more, which run interleaved with it from the cursor its lone steps left
_TWO_THREADS = (
    "class W {\n  var n = 0;\n  def w() {\n    var i = 0;\n"
    "    while (i < 3) {\n      this.n = this.n + 1;\n      i = i + 1;\n    }\n  }\n}\n"
    "class Main {\n  def main() {\n    var w = new W();\n    spawn w.w();\n"
    "    var j = 0;\n    while (j < 30) {\n      j = j + 1;\n    }\n"
    "    spawn w.w();\n    spawn w.w();\n    print(w.n);\n    print(w.n);\n  }\n}\n"
)


def test_an_overridden_pick_next_is_called_at_every_pick():
    class Counting(ScanInterp):
        picks = 0

        def pick_next(self):
            Counting.picks += 1
            return super().pick_next()

    unit = build_unit(_TWO_THREADS)
    res = Counting(unit, 3).run("Main.main")
    plain = Interp(unit, 3).run("Main.main")
    assert (res.status, res.render_trace()) == (plain.status, plain.render_trace())
    # one pick before each step, and the last finds no thread to run
    assert Counting.picks == res.steps + 1
    assert Interp(unit).own_pick and not Counting(unit).own_pick


def test_lone_thread_steps_leave_the_cursor_of_the_scan():
    unit = build_unit(_TWO_THREADS)
    for seed in range(20):
        fast, scan = Interp(unit, seed), ScanInterp(unit, seed)
        assert fast.run("Main.main").render_trace() == scan.run("Main.main").render_trace()
        assert (fast.rot_pos, fast.steps) == (scan.rot_pos, scan.steps)


_SPY = (
    "class D {\n  var v = 0;\n  def down(k) {\n    this.v = this.v + 1;\n"
    "    if (k == 0) {\n      return 0;\n    }\n    return 1 + this.down(k - 1);\n  }\n}\n"
    "class Main {\n  def main() {\n    print(new D().down(5));\n  }\n}\n",
    "aspect Spy {\n  var seen = 0;\n"
    "  before(): call(*.*) && !cflow(within(Spy)) {\n    this.seen = this.seen + 1;\n  }\n"
    "  after(): set(D.v) && args(0, 1) {\n    this.seen = this.seen + 1;\n  }\n}\n",
)


def test_walk_hooks_and_residue_global_are_reached(monkeypatch):
    unit = build_unit(*_SPY)
    counts = {"enter": 0, "exit": 0, "advise": 0, "entries": 0, "residue": 0}

    class Counting(WalkInterp):
        def _jp_enter(self, *args):
            counts["enter"] += 1
            return super()._jp_enter(*args)

        def _jp_exit(self, site):
            counts["exit"] += 1
            super()._jp_exit(site)

        def _advise(self, entries, *args):
            counts["advise"] += 1
            counts["entries"] += len(entries)
            yield from super()._advise(entries, *args)

    real = matching.eval_residue

    def counted(*args):
        counts["residue"] += 1
        return real(*args)

    res = Counting(unit).run("Main.main")
    assert res.status == "completed" and res.output == ["5"]
    jps = res.count_jp("")
    assert counts["enter"] == counts["exit"] == jps > 0
    assert counts["advise"] > 0
    monkeypatch.setattr(interp, "eval_residue", counted)
    plain = Interp(unit).run("Main.main")
    # one residue test per advice entry at each join point reached
    assert counts["residue"] == counts["entries"] >= counts["advise"]
    assert plain.render_trace() == res.render_trace()


# ---------------------------------------------------------------------------
# calls_per_step.py
# ---------------------------------------------------------------------------


def _load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, os.path.join(ROOT, "scripts", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_calls_per_step_counts_are_deterministic():
    calls_per_step = _load_script("calls_per_step")
    first = calls_per_step.count_calls("spy_deep", seed=3, scale=0.25)
    second = calls_per_step.count_calls("spy_deep", seed=3, scale=0.25)
    assert first == second
    steps, calls = first
    assert steps > 0 and calls["interp.py:_switch"] > 0
    # 11.9 calls per step here; the parent's interpreter made 20
    assert sum(calls.values()) <= 14 * steps
