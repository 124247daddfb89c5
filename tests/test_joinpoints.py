"""Shadow extraction and @hide filtering, including the randomized properties."""

import collections
import dataclasses
import hashlib
import importlib.util
import os
import random
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import miniweave as mw
import miniweave.minilang as ml
from miniweave.diagnostics import CompileError
from miniweave.joinpoints import (
    INIT_MEMBER,
    PREINIT_MEMBER,
    STATIC_MEMBER,
    ShadowKind,
    apply_hide_filter,
    collect_hide_specs,
    extract_shadows,
    hide_spec_of,
)
from miniweave.minilang import Annotation
from miniweave.diagnostics import Loc

from randprog import random_aspect_source, random_program_source


def shadows_of(src: str, path: str = "t.ml0"):
    prog = mw.parse_base(src, path)
    ml.resolve_program(prog)
    return prog, extract_shadows(prog)


def sigs(table, kind=None):
    return [
        (str(s.kind), s.signature)
        for s in table
        if kind is None or s.kind == kind
    ]


class TestExtraction:
    def test_empty_method_single_shadow(self):
        _, table = shadows_of("class A { def f() { } }")
        assert sigs(table) == [("method_execution", "A.f/0")]

    def test_increment_pattern(self):
        _, table = shadows_of("class A { var x; def f() { this.x = this.x + 1; } }")
        counts = sorted(str(s.kind) for s in table)
        assert counts == ["field_get", "field_set", "method_execution"]

    def test_bounded_stack_port(self):
        from conftest import DEMO_STACK
        import os

        with open(os.path.join(DEMO_STACK, "stack.ml0")) as fh:
            src = fh.read()
        _, table = shadows_of(src, "demo_stack/stack.ml0")
        execs = {s.signature for s in table if s.kind is ShadowKind.METHOD_EXECUTION}
        assert {"BoundedStack.push/1", "BoundedStack.pop/0"} <= execs
        gets = {s.signature for s in table if s.kind is ShadowKind.FIELD_GET}
        sets = {s.signature for s in table if s.kind is ShadowKind.FIELD_SET}
        assert "BoundedStack.usedSlots" in gets
        assert {"BoundedStack.usedSlots", "BoundedStack.buffer"} & sets
        # the init-kind shadows exist for the constructors in the demo
        assert [s for s in table if s.kind == ShadowKind.INITIALIZATION]

    def test_source_order_iteration(self):
        _, table = shadows_of(
            "class A { def f() { } }\nclass B { def g() { } def h() { } }"
        )
        locs = [(s.loc.path, s.loc.line, s.loc.col) for s in table]
        assert locs == sorted(locs)
        assert [s.sid for s in table] == list(range(len(table.shadows)))

    def test_call_receiver_inference(self):
        _, table = shadows_of(
            """
            class B { def g() { } }
            class A {
              var b = null;
              def f(p) {
                this.f(p);
                var o = new B();
                o.g();
                this.b.g();
                p.g();
              }
            }
            """
        )
        calls = {s.signature for s in table if s.kind is ShadowKind.METHOD_CALL}
        assert "A.f/1" in calls  # this receiver
        assert "B.g/0" in calls  # var o = new B()
        assert "?.g/0" in calls  # field and param receivers stay unknown

    def test_call_receiver_declared_as_this(self):
        # `var me = this`, declared once and never assigned, has the class
        _, table = shadows_of("class C { def f() { } def g() { var me = this; me.f(); } }")
        (call,) = [s for s in table if s.kind is ShadowKind.METHOD_CALL]
        assert (call.cls, call.signature) == ("C", "C.f/0")

    def test_static_and_ctor_enclosures(self):
        _, table = shadows_of(
            """
            class H { def poke() { } }
            class A {
              var seeded = 0;
              static {
                var h = new H();
                h.poke();
              }
              constructor() {
                this.seeded = 1;
              }
            }
            """
        )
        call = next(s for s in table if s.kind == ShadowKind.METHOD_CALL)
        assert (call.within_cls, call.within_member) == ("A", STATIC_MEMBER)
        fset = next(s for s in table if s.kind == ShadowKind.FIELD_SET)
        assert (fset.within_cls, fset.within_member) == ("A", INIT_MEMBER)
        kinds = {str(s.kind) for s in table}
        assert {"pre_initialization", "initialization", "static_initialization"} <= kinds

    def test_spawn_site_yields_no_call_shadow(self):
        _, table = shadows_of(
            """
            class W { def go() { } }
            class A {
              def f() {
                var w = new W();
                spawn w.go();
              }
            }
            """
        )
        assert [s for s in table if s.kind is ShadowKind.METHOD_CALL] == []


    def test_else_if_arms_yield_their_shadows_in_source_order(self):
        _, table = shadows_of(
            """
            class A {
              var f = 0;
              def g() { }
              def m(x) {
                if (x == 0) { this.g(); }
                else if (x == this.f) { this.f = 1; }
                else if (x == 2) { spawn this.g(); }
                else { this.g(); }
              }
            }
            """
        )
        body = [(str(s.kind), s.loc.line) for s in table if s.within_member == "m"]
        assert body == [
            ("method_execution", 5),
            ("method_call", 6),
            ("field_get", 7),
            ("field_set", 7),
            ("method_call", 9),
        ]


def ann(name, args=None):
    return Annotation(name, args, Loc("t.ml0", 1))


class TestHideSpecOf:
    def test_bare_method_defaults(self):
        spec = hide_spec_of("method", [ann("hideMethod")], "A", "f")
        assert spec.kinds == ("call", "execution", "within")

    def test_bare_field_defaults(self):
        spec = hide_spec_of("field", [ann("hideField")], "A", "x")
        assert spec.kinds == ("set", "get")

    def test_bare_type_defaults(self):
        spec = hide_spec_of("type", [ann("hideType")], "A")
        assert spec.kinds == (
            "pre_init",
            "init",
            "static_init",
            "within_init",
            "within_static_init",
        )

    def test_explicit_subset(self):
        spec = hide_spec_of("field", [ann("hideField", ["get"])], "A", "x")
        assert spec.kinds == ("get",)

    def test_empty_list_hides_nothing(self):
        spec = hide_spec_of("method", [ann("hideMethod", [])], "A", "f")
        assert spec.kinds == ()

    def test_no_annotation_absent(self):
        assert hide_spec_of("method", [], "A", "f") is None

    def test_unknown_kind_rejected(self):
        with pytest.raises(CompileError, match="unknown join point kind"):
            hide_spec_of("field", [ann("hideField", ["call"])], "A", "x")

    def test_wrong_category_rejected(self):
        with pytest.raises(CompileError, match="not allowed on a field"):
            prog = mw.parse_base(
                "class A { @hideMethod var x = 0; }", "t.ml0"
            )
            collect_hide_specs(prog)


FIXTURE = """
class Helper {
  def helped() { }
}
class Fixture {
  var data;
  def secret() {
    this.data = this.data + 1;
    this.util();
  }
  def util() {
    this.secret();
    var h = new Helper();
    h.helped();
  }
}
"""


class TestApplyHideFilter:
    def test_no_specs_identity(self):
        _, table = shadows_of(FIXTURE)
        out = apply_hide_filter(table, [])
        assert sigs(out) == sigs(table)
        assert out.suppressed == []

    def test_strip_hide_identity(self):
        prog = mw.parse_base(FIXTURE.replace("def secret", "@hideMethod\n  def secret"), "t.ml0")
        ml.resolve_program(prog)
        table = extract_shadows(prog)
        specs = collect_hide_specs(prog)
        assert specs
        out = apply_hide_filter(table, specs=[])
        assert sigs(out) == sigs(table)

    def test_hide_method_full_semantics(self):
        src = FIXTURE.replace("def secret", "@hideMethod\n  def secret")
        prog = mw.parse_base(src, "t.ml0")
        ml.resolve_program(prog)
        table = extract_shadows(prog)
        out = apply_hide_filter(table, collect_hide_specs(prog))
        visible = set(sigs(out))
        assert visible == {
            ("method_execution", "Helper.helped/0"),
            ("method_execution", "Fixture.util/0"),
            ("method_call", "Helper.helped/0"),
        }
        hidden = {(str(s.kind), s.signature) for s, _, _ in out.suppressed}
        assert hidden == {
            ("method_execution", "Fixture.secret/0"),
            ("method_call", "Fixture.secret/0"),
            ("method_call", "Fixture.util/0"),
            ("field_get", "Fixture.data"),
            ("field_set", "Fixture.data"),
        }

    def test_listing_style_helper_call_hidden_in_aspect(self):
        aspect_src = """
        aspect Logs {
          @hideMethod
          def audit(line) { audit_emit(line); }
          before(): execution(A.f) {
            this.audit("x");
          }
        }
        """
        prog = mw.parse_base("class A { def f() { } }", "t.ml0")
        aspects = mw.parse_aspect_file(aspect_src, "logs.ma0").aspects
        ml.resolve_program(prog, aspects)
        table = extract_shadows(prog, aspects)
        out = apply_hide_filter(table, collect_hide_specs(prog, aspects))
        assert ("method_call", "Logs.audit/1") not in sigs(out)
        assert ("method_call", "Logs.audit/1") in sigs(table)

    def test_diagnostics_lines(self):
        src = FIXTURE.replace("def secret", "@hideMethod\n  def secret")
        prog = mw.parse_base(src, "t.ml0")
        ml.resolve_program(prog)
        out = apply_hide_filter(extract_shadows(prog), collect_hide_specs(prog))
        lines = out.diagnostics()
        assert len(lines) == len(out.suppressed)
        assert all(line.startswith("HIDDEN ") and " by @hideMethod" in line for line in lines)


# -- randomized properties; the oracle recomputes the hidden set from the
#    suppression rules via brute-force set difference


def oracle_hidden_sids(table, specs) -> set[int]:
    hidden = set()
    for s in table:
        for spec in specs:
            for kind in spec.kinds:
                if _covers(spec, kind, s):
                    hidden.add(s.sid)
    return hidden


def _covers(spec, kind, s) -> bool:
    K = ShadowKind
    if spec.target == "method":
        tgt = (spec.cls, spec.member)
        return (
            (kind == "execution" and s.kind is K.METHOD_EXECUTION and (s.cls, s.member) == tgt)
            or (kind == "call" and s.kind is K.METHOD_CALL and (s.cls, s.member) == tgt)
            or (kind == "within" and (s.within_cls, s.within_member) == tgt)
        )
    if spec.target == "field":
        tgt = (spec.cls, spec.member)
        return (kind == "get" and s.kind is K.FIELD_GET and (s.cls, s.member) == tgt) or (
            kind == "set" and s.kind is K.FIELD_SET and (s.cls, s.member) == tgt
        )
    body = s.kind in (K.METHOD_CALL, K.FIELD_GET, K.FIELD_SET)
    return (
        (kind == "pre_init" and s.kind is K.PRE_INITIALIZATION and s.cls == spec.cls)
        or (kind == "init" and s.kind is K.INITIALIZATION and s.cls == spec.cls)
        or (kind == "static_init" and s.kind is K.STATIC_INITIALIZATION and s.cls == spec.cls)
        or (kind == "within_init" and body and (s.within_cls, s.within_member) == (spec.cls, INIT_MEMBER))
        or (
            kind == "within_static_init"
            and body
            and (s.within_cls, s.within_member) == (spec.cls, STATIC_MEMBER)
        )
    )


def _random_case(seed: int):
    src = random_program_source(random.Random(seed))
    prog = mw.parse_base(src, "rand.ml0")
    ml.resolve_program(prog)
    table = extract_shadows(prog)
    specs = collect_hide_specs(prog)
    return table, specs


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_filter_matches_bruteforce_oracle(seed):
    table, specs = _random_case(seed)
    out = apply_hide_filter(table, specs)
    expected_hidden = oracle_hidden_sids(table, specs)
    assert {s.sid for s in out} == {s.sid for s in table} - expected_hidden
    assert {s.sid for s, _, _ in out.suppressed} == expected_hidden


def oracle_first_hit(shadow, specs):
    """The (spec, kind) a shadow is attributed to: the first covering spec in
    declaration order, and within it the first kind as written."""
    for spec in specs:
        for kind in spec.kinds:
            if _covers(spec, kind, shadow):
                return spec, kind
    return None


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_filter_attribution_matches_bruteforce_first_hit(seed):
    table, specs = _random_case(seed)
    out = apply_hide_filter(table, specs)
    for shadow, spec, kind in out.suppressed:
        first = oracle_first_hit(shadow, specs)
        assert first is not None
        assert first[0] is spec and first[1] == kind


class TestAttribution:
    def diagnostics(self, src: str) -> list[str]:
        prog, table = shadows_of(src)
        return apply_hide_filter(table, collect_hide_specs(prog)).diagnostics()

    def test_field_get_inside_hidden_method_names_the_earlier_spec(self):
        # the get is covered by @hideField(get) and by @hideMethod(within);
        # the field's spec is declared first, so the HIDDEN line names it
        src = (
            "class A {\n"
            "  @hideField(get)\n"
            "  var x = 0;\n"
            "  @hideMethod(within)\n"
            "  def f() { return this.x; }\n"
            "}\n"
        )
        assert self.diagnostics(src) == [
            "HIDDEN method_execution A.f/0 @ t.ml0:5 by @hideMethod(within) A.f [within]",
            "HIDDEN field_get A.x @ t.ml0:5 by @hideField(get) A.x [get]",
        ]

    def test_within_spec_declared_first_wins_over_field_spec(self):
        src = (
            "class A {\n"
            "  @hideMethod(within)\n"
            "  def f() { return new B().y; }\n"
            "}\n"
            "class B {\n"
            "  @hideField(get)\n"
            "  var y = 0;\n"
            "}\n"
        )
        assert self.diagnostics(src) == [
            "HIDDEN method_execution A.f/0 @ t.ml0:3 by @hideMethod(within) A.f [within]",
            "HIDDEN field_get B.y @ t.ml0:3 by @hideMethod(within) A.f [within]",
        ]

    def test_kind_order_on_the_annotation_decides_within_one_spec(self):
        src = "class A {\n  @hideMethod(execution, within)\n  def f() { }\n}\n"
        assert self.diagnostics(src) == [
            "HIDDEN method_execution A.f/0 @ t.ml0:3 by @hideMethod(execution, within) A.f [execution]",
        ]


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_filter_idempotent(seed):
    table, specs = _random_case(seed)
    once = apply_hide_filter(table, specs)
    twice = apply_hide_filter(once, specs)
    assert [s.sid for s in twice] == [s.sid for s in once]


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_adding_specs_is_monotone(seed):
    table, specs = _random_case(seed)
    visible_all = {s.sid for s in apply_hide_filter(table, specs)}
    for k in range(len(specs) + 1):
        bigger = {s.sid for s in apply_hide_filter(table, specs[:k])}
        smaller = {s.sid for s in apply_hide_filter(table, specs[: k + 1] if k < len(specs) else specs)}
        assert smaller <= bigger
    assert visible_all <= {s.sid for s in table}


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_partition_attribution_unique(seed):
    table, specs = _random_case(seed)
    out = apply_hide_filter(table, specs)
    suppressed_sids = [s.sid for s, _, _ in out.suppressed]
    assert len(suppressed_sids) == len(set(suppressed_sids))
    assert set(suppressed_sids) | {s.sid for s in out} == {s.sid for s in table}


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_strip_hide_exact_identity(seed):
    table, specs = _random_case(seed)
    out = apply_hide_filter(table, specs=[])
    assert [s.sid for s in out] == [s.sid for s in table]


def test_hide_method_on_advice_hides_body_shadows():
    # Listing-6 semantics: @hideMethod also applies to advice; call and
    # execution kinds are vacuous there, within hides the body
    aspect_src = """
    aspect A {
      def helper() { }
      @hideMethod
      before(): execution(X.f) {
        this.helper();
      }
      after(): execution(X.f) {
        this.helper();
      }
    }
    """
    prog = mw.parse_base("class X { def f() { } }", "t.ml0")
    aspects = mw.parse_aspect_file(aspect_src, "a.ma0").aspects
    ml.resolve_program(prog, aspects)
    table = extract_shadows(prog, aspects)
    out = apply_hide_filter(table, collect_hide_specs(prog, aspects))
    calls = [s for s in out if s.kind == ShadowKind.METHOD_CALL]
    # the hidden advice's helper call is gone; the unhidden one survives
    assert len(calls) == 1
    assert (calls[0].within_cls, calls[0].within_member) == ("A", "advice#1")


_RT = Loc("rt.ml0", 1)
_RT_OPS = sorted(ml._BINARY_PREC)


def _rt_expr(rng: random.Random, depth: int):
    """A random expression at most `depth` levels deep (Locs are dummies)."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice([
            lambda: ml.IntLit(_RT, rng.randint(0, 99)),
            lambda: ml.BoolLit(_RT, rng.random() < 0.5),
            lambda: ml.StrLit(_RT, "".join(rng.choices('ab "\\\n\t', k=rng.randint(0, 3)))),
            lambda: ml.NullLit(_RT),
            lambda: ml.ThisRef(_RT),
            lambda: ml.LocalRef(_RT, rng.choice("abc")),
        ])()
    sub = lambda: _rt_expr(rng, depth - 1)  # noqa: E731
    subs = lambda: [sub() for _ in range(rng.randint(0, 2))]  # noqa: E731
    call = lambda: ml.MethodCall(_RT, sub(), rng.choice("fg"), subs())  # noqa: E731
    return rng.choice([
        # operator chains are the common case: weight them up
        lambda: ml.Binary(_RT, rng.choice(_RT_OPS), sub(), sub()),
        lambda: ml.Binary(_RT, rng.choice(_RT_OPS), sub(), sub()),
        lambda: ml.Binary(_RT, rng.choice(_RT_OPS), sub(), sub()),
        lambda: ml.Unary(_RT, rng.choice("!-"), sub()),
        lambda: ml.FieldGet(_RT, sub(), rng.choice("fg")),
        lambda: ml.Index(_RT, sub(), sub()),
        call,
        lambda: ml.ListLit(_RT, subs()),
        lambda: ml.BuiltinCall(_RT, rng.choice(["len", "print"]), subs()),
        lambda: ml.New(_RT, "C", subs()),
        lambda: ml.Spawn(_RT, call()),
    ])()


def _rt_block(rng: random.Random, depth: int) -> list:
    """Random statements; `if` gets `else if` arms, and an `else` block that
    holds just an `if` stays a nested statement."""
    expr = lambda: _rt_expr(rng, 4)  # noqa: E731
    block = lambda: _rt_block(rng, depth - 1)  # noqa: E731
    kinds = [
        lambda: ml.VarDecl(_RT, rng.choice("abc"), expr() if rng.random() < 0.7 else None),
        lambda: ml.Assign(_RT, rng.choice([
            lambda: ml.LocalRef(_RT, rng.choice("abc")),
            lambda: ml.FieldGet(_RT, expr(), "f"),
            lambda: ml.Index(_RT, expr(), expr()),
        ])(), expr()),
        lambda: ml.Return(_RT, expr() if rng.random() < 0.7 else None),
        lambda: ml.ExprStmt(_RT, expr()),
    ]
    if depth > 0:
        kinds += [
            lambda: ml.If(_RT, [(expr(), block()) for _ in range(rng.randint(1, 4))],
                          rng.choice([[], block(), [ml.If(_RT, [(expr(), block())], [])]])),
            lambda: ml.While(_RT, expr(), block()),
        ]
    return [rng.choice(kinds)() for _ in range(rng.randint(0, 3))]


def _shape(x):
    """The AST under `x` with every Loc dropped, for structural comparison."""
    if isinstance(x, ml.Node):
        fields = [f.name for f in dataclasses.fields(x) if f.name != "loc"]
        return (type(x).__name__, *(_shape(getattr(x, name)) for name in fields))
    if isinstance(x, (list, tuple)):
        return [_shape(item) for item in x]
    return x


def _reparse_body(stmts):
    from miniweave.render import render_block

    text = "\n".join(render_block(stmts, "    "))
    prog = mw.parse_base(f"class W {{\n  def probe() {{\n{text}\n  }}\n}}\n", "rt2.ml0")
    return prog.classes[0].methods[0].body


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_render_parse_round_trip(seed):
    # parsing what the renderer writes gives back the same tree: a dropped
    # parenthesis or a mis-rendered `else if` changes the shape. The
    # renderer backs the coordinator code generator, so drift here would
    # silently corrupt generated aspects.
    stmts = _rt_block(random.Random(seed), 3)
    assert _shape(_reparse_body(stmts)) == _shape(stmts)


@pytest.mark.parametrize(
    "source, rendered",
    [
        ("a - (b - c)", "a - (b - c)"),
        ("(a - b) - c", "a - b - c"),
        ("a * (b + c) % d", "a * (b + c) % d"),
        ("(a || b) && !(c == d)", "(a || b) && !(c == d)"),
        ("!a && -b < -(-c)", "!a && -b < -(-c)"),
        ("(a + b).f[(c)]", "(a + b).f[c]"),
    ],
)
def test_render_parenthesizes_by_precedence(source, rendered):
    from miniweave.render import render_expr

    body = mw.parse_base(f"class W {{ def probe() {{ return {source}; }} }}", "p.ml0")
    assert render_expr(body.classes[0].methods[0].body[0].value) == rendered


def test_render_applies_the_renaming_to_every_bare_name():
    from miniweave.render import render_block

    src = "class W { def probe() { a = b.f[c] + len([d, -e]); var g = !h; } }"
    body = mw.parse_base(src, "p.ml0").classes[0].methods[0].body
    assert render_block(body, rename=lambda name: f"t.{name}") == [
        "t.a = t.b.f[t.c] + len([t.d, -t.e]);",
        "var g = !t.h;",
    ]


def test_render_long_chain_round_trips():
    # a 3000-term chain is rendered by a loop over its left spine, and the
    # parser reads the text back as the same chain
    from miniweave.render import render_expr

    source = " + ".join(["a"] * 3000) + " >= 0 && !b"
    for _ in range(2):
        body = mw.parse_base(f"class W {{ def probe() {{ return {source}; }} }}", "p.ml0")
        rendered = render_expr(body.classes[0].methods[0].body[0].value)
        assert rendered == source
        source = rendered


def test_render_else_if_chain_is_flat():
    from miniweave.render import render_block

    src = (
        "class W { def probe() { if (a) { f(); } else if (b) { } else if (c) { g(); }"
        " else { if (d) { } } } }"
    )
    body = mw.parse_base(src, "p.ml0").classes[0].methods[0].body
    assert render_block(body) == [
        "if (a) {",
        "  f();",
        "} else if (b) {",
        "} else if (c) {",
        "  g();",
        "} else {",
        "  if (d) {",
        "  }",
        "}",
    ]


# -- the shadow table, pinned byte for byte

def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def _table_rows(table) -> list[str]:
    return [
        f"{s.sid} {s.kind} {s.signature} {s.within_cls}.{s.within_member} "
        f"{s.loc.path}:{s.loc.line}:{s.loc.col}"
        for s in table
    ]


# (sid, kind, signature, within, loc) rows and the `--explain-hides` lines
SHADOW_TABLE_PINS = {
    "demo_stack": (
        "a920cceb6cf6739856112c956e9b92ed640e38ea3a30b4b2b9cb43a41bb5f145",
        "3466f36b1121af2dcc49da28a90836b02c8fd8761150c490ec4120a7fd31a5be",
    ),
    "demo": (
        "7acd94cd3007965564c2a00b5ca528c411baa5a62b9bbf98f5771c8410830fa6",
        "14ed0bf19b32c841b684d257080a0ed65fd3ed7ffb77e2d15b3edbf8cfca0f7a",
    ),
}


@pytest.mark.parametrize(
    "demo, inputs",
    [
        ("demo_stack", ["stack.ml0", "stack.cool", "auditor.ma0"]),
        ("demo", ["jobs.ml0", "jobs.audit"]),
    ],
)
def test_demo_shadow_table_is_pinned(demo, inputs, tmp_path, monkeypatch, capsys):
    from conftest import ROOT
    from miniweave import pipeline
    from miniweave.cli import main

    shutil.copytree(os.path.join(ROOT, demo), tmp_path / demo)
    monkeypatch.chdir(tmp_path)
    paths = [f"{demo}/{name}" for name in inputs]
    assert main(["compile", *paths, "--explain-hides"]) == 0
    hidden = capsys.readouterr().out.splitlines()
    assert hidden and all(line.startswith("HIDDEN ") for line in hidden)
    unit = pipeline.compile(paths, pipeline.CompileOptions(dsals_path=f"{demo}/dsals.txt")).unit
    assert (_digest(_table_rows(unit.all_shadows)), _digest(hidden)) == SHADOW_TABLE_PINS[demo]


RANDPROG_TABLE_PINS = {
    0: (
        "81f29a5be1e810d00eb60168df23ab9363d0798208d2a0fe0147cfb12703d652",
        "4e7123fac2b60709fb571b9fa238140dafa952de43a892ec6e1b00fc159b534a",
    ),
    5: (
        "e54a719428714f5ddc197a02438c107d8eeada5613ab29b29beb9f2967a3f5fa",
        "7f6c7b4c5f074bf3cfe5932ae11ac6ca6dc47cb0ec8c731a6217935ca456ae9c",
    ),
    9: (
        "30c91fbbf2efc9c836bb717273bed9b8f0cfe1d14396eba65d138207ca8ec38f",
        "ad37f9b0399d9648a68e5a19fd267e700fa69e1ec78ccb497a4aff34270c9fea",
    ),
}


@pytest.mark.parametrize("seed", sorted(RANDPROG_TABLE_PINS))
def test_random_program_shadow_table_is_pinned(seed):
    table, specs = _random_case(seed)
    hidden = apply_hide_filter(table, specs).diagnostics()
    assert hidden
    assert (_digest(_table_rows(table)), _digest(hidden)) == RANDPROG_TABLE_PINS[seed]


# -- the resolver's record of each body's join-point nodes

_SHADOW_NODE_KINDS = (ml.FieldGet, ml.MethodCall, ml.Assign, ml.Spawn)

# every recorded kind, `jp` read in one advice body only, and field
# initializers in a class and an aspect
_RECORDING_ASPECT = """
aspect Rec {
  var n = 0;
  var k = [this.n];
  def h(o) { o.f0 = this.n; spawn this.h(o); }
  before(): execution(*.m0) { this.n = this.n + 1; print(jp.member); }
  after(): call(*.m0) { this.h(null); }
}
"""


def _recorded_bodies(program, aspects):
    """(roots, recorded nodes, names_jp or None) of every body."""
    for owner in [*program.classes, *aspects]:
        yield [f.init for f in owner.fields if f.init is not None], owner.init_shadow_nodes, None
        for m in [*owner.methods, owner.ctor, owner.static_block, *getattr(owner, "advice", ())]:
            if m is not None:
                yield m.body, m.shadow_nodes, m.names_jp


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_resolver_records_each_bodys_shadow_nodes(seed):
    from miniweave.interp import WovenUnit

    # F's bare field names become `this.<name>` gets and sets as resolved
    src = random_program_source(random.Random(seed)) + (
        "class F { var g = new C0().m0(); var h = g; def r() { h = g; return h; } }\n"
    )
    program = mw.parse_base(src, "rand.ml0")
    aspects = mw.parse_aspect_file(_RECORDING_ASPECT, "rec.ma0").aspects
    # a second build resolves the same AST again: the records are rebuilt
    for _ in range(2):
        WovenUnit.build(program, aspects)
        jp_bodies = 0
        for roots, recorded, names_jp in _recorded_bodies(program, aspects):
            walked = list(ml.walk(roots))
            assert [id(n) for n in recorded] == [
                id(n) for n in walked if type(n) in _SHADOW_NODE_KINDS
            ]
            if names_jp is not None:
                reads_jp = any(type(n) is ml.LocalRef and n.name == "jp" for n in walked)
                assert names_jp == reads_jp
                jp_bodies += reads_jp
        assert jp_bodies == 1


# -- a random aspect over a random program: the oracles above, and where an
#    aspect's shadows arise

def _random_case_with_aspect(seed: int):
    rng = random.Random(seed)
    prog = mw.parse_base(random_program_source(rng), "rand.ml0")
    aspects = mw.parse_aspect_file(random_aspect_source(rng, prog), "rand.ma0").aspects
    ml.resolve_program(prog, aspects)
    return prog, aspects, extract_shadows(prog, aspects), collect_hide_specs(prog, aspects)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_filter_with_an_aspect_matches_bruteforce_oracle(seed):
    _, _, table, specs = _random_case_with_aspect(seed)
    out = apply_hide_filter(table, specs)
    expected_hidden = oracle_hidden_sids(table, specs)
    assert {s.sid for s in out} == {s.sid for s in table} - expected_hidden
    assert {s.sid for s, _, _ in out.suppressed} == expected_hidden


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_filter_attribution_with_an_aspect_matches_bruteforce_first_hit(seed):
    _, _, table, specs = _random_case_with_aspect(seed)
    out = apply_hide_filter(table, specs)
    for shadow, spec, kind in out.suppressed:
        first = oracle_first_hit(shadow, specs)
        assert first is not None
        assert first[0] is spec and first[1] == kind


def test_an_aspect_has_helper_executions_and_no_init_shadows():
    # over the seeds, the hide filter also meets each place an aspect's
    # shadows come from: a helper body, an advice body, an aspect field
    init_kinds = {
        ShadowKind.PRE_INITIALIZATION, ShadowKind.INITIALIZATION, ShadowKind.STATIC_INITIALIZATION
    }
    init_members = {INIT_MEMBER, PREINIT_MEMBER, STATIC_MEMBER}
    hidden = collections.Counter()
    for seed in range(100):
        _, (aspect,), table, specs = _random_case_with_aspect(seed)
        mine = [s for s in table if s.loc.path == "rand.ma0"]
        assert [s for s in mine if s.kind in init_kinds] == []
        initializers = {id(node) for node in aspect.init_shadow_nodes}
        assert [s for s in mine if id(s.node) in initializers] == []
        assert [s for s in mine if s.within_member in init_members] == []
        # one execution per helper, none per advice
        executions = [s.member for s in mine if s.kind is ShadowKind.METHOD_EXECUTION]
        assert sorted(executions) == sorted(m.name for m in aspect.methods)
        for shadow, _, _ in apply_hide_filter(table, specs).suppressed:
            if shadow.within_cls == "Asp":
                hidden["advice" if shadow.within_member.startswith("advice#") else "helper"] += 1
            if shadow.cls == "Asp" and shadow.kind in (ShadowKind.FIELD_GET, ShadowKind.FIELD_SET):
                hidden["field"] += 1
    assert set(hidden) == {"advice", "helper", "field"}


# -- every shadow arises at a token of its own, so the order in which
#    extraction reads classes, aspects and bodies decides no sid

def _assert_reading_order_is_free(program, aspects, table) -> None:
    locs = [(s.loc.path, s.loc.line, s.loc.col) for s in table]
    assert len(set(locs)) == len(locs)
    backwards = extract_shadows(ml.Program(program.classes[::-1]), list(aspects)[::-1])

    def rows(t):
        return [
            (s.sid, s.kind, s.cls, s.member, s.arity, s.within_cls, s.within_member, s.loc)
            for s in t
        ]

    assert rows(backwards) == rows(table)


def test_reading_order_is_free_on_the_golden_corpus(tmp_path, monkeypatch):
    # both demos, and every perfbench workload at seeds 0-2
    from conftest import ROOT

    spec = importlib.util.spec_from_file_location(
        "golden_runs", os.path.join(ROOT, "scripts", "golden_runs.py")
    )
    golden_runs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden_runs)
    monkeypatch.chdir(tmp_path)
    units = {id(unit): (name, unit) for name, unit, _, _ in golden_runs.corpus()}
    names = {name.split()[0] for name, _ in units.values()}
    assert {"demo", "demo_stack", "weave_large", "jobs_audit", "stack_cool", "spy_deep"} <= names
    for _, unit in units.values():
        _assert_reading_order_is_free(unit.program, unit.aspects, unit.all_shadows)


def test_reading_order_is_free_on_random_programs_with_an_aspect():
    for seed in range(60):
        prog, aspects, table, _ = _random_case_with_aspect(seed)
        _assert_reading_order_is_free(prog, aspects, table)
