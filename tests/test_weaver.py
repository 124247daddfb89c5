"""MiniAspect parsing, pointcut matching, and match-table construction."""

import math
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import miniweave as mw
import miniweave.minilang as ml
from miniweave.aspects import (
    AspectParser,
    PcAnd,
    PcArgs,
    PcBinding,
    PcCflow,
    PcKind,
    PcNot,
    PcOr,
    PcWithin,
    anchor,
    parse_aspect_file,
)
from miniweave.diagnostics import CompileError, ParseError
from miniweave.lexer import EOF
from miniweave.joinpoints import ShadowKind, apply_hide_filter, collect_hide_specs, extract_shadows
from miniweave.matching import (
    TRUE,
    build_match_table,
    match,
    number_scopes,
    scope_membership,
)

from conftest import build_unit
from oracles import parse_aspect
from randprog import main_source, random_aspect_source, random_program_source


class TestParseAspect:
    def test_minimal_aspect(self):
        a = parse_aspect('aspect A { before(): execution(*.f) { print("x"); } }', "a.ma0")
        assert a.name == "A"
        assert len(a.advice) == 1
        adv = a.advice[0]
        assert adv.kind == "before"
        assert adv.order is None and adv.bridge is None

    def test_listing_style_generated_aspect(self):
        src = """
        @hideType
        aspect Logs {
          @hideMethod
          def audit(line) { audit_emit(line); }
          @loc(file="demo/jobs.audit", line=2, module="jobs.audit")
          after(): execution(start) && this(CopyJob) {
            this.audit("x");
          }
        }
        """
        a = parse_aspect(src, "logs.ma0")
        assert [ann.name for ann in a.annotations] == ["hideType"]
        assert a.methods[0].name == "audit"
        adv = a.advice[0]
        assert adv.bridge is not None
        assert adv.bridge.file == "demo/jobs.audit"
        assert adv.bridge.line == 2
        assert adv.bridge.module == "jobs.audit"

    def test_order_on_helper_is_error(self):
        with pytest.raises(ParseError, match="only allowed on advice"):
            parse_aspect("aspect A { @order(1.0) def h() { } }", "a.ma0")

    def test_order_parses_negative_and_float(self):
        a = parse_aspect_file(
            """
            aspect A { @order(-2.5) before(): execution(*.f) { } }
            aspect B { @order(3) before(): execution(*.f) { } }
            """,
            "a.ma0",
        )
        assert a.aspects[0].advice[0].order == -2.5
        assert a.aspects[1].advice[0].order == 3.0

    def test_loc_requires_all_three_fields(self):
        with pytest.raises(ParseError, match="file=, line=, module="):
            parse_aspect(
                 'aspect A { @loc(file="f", line=1) before(): execution(*.f) { } }', "a.ma0"
            )

    def test_precedence_statements_collect(self):
        out = parse_aspect_file(
            "precedence B, A;\naspect A { }\naspect B { precedence C; }", "p.ma0"
        )
        assert out.precedence == ["B", "A", "C"]

    @pytest.mark.parametrize(
        "src, line, message",
        [
            ("@hideType precedence A;", 1, "expected 'aspect' or 'precedence'"),
            ("aspect A {\n  @hideMethod precedence B;\n}", 2,
             "expected a field, helper, advice, or precedence"),
        ],
        ids=["file", "aspect"],
    )
    def test_annotated_precedence_is_error(self, src, line, message):
        with pytest.raises(ParseError) as exc:
            parse_aspect_file(src, "p.ma0")
        assert (exc.value.msg, exc.value.loc.line) == (message, line)

    def test_pointcut_needs_static_anchor(self):
        with pytest.raises(CompileError, match="execution/call/get/set"):
            parse_aspect("aspect A { before(): this(X) { } }", "a.ma0")
        # each disjunct needs one
        with pytest.raises(CompileError):
            parse_aspect(
                "aspect A { before(): execution(*.f) || this(X) { } }", "a.ma0"
            )

    def test_unknown_annotation_rejected(self):
        with pytest.raises(ParseError, match="not allowed on advice"):
            parse_aspect("aspect A { @wat before(): execution(*.f) { } }", "a.ma0")


def table_for(src: str, path: str = "t.ml0"):
    prog = mw.parse_base(src, path)
    ml.resolve_program(prog)
    return extract_shadows(prog)


def shadow(table, kind, signature):
    return next(s for s in table if s.kind == kind and s.signature == signature)


class TestMatch:
    def test_universal_call_pattern(self):
        table = table_for("class A { def f() { this.f(); } }")
        call = shadow(table, ShadowKind.METHOD_CALL, "A.f/0")
        pc = PcKind(ShadowKind.METHOD_CALL, "*", "*")
        assert match(pc, call) is TRUE
        execution = shadow(table, ShadowKind.METHOD_EXECUTION, "A.f/0")
        assert match(pc, execution) is None

    def test_execution_with_this_residue(self):
        table = table_for("class CopyJob { def start() { } }")
        s = shadow(table, ShadowKind.METHOD_EXECUTION, "CopyJob.start/0")
        pc = PcAnd(
            (PcKind(ShadowKind.METHOD_EXECUTION, "*", "start"), PcBinding("this", "CopyJob"))
        )
        residue = match(pc, s)
        assert residue == PcBinding("this", "CopyJob")
        assert str(residue) == "this(CopyJob)"

    def test_cflow_collects_into_residue_and_within_is_static(self):
        aspect_src = """
        aspect AJAuditor {
          def helper() { }
          before(): call(*.*) && !cflow(within(AJAuditor)) {
            this.helper();
          }
        }
        """
        prog = mw.parse_base("class A { def f() { } }", "t.ml0")
        aspects = mw.parse_aspect_file(aspect_src, "aud.ma0").aspects
        ml.resolve_program(prog, aspects)
        table = extract_shadows(prog, aspects)
        inner_call = shadow(table, ShadowKind.METHOD_CALL, "AJAuditor.helper/0")
        pc = aspects[0].advice[0].pointcut
        residue = match(pc, inner_call)
        assert residue == PcNot(PcCflow(PcWithin("AJAuditor")))
        assert match(PcWithin("AJAuditor"), inner_call) is TRUE

    def test_unknown_receiver_class_becomes_target_residue(self):
        table = table_for(
            "class A { var b = null; def f() { this.b.g(); } }"
        )
        call = shadow(table, ShadowKind.METHOD_CALL, "?.g/0")
        assert match(PcKind(ShadowKind.METHOD_CALL, "B", "g"), call) == PcBinding("target", "B")
        assert match(PcKind(ShadowKind.METHOD_CALL, "*", "g"), call) is TRUE
        assert match(PcKind(ShadowKind.METHOD_CALL, "B", "other"), call) is None

    def test_not_folds_three_valued(self):
        table = table_for("class A { def f() { } }")
        s = shadow(table, ShadowKind.METHOD_EXECUTION, "A.f/0")
        assert match(PcNot(PcKind(ShadowKind.METHOD_EXECUTION, "*", "f")), s) is None
        assert match(PcNot(PcKind(ShadowKind.METHOD_EXECUTION, "*", "g")), s) is TRUE
        assert match(PcNot(PcBinding("this", "A")), s) == PcNot(PcBinding("this", "A"))

    def test_args_literal_renders(self):
        assert str(PcArgs(0, True)) == "args(0, true)"
        assert str(PcArgs(1, "x")) == 'args(1, "x")'

    def test_args_string_residue_is_escaped(self):
        # a string literal in args() is written back escaped, so the residue
        # text in relationships.json parses as the pointcut it came from
        src = r'aspect Spy { before(): execution(A.f) && args(0, "a\"b") && args(1, "c\\d") { } }'
        unit = build_unit("class A { def f(x, y) { } }", src)
        [(_, entry)] = list(unit.match_table.pairs())
        assert str(entry.residue) == r'args(0, "a\"b") && args(1, "c\\d")'
        assert entry.residue == PcAnd((PcArgs(0, 'a"b'), PcArgs(1, "c\\d")))


class TestBuildMatchTable:
    def test_no_aspects_empty(self):
        table = table_for("class A { def f() { } }")
        mt = build_match_table([], table, [])
        assert mt.entries == {}

    def test_universal_execution_advice_bruteforce(self):
        src = "class A { def f() { } def g() { } def h() { } }"
        prog = mw.parse_base(src, "t.ml0")
        aspects = mw.parse_aspect_file(
            "aspect T { before(): execution(*.*) { } }", "t.ma0"
        ).aspects
        ml.resolve_program(prog, aspects)
        table = extract_shadows(prog, aspects)
        mt = build_match_table(aspects, table, [])
        # brute-force oracle: every execution shadow matches, nothing else
        expected = {s.sid for s in table if s.kind == ShadowKind.METHOD_EXECUTION}
        assert set(mt.entries) == expected
        assert all(len(mt.at(sid)) == 1 for sid in expected)

    def test_order_governs_list_order(self):
        prog = mw.parse_base("class A { def f() { } }", "t.ml0")
        aspects = mw.parse_aspect_file(
            """
            aspect X { @order(2.0) before(): execution(*.f) { } }
            aspect Y { @order(1.0) before(): execution(*.f) { } }
            """,
            "t.ma0",
        ).aspects
        ml.resolve_program(prog, aspects)
        table = extract_shadows(prog, aspects)
        mt = build_match_table(aspects, table, [])
        (sid,) = list(mt.entries)
        assert [e.advice.aspect_name for e in mt.at(sid)] == ["Y", "X"]

    def test_only_visible_shadows_appear(self):
        src = "class A { @hideMethod def f() { } def g() { } }"
        prog = mw.parse_base(src, "t.ml0")
        aspects = mw.parse_aspect_file(
            "aspect T { before(): execution(*.*) { } }", "t.ma0"
        ).aspects
        from miniweave.joinpoints import apply_hide_filter, collect_hide_specs

        ml.resolve_program(prog, aspects)
        table = extract_shadows(prog, aspects)
        visible = apply_hide_filter(table, collect_hide_specs(prog, aspects))
        mt = build_match_table(aspects, visible, [])
        matched = {visible.shadows and mt.shadows[sid].signature for sid in mt.entries}
        assert matched == {"A.g/0"}


# ---------------------------------------------------------------------------
# Property: the indexed match table equals the all-pairs definition
# ---------------------------------------------------------------------------


def reference_sort_key(adv, precedence: list[str]):
    """@order (missing last), then first position in the precedence list
    (listed before unlisted), then aspect name, then declaration index."""
    order = adv.order if adv.order is not None else math.inf
    if adv.aspect_name in precedence:
        return (order, 0, precedence.index(adv.aspect_name), adv.aspect_name, adv.index)
    return (order, 1, 0, adv.aspect_name, adv.index)


def all_pairs_match_table(aspects, visible, precedence):
    """Every advice against every visible shadow, hits sorted by precedence."""
    all_advice = [adv for aspect in aspects for adv in aspect.advice]
    entries = {}
    for s in visible:
        hits = []
        for adv in all_advice:
            residue = match(adv.pointcut, s)
            if residue is not None:
                hits.append((adv, residue))
        if hits:
            hits.sort(key=lambda hit: reference_sort_key(hit[0], precedence))
            entries[s.sid] = hits
    return entries


class RandomPointcuts:
    """Pointcut sources over one program's names: `*` and bare members,
    `||` across kinds, `!`, within, this/target/args and nested cflow."""

    KINDS = ("execution", "call", "get", "set")
    # as written in source; the strings hold an escaped `"` and `\`
    ARGS_LITERALS = ("*", "1", "null", "-2", "true", r'"a\"b"', r'"c\\d"')

    def __init__(self, rng, classes, methods, fields, aspects):
        self.rng = rng
        self.types = classes + aspects
        self.members = {
            "execution": methods + ["probe"],
            "call": methods + ["probe"],
            "get": fields + ["n"],
            "set": fields + ["n"],
        }

    def atom(self) -> str:
        rng = self.rng
        kind = rng.choice(self.KINDS)
        member = rng.choice(self.members[kind] + ["*", "*", "nope"])
        if rng.random() < 0.2:
            return f"{kind}({member})"
        return f"{kind}({rng.choice(self.types + ['*', '*'])}.{member})"

    def extra(self, depth: int) -> str:
        rng = self.rng
        t = rng.choice(self.types)
        choices = [
            f"within({t})",
            f"!within({t})",
            f"this({t})",
            f"target({t})",
            f"args(0, {rng.choice(self.ARGS_LITERALS)})",
            f"!{self.atom()}",
            f"({self.atom()} || {self.atom()})",
        ]
        if depth < 2:
            choices += [f"cflow({self.conjunct(depth + 1)})", f"!cflow({self.conjunct(depth + 1)})"]
        return rng.choice(choices)

    def conjunct(self, depth: int = 0) -> str:
        rng = self.rng
        anchor = self.atom()
        if rng.random() < 0.25:
            anchor = f"({anchor} && {self.extra(depth)})"
        parts = [anchor] + [self.extra(depth) for _ in range(rng.randint(0, 2))]
        rng.shuffle(parts)
        return " && ".join(parts)

    def pointcut(self) -> str:
        return " || ".join(self.conjunct() for _ in range(self.rng.randint(1, 3)))


def random_weave(seed: int):
    """A randprog program plus random aspects; returns (aspects, visible, precedence)."""
    rng = random.Random(seed)
    prog = mw.parse_base(random_program_source(rng), "rand.ml0")
    classes = [c.name for c in prog.classes]
    methods = sorted({m.name for c in prog.classes for m in c.methods})
    fields = sorted({f.name for c in prog.classes for f in c.fields})
    names = [f"T{i}" for i in range(rng.randint(1, 3))]
    gen = RandomPointcuts(rng, classes, methods, fields, names)
    parts = []
    # two statements may list one aspect twice: its first mention counts
    for _ in range(rng.randint(0, 2)):
        listed = rng.sample(names + ["Unknown"], rng.randint(1, len(names) + 1))
        parts.append(f"precedence {', '.join(listed)};\n")
    for name in names:
        parts.append(f"aspect {name} {{\n  var n = 0;\n")
        # a parameter receiver stays unresolved: its shadows have cls None
        parts.append("  def probe(o) { o.m0(); o.f0 = o.f0; this.n = this.n + 1; }\n")
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.6:
                parts.append(f"  @order({rng.choice([1, 2])})\n")
            kind = rng.choice(["before", "after"])
            parts.append(f"  {kind}(): {gen.pointcut()} {{ this.probe(null); }}\n")
        parts.append("}\n")
    aspect_file = mw.parse_aspect_file("".join(parts), "rand.ma0")
    ml.resolve_program(prog, aspect_file.aspects)
    table = extract_shadows(prog, aspect_file.aspects)
    visible = apply_hide_filter(table, collect_hide_specs(prog, aspect_file.aspects))
    return aspect_file.aspects, visible, aspect_file.precedence


def flat_entries(entries):
    return [(sid, [(id(adv), residue) for adv, residue in hits]) for sid, hits in entries.items()]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_match_table_equals_all_pairs_reference(seed):
    aspects, visible, precedence = random_weave(seed)
    mt = build_match_table(aspects, visible, precedence)
    got = {sid: [(e.advice, e.residue) for e in es] for sid, es in mt.entries.items()}
    assert flat_entries(got) == flat_entries(all_pairs_match_table(aspects, visible, precedence))
    assert list(mt.shadows) == [s.sid for s in visible]


def parse_pointcut_text(text: str):
    parser = AspectParser(text, "pc")
    pc = parser.parse_pointcut()
    assert parser.ts.at(EOF)
    return pc


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_pointcut_text_round_trips(seed):
    # what `str` writes, for an advice's pointcut and for a residue in
    # relationships.json, parses back to the same node
    aspects, visible, precedence = random_weave(seed)
    for aspect in aspects:
        for adv in aspect.advice:
            assert parse_pointcut_text(str(adv.pointcut)) == adv.pointcut
    for _, entry in build_match_table(aspects, visible, precedence).pairs():
        if entry.residue is not TRUE:
            assert parse_pointcut_text(str(entry.residue)) == entry.residue


def class_index_skips(advice, shadow) -> bool:
    """Whether `advice` has a disjunct anchored on the shadow's kind and
    member, and the class index still skips it: the shadow's class is known
    and no such anchor names that class or "*"."""
    pc = advice.pointcut
    atoms = [anchor(d) for d in (pc.parts if type(pc) is PcOr else (pc,))]
    atoms = [
        a for a in atoms
        if a.kind is shadow.kind and a.member in ("*", shadow.member)
    ]
    return (
        bool(atoms) and shadow.cls is not None
        and all(a.cls not in ("*", shadow.cls) for a in atoms)
    )


def test_random_weaves_cover_the_pointcut_features():
    # the property above is only as strong as its inputs: across a few
    # seeds the tables must hold every kind of residue and ordering ties,
    # some advice must anchor `||` disjuncts on two concrete classes, and
    # the class index must skip some candidate of a shadow's kind and member
    residues = set()
    kinds = set()
    unresolved = tied = two_classes = skipped = False
    for seed in range(30):
        aspects, visible, precedence = random_weave(seed)
        mt = build_match_table(aspects, visible, precedence)
        all_advice = [adv for aspect in aspects for adv in aspect.advice]
        for adv in all_advice:
            if type(adv.pointcut) is PcOr:
                classes = {anchor(d).cls for d in adv.pointcut.parts} - {"*"}
                two_classes = two_classes or len(classes) >= 2
        skipped = skipped or any(class_index_skips(adv, s) for s in visible for adv in all_advice)
        for s, entry in mt.pairs():
            residues.add(str(entry.residue))
            kinds.add(s.kind)
            unresolved = unresolved or (s.cls is None and "target(" in str(entry.residue))
        for es in mt.entries.values():
            orders = [e.advice.order for e in es]
            tied = tied or len(orders) != len(set(orders))
    text = " ".join(residues)
    for feature in ("target(", "this(", "args(", "cflow(", "!", "||", "&&"):
        assert feature in text, feature
    assert "" in residues
    assert {ShadowKind.METHOD_EXECUTION, ShadowKind.METHOD_CALL, ShadowKind.FIELD_GET,
            ShadowKind.FIELD_SET} <= kinds
    assert tied and unresolved and two_classes and skipped


# ---------------------------------------------------------------------------
# Property: indexed scope membership equals the all-pairs definition
# ---------------------------------------------------------------------------


def all_pairs_scope_membership(scopes, visible):
    """Every scope against every visible shadow: a TRUE match enters the
    scope statically, any other residue enters it by that residue."""
    entered = {}
    for s in visible:
        static, pending = [], []
        for n, scope in enumerate(scopes):
            residue = match(scope.inner, s)
            if residue is TRUE:
                static.append(n)
            elif residue is not None:
                pending.append((n, residue))
        if static or pending:
            entered[s.sid] = (tuple(static), tuple(pending))
    return entered


def random_scoped_weaves(seed: int):
    """Two (scopes, visible) weaves: a randprog program with a
    `random_aspect_source(..., residues=True)` aspect, whose scopes include
    `within`, `!within` and `within || call`, and `random_weave`, whose
    scopes hold "*" members and classes and unresolved receivers."""
    rng = random.Random(seed)
    src = random_program_source(rng)
    program = mw.parse_base(src, "rand.ml0")
    unit = build_unit(src + main_source(program), random_aspect_source(rng, program, True))
    aspects, visible, precedence = random_weave(seed)
    scopes, _ = number_scopes(build_match_table(aspects, visible, precedence))
    return (unit.scopes, unit.visible), (scopes, visible)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_scope_membership_equals_all_pairs_reference(seed):
    for scopes, visible in random_scoped_weaves(seed):
        assert scope_membership(scopes, visible) == all_pairs_scope_membership(scopes, visible)


def scope_filing(disjunct) -> str:
    """Where the candidate index files a scope's disjunct."""
    if anchor(disjunct) is not None:
        return "anchor"
    parts = disjunct.parts if type(disjunct) is PcAnd else (disjunct,)
    return "within" if any(type(p) is PcWithin for p in parts) else "every shadow"


def test_random_scopes_cover_the_candidate_index():
    # the property above is only as strong as its inputs: across a few
    # seeds, scopes must be filed by anchor, by `within` and under every
    # shadow, and shadows must enter scopes both statically and by a residue
    filed, entered = set(), set()
    for seed in range(20):
        for scopes, visible in random_scoped_weaves(seed):
            for scope in scopes:
                inner = scope.inner
                filed.update(map(scope_filing, inner.parts if type(inner) is PcOr else (inner,)))
            for static, pending in scope_membership(scopes, visible).values():
                if static:
                    entered.add("static")
                if pending:
                    entered.add("pending")
    assert filed == {"anchor", "within", "every shadow"}
    assert entered == {"static", "pending"}


class TestAdviceSequence:
    def test_single_before_advice_lists(self):
        from miniweave.matching import advice_sequence_at

        prog = mw.parse_base("class A { def f() { } }", "t.ml0")
        aspects = mw.parse_aspect_file(
            "aspect T { before(): execution(*.f) { } }", "t.ma0"
        ).aspects
        ml.resolve_program(prog, aspects)
        table = extract_shadows(prog, aspects)
        mt = build_match_table(aspects, table, [])
        (sid,) = list(mt.entries)
        before, after = advice_sequence_at(sid, mt)
        assert len(before) == 1 and after == ()

    def test_after_list_is_reverse_precedence(self):
        from miniweave.matching import advice_sequence_at

        prog = mw.parse_base("class A { def f() { } }", "t.ml0")
        aspects = mw.parse_aspect_file(
            """
            aspect X { @order(1.0) after(): execution(*.f) { } }
            aspect Y { @order(2.0) after(): execution(*.f) { } }
            """,
            "t.ma0",
        ).aspects
        ml.resolve_program(prog, aspects)
        table = extract_shadows(prog, aspects)
        mt = build_match_table(aspects, table, [])
        (sid,) = list(mt.entries)
        _, after = advice_sequence_at(sid, mt)
        assert [e.advice.aspect_name for e in after] == ["Y", "X"]


def test_parse_aspect_requires_single_aspect():
    with pytest.raises(ParseError, match="exactly one aspect"):
        parse_aspect("aspect A { } aspect B { }", "two.ma0")


def test_names_are_checked_in_declaration_order():
    # classes, then aspects: the first name met twice is reported, so the
    # collision on line 2 comes before the duplicate aspect on line 3
    with pytest.raises(CompileError) as exc:
        build_unit("class A { }", "aspect B { }\naspect A { }\naspect B { }")
    assert (exc.value.msg, exc.value.loc.line) == ("aspect 'A' collides with a class name", 2)


class TestUnitsShareProgram:
    """Several units woven from one parsed Program stay independent."""

    BASE = """
    class C {
      var n = 0;
      def inc() { this.n = this.n + 1; return this.n; }
    }
    class Main {
      def main() {
        var c = new C();
        var i = 0;
        while (i < 3) { c.inc(); i = i + 1; }
        print(c.n);
      }
    }
    """
    # "a.ma0" sorts before "z.ml0", so its shadows come first in source order
    SPY = """
    aspect Spy {
      var calls = 0;
      def note() { this.calls = this.calls + 1; }
      before(): call(C.inc) { this.note(); }
    }
    """

    def weave(self, program, with_spy: bool):
        aspects = mw.parse_aspect_file(self.SPY, "a.ma0").aspects if with_spy else []
        return mw.WovenUnit.build(program, aspects)

    def fresh_trace(self, with_spy: bool) -> str:
        unit = self.weave(mw.parse_base(self.BASE, "z.ml0"), with_spy)
        return mw.run(unit).render_trace()

    def test_second_unit_does_not_retarget_the_first(self):
        program = mw.parse_base(self.BASE, "z.ml0")
        u1 = self.weave(program, with_spy=False)
        u2 = self.weave(program, with_spy=True)
        assert mw.run(u1).render_trace() == self.fresh_trace(with_spy=False)
        assert mw.run(u2).render_trace() == self.fresh_trace(with_spy=True)

    def test_build_writes_nothing_to_the_ast(self):
        program = mw.parse_base(self.BASE, "z.ml0")
        self.weave(program, with_spy=False)
        before = pickle.dumps(program)
        self.weave(program, with_spy=True)
        assert pickle.dumps(program) == before
