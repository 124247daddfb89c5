"""Advice precedence: comparator behavior and runtime dispatch order."""

import itertools
import random

from conftest import run_src
from oracles import compare_advice, sort_key

from miniweave.aspects import AdviceDecl
from miniweave.diagnostics import Loc


def adv(aspect: str, index: int, order=None) -> AdviceDecl:
    a = AdviceDecl(
        name=f"advice#{index}",
        params=(),
        kind="before",
        pointcut=None,
        body=[],
        index=index,
        order=order,
        bridge=None,
        annotations=[],
        loc=Loc("t.ma0", index + 1),
        aspect_name=aspect,
    )
    return a


class TestCompareAdvice:
    def test_lower_order_precedes(self):
        assert compare_advice(adv("A", 0, 1.5), adv("B", 0, 3.0), []) == -1
        assert compare_advice(adv("B", 0, 3.0), adv("A", 0, 1.5), []) == 1

    def test_equal_orders_same_aspect_index_decides(self):
        a0 = adv("A", 0, 2.0)
        a1 = adv("A", 1, 2.0)
        assert compare_advice(a0, a1, []) == -1
        assert compare_advice(a1, a0, []) == 1

    def test_no_orders_precedence_decl_decides(self):
        a = adv("A", 0)
        b = adv("B", 0)
        # oracle: position lookup in the declaration list
        decl = ["B", "A"]
        expected = -1 if decl.index("B") < decl.index("A") else 1
        assert compare_advice(b, a, decl) == expected == -1

    def test_listed_aspects_precede_unlisted(self):
        assert compare_advice(adv("Z", 0), adv("A", 0), ["Z"]) == -1

    def test_unlisted_fall_back_to_lexicographic(self):
        assert compare_advice(adv("A", 0), adv("B", 0), []) == -1
        assert compare_advice(adv("A", 1), adv("A", 0), []) == 1

    def test_uniform_shift_keeps_sequences(self):
        rng = random.Random(0)
        for _ in range(50):
            advs = [
                adv(f"A{i % 3}", i, rng.choice([None, rng.uniform(-5, 5)]))
                for i in range(5)
            ]
            base = sorted(advs, key=lambda a: sort_key(a, ["A0", "A1"]))
            shifted = [
                adv(a.aspect_name, a.index, None if a.order is None else a.order + 17.25)
                for a in advs
            ]
            after = sorted(shifted, key=lambda a: sort_key(a, ["A0", "A1"]))
            assert [(a.aspect_name, a.index) for a in base] == [
                (a.aspect_name, a.index) for a in after
            ]

    def test_total_order_laws_small_sets(self):
        # quick version; the acceptance suite enumerates exhaustively
        orders = [None, 1.0, 2.0]
        aspects = ["A", "B"]
        advs = [
            adv(a, i, o)
            for i, (a, o) in enumerate(itertools.product(aspects, orders))
        ]
        for prec in ([], ["A", "B"], ["B", "A"]):
            for x, y in itertools.permutations(advs, 2):
                assert compare_advice(x, y, prec) == -compare_advice(y, x, prec)
            for x, y, z in itertools.permutations(advs, 3):
                if compare_advice(x, y, prec) == -1 and compare_advice(y, z, prec) == -1:
                    assert compare_advice(x, z, prec) == -1


BASE = """
class Probe { def poke() { } }
class Main {
  def main() {
    var p = new Probe();
    p.poke();
  }
}
"""


def entries(res, kind="advice_enter"):
    return [e.text.split(" ")[0] for e in res.events if e.kind == kind]


class TestDispatchOrder:
    def test_before_in_precedence_order(self):
        res = run_src(
            BASE,
            """
            aspect AlphaOrdered { @order(1.0) before(): execution(Probe.poke) { } }
            aspect BetaOrdered  { @order(2.0) before(): execution(Probe.poke) { } }
            aspect GammaPlain   { before(): execution(Probe.poke) { } }
            precedence AlphaOrdered, BetaOrdered, GammaPlain;
            """,
        )
        assert entries(res) == ["AlphaOrdered#0", "BetaOrdered#0", "GammaPlain#0"]

    def test_after_runs_in_reverse_precedence(self):
        res = run_src(
            BASE,
            """
            aspect AlphaOrdered { @order(1.0) after(): execution(Probe.poke) { } }
            aspect BetaOrdered  { @order(2.0) after(): execution(Probe.poke) { } }
            aspect GammaPlain   { after(): execution(Probe.poke) { } }
            precedence AlphaOrdered, BetaOrdered, GammaPlain;
            """,
        )
        assert entries(res) == ["GammaPlain#0", "BetaOrdered#0", "AlphaOrdered#0"]

    def test_single_before_advice(self):
        res = run_src(BASE, "aspect A { before(): execution(Probe.poke) { } }")
        assert entries(res) == ["A#0"]

    def test_mixed_before_after_bracket_the_body(self):
        res = run_src(
            BASE,
            """
            aspect A {
              before(): execution(Probe.poke) { print("pre"); }
              after(): execution(Probe.poke) { print("post"); }
            }
            """,
        )
        assert res.output == ["pre", "post"]

    def test_random_orders_match_comparator_oracle(self):
        rng = random.Random(7)
        for _ in range(25):
            orders = [rng.choice([None, round(rng.uniform(-3, 3), 2)]) for _ in range(3)]
            names = ["Ax", "Bx", "Cx"]
            decls = []
            for name, order in zip(names, orders):
                tag = "" if order is None else f"@order({order}) "
                decls.append(
                    f"aspect {name} {{ {tag}before(): execution(Probe.poke) {{ }} }}"
                )
            src = "\n".join(decls) + "\nprecedence Ax, Bx, Cx;\n"
            res = run_src(BASE, src)
            oracle = [
                f"{a}#0"
                for a, _ in sorted(
                    zip(names, orders),
                    key=lambda p: sort_key(adv(p[0], 0, p[1]), names),
                )
            ]
            assert entries(res) == oracle
