"""Coordination DSAL: parsing, guard semantics, and the generated protocol."""

import hashlib
import itertools
import os
import shutil

import pytest

from conftest import DEMO_STACK
from oracles import can_enter

import miniweave as mw
import miniweave.minilang as ml
from miniweave.aspects import parse_aspect_file
from miniweave.diagnostics import CompileError, ParseError
from miniweave.dsal_cool import clause_line, gen_cool_aspect, parse_cool, validate_cool
from miniweave.interp import WovenUnit, run
from miniweave.joinpoints import apply_hide_filter, collect_hide_specs, extract_shadows
from miniweave.pipeline import CompileOptions
from miniweave.pipeline import compile as pipeline_compile


def demo_sources():
    with open(os.path.join(DEMO_STACK, "stack.ml0")) as fh:
        base = fh.read()
    with open(os.path.join(DEMO_STACK, "stack.cool")) as fh:
        cool = fh.read()
    return base, cool


class TestParseCool:
    def test_bounded_stack_port(self):
        _, cool = demo_sources()
        coord = parse_cool(cool, "stack.cool")
        assert coord.target == "BoundedStack"
        assert coord.selfex[0][0] == ["push", "pop"]
        assert coord.mutex[0][0] == ["push", "pop"]
        assert [(n, i.value) for n, i, _ in coord.state] == [
            ("full", False),
            ("empty", True),
            ("top", 0),
        ]
        assert set(coord.additions) == {"push", "pop"}
        assert coord.additions["push"].requires is not None

    def test_empty_coordinator_legal(self):
        coord = parse_cool("coordinator X { }", "x.cool")
        assert coord.target == "X"
        assert coord.coordinated_methods() == []

    def test_duplicate_condition_name(self):
        with pytest.raises(ParseError, match="duplicate condition/field"):
            parse_cool("coordinator X { condition a = true; var a = 1; }", "x.cool")

    def test_requires_outside_addition(self):
        with pytest.raises(ParseError, match="only allowed inside a method addition"):
            parse_cool("coordinator X { requires (true); }", "x.cool")

    def test_clause_lines_retained(self):
        _, cool = demo_sources()
        coord = parse_cool(cool, "stack.cool")
        assert coord.additions["push"].loc.line == 7
        assert coord.additions["pop"].loc.line == 15
        assert clause_line(coord, "push") == 7


class TestValidate:
    def test_unknown_method_rejected_at_clause_line(self):
        base, _ = demo_sources()
        prog = mw.parse_base(base, "stack.ml0")
        coord = parse_cool(
            "coordinator BoundedStack { selfex {push, shove}; }", "x.cool"
        )
        with pytest.raises(CompileError, match="'shove' does not exist"):
            validate_cool(coord, prog)

    def test_unknown_target_class(self):
        prog = mw.parse_base("class A { }", "a.ml0")
        with pytest.raises(CompileError, match="target class"):
            validate_cool(parse_cool("coordinator B { }", "b.cool"), prog)

    def test_unknown_external_name(self):
        base, _ = demo_sources()
        prog = mw.parse_base(base, "stack.ml0")
        coord = parse_cool(
            "coordinator BoundedStack { push: requires (bogus); }", "x.cool"
        )
        with pytest.raises(CompileError, match="unknown name 'bogus'"):
            validate_cool(coord, prog)

    def test_assign_to_target_field_rejected(self):
        base, _ = demo_sources()
        prog = mw.parse_base(base, "stack.ml0")
        coord = parse_cool(
            "coordinator BoundedStack { push: on_entry { usedSlots = 0; } }", "x.cool"
        )
        with pytest.raises(CompileError, match="cannot assign to 'usedSlots'"):
            validate_cool(coord, prog)


    @pytest.mark.parametrize(
        "clause, message",
        [
            ("push: requires (this.ok());", "expression not allowed in coordinator code"),
            ("push: requires (full && nope);", "unknown name 'nope' in coordinator code"),
            ("push: on_entry { print(top); }", "builtin 'print' not allowed in coordinator code"),
            (
                "push: on_exit { top = top + 1; return; }",
                "return is not allowed in coordinator code",
            ),
            (
                "push: on_exit { if (top == 0) { } else if (buffer.x) { } }",
                "expression not allowed in coordinator code",
            ),
            (
                "push: on_exit { if (top == 0) { } else if (top == 1) { return; }"
                " else { nope = 1; } }",
                "return is not allowed in coordinator code",
            ),
            ("push: on_entry { top = zap + new X(); }", "unknown name 'zap' in coordinator code"),
            (
                "push: on_entry { var full = true; full = false; }",
                "local 'full' shadows a condition or coordinator field",
            ),
            (
                "push: on_exit { if (top == 0) { } else { var top = 1; } }",
                "local 'top' shadows a condition or coordinator field",
            ),
        ],
    )
    def test_first_fault_in_source_order_is_reported(self, clause, message, tmp_path):
        base, _ = demo_sources()
        prog = mw.parse_base(base, "stack.ml0")
        text = (
            "coordinator BoundedStack {\n  condition full = false, empty = true;\n"
            f"  var top = 0;\n  {clause}\n}}\n"
        )
        coord = parse_cool(text, "x.cool")
        with pytest.raises(CompileError) as exc:
            validate_cool(coord, prog)
        assert (exc.value.msg, exc.value.loc.line) == (message, 4)
        # the whole pipeline reports the validator's fault, not the generator's
        shutil.copytree(DEMO_STACK, tmp_path / "in")
        (tmp_path / "in" / "x.cool").write_text(text)
        options = CompileOptions(
            dsals_path=str(tmp_path / "in" / "dsals.txt"), gen_dir=str(tmp_path / "gen")
        )
        with pytest.raises(CompileError) as exc:
            pipeline_compile([str(tmp_path / "in" / n) for n in ("stack.ml0", "x.cool")], options)
        assert (exc.value.msg, exc.value.loc.line) == (message, 4)

    def test_shadowing_local_is_reported_at_its_declaration(self, tmp_path):
        base, _ = demo_sources()
        prog = mw.parse_base(base, "stack.ml0")
        text = (
            "coordinator BoundedStack {\n  condition full = false;\n  push:\n"
            "    on_entry {\n      var k = 1;\n      var full = true;\n    }\n}\n"
        )
        with pytest.raises(CompileError) as exc:
            validate_cool(parse_cool(text, "x.cool"), prog)
        message = "local 'full' shadows a condition or coordinator field"
        assert (exc.value.msg, str(exc.value.loc)) == (message, "x.cool:6")
        shutil.copytree(DEMO_STACK, tmp_path / "in")
        (tmp_path / "in" / "x.cool").write_text(text)
        options = CompileOptions(
            dsals_path=str(tmp_path / "in" / "dsals.txt"), gen_dir=str(tmp_path / "gen")
        )
        with pytest.raises(CompileError) as exc:
            pipeline_compile([str(tmp_path / "in" / n) for n in ("stack.ml0", "x.cool")], options)
        assert (exc.value.msg, exc.value.loc.line) == (message, 6)

    def test_allowed_coordinator_code_validates(self):
        base, _ = demo_sources()
        prog = mw.parse_base(base, "stack.ml0")
        coord = parse_cool(
            "coordinator BoundedStack { condition full = false, empty = true; var top = 0;"
            " push: on_entry { var k = [top, len(buffer)][0]; k = -k; full = !empty; } }",
            "x.cool",
        )
        validate_cool(coord, prog)


class TestCanEnter:
    def coord(self):
        _, cool = demo_sources()
        return parse_cool(cool, "stack.cool")

    def test_requires_blocks_pop_on_fresh_state(self):
        c = self.coord()
        fresh = {"full": False, "empty": True}
        assert can_enter(c, "pop", {}, fresh, {"top": 0}) is False
        assert can_enter(c, "push", {}, fresh, {"top": 0}) is True

    def test_busy_truth_table_bruteforce(self):
        c = self.coord()
        for bp, bq, full, empty in itertools.product((0, 1), (0, 1), (False, True), (False, True)):
            busy = {"push": bp, "pop": bq}
            conds = {"full": full, "empty": empty}
            # oracle: selfex requires own count zero, the mutex set requires
            # the partner's count zero, then the requires expression
            expect_push = bp == 0 and bq == 0 and not full
            expect_pop = bq == 0 and bp == 0 and not empty
            assert can_enter(c, "push", busy, conds, {"top": 0}) is expect_push
            assert can_enter(c, "pop", busy, conds, {"top": 0}) is expect_pop

    def test_requires_with_a_3000_term_chain(self):
        chain = " + ".join(["top"] * 3000)
        c = parse_cool(
            f"coordinator X {{ condition full = false; m: requires ({chain} >= 0 && !full); }}",
            "x.cool",
        )
        assert can_enter(c, "m", {}, {"full": False}, {}, {"top": 1}) is True
        assert can_enter(c, "m", {}, {"full": True}, {}, {"top": 1}) is False
        assert can_enter(c, "m", {}, {"full": False}, {}, {"top": -1}) is False

    @pytest.mark.parametrize("op", ["&&", "||"])
    def test_logical_requires_truth_table(self, op):
        c = parse_cool(
            f"coordinator X {{ condition a = false, b = false; m: requires (a {op} b); }}",
            "x.cool",
        )
        for a, b in itertools.product((False, True), repeat=2):
            expect = (a and b) if op == "&&" else (a or b)
            assert can_enter(c, "m", {}, {"a": a, "b": b}, {}) is expect

    def test_selfex_only_method(self):
        c = parse_cool("coordinator X { selfex {m}; }", "x.cool")
        assert can_enter(c, "m", {"m": 0}, {}, {}) is True
        assert can_enter(c, "m", {"m": 1}, {}, {}) is False


class TestGeneratedAspect:
    def test_empty_coordinator_state_only(self):
        src = gen_cool_aspect(parse_cool("coordinator X { }", "x.cool"))
        out = parse_aspect_file(src, "gen/x_cool.ma0")
        aspect = out.aspects[0]
        assert aspect.name == "Coord_X"
        assert [f.name for f in aspect.fields] == ["states"]
        assert aspect.advice == []

    def test_each_scope_renames_names(self):
        # a local stays as written, a condition or coordinator field becomes
        # its state-row slot, and a target field a read off `t`
        coord = parse_cool(
            "coordinator BoundedStack { condition full = false; var top = 0;"
            " push: on_exit { var k = top + 1; if (k == len(buffer)) { full = true; } } }",
            "x.cool",
        )
        src = gen_cool_aspect(coord)
        assert (
            "    st[0] = st[0] - 1;\n"
            "    var k = st[2] + 1;\n"
            "    if (k == len(t.buffer)) {\n"
            "      st[1] = true;\n"
            "    }\n"
            "    monitor_notify_all(this.mon);\n"
        ) in src

    def test_bounded_stack_structure(self):
        _, cool = demo_sources()
        src = gen_cool_aspect(parse_cool(cool, "demo_stack/stack.cool"))
        aspect = parse_aspect_file(src, "gen/stack_cool.ma0").aspects[0]
        assert [a.name for a in aspect.annotations] == ["hideType"]
        # exactly six hidden helpers for the two coordinated methods
        helper_names = {h.name for h in aspect.methods}
        assert helper_names == {
            "canEnter_push",
            "enter_push",
            "exit_push",
            "canEnter_pop",
            "enter_pop",
            "exit_pop",
        }
        assert [f.name for f in aspect.fields] == ["states", "mon"]
        for h in aspect.methods:
            assert [a.name for a in h.annotations] == ["hideMethod"]
        for f in aspect.fields:
            assert [a.name for a in f.annotations] == ["hideField"]
        assert len(aspect.advice) == 4
        kinds = [(a.kind, str(a.pointcut)) for a in aspect.advice]
        assert ("before", "execution(BoundedStack.push)") in kinds
        assert ("after", "execution(BoundedStack.pop)") in kinds
        for adv in aspect.advice:
            assert adv.bridge is not None
            assert adv.bridge.file == "demo_stack/stack.cool"
            assert adv.bridge.module == "stack.cool"

    def test_demo_output_is_pinned(self):
        # the renderer must not change a byte of the demo's generated aspect
        _, cool = demo_sources()
        src = gen_cool_aspect(parse_cool(cool, "demo_stack/stack.cool"))
        assert hashlib.sha256(src.encode("utf-8")).hexdigest() == (
            "b4d168ec84fa885185e95c610dca490983ec086bab05cb0040ae3fd957a3f703"
        )

    def test_interleaved_state_and_overlapping_sets_output_is_pinned(self):
        # slots number the conditions, then the fields, whatever their
        # source order; a method in several selfex and mutex sets, and a
        # mutex set naming a method twice, keep every blocker test, repeats
        # included, in source order
        base = (
            "class Buf {\n  var tag = \"\";\n  def put() { }\n  def get() { }\n"
            "  def drain() { }\n  def peek() { }\n}\n"
        )
        cool = (
            "coordinator Buf {\n"
            "  var top = 0;\n"
            "  condition full = false, empty = true;\n"
            "  var count = 0;\n"
            "  condition ready = null;\n"
            "  selfex {put, get};\n"
            "  selfex {put};\n"
            "  mutex {put, get};\n"
            "  mutex {drain, put, drain};\n"
            "  put: requires (!full && count < 10 && ready != null)\n"
            "    on_entry { full = true; }\n"
            "    on_exit { top = top + 1; count = count - 1; }\n"
            "  get: requires (tag == \"a\\\"b\" || ready == true)\n"
            "    on_entry { var k = 1; k = k + 2; }\n"
            "  peek: requires (empty);\n"
            "}\n"
        )
        coord = parse_cool(cool, "p/buf.cool")
        validate_cool(coord, mw.parse_base(base, "buf.ml0"))
        src = gen_cool_aspect(coord)
        assert hashlib.sha256(src.encode("utf-8")).hexdigest() == (
            "35aaeffaa844582962da8371ad051df7fde81baac524d75cd9c362db141f3b06"
        )

    def test_transform_is_pure(self):
        _, cool = demo_sources()
        coord1 = parse_cool(cool, "stack.cool")
        coord2 = parse_cool(cool, "stack.cool")
        assert gen_cool_aspect(coord1) == gen_cool_aspect(coord2)

    def test_generated_origin_shadows_all_hidden(self):
        base, cool = demo_sources()
        prog = mw.parse_base(base, "demo_stack/stack.ml0")
        gen = parse_aspect_file(
            gen_cool_aspect(parse_cool(cool, "demo_stack/stack.cool")),
            "gen/stack_cool.ma0",
        )
        ml.resolve_program(prog, gen.aspects)
        table = extract_shadows(prog, gen.aspects)
        visible = apply_hide_filter(table, collect_hide_specs(prog, gen.aspects))
        assert [s for s in visible if s.loc.path == "gen/stack_cool.ma0"] == []
        assert [s for s in table if s.loc.path == "gen/stack_cool.ma0"]


def _woven(seed=0):
    base, cool = demo_sources()
    prog = mw.parse_base(base, "demo_stack/stack.ml0")
    gen = parse_aspect_file(
        gen_cool_aspect(parse_cool(cool, "demo_stack/stack.cool")), "gen/stack_cool.ma0"
    )
    unit = WovenUnit.build(prog, gen.aspects)
    return run(unit, seed=seed)


class TestProtocolSemantics:
    def test_exclusion_no_overlap_in_trace(self):
        # selfex + mutex over {push, pop}: at no trace point are two threads
        # simultaneously inside either method of the single stack object. A
        # thread is "inside" between its enter-advice finishing (advice_exit
        # of the before advice, even index) and its exit-advice starting
        # (advice_enter of the after advice, odd index).
        for seed in range(3):
            res = _woven(seed=seed)
            assert res.status == "completed"
            inside: set[int] = set()
            saw_overlap = False
            for e in res.events:
                if "Coord_BoundedStack#" not in e.text:
                    continue
                idx = int(e.text.split("#")[1].split(" ")[0])
                if e.kind == "advice_exit" and idx % 2 == 0:
                    inside.add(e.thread)
                elif e.kind == "advice_enter" and idx % 2 == 1:
                    inside.discard(e.thread)
                saw_overlap = saw_overlap or len(inside) > 1
            assert not saw_overlap
            assert res.count_jp("method_execution BoundedStack.push/1 ") == 20
            assert res.count_jp("method_execution BoundedStack.pop/0 ") == 20

    def test_liveness_across_seeds(self):
        for seed in range(5):
            res = _woven(seed=seed)
            assert res.status == "completed"
            assert res.count_jp("method_execution BoundedStack.push/1 ") == 20
            assert res.count_jp("method_execution BoundedStack.pop/0 ") == 20

    def test_generated_guard_agrees_with_reference_model(self):
        # dual route: splice the generated canEnter_* bodies into a plain
        # class, interpret them against every busy/condition combination, and
        # compare with the reference predicate
        _, cool = demo_sources()
        coord = parse_cool(cool, "demo_stack/stack.cool")
        guards = _guard_bodies(gen_cool_aspect(coord))
        for bp, bq, full, empty in itertools.product((0, 1), (0, 1), (False, True), (False, True)):
            busy = {"push": bp, "pop": bq}
            conds = {"full": full, "empty": empty}
            expected_push = can_enter(coord, "push", busy, conds, {"top": 0})
            expected_pop = can_enter(coord, "pop", busy, conds, {"top": 0})
            micro = (
                "class Main {\n"
                "  def main() {\n"
                f"    var st = [{bp}, {bq}, {str(full).lower()}, {str(empty).lower()}, 0];\n"
                "    var stack = new StackLike();\n"
                "    print(this.canEnter_push(stack, st));\n"
                "    print(this.canEnter_pop(stack, st));\n"
                "  }\n"
                + guards
                + "}\n"
                + "class StackLike { var buffer = [null, null, null]; }\n"
            )
            res = run(WovenUnit.build(mw.parse_base(micro, "micro.ml0")))
            assert res.status == "completed", res.error
            assert res.output == [
                "true" if expected_push else "false",
                "true" if expected_pop else "false",
            ]


def _guard_bodies(gen_src: str) -> str:
    """Extract the generated canEnter_* helpers as plain methods."""
    lines = gen_src.splitlines()
    chunks = []
    i = 0
    while i < len(lines):
        if lines[i].strip().startswith("def canEnter_"):
            depth = 0
            start = i
            while True:
                depth += lines[i].count("{") - lines[i].count("}")
                i += 1
                if depth == 0:
                    break
            chunks.extend(lines[start:i])
        else:
            i += 1
    return "\n".join(chunks) + "\n"


class TestConditionConsistency:
    def test_full_flag_monotone_between_push_and_pop_exits(self):
        # after any exit of push with top == capacity, full stays true until a
        # pop exit clears it; checked from the trace plus state snapshots
        # captured at every event (state layout: [busy_push, busy_pop,
        # full, empty, top])
        base, cool = demo_sources()
        head, _, _ = base.partition("class Main")
        base = head + (
            "class Main {\n"
            "  def main() {\n"
            "    var s = new BoundedStack(3);\n"
            "    s.push(1);\n"
            "    s.push(2);\n"
            "    s.push(3);\n"
            "    s.pop();\n"
            "    s.pop();\n"
            "    s.pop();\n"
            "  }\n"
            "}\n"
        )
        prog = mw.parse_base(base, "demo_stack/stack.ml0")
        gen = parse_aspect_file(
            gen_cool_aspect(parse_cool(cool, "demo_stack/stack.cool")),
            "gen/stack_cool.ma0",
        )
        unit = WovenUnit.build(prog, gen.aspects)
        from miniweave.interp import Interp

        interp = Interp(unit, seed=1)
        snapshots = []
        real_emit = interp.emit

        def snapping_emit(kind, text):
            real_emit(kind, text)
            states = interp.aspect_instances["Coord_BoundedStack"].fields["states"]
            if states:
                st = states[0][1]
                snapshots.append((kind, text, st[2], st[3], st[4]))

        interp.emit = snapping_emit
        res = interp.run("Main.main")
        assert res.status == "completed"

        capacity = 3
        full_must_hold = False
        saw_full = False
        for kind, text, full, empty, top in snapshots:
            if kind == "advice_exit" and "Coord_BoundedStack#" in text:
                idx = int(text.split("#")[1].split(" ")[0])
                if idx == 1 and top == capacity:  # push exit at capacity
                    assert full is True
                    full_must_hold = True
                    saw_full = True
                elif idx == 3:  # pop exit clears full
                    full_must_hold = False
            if full_must_hold:
                assert full is True
        assert saw_full  # capacity 3 with 20 pushes must fill at least once


def test_detect_deadlock_absent_while_runnable():
    from miniweave.interp import RUNNABLE, _Thread, detect_deadlock

    t = _Thread(0, iter(()))
    t.status = RUNNABLE
    assert detect_deadlock([t], 0) is None
