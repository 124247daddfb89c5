"""Base-language parser and interpreter behavior."""

import os
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ROOT, build_unit, run_src
from oracles import edges, parse_aspect, thread_ids

import miniweave as mw
from miniweave import interp
from miniweave.diagnostics import Loc, ParseError
from miniweave.lexer import tokenize
from miniweave.interp import MAX_CALL_DEPTH, run
from miniweave.values import format_message, render_value


class TestParser:
    def test_minimal_unit(self):
        prog = mw.parse_base("class A { def f() { return 1; } }", "a.ml0")
        assert len(prog.classes) == 1
        assert len(prog.classes[0].methods) == 1
        assert prog.classes[0].methods[0].name == "f"

    def test_empty_file(self):
        assert mw.parse_base("", "e.ml0").classes == []

    def test_malformed_params(self):
        with pytest.raises(ParseError) as exc:
            mw.parse_base("class A { def f( { } }", "bad.ml0")
        assert exc.value.loc.line == 1

    def test_duplicate_class(self):
        with pytest.raises(mw.CompileError, match="duplicate class"):
            build_unit("class A { } class A { }")

    def test_duplicate_method(self):
        with pytest.raises(ParseError, match="duplicate method"):
            mw.parse_base("class A { def f() { } def f() { } }", "a.ml0")

    def test_nodes_carry_path_and_line(self):
        prog = mw.parse_base("class A {\n  def f() { }\n}", "x.ml0")
        assert prog.classes[0].loc.path == "x.ml0"
        assert prog.classes[0].methods[0].loc.line == 2

    def test_unresolved_name_is_compile_error(self):
        with pytest.raises(mw.CompileError, match="unresolved name 'zap'"):
            build_unit("class A { def f() { return zap; } }")


# (members after the opening line, faulty line, message for a class, for an
# aspect); the member loop is shared, so each shared rule reads the same
_MEMBER_FAULTS = {
    "field twice": ("  var f;\n  var f;\n", 3, "duplicate field X.'f'", None),
    "method twice": ("  def m() { }\n  def m() { }\n", 3, "duplicate method X.'m'", None),
    "hideField on def": (
        "  @hideField def m() { }\n", 2,
        "annotation @hideField is not allowed on a method", None,
    ),
    "unknown member": (
        "  bogus;\n", 2,
        "expected a field, method, constructor, or static block",
        "expected a field, helper, advice, or precedence",
    ),
}


@pytest.mark.parametrize("fault", list(_MEMBER_FAULTS))
@pytest.mark.parametrize("keyword", ["class", "aspect"])
def test_classes_and_aspects_follow_the_same_member_rules(keyword, fault):
    members, line, class_msg, aspect_msg = _MEMBER_FAULTS[fault]
    src = f"{keyword} X {{\n{members}}}\n"
    with pytest.raises(ParseError) as exc:
        if keyword == "class":
            mw.parse_base(src, "x.ml0")
        else:
            mw.parse_aspect_file(src, "x.ma0")
    msg = class_msg if keyword == "class" else aspect_msg or class_msg
    assert (exc.value.msg, exc.value.loc.line) == (msg, line)


class TestResolution:
    @pytest.mark.parametrize(
        "src, message",
        [
            ("class Main { def main() { print(new Nope(), y); } }", "unknown class 'Nope'"),
            ("class Main { def main() { print(y, new Nope()); } }", "unresolved name 'y'"),
            ("class Main { def main() { var a = zap(y); } }", "unknown function 'zap'"),
            (
                "class Main { def main() { var a = 1 + 2 * q - new Nope(); } }",
                "unresolved name 'q'",
            ),
            (
                "class Main { def main() { if (true) { } else if (new Nope() == y) { } } }",
                "unknown class 'Nope'",
            ),
            (
                "class Main { var f = 1; def main() { if (f) { } else if (f == g) { zap(); } } }",
                "unresolved name 'g'",
            ),
            ("class Main { var f = y; def main() { zap(); } }", "unresolved name 'y'"),
            ("class Main { static { print(f); this.m(); } var f = 1; def main() { } }",
             "unresolved name 'f'"),
            ("class Main { static { this.m(f); } var f = 1; def main() { } }",
             "'this' is not available here"),
        ],
    )
    def test_first_fault_in_source_order_is_reported(self, src, message):
        with pytest.raises(mw.CompileError) as exc:
            build_unit(src)
        assert exc.value.msg == message

    def test_field_names_in_else_if_conditions_resolve(self):
        res = run_src(
            "class Main { var f = 2;\n"
            "  def main() { if (f == 1) { print(1); } else if (f == 2) { print(f); } }\n"
            "}"
        )
        assert res.output == ["2"]


class TestElseIfChain:
    CHAIN = """class Main {
  def pick(x) {
    var r = 0;
    if (x == 0) {
      r = 10;
    } else if (x == 1) {
      r = 11;
    } else if (x == 2) {
      r = 12;
    } else {
      r = 13;
    }
    return r;
  }
  def main() {
    print(this.pick(%s));
  }
}
"""

    def test_chain_is_one_node_with_arms(self):
        body = mw.parse_base(self.CHAIN % "0", "c.ml0").classes[0].methods[0].body
        chain = body[1]
        assert len(chain.arms) == 3 and len(chain.orelse) == 1
        nested = mw.parse_base(
            "class A { def f() { if (true) { } else { if (false) { } } } }", "n.ml0"
        ).classes[0].methods[0].body[0]
        assert len(nested.arms) == 1 and len(nested.orelse[0].arms) == 1

    # the same chain spelled as nested `else { if ... }` blocks, line for line
    NESTED = (
        CHAIN.replace("} else if (x == 1) {", "} else { if (x == 1) {")
        .replace("} else if (x == 2) {", "} else { if (x == 2) {")
        .replace("      r = 13;\n    }\n", "      r = 13;\n    } } }\n")
    )

    @pytest.mark.parametrize("arg, output, steps", [(0, "10", 9), (1, "11", 10), (2, "12", 11),
                                                    (3, "13", 11)])
    def test_each_arm_takes_the_steps_of_nested_ifs(self, arg, output, steps):
        # an `else if` keeps the scheduling point of the nested `if` it
        # abbreviates, so step numbers do not depend on the spelling
        chain, nested = run_src(self.CHAIN % arg), run_src(self.NESTED % arg)
        assert chain.output == nested.output == [output]
        assert chain.steps == nested.steps == steps

    @pytest.mark.parametrize("spelling", ["CHAIN", "NESTED"])
    def test_non_bool_condition_names_its_arm(self, spelling):
        res = run_src(getattr(self, spelling).replace("x == 2", "x") % 2)
        assert res.status == "runtime-error"
        assert res.error == "base.ml0:8: expected a bool, got 2"


class TestNestingLimit:
    """Nesting is bounded by MAX_NESTING: deeper input is a ParseError at
    the offending token, never a Python RecursionError."""

    SHAPES = {
        "parentheses": lambda n: "(" * n + "1" + ")" * n,
        "minus": lambda n: "-" * n + "1",
        "not": lambda n: "!" * n + "true",
        "list": lambda n: "[" * n + "1" + "]" * n,
        "call_args": lambda n: "this.f(" * n + "1" + ")" * n,
        "index": lambda n: "xs[" * n + "0" + "]" * n,
    }

    def source(self, expr: str) -> str:
        return (
            "class Main {\n"
            "  def f(x) { return x; }\n"
            "  def main() {\n"
            "    var xs = [0];\n"
            f"    var v = {expr};\n"
            "  }\n"
            "}\n"
        )

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_limit_is_exact(self, shape):
        from miniweave.minilang import MAX_NESTING

        make = self.SHAPES[shape]
        mw.parse_base(self.source(make(MAX_NESTING)), "n.ml0")
        with pytest.raises(ParseError, match="nesting deeper than") as exc:
            mw.parse_base(self.source(make(MAX_NESTING + 1)), "n.ml0")
        assert exc.value.loc.path == "n.ml0" and exc.value.loc.line == 5

    def test_blocks_count_too(self):
        from miniweave.minilang import MAX_NESTING

        def nest(n):
            return "class A { def f() { " + "if (true) { " * n + "}" * n + " } }"

        mw.parse_base(nest(MAX_NESTING), "b.ml0")
        with pytest.raises(ParseError, match="nesting deeper than"):
            mw.parse_base(nest(MAX_NESTING + 1), "b.ml0")

    def test_at_the_limit_runs(self):
        from miniweave.minilang import MAX_NESTING

        expr = "(" * (MAX_NESTING - 1) + "1 + 1" + ")" * (MAX_NESTING - 1)
        res = run_src(f"class Main {{ def main() {{ print({expr}); }} }}")
        assert res.output == ["2"]

    def test_aspect_parser_inherits_the_limit(self):
        from miniweave.minilang import MAX_NESTING

        deep = "!" * (MAX_NESTING + 1) + "this(A)"
        with pytest.raises(ParseError, match="nesting deeper than"):
            parse_aspect(f"aspect T {{ before(): execution(*.f) && {deep} {{ }} }}", "t.ma0")
        body = "(" * (MAX_NESTING + 1) + "1" + ")" * (MAX_NESTING + 1)
        with pytest.raises(ParseError, match="nesting deeper than"):
            parse_aspect(f"aspect T {{ before(): execution(*.f) {{ print({body}); }} }}", "t.ma0")


def reference_tokenize(src: str, path: str) -> list[tuple]:
    """The character-at-a-time tokenizer the regex lexer replaced, kept as
    the oracle; it returns (kind, text, line, col) tuples."""
    tokens = []
    i = 0
    line = 1
    col = 1
    n = len(src)
    escapes = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}

    def err(msg):
        return ParseError(msg, Loc(path, line, col))

    while i < n:
        ch = src[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if src.startswith("//", i):
            while i < n and src[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(("name", src[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            if j + 1 < n and src[j] == "." and src[j + 1].isdigit():
                j += 1
                while j < n and src[j].isdigit():
                    j += 1
                tokens.append(("float", src[i:j], line, start_col))
            else:
                tokens.append(("int", src[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch == '"':
            j = i + 1
            buf = []
            while True:
                if j >= n or src[j] == "\n":
                    raise err("unterminated string literal")
                c = src[j]
                if c == '"':
                    j += 1
                    break
                if c == "\\":
                    if j + 1 >= n or src[j + 1] not in escapes:
                        raise err("bad string escape")
                    buf.append(escapes[src[j + 1]])
                    j += 2
                    continue
                buf.append(c)
                j += 1
            tokens.append(("string", "".join(buf), line, start_col))
            col += j - i
            i = j
            continue
        two = src[i : i + 2]
        if two in ("&&", "||", "==", "!=", "<=", ">="):
            tokens.append(("punct", two, line, start_col))
            i += 2
            col += 2
            continue
        if ch in "{}()[];,.=<>+-*/%!@:&|":
            tokens.append(("punct", ch, line, start_col))
            i += 1
            col += 1
            continue
        raise err(f"unexpected character {ch!r}")

    tokens.append(("eof", "", line, col))
    return tokens


def token_tuples(src: str, path: str) -> list[tuple]:
    tokens = tokenize(src, path)
    return list(zip(tokens.kinds, tokens.texts, tokens.lines, tokens.cols))


def lex_outcome(lex, src: str):
    try:
        return lex(src, "t.ml0")
    except ParseError as e:
        return ("error", e.msg, e.loc)


# Source text built from pieces that exercise every lexical rule: names with
# non-ASCII letters, numbers, all punctuation, blanks, comments, and string
# literals with good and bad escapes (a bare quote leaves one unterminated).
_PIECES = st.one_of(
    st.sampled_from(
        ["x", "_a1", "éte", "ß", "Ω9", "中文", "ǅ", "ª", "x²", "12", "0", "3.25", "7."]
        + [".5", "&&", "||", "==", "!=", "<=", ">=", "&", "|", "=", "!", "<", ">", "/", "//", "@"]
        + [":", "{", "}", "(", ")", "[", "]", ";", ",", ".", "+", "-", "*", "%"]
        + [" ", "  ", "\t", "\r", "\n", "\r\n", '"', "\\", "#", "$", "`", "~"]
        + ["½", "Ⅷ", "\u00a0", "\x0c", "e\u0301"]
    ),
    st.builds(lambda body: "//" + body, st.text(st.sampled_from('ab "\\/\t\r'), max_size=6)),
    st.builds(
        lambda parts: '"' + "".join(parts) + '"',
        st.lists(
            st.sampled_from(
                ["a", " ", "é", "\t", "\r", "//", "\\n", "\\t", '\\"', "\\\\", "\\q", "\\"]
            ),
            max_size=5,
        ),
    ),
    st.text(
        st.characters(blacklist_categories=("Cs",)).filter(
            lambda c: c.isascii() or not c.isdigit()
        ),
        max_size=3,
    ),
)


class TestLexer:
    """The regex lexer gives the reference tokenizer's tokens or error."""

    @settings(max_examples=400, deadline=None)
    @given(st.lists(_PIECES, max_size=25).map("".join))
    def test_matches_the_reference_tokenizer(self, src):
        want = lex_outcome(reference_tokenize, src)
        got = lex_outcome(token_tuples, src)
        if want[0] == "error" or got[0] == "error":
            assert got == want
            return
        assert got[:-1] == want[:-1]
        # EOF sits after the last character of the last line; the reference
        # left its column at the start of a trailing `//` comment
        last = src.split("\n")[-1]
        assert got[-1] == ("eof", "", want[-1][2], len(last) + 1)
        if want[-1] != got[-1]:
            assert "//" in last

    @pytest.mark.parametrize(
        "src, msg",
        [
            ('x = "a\nb";', "unterminated string literal"),
            ('x = "a\\\nb";', "bad string escape"),
            ('x;\n"ab', "unterminated string literal"),
            ('"a\\', "bad string escape"),
        ],
        ids=["newline", "escaped-newline", "end-of-text", "escape-at-end"],
    )
    def test_a_string_literal_stops_at_the_line_end(self, src, msg):
        got = lex_outcome(token_tuples, src)
        assert got == lex_outcome(reference_tokenize, src)
        assert got[:2] == ("error", msg)

    @pytest.mark.parametrize(
        "name", ["demo/jobs.ml0", "demo/jobs.audit", "demo_stack/stack.ml0",
                 "demo_stack/stack.cool", "demo_stack/auditor.ma0"],
    )
    def test_len_is_the_token_count_with_eof(self, name):
        # the benchmark's `minilang.tokens` counter reads `len` of the result
        assert len(tokenize('print("x"); // c\n', "t.ml0")) == 6
        with open(os.path.join(ROOT, name), encoding="utf-8") as fh:
            src = fh.read()
        assert len(tokenize(src, name)) == len(reference_tokenize(src, name))

    @pytest.mark.parametrize("digit", ["²", "٣", "１"])
    def test_non_ascii_digits_are_not_literals(self, digit):
        # the reference read these as int literals, which int() may then reject
        assert reference_tokenize(f"x = {digit};", "d.ml0")[2] == ("int", digit, 1, 5)
        with pytest.raises(ParseError) as exc:
            tokenize(f"x = {digit};", "d.ml0")
        assert exc.value.msg == f"unexpected character {digit!r}"
        assert exc.value.loc == Loc("d.ml0", 1, 5)
        with pytest.raises(ParseError, match="unexpected character"):
            tokenize(f"x = 1{digit};", "d.ml0")


# The binding strength of each binary operator as the language defines it,
# loosest first; every operator is left-associative.
PRECEDENCE = [["||"], ["&&"], ["==", "!="], ["<", "<=", ">", ">="], ["+", "-"], ["*", "/", "%"]]
PREC = {op: level for level, ops in enumerate(PRECEDENCE) for op in ops}


def bracketed(operands: list[str], ops: list[str]) -> str:
    """Fully parenthesize a chain: split at the last of its loosest operators."""
    if not ops:
        return operands[0]
    loosest = min(PREC[op] for op in ops)
    i = max(k for k, op in enumerate(ops) if PREC[op] == loosest)
    left = bracketed(operands[: i + 1], ops[:i])
    right = bracketed(operands[i + 1 :], ops[i + 1 :])
    return f"({left} {ops[i]} {right})"


def shape(node):
    """An expression tree without its locations."""
    if isinstance(node, mw.minilang.Binary):
        return (node.op, shape(node.left), shape(node.right))
    if isinstance(node, mw.minilang.Unary):
        return (node.op, shape(node.operand))
    if isinstance(node, mw.minilang.IntLit):
        return node.value
    return node.name


def parse_return(expr: str):
    prog = mw.parse_base(f"class A {{ def f() {{ return {expr}; }} }}", "p.ml0")
    return prog.classes[0].methods[0].body[0].value


_OPERAND = st.builds(
    lambda prefix, atom: "".join(prefix) + atom,
    st.lists(st.sampled_from(["!", "-"]), max_size=3),
    st.sampled_from(["1", "2", "30", "a", "b", "zz"]),
)


class TestPrecedence:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_chain_parses_as_its_bracketed_form(self, data):
        operands = data.draw(st.lists(_OPERAND, min_size=2, max_size=12))
        ops = data.draw(st.lists(st.sampled_from(sorted(PREC)), min_size=len(operands) - 1,
                                 max_size=len(operands) - 1))
        flat = operands[0] + "".join(f" {op} {x}" for op, x in zip(ops, operands[1:]))
        assert shape(parse_return(flat)) == shape(parse_return(bracketed(operands, ops)))

    def test_operator_location_is_the_operator_token(self):
        expr = parse_return("a -\n b * c")
        assert (expr.op, expr.loc.line, expr.loc.col) == ("-", 1, 30)
        assert (expr.right.op, expr.right.loc.line, expr.right.loc.col) == ("*", 2, 4)


class TestRun:
    def test_hello_world_any_seed(self):
        for seed in (0, 1, 7):
            res = run_src('class Main { def main() { print("hello"); } }', seed=seed)
            assert res.status == "completed"
            assert res.output == ["hello"]

    def test_arithmetic_and_lists(self):
        res = run_src(
            """
            class Main {
              def main() {
                var xs = [1, 2];
                push_back(xs, 3 * 4);
                print(len(xs));
                print(xs[2]);
                print(xs);
              }
            }
            """
        )
        assert res.output == ["3", "12", "[1, 2, 12]"]

    def test_field_defaults_to_null(self):
        res = run_src("class Main { var x; def main() { print(this.x); } }")
        assert res.output == ["null"]

    def test_bare_field_names_resolve(self):
        res = run_src(
            """
            class Main {
              var x = 1;
              def main() {
                x = x + 41;
                print(x);
              }
            }
            """
        )
        assert res.output == ["42"]

    def test_locals_hoist_to_null_across_branches(self):
        res = run_src(
            """
            class Main {
              def main() {
                if (false) {
                  var x = 1;
                }
                print(x);
              }
            }
            """
        )
        assert res.status == "completed"
        assert res.output == ["null"]

    def test_runtime_errors(self):
        cases = {
            "null deref": "class Main { def main() { var o = null; o.f(); } }",
            "unknown member": "class A { } class Main { def main() { var a = new A(); print(a.zip); } }",
            "list bounds": "class Main { def main() { var xs = []; print(xs[0]); } }",
            "builtin arity": "class Main { def main() { print(1, 2); } }",
            "monitor arity": "class Main { def main() { monitor_release(); } }",
        }
        for src in cases.values():
            res = run_src(src)
            assert res.status == "runtime-error"
            assert res.error

    def test_step_limit_is_distinct_status(self):
        res = run(
            build_unit("class Main { def main() { while (true) { } } }"),
            step_limit=100,
        )
        assert res.status == "step-limit-exceeded"
        assert res.steps == 100

    def test_entry_validation(self):
        unit = build_unit("class Main { def main(x) { } }")
        with pytest.raises(mw.CompileError, match="no parameters"):
            run(unit)
        with pytest.raises(mw.CompileError, match="not found"):
            run(build_unit("class Main { def main() { } }"), entry="Nope.main")


DEEP = """class Main {
  def down(n) {
    if (n == 0) { return 0; }
    return 1 + this.down(n - 1);
  }
  def main() { print(this.down(%d)); }
}
"""

SPY = """aspect Spy {
  var seen = 0;
  before(): call(*.*) && !cflow(within(Spy)) { this.seen = this.seen + 1; }
}
"""


HOLDING = """class Main {
  var outer;
  var inner;
  def helper() { }
  def step() { this.helper(); monitor_acquire(inner); }
  def down(n) {
    if (n == 0) { return 0; }
    return 1 + this.down(n - 1);
  }
  def main() {
    outer = make_monitor();
    inner = make_monitor();
    monitor_acquire(outer);
    this.step();
    print(this.down(%d));
  }
}
"""


@pytest.mark.parametrize("aspects", [(), (SPY,)], ids=["plain", "spy"])
class TestCallDepth:
    # main's frame plus down(n) ... down(0) is n + 2 frames; the spy's advice
    # frame is popped before the advised call pushes its own
    def test_recursion_to_the_limit_completes(self, aspects):
        n = MAX_CALL_DEPTH - 2
        res = run_src(DEEP % n, *aspects)
        assert res.status == "completed"
        assert res.output == [str(n)]

    def test_one_level_more_is_a_runtime_error_at_the_call(self, aspects):
        res = run_src(DEEP % (MAX_CALL_DEPTH - 1), *aspects)
        assert res.status == "runtime-error"
        assert res.error == f"base.ml0:4: call depth exceeds {MAX_CALL_DEPTH}"

    def test_returned_frames_leave_by_identity(self, aspects):
        # step's callee returns while step holds no monitor and main holds
        # one: removing a frame that merely compares equal used to leave
        # the callee's frame behind and count it against later calls
        n = MAX_CALL_DEPTH - 2
        res = run_src(HOLDING % n, *aspects)
        assert res.status == "completed"
        assert res.output == [str(n)]


BOOM = "xs[5] == 1"  # raises if evaluated: xs is empty


class TestFlatEvaluation:
    """Binary chains and statements are evaluated without Python recursion."""

    def test_long_logical_chains_skip_their_right_operands(self):
        ands = " && ".join(["true", "false"] + [BOOM] * 2998)
        ors = " || ".join(["false", "true"] + [BOOM] * 2998)
        src = f"class Main {{ def main() {{ var xs = []; print({ands}); print({ors}); }} }}"
        res = run_src(src)
        assert res.status == "completed"
        assert res.output == ["false", "true"]

    @pytest.mark.parametrize(
        "ret, frames", [("this.down(n - 1)", 3), ("this.down(n - 1) + 1", 4)]
    )
    def test_python_frames_per_minilang_call(self, monkeypatch, ret, frames):
        seen = []

        def counting_render(value):
            frame, n = sys._getframe(), 0
            while frame is not None:
                frame, n = frame.f_back, n + 1
            seen.append(n)
            return render_value(value)

        monkeypatch.setattr(interp, "render_value", counting_render)
        src = (
            "class Main {\n  def down(n) {\n    if (n == 0) { print(0); return 0; }\n"
            f"    return {ret};\n  }}\n  def main() {{ this.down(%d); }}\n}}\n"
        )
        for depth in (10, 30):
            assert run_src(src % depth).status == "completed"
        assert seen[1] - seen[0] == frames * 20


class TestThreads:
    def test_spawn_ids_in_spawn_order(self):
        res = run_src(
            """
            class W { def go() { } }
            class Main {
              def main() {
                var w = new W();
                print(spawn w.go());
                print(spawn w.go());
              }
            }
            """
        )
        assert res.status == "completed"
        assert res.output == ["1", "2"]

    def test_completed_means_all_threads_finished(self):
        res = run_src(
            """
            class W {
              def go() {
                var i = 0;
                while (i < 50) { i = i + 1; }
                print("done");
              }
            }
            class Main { def main() { var w = new W(); spawn w.go(); } }
            """
        )
        assert res.status == "completed"
        assert res.output == ["done"]
        finishes = [e for e in res.events if e.kind == "finish"]
        assert {e.thread for e in finishes} == {0, 1}

    def test_determinism_byte_identical(self):
        src = """
        class W {
          var n = 0;
          def go() {
            var i = 0;
            while (i < 10) { this.n = this.n + 1; print(this.n); i = i + 1; }
          }
        }
        class Main {
          def main() {
            var w = new W();
            spawn w.go();
            spawn w.go();
          }
        }
        """
        a = run_src(src, seed=3)
        b = run_src(src, seed=3)
        assert a.render_trace() == b.render_trace()
        assert a.output == b.output

    def test_seed_changes_interleaving(self):
        src = """
        class W {
          var tag = "";
          constructor(tag) { this.tag = tag; }
          def go() {
            var i = 0;
            while (i < 5) { print(this.tag); i = i + 1; }
          }
        }
        class Main {
          def main() {
            var a = new W("a");
            var b = new W("b");
            var c = new W("c");
            spawn a.go();
            spawn b.go();
            spawn c.go();
          }
        }
        """
        traces = {run_src(src, seed=s).render_trace() for s in range(8)}
        assert len(traces) > 1


class TestMonitors:
    def test_mutual_exclusion_counter(self):
        # without the monitor this pattern loses updates under quantum-1
        src_locked = """
        class Cell {
          var n = 0;
          var m = null;
          constructor() { this.m = make_monitor(); }
          def bump() {
            monitor_acquire(this.m);
            var t = this.n;
            var i = 0;
            while (i < 3) { i = i + 1; }
            this.n = t + 1;
            monitor_release(this.m);
          }
        }
        class W {
          var c = null;
          constructor(c) { this.c = c; }
          def go() {
            var i = 0;
            while (i < 10) { this.c.bump(); i = i + 1; }
          }
        }
        class Main {
          var cell = null;
          def main() {
            this.cell = new Cell();
            var w1 = new W(this.cell);
            var w2 = new W(this.cell);
            spawn w1.go();
            spawn w2.go();
            var j = 0;
            while (j < 500) { j = j + 1; }
            print(this.cell.n);
          }
        }
        """
        res = run_src(src_locked, seed=1)
        assert res.status == "completed"
        # main may print before workers finish; read the final bump count
        bumps = res.count_jp("method_execution Cell.bump/1 ")
        assert bumps == 0  # arity differs; ensure the probe text is right
        assert res.count_jp("method_execution Cell.bump/0 ") == 20

    def test_wait_notify_roundtrip(self):
        src = """
        class Box {
          var m = null;
          var full = false;
          constructor() { this.m = make_monitor(); }
          def put() {
            monitor_acquire(this.m);
            this.full = true;
            monitor_notify_all(this.m);
            monitor_release(this.m);
          }
          def take() {
            monitor_acquire(this.m);
            while (!this.full) {
              monitor_wait(this.m);
            }
            print("got");
            monitor_release(this.m);
          }
        }
        class P { var b = null; constructor(b) { this.b = b; } def go() { this.b.put(); } }
        class C { var b = null; constructor(b) { this.b = b; } def go() { this.b.take(); } }
        class Main {
          def main() {
            var b = new Box();
            var c = new C(b);
            var p = new P(b);
            spawn c.go();
            spawn p.go();
          }
        }
        """
        for seed in range(4):
            res = run_src(src, seed=seed)
            assert res.status == "completed", res.status
            assert res.output == ["got"]

    def test_release_without_hold_is_error(self):
        res = run_src(
            "class Main { def main() { var m = make_monitor(); monitor_release(m); } }"
        )
        assert res.status == "runtime-error"
        assert "not held" in res.error

    def test_wait_without_hold_is_error(self):
        res = run_src(
            "class Main { def main() { var m = make_monitor(); monitor_wait(m); } }"
        )
        assert res.status == "runtime-error"


class TestDeadlock:
    def test_self_edge_on_reacquire(self):
        res = run_src(
            """
            class Main {
              def main() {
                var m = make_monitor();
                monitor_acquire(m);
                monitor_acquire(m);
              }
            }
            """
        )
        assert res.status == "deadlock"
        assert edges(res.deadlock) == [(0, 0)]
        assert res.deadlock.self_edges()[0].tid == 0

    def test_two_lock_cycle(self):
        # each thread parks on its first lock long enough that under
        # quantum-1 scheduling both hold one lock before wanting the other
        src = """
        class Locker {
          var a = null;
          var b = null;
          constructor(a, b) { this.a = a; this.b = b; }
          def go() {
            monitor_acquire(this.a);
            var i = 0;
            while (i < 20) { i = i + 1; }
            monitor_acquire(this.b);
            monitor_release(this.b);
            monitor_release(this.a);
          }
        }
        class Main {
          def main() {
            var m1 = make_monitor();
            var m2 = make_monitor();
            var l1 = new Locker(m1, m2);
            var l2 = new Locker(m2, m1);
            spawn l1.go();
            spawn l2.go();
          }
        }
        """
        for seed in range(5):
            res = run_src(src, seed=seed)
            assert res.status == "deadlock"
            assert sorted(edges(res.deadlock)) == [(1, 2), (2, 1)]
            assert thread_ids(res.deadlock) == {1, 2}

    def test_monitors_released_on_frame_unwind(self):
        # helper returns while holding; the unwind releases, so the second
        # acquire succeeds instead of reporting a stale holder
        res = run_src(
            """
            class Main {
              var m = null;
              def grab() { monitor_acquire(this.m); }
              def main() {
                this.m = make_monitor();
                this.grab();
                monitor_acquire(this.m);
                print("ok");
              }
            }
            """
        )
        assert res.status == "deadlock" or res.output == ["ok"]
        assert res.output == ["ok"]

    def test_runtime_error_beats_deadlock_masquerade(self):
        # the failing thread holds a monitor; the error aborts the run with
        # runtime-error status, not a deadlock report
        res = run_src(
            """
            class W {
              var m = null;
              constructor(m) { this.m = m; }
              def go() {
                monitor_acquire(this.m);
                var xs = [];
                print(xs[3]);
              }
            }
            class Main {
              def main() {
                var m = make_monitor();
                var w = new W(m);
                spawn w.go();
              }
            }
            """
        )
        assert res.status == "runtime-error"


class TestRendering:
    def test_render_values(self):
        assert render_value(7) == "7"
        assert render_value(True) == "true"
        assert render_value(None) == "null"
        assert render_value(["a", 1, ["b"]]) == "[a, 1, [b]]"

    def test_format_trivial(self):
        assert format_message("x", []) == "x"
        assert format_message("{0}{0}", [7]) == "77"

    def test_format_out_of_range(self):
        with pytest.raises(mw.MiniRuntimeError):
            format_message("{1}", [7])

    def test_string_ops(self):
        res = run_src(
            'class Main { def main() { print("a" + "b"); print(len("abc")); } }'
        )
        assert res.output == ["ab", "3"]


class TestBuiltinErrors:
    def test_monitor_ops_need_a_monitor(self):
        res = run_src("class Main { def main() { monitor_acquire(3); } }")
        assert res.status == "runtime-error"
        assert "expects a monitor" in res.error

    def test_arity_checked(self):
        res = run_src("class Main { def main() { print(1, 2); } }")
        assert res.status == "runtime-error"

    def test_division_by_zero(self):
        res = run_src("class Main { def main() { print(1 / 0); } }")
        assert res.status == "runtime-error"
        assert "division by zero" in res.error

    def test_method_arity_mismatch(self):
        res = run_src(
            "class A { def f(x) { } } class Main { def main() { var a = new A(); a.f(); } }"
        )
        assert res.status == "runtime-error"
        assert "expects 1 argument" in res.error
