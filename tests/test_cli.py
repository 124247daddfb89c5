"""CLI contract: subcommands, exit codes, and output routing."""

import json
import os
import shutil

import pytest

from conftest import DEMO_AUDIT, DEMO_STACK

from miniweave import interp
from miniweave.cli import EXIT_INTERNAL, main


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    shutil.copytree(DEMO_AUDIT, tmp_path / "demo")
    shutil.copytree(DEMO_STACK, tmp_path / "demo_stack")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_run_audit_demo_exit_zero(workdir, capsys):
    code = main(["run", "demo/jobs.ml0", "demo/jobs.audit", "--entry", "Main.main"])
    out = capsys.readouterr().out
    assert code == 0
    assert "start copying 2 files from /home/ to /tmp/ ([/home/a.pdf, /home/b.pdf])" in out


def test_run_strip_hide_deadlocks_exit_two(workdir, capsys):
    code = main(
        [
            "run",
            "demo_stack/stack.ml0",
            "demo_stack/stack.cool",
            "demo_stack/auditor.ma0",
            "--strip-hide",
        ]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert "deadlock at step" in err
    assert "held by itself" in err


def test_compile_missing_file_exit_one(workdir, capsys):
    code = main(["compile", "nosuch.ml0"])
    err = capsys.readouterr().err
    assert code == 1
    assert "file not found" in err


def test_runtime_error_exit_three(workdir, capsys):
    (workdir / "boom.ml0").write_text(
        "class Main { def main() { var xs = []; print(xs[1]); } }"
    )
    code = main(["run", "boom.ml0"])
    assert code == 3
    assert "runtime error" in capsys.readouterr().err


def test_step_limit_exit_four(workdir, capsys):
    (workdir / "spin.ml0").write_text("class Main { def main() { while (true) { } } }")
    code = main(["run", "spin.ml0", "--step-limit", "50"])
    assert code == 4
    assert "step limit" in capsys.readouterr().err


@pytest.mark.parametrize("limit", ["0", "-3"])
def test_non_positive_step_limit_is_usage_error_exit_one(workdir, capsys, limit):
    (workdir / "ok.ml0").write_text("class Main { def main() { } }")
    code = main(["run", "ok.ml0", "--step-limit", limit])
    assert code == 1
    assert capsys.readouterr() == ("", "error: --step-limit must be positive\n")


def test_internal_error_is_one_line_exit_five(workdir, capsys, monkeypatch):
    # a failure no documented code covers reaches the last-resort guard,
    # which reports it on one line without a traceback
    (workdir / "ok.ml0").write_text("class Main { def main() { } }")

    def broken_run(*args):
        raise RuntimeError("interpreter broke\nhalfway")

    with monkeypatch.context() as m:
        m.setattr(interp, "run", broken_run)
        code = main(["run", "ok.ml0"])
    err = capsys.readouterr().err
    assert code == EXIT_INTERNAL == 5
    assert err.startswith("internal error: RuntimeError: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


# Each runtime check of the interpreter, reached from a few lines of MiniLang:
# the body of `Main.main` (line 7 on), the faulting line, the message.
_RUNTIME_HEAD = "class P {\n  var x = 0;\n  constructor(a) { }\n}\nclass Main {\n  def main() {\n"


_DIGITS = "1" * 5000  # more digits than Python converts to an int


@pytest.mark.parametrize(
    "body, line, message",
    [
        ("var p = new P();", 7, "constructor of P expects 1 argument(s), got 0"),
        ("var n = 1;\nn.foo();", 8, "unknown method 'foo' on 1"),
        ("var n = 1;\nspawn n.foo();", 8, "spawn needs an object receiver"),
        ("print(len(1));", 7, "len expects a list or string"),
        ("push_back(1, 2);", 7, "push_back expects a list"),
        ("print(format(1));", 7, "format expects a template string"),
        ('print(format("{0} {1}", 5));', 7, "format placeholder {1} out of range"),
        ("audit_emit(1);", 7, "audit_emit expects a string"),
        ("var m = make_monitor();\nmonitor_notify_all(m);", 8, "notify on a monitor not held"),
        ("var p = null;\nprint(p.x);", 8, "null dereference reading 'x'"),
        ("var p = null;\np.x = 1;", 8, "null dereference writing 'x'"),
        ("var p = new P(1);\nprint(p.zz);", 8, "unknown field 'zz' on P"),
        ("var p = new P(1);\np.zz = 1;", 8, "unknown field 'zz' on P"),
        ("var n = 1;\nprint(n.x);", 8, "unknown field 'x' on 1"),
        ("var n = 1;\nn.x = 2;", 8, "cannot write field 'x' on 1"),
        ("var n = 1;\nprint(n[0]);", 8, "indexing expects a list"),
        ("var xs = [1];\nprint(xs[true]);", 8, "list index must be an int"),
        ("var b = true;\nprint(-b);", 8, "expected an int, got true"),
        # an index with more digits than Python converts is out of range too
        (
            f'print(format("{{{_DIGITS}}}", 1));',
            7,
            f"format placeholder {{{_DIGITS}}} out of range",
        ),
    ],
    ids=[
        "ctor-arity", "call-non-object", "spawn-non-object", "len-arg", "push_back-arg",
        "format-template", "format-placeholder", "audit_emit-arg", "notify-not-held",
        "null-read", "null-write", "unknown-field-read", "unknown-field-write",
        "read-non-object", "write-non-object", "index-non-list", "index-non-int",
        "negate-non-int", "format-placeholder-too-long",
    ],
)
def test_runtime_check_exit_three(workdir, capsys, body, line, message):
    (workdir / "prog.ml0").write_text(_RUNTIME_HEAD + body + "\n  }\n}\n")
    code = main(["run", "prog.ml0"])
    assert code == 3
    assert capsys.readouterr() == ("", f"runtime error: prog.ml0:{line}: {message}\n")


def test_unknown_join_point_attribute_exit_three(workdir, capsys):
    (workdir / "prog.ml0").write_text("class Main {\n  def main() {\n  }\n}\n")
    (workdir / "spy.ma0").write_text(
        "aspect Spy {\n  before(): execution(Main.main) {\n    print(jp.zz);\n  }\n}\n"
    )
    code = main(["run", "prog.ml0", "spy.ma0"])
    assert code == 3
    err = "runtime error: spy.ma0:3: unknown join point attribute 'zz'\n"
    assert capsys.readouterr() == ("", err)


def test_lone_waiter_deadlocks_with_no_holder_exit_two(workdir, capsys):
    (workdir / "prog.ml0").write_text(
        _RUNTIME_HEAD
        + "var m = make_monitor();\nmonitor_acquire(m);\nmonitor_wait(m);\n  }\n}\n"
    )
    code = main(["run", "prog.ml0"])
    assert code == 2
    assert capsys.readouterr() == (
        "",
        "deadlock at step 5:\n  t0 waits on <monitor:0> (created at prog.ml0:7), no holder\n",
    )


_STATIC_PROG = """class A {
  static {
    print("A static");
  }
}
class Main {
  static {
    print("Main static");
    return;
    print("after return");
  }
  def main() {
    print("main");
  }
}
"""


def test_static_blocks_run_in_program_order_before_main(workdir, capsys):
    # `return;` in a static block ends that block only
    (workdir / "prog.ml0").write_text(_STATIC_PROG)
    assert main(["run", "prog.ml0", "--trace", "t.txt"]) == 0
    assert capsys.readouterr() == ("A static\nMain static\nmain\n", "")
    assert (workdir / "t.txt").read_text() == (
        "step=2 t0 jp static_initialization A @ prog.ml0:2\n"
        "step=3 t0 print A static\n"
        "step=4 t0 jp static_initialization Main @ prog.ml0:7\n"
        "step=5 t0 print Main static\n"
        "step=7 t0 jp method_execution Main.main/0 @ prog.ml0:12\n"
        "step=8 t0 print main\n"
        "step=8 t0 finish\n"
    )


def test_hide_type_static_init_removes_that_class_event(workdir, capsys):
    (workdir / "prog.ml0").write_text("@hideType(static_init)\n" + _STATIC_PROG)
    assert main(["run", "prog.ml0", "--trace", "t.txt"]) == 0
    assert capsys.readouterr() == ("A static\nMain static\nmain\n", "")
    assert (workdir / "t.txt").read_text() == (
        "step=2 t0 print A static\n"
        "step=3 t0 jp static_initialization Main @ prog.ml0:8\n"
        "step=4 t0 print Main static\n"
        "step=6 t0 jp method_execution Main.main/0 @ prog.ml0:13\n"
        "step=7 t0 print main\n"
        "step=7 t0 finish\n"
    )


def test_audit_sink_keeps_print_lines_on_stdout(workdir, capsys):
    (workdir / "job.ml0").write_text(
        "class Job {\n  def work(n) {\n    print(format(\"work {0}\", n));\n  }\n}\n"
        "class Main {\n  def main() {\n    var j = new Job();\n    j.work(1);\n"
        "    print(\"done\");\n    j.work(2);\n  }\n}\n"
    )
    (workdir / "log.ma0").write_text(
        "aspect Log {\n  before(): execution(Job.work) {\n"
        "    audit_emit(format(\"audit {0}\", args[0]));\n  }\n}\n"
    )
    assert main(["run", "job.ml0", "log.ma0"]) == 0
    assert capsys.readouterr().out == "audit 1\nwork 1\ndone\naudit 2\nwork 2\n"
    assert main(["run", "job.ml0", "log.ma0", "--audit-sink", "sink.txt"]) == 0
    assert capsys.readouterr() == ("work 1\ndone\nwork 2\n", "")
    assert (workdir / "sink.txt").read_text() == "audit 1\naudit 2\n"


def test_deep_recursion_is_runtime_error_exit_three(workdir, capsys):
    # 2000-deep MiniLang recursion stops at the call-depth limit, at the call
    (workdir / "deep.ml0").write_text(
        "class Main {\n"
        "  def down(n) { if (n == 0) { return 0; } return this.down(n - 1); }\n"
        "  def main() { print(this.down(2000)); }\n"
        "}\n"
    )
    code = main(["run", "deep.ml0"])
    err = capsys.readouterr().err
    assert code == 3
    assert err == f"runtime error: deep.ml0:2: call depth exceeds {interp.MAX_CALL_DEPTH}\n"


@pytest.mark.parametrize(
    "ext, decl, message",
    [
        ("ml0", "class Twice { }", "duplicate class 'Twice'"),
        ("ma0", "aspect Twice { }", "duplicate aspect 'Twice'"),
    ],
    ids=["class", "aspect"],
)
def test_name_declared_in_two_files_exit_one(workdir, capsys, ext, decl, message):
    (workdir / "main.ml0").write_text("class Main { def main() { } }\n")
    (workdir / f"a.{ext}").write_text(decl + "\n")
    (workdir / f"b.{ext}").write_text("\n" + decl + "\n")
    code = main(["compile", "main.ml0", f"a.{ext}", f"b.{ext}"])
    err = capsys.readouterr().err
    assert code == 1
    assert err == f"error: b.{ext}:2: {message}\n"


def test_deep_parenthesis_nesting_is_parse_error_exit_one(workdir, capsys):
    # 400 nested parentheses exceed the parser's nesting limit: a compile
    # error at the token's file:line, not a RecursionError
    depth = 400
    (workdir / "nest.ml0").write_text(
        "class Main {\n"
        "  def main() {\n"
        f"    print({'(' * depth}1{')' * depth});\n"
        "  }\n"
        "}\n"
    )
    for command in ("compile", "run"):
        code = main([command, "nest.ml0"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: nest.ml0:3: nesting deeper than")
        assert "internal error" not in err and "Traceback" not in err


@pytest.mark.parametrize(
    "name, text, digit",
    [
        ("sup.ml0", "class Digits {\n  def f() { print(²); }\n}\n", "²"),
        ("arabic.ml0", "class Digits {\n  def f() { print(٣); }\n}\n", "٣"),
        ("sup.ma0", "aspect A {\n  before(): call(*.f) && args(0², 1) { }\n}\n", "²"),
    ],
    ids=["superscript-ml0", "arabic-indic-ml0", "superscript-ma0"],
)
def test_non_ascii_digit_is_parse_error_exit_one(workdir, capsys, name, text, digit):
    # literals are ASCII 0-9; another digit is a character no token starts with
    (workdir / "main.ml0").write_text("class Main { def main() { } }\n")
    (workdir / name).write_text(text, encoding="utf-8")
    code = main(["compile", "main.ml0", name])
    err = capsys.readouterr().err
    assert code == 1
    assert err == f"error: {name}:2: unexpected character {digit!r}\n"


def test_relationships_subcommand_writes_json(workdir, capsys):
    code = main(
        ["relationships", "demo/jobs.ml0", "demo/jobs.audit", "-o", "rel.json"]
    )
    assert code == 0
    rel = json.loads((workdir / "rel.json").read_text())
    assert rel["advises"]


def test_audit_sink_redirects_audit_lines(workdir, capsys):
    code = main(
        ["run", "demo/jobs.ml0", "demo/jobs.audit", "--audit-sink", "audit.log"]
    )
    assert code == 0
    out = capsys.readouterr().out
    sink = (workdir / "audit.log").read_text()
    assert "start copying" in sink
    assert "start copying" not in out


def test_trace_file(workdir):
    code = main(["run", "demo/jobs.ml0", "demo/jobs.audit", "--trace", "t.txt"])
    assert code == 0
    text = (workdir / "t.txt").read_text()
    assert "jp method_execution" in text


def test_dsals_registry_found_next_to_inputs(workdir):
    # no ./dsals.txt in CWD; the one beside the first input applies
    assert not os.path.exists("dsals.txt")
    assert main(["compile", "demo/jobs.ml0", "demo/jobs.audit"]) == 0


def test_explain_hides_lists_suppressions(workdir, capsys):
    code = main(
        ["compile", "demo_stack/stack.ml0", "demo_stack/stack.cool", "--explain-hides"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "HIDDEN method_execution Coord_BoundedStack.enter_push/1" in out


def test_compile_relationships_flag(workdir):
    code = main(
        ["compile", "demo/jobs.ml0", "demo/jobs.audit", "--relationships", "r.json"]
    )
    assert code == 0
    assert (workdir / "r.json").exists()


def test_unwritable_report_path_is_cli_error(workdir, capsys):
    code = main(
        ["relationships", "demo/jobs.ml0", "demo/jobs.audit", "-o", "no/such/dir/rel.json"]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert "cannot write" in err


# Long chains are ordinary code, not nesting: neither the passes after
# parsing nor the code a DSAL generates from them may turn a chain into
# Python recursion or into nesting past the parser's limit.


def test_long_operator_chain_compiles(workdir, capsys):
    (workdir / "chain.ml0").write_text(
        "class Main { def main() { print(" + " + ".join(["1"] * 3000) + "); } }\n"
    )
    assert main(["compile", "chain.ml0"]) == 0
    assert capsys.readouterr().err == ""


def test_long_operator_chain_runs(workdir, capsys):
    (workdir / "chain.ml0").write_text(
        "class Main { def main() { print(" + " + ".join(["1"] * 3000) + "); } }\n"
    )
    assert main(["run", "chain.ml0"]) == 0
    assert capsys.readouterr() == ("3000\n", "")


def test_long_else_if_chain_compiles_and_runs(workdir, capsys):
    arms = " else ".join(f"if (x == {i}) {{ print({i}); }}" for i in range(1000))
    (workdir / "arms.ml0").write_text(f"class Main {{ def main() {{ var x = 999; {arms} }} }}\n")
    assert main(["compile", "arms.ml0"]) == 0
    assert main(["run", "arms.ml0"]) == 0
    assert capsys.readouterr().out == "999\n"


COOL_HEAD = """coordinator BoundedStack {
  selfex {push, pop};
  mutex {push, pop};
  condition full = false, empty = true;
  var top = 0;
  pop:
    requires (!empty);
    on_entry { top = top - 1; }
    on_exit { full = false; if (top == 0) { empty = true; } }
"""


def test_cool_requires_with_a_71_term_chain_runs(workdir, capsys):
    chain = " + ".join(["top"] * 71)
    (workdir / "demo_stack" / "chain.cool").write_text(
        COOL_HEAD
        + f"  push:\n    requires (!full && {chain} >= 0);\n"
        + "    on_entry { top = top + 1; }\n"
        + "    on_exit { empty = false; if (top == len(buffer)) { full = true; } }\n}\n"
    )
    assert main(["run", "demo_stack/stack.ml0", "demo_stack/chain.cool"]) == 0
    assert capsys.readouterr().err == ""


def test_cool_on_exit_with_a_70_arm_else_if_chain_runs(workdir, capsys):
    arms = " else ".join(f"if (top == {i + 100}) {{ full = true; }}" for i in range(69))
    (workdir / "demo_stack" / "arms.cool").write_text(
        COOL_HEAD
        + "  push:\n    requires (!full);\n    on_entry { top = top + 1; }\n"
        + f"    on_exit {{ empty = false; {arms}"
        + " else if (top == len(buffer)) { full = true; } }\n"
        + "}\n"
    )
    assert main(["run", "demo_stack/stack.ml0", "demo_stack/arms.cool"]) == 0
    assert capsys.readouterr().err == ""


def test_cool_requires_with_a_3000_term_chain_runs(workdir, capsys):
    chain = " + ".join(["top"] * 3000)
    (workdir / "demo_stack" / "req.cool").write_text(
        COOL_HEAD
        + f"  push:\n    requires ({chain} >= 0 && !full);\n"
        + "    on_entry { top = top + 1; }\n"
        + "    on_exit { empty = false; if (top == len(buffer)) { full = true; } }\n}\n"
    )
    assert main(["run", "demo_stack/stack.ml0", "demo_stack/req.cool"]) == 0
    assert capsys.readouterr().err == ""


_JOBS = ["demo/jobs.ml0", "demo/jobs.audit"]
_STACK = ["demo_stack/stack.ml0", "demo_stack/stack.cool", "demo_stack/auditor.ma0"]


@pytest.mark.parametrize(
    "path, inputs, line",
    [
        ("demo/jobs.ml0", _JOBS, 1),
        ("demo/jobs.ml0", _JOBS, 4),
        ("demo_stack/auditor.ma0", _STACK, 3),
        ("demo_stack/stack.cool", _STACK, 1),
        ("demo/jobs.audit", _JOBS, 2),
        ("demo/dsals.txt", _JOBS, 2),
        ("demo/messages.txt", _JOBS, 3),
    ],
    ids=["ml0-first-byte", "ml0", "ma0", "cool", "audit", "dsals", "messages"],
)
def test_non_utf8_input_is_compile_error_exit_one(workdir, capsys, path, inputs, line):
    # a 0xff byte at the start of `line` (CRLF endings count as one line break)
    lines = (workdir / path).read_bytes().split(b"\n")
    lines[line - 1] = b"\xff" + lines[line - 1]
    (workdir / path).write_bytes(b"\r\n".join(lines))
    for command in ("compile", "run"):
        code = main([command, *inputs])
        assert capsys.readouterr() == ("", f"error: {path}:{line}: not valid UTF-8\n")
        assert code == 1


def test_unreadable_registry_is_compile_error_exit_one(workdir, capsys):
    # a directory where dsals.txt should be: not "file not found", not exit 5
    os.remove("demo/dsals.txt")
    os.mkdir("demo/dsals.txt")
    code = main(["compile", "demo/jobs.ml0", "demo/jobs.audit"])
    assert capsys.readouterr() == ("", "error: cannot read demo/dsals.txt: Is a directory\n")
    assert code == 1


@pytest.mark.parametrize(
    "name, text, message",
    [
        (
            "a.ma0",
            "aspect A { }\n@order(1)\naspect B { }\n",
            "annotation @order is not allowed on an aspect",
        ),
        (
            "a.ma0",
            "aspect A {\n  @hideField before(): execution(Main.main) { }\n}\n",
            "annotation @hideField is not allowed on advice",
        ),
        (
            "b.ml0",
            "class B {\n  @hideMethod constructor() { }\n}\n",
            "annotations are not allowed on constructors",
        ),
        (
            "b.ml0",
            "class B {\n  @hideType static { }\n}\n",
            "annotations are not allowed on static blocks",
        ),
    ],
    ids=["order-on-aspect", "hidefield-on-advice", "on-constructor", "on-static-block"],
)
def test_misplaced_annotation_exit_one(workdir, capsys, name, text, message):
    (workdir / "main.ml0").write_text("class Main { def main() { } }\n")
    (workdir / name).write_text(text)
    code = main(["compile", "main.ml0", name])
    assert capsys.readouterr() == ("", f"error: {name}:2: {message}\n")
    assert code == 1


@pytest.mark.parametrize(
    "inputs",
    [["demo/jobs.ml0", "demo/jobs.audit"], ["demo/jobs.ml0"]],
    ids=["with-dsal-input", "base-only"],
)
def test_missing_dsals_path_exit_one(workdir, capsys, inputs):
    # an explicit --dsals path is read, not skipped when it does not exist
    for command in ("compile", "run"):
        code = main([command, *inputs, "--dsals", "nope.txt"])
        assert capsys.readouterr() == ("", "error: nope.txt: file not found\n")
        assert code == 1


_ADVICE = "before(): execution(Main.main) { }"
_ARGS = "before(): call(*.f) && args({}) {{ }}"
_TOO_LONG = "integer literal too long"


@pytest.mark.parametrize(
    "name, text, message",
    [
        ("long.ml0", f"class Long {{\n  def f() {{ print({_DIGITS}); }}\n}}\n", _TOO_LONG),
        (
            "a.ma0",
            f"aspect A {{\n  @order({'9' * 400}) {_ADVICE}\n}}\n",
            "@order value must be finite",
        ),
        ("a.ma0", f"aspect A {{\n  @order({_DIGITS}) {_ADVICE}\n}}\n", _TOO_LONG),
        (
            "a.ma0",
            f'aspect A {{\n  @loc(file="x", line={_DIGITS}, module="x") {_ADVICE}\n}}\n',
            _TOO_LONG,
        ),
        ("a.ma0", f"aspect A {{\n  {_ARGS.format(f'{_DIGITS}, 1')}\n}}\n", _TOO_LONG),
        ("a.ma0", f"aspect A {{\n  {_ARGS.format(f'0, {_DIGITS}')}\n}}\n", _TOO_LONG),
        ("a.ma0", f"aspect A {{\n  {_ARGS.format(f'0, -{_DIGITS}')}\n}}\n", _TOO_LONG),
    ],
    ids=[
        "ml0-literal", "order-beyond-float", "order-literal", "loc-line", "args-position",
        "args-value", "args-negative-value",
    ],
)
def test_unconvertible_number_is_parse_error_exit_one(workdir, capsys, name, text, message):
    # a number Python cannot convert is a located compile error, not exit 5
    (workdir / "main.ml0").write_text("class Main { def main() { } }\n")
    (workdir / name).write_text(text)
    code = main(["compile", "main.ml0", name])
    assert capsys.readouterr() == ("", f"error: {name}:2: {message}\n")
    assert code == 1


def test_catalog_placeholder_too_long_is_compile_error_exit_one(workdir, capsys):
    # a catalog placeholder past any value count, reported at the case that uses it
    catalog = workdir / "demo" / "messages.txt"
    catalog.write_text(catalog.read_text().replace("({3})", f"({{{_DIGITS}}})"))
    code = main(["compile", "demo/jobs.ml0", "demo/jobs.audit"])
    assert capsys.readouterr() == (
        "",
        f"error: demo/jobs.audit:2: message COPY_STARTED uses placeholder {{{_DIGITS}}} "
        "but the case provides 4 value field(s)\n",
    )
    assert code == 1


@pytest.mark.parametrize(
    "second", ["b/stack.cool", "a/stack.cool"], ids=["two-files", "same-file"]
)
def test_two_inputs_generating_one_file_exit_one(workdir, capsys, second):
    # a second input with the same generated path is refused before its
    # transformer runs, so the first input's aspect stays on disk
    for d, cls in (("a", "BoundedStack"), ("b", "Other")):
        os.mkdir(d)
        cool = (workdir / "demo_stack" / "stack.cool").read_text()
        (workdir / d / "stack.cool").write_text(cool.replace("BoundedStack", cls))
    base = (workdir / "demo_stack" / "stack.ml0").read_text()
    stack_class = base[: base.index("\n}\n") + 3]  # BoundedStack comes first
    (workdir / "two.ml0").write_text(base + stack_class.replace("BoundedStack", "Other"))
    code = main(["compile", "two.ml0", "a/stack.cool", second, "--dsals", "demo_stack/dsals.txt"])
    gen = os.path.join("gen", "stack_cool.ma0")
    assert capsys.readouterr() == ("", f"error: {second}: generates {gen}, as a/stack.cool does\n")
    assert code == 1
    assert "Coord_BoundedStack" in (workdir / gen).read_text()
    assert "Coord_Other" not in (workdir / gen).read_text()
