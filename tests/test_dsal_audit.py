"""Audit DSAL: parsing, message formatting, generation, and runtime behavior."""

import hashlib
import os
import re

import pytest

from conftest import DEMO_AUDIT, build_unit

import miniweave as mw
from miniweave.aspects import parse_aspect_file
from miniweave.diagnostics import CompileError, ParseError
from miniweave.dsal_audit import (
    gen_audit_aspect,
    load_catalog,
    parse_audit,
    parse_catalog,
    validate_audit,
)
from miniweave.values import format_message
from miniweave.interp import run


def demo_sources():
    out = {}
    for name in ("jobs.ml0", "jobs.audit", "messages.txt"):
        with open(os.path.join(DEMO_AUDIT, name)) as fh:
            out[name] = fh.read()
    return out


class TestParseAudit:
    def test_demo_port_counts(self):
        model = parse_audit(demo_sources()["jobs.audit"], "jobs.audit")
        assert [c.target for c in model.commands] == ["CopyJob", "MkdirJob"]
        assert [len(c.cases) for c in model.commands] == [5, 10]
        first = model.commands[0].cases[0]
        assert (first.transition, first.message) == ("start", "COPY_STARTED")
        assert first.values == ["nbFiles", "baseSourceFolder", "baseDestFolder", "files"]
        guarded = model.commands[1].cases[0]
        assert guarded.guards == ["mkfileMode"]
        # case order equals source order, lines retained for @loc
        lines = [c.loc.line for c in model.commands[1].cases]
        assert lines == sorted(lines)

    def test_zero_case_command(self):
        model = parse_audit("logs for X: ;", "x.audit")
        assert model.commands[0].target == "X"
        assert model.commands[0].cases == []

    def test_unknown_transition(self):
        with pytest.raises(ParseError, match="unknown transition"):
            parse_audit("logs for X: case explode log M ;", "x.audit")


class TestCatalog:
    def test_parse_catalog(self):
        cat = parse_catalog("# c\nA = x {0}\nB=y\n", "m.txt")
        assert cat == {"A": "x {0}", "B": "y"}

    def test_missing_file(self):
        with pytest.raises(CompileError, match="file not found"):
            load_catalog("nosuch/messages.txt")

    def test_malformed_line(self):
        with pytest.raises(CompileError, match="ID = template"):
            parse_catalog("JUSTME\n", "m.txt")


class TestFormatMessage:
    def test_sample_copy_message(self):
        out = format_message(
            "start copying {0} files from {1} to {2} ({3})",
            [2, "/home/", "/tmp/", ["/home/a.pdf", "/home/b.pdf"]],
        )
        assert out == "start copying 2 files from /home/ to /tmp/ ([/home/a.pdf, /home/b.pdf])"

    def test_no_placeholders(self):
        assert format_message("x", []) == "x"

    def test_repeated_index(self):
        assert format_message("{0}{0}", [7]) == "77"


class TestValidate:
    def setup_method(self):
        srcs = demo_sources()
        self.program = mw.parse_base(srcs["jobs.ml0"], "jobs.ml0")
        self.catalog = parse_catalog(srcs["messages.txt"], "messages.txt")
        self.model = parse_audit(srcs["jobs.audit"], "jobs.audit")

    def test_demo_validates(self):
        validate_audit(self.model, self.catalog, self.program)

    def test_unknown_message_id(self):
        model = parse_audit("logs for CopyJob: case start log NOPE ;", "x.audit")
        with pytest.raises(CompileError, match="unknown message id"):
            validate_audit(model, self.catalog, self.program)

    def test_unknown_guard_field(self):
        model = parse_audit(
            "logs for CopyJob: case start & zoom log COPY_RESUMED with baseSourceFolder baseDestFolder ;",
            "x.audit",
        )
        with pytest.raises(CompileError, match="guard field 'zoom'"):
            validate_audit(model, self.catalog, self.program)

    def test_placeholder_arity_checked(self):
        model = parse_audit(
            "logs for CopyJob: case start log COPY_STARTED with nbFiles ;", "x.audit"
        )
        with pytest.raises(CompileError, match="placeholder"):
            validate_audit(model, self.catalog, self.program)


class TestGeneratedAspect:
    def test_structure_and_metadata(self):
        srcs = demo_sources()
        model = parse_audit(srcs["jobs.audit"], "demo/jobs.audit")
        catalog = parse_catalog(srcs["messages.txt"], "messages.txt")
        src = gen_audit_aspect(model, catalog)
        aspect = parse_aspect_file(src, "gen/jobs_audit.ma0").aspects[0]
        assert aspect.name == "Logs"
        assert [a.name for a in aspect.annotations] == ["hideType"]
        assert [h.name for h in aspect.methods] == ["audit"]
        assert [a.name for a in aspect.methods[0].annotations] == ["hideMethod"]
        # one advice per (type, transition) pair present in the model
        assert len(aspect.advice) == 5 + 5
        for adv in aspect.advice:
            assert adv.kind == "after"
            assert adv.bridge is not None
            assert adv.bridge.file == "demo/jobs.audit"
            assert adv.bridge.module == "jobs.audit"

    def test_demo_output_is_pinned(self):
        srcs = demo_sources()
        model = parse_audit(srcs["jobs.audit"], "demo/jobs.audit")
        catalog = parse_catalog(srcs["messages.txt"], "messages.txt")
        src = gen_audit_aspect(model, catalog)
        assert hashlib.sha256(src.encode("utf-8")).hexdigest() == (
            "9f09a352d9355b785cdb82d1cb303df0c37c6bc5ada8a2f211e0c8024264c38c"
        )

    def test_all_transitions_output_is_pinned(self):
        # every transition, guards, a case with no values, and a template
        # that needs escaping
        model = parse_audit(
            "logs for CopyJob:\n"
            "  case start & verbose log A with nbFiles baseSourceFolder\n"
            "  case start log B\n"
            "  case finish & verbose & quiet log C with nbFiles\n"
            "  case finish log B\n"
            "  case interrupt log D with baseDestFolder\n"
            "  case pause log E with nbProcessedFiles\n"
            "  case resume & quiet log B;\n"
            "logs for MkdirJob:\n"
            "  case resume log B\n"
            "  case pause log A with files mkfileMode;\n",
            "p/all.audit",
        )
        catalog = parse_catalog(
            "A = a {0} and {1}\nB = plain \"quoted\" \\ text\nC = c {0}\n"
            "D = d\t{0}\nE = e {0}\n",
            "p/m.txt",
        )
        src = gen_audit_aspect(model, catalog)
        assert hashlib.sha256(src.encode("utf-8")).hexdigest() == (
            "25f2df88b1b89f90ad40f26c3ee68a5b493dce0a2a33e4ebf68ce12aa8e673e8"
        )

    def test_loc_lines_are_case_lines_within_source(self):
        srcs = demo_sources()
        model = parse_audit(srcs["jobs.audit"], "demo/jobs.audit")
        catalog = parse_catalog(srcs["messages.txt"], "messages.txt")
        aspect = parse_aspect_file(gen_audit_aspect(model, catalog), "g.ma0").aspects[0]
        case_lines = {
            c.loc.line for cmd in model.commands for c in cmd.cases
        }
        n_lines = len(srcs["jobs.audit"].splitlines())
        for adv in aspect.advice:
            assert adv.bridge.line in case_lines
            assert 1 <= adv.bridge.line <= n_lines
        # the advice for a pair points at the FIRST case of that pair
        start_adv = next(
            a for a in aspect.advice if "MkdirJob" in str(a.pointcut) and "start" in str(a.pointcut)
        )
        mk_start_lines = [
            c.loc.line
            for c in model.commands[1].cases
            if c.transition == "start"
        ]
        assert start_adv.bridge.line == min(mk_start_lines)

    def test_pause_resume_args_residue(self):
        srcs = demo_sources()
        model = parse_audit(srcs["jobs.audit"], "demo/jobs.audit")
        catalog = parse_catalog(srcs["messages.txt"], "messages.txt")
        aspect = parse_aspect_file(gen_audit_aspect(model, catalog), "g.ma0").aspects[0]
        pcs = [str(a.pointcut) for a in aspect.advice]
        assert "execution(*.setPaused) && this(CopyJob) && args(0, true)" in pcs
        assert "execution(*.setPaused) && this(CopyJob) && args(0, false)" in pcs

    def test_zero_cases_aspect(self):
        model = parse_audit("logs for X: ;", "x.audit")
        aspect = parse_aspect_file(gen_audit_aspect(model, {}), "g.ma0").aspects[0]
        assert [h.name for h in aspect.methods] == ["audit"]
        assert aspect.advice == []

    def test_unknown_message_id_at_generation(self):
        model = parse_audit("logs for X: case start log NOPE ;", "x.audit")
        with pytest.raises(CompileError, match="unknown message id"):
            gen_audit_aspect(model, {})


def woven_audit(main_src: str | None = None, seed: int = 0):
    srcs = demo_sources()
    base_src = srcs["jobs.ml0"]
    if main_src is not None:
        head, _, _ = base_src.partition("class Main")
        base_src = head + main_src
    model = parse_audit(srcs["jobs.audit"], "demo/jobs.audit")
    catalog = parse_catalog(srcs["messages.txt"], "messages.txt")
    gen_src = gen_audit_aspect(model, catalog)
    unit = build_unit(base_src, gen_src, base_path="demo/jobs.ml0")
    return run(unit, seed=seed), model


class TestRuntime:
    def test_copy_started_line_byte_exact(self):
        res, _ = woven_audit()
        assert (
            "start copying 2 files from /home/ to /tmp/ ([/home/a.pdf, /home/b.pdf])"
            in res.audit_lines
        )

    def test_top_down_first_match_wins(self):
        res, _ = woven_audit()
        assert "start creating file [/tmp/notes.txt]" in res.audit_lines
        assert "start creating directory [/tmp/newdir]" in res.audit_lines
        # the guarded MKFILE case fired instead of the unguarded MKDIR one
        assert "start creating directory [/tmp/notes.txt]" not in res.audit_lines

    def test_interrupted_run_emits_no_finish(self):
        main = """
        class Main {
          def main() {
            var mk = new MkdirJob(["/tmp/x"], false);
            mk.interrupt();
            mk.run();
          }
        }
        """
        res, _ = woven_audit(main)
        assert res.status == "completed"
        assert "interrupted creating directory [/tmp/x]" in res.audit_lines
        assert not any(line.startswith("finished") for line in res.audit_lines)

    def test_pause_resume_discriminated_by_argument(self):
        main = """
        class Main {
          def main() {
            var mk = new MkdirJob(["/tmp/x"], true);
            mk.setPaused(true);
            mk.setPaused(false);
          }
        }
        """
        res, _ = woven_audit(main)
        assert res.audit_lines == [
            "paused creating file [/tmp/x]",
            "resumed creating file [/tmp/x]",
        ]

    def test_line_count_matches_trace_replay_oracle(self):
        # replay the model over the recorded execution events: guard fields
        # in the demo are fixed at construction, so the oracle can evaluate
        # them from the known objects
        res, model = woven_audit()
        method_of = {
            "start": "start",
            "finish": "run",
            "interrupt": "interrupt",
        }
        jobs = {"CopyJob": {}, "MkdirJob": {"mkfileMode": None}}
        events = [
            e.text.split(" ")[1]
            for e in res.events
            if e.kind == "jp" and e.text.startswith("method_execution ")
        ]
        expected = 0
        for sig in events:
            cls, rest = sig.split(".")
            method = rest.split("/")[0]
            for cmd in model.commands:
                if cmd.target != cls:
                    continue
                transitions = [t for t, m in method_of.items() if m == method]
                if transitions:
                    expected += 1  # demo: every start/run/interrupt execution
                    # has a matching (possibly unguarded) case and runs are
                    # never interrupted in the default demo main
        assert len(res.audit_lines) == expected
