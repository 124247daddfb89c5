"""Command-line driver: compile, run, and relationship-report workflows.

Exit codes are a stable contract: 0 success, 1 any compile-stage error,
and for `run`: 2 deadlock, 3 runtime error, 4 step limit exceeded.
5 is an internal error: a failure the toolchain does not map to one of the
codes above, reported as one `internal error: <Type>: <message>` line.
All diagnostics go to standard error with file:line positions.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import interp, pipeline
from .diagnostics import CompileError

EXIT_OK = 0
EXIT_COMPILE = 1
EXIT_DEADLOCK = 2
EXIT_RUNTIME = 3
EXIT_STEP_LIMIT = 4
EXIT_INTERNAL = 5


def _common_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("inputs", nargs="+", help="source files (.ml0, .ma0, or DSAL inputs)")
    p.add_argument("--dsals", help="transformation registry (default: ./dsals.txt, "
                   "else dsals.txt next to the first input)")
    p.add_argument("--gen-dir", default="gen", help="directory for generated aspects")
    p.add_argument("--strip-hide", action="store_true",
                   help="ignore @hide annotations in the weaver (generated sources unchanged)")
    p.add_argument("--messages", help="message catalog for the audit transformer "
                   "(default: messages.txt next to each .audit file)")
    p.add_argument("--explain-hides", action="store_true",
                   help="list every suppressed shadow and the annotation that hid it")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="miniweave", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("compile", help="transform DSAL inputs and weave")
    _common_options(pc)
    pc.add_argument("--relationships", metavar="PATH",
                    help="also write the advice/join-point relationship report")

    pr = sub.add_parser("run", help="compile then interpret")
    _common_options(pr)
    pr.add_argument("--entry", default="Main.main", help="entry point (default Main.main)")
    pr.add_argument("--seed", type=int, default=0, help="scheduler rotation seed")
    pr.add_argument("--step-limit", type=int, default=interp.DEFAULT_STEP_LIMIT)
    pr.add_argument("--audit-sink", metavar="PATH",
                    help="write audit lines to a file instead of standard output")
    pr.add_argument("--trace", metavar="PATH", help="write the event trace to a file")

    pl = sub.add_parser("relationships", help="compile and write relationships.json")
    _common_options(pl)
    pl.add_argument("-o", "--out", default="relationships.json")
    return ap


def _default_dsals(args) -> str | None:
    if args.dsals is not None:
        return args.dsals
    if os.path.exists("dsals.txt"):
        return "dsals.txt"
    beside = os.path.join(os.path.dirname(args.inputs[0]) or ".", "dsals.txt")
    if os.path.exists(beside):
        return beside
    return None


def _compile(args, relationships_path=None) -> pipeline.CompileArtifacts:
    options = pipeline.CompileOptions(
        dsals_path=_default_dsals(args),
        gen_dir=args.gen_dir,
        strip_hide=args.strip_hide,
        messages_path=args.messages,
        relationships_path=relationships_path,
    )
    artifacts = pipeline.compile(args.inputs, options)
    if args.explain_hides:
        for line in artifacts.unit.visible.diagnostics():
            print(line)
    return artifacts


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "compile":
            _compile(args, args.relationships)
            return EXIT_OK
        if args.command == "relationships":
            _compile(args, args.out)
            return EXIT_OK
        # run
        if args.step_limit <= 0:
            raise CompileError("--step-limit must be positive")
        artifacts = _compile(args)
        result = interp.run(artifacts.unit, args.entry, args.seed, args.step_limit)
        try:
            if args.trace:
                with open(args.trace, "w", encoding="utf-8") as fh:
                    fh.write(result.render_trace())
            if args.audit_sink:
                with open(args.audit_sink, "w", encoding="utf-8") as fh:
                    fh.writelines(line + "\n" for line in result.audit_lines)
        except OSError as e:
            raise CompileError(f"cannot write output file: {e.strerror or e}") from None
        if args.audit_sink:
            for _, _, kind, text in result.records:
                if kind == "print":
                    print(text)
        else:
            for line in result.output:
                print(line)
        if result.status == "completed":
            return EXIT_OK
        if result.status == "deadlock":
            print(result.deadlock.render(), file=sys.stderr)
            return EXIT_DEADLOCK
        if result.status == "runtime-error":
            print(f"runtime error: {result.error}", file=sys.stderr)
            return EXIT_RUNTIME
        print(f"step limit exceeded after {result.steps} steps", file=sys.stderr)
        return EXIT_STEP_LIMIT
    except CompileError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_COMPILE
    except Exception as e:  # last resort: one line, never a traceback
        msg = str(e).replace("\n", " ")
        print(f"internal error: {type(e).__name__}: {msg}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
