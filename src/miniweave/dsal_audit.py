"""Case-based audit DSAL: parser, message catalog, and aspect generator.

An `.audit` file declares, per target type, an ordered list of cases: a
lifecycle transition plus optional boolean guard fields on the left, a
message id plus value fields on the right. Cases are matched top-down;
the first match logs and the rest are skipped.

The transformer emits one `Logs` aspect with after-execution advice per
(type, transition) pair. Transitions map onto the job lifecycle API:

    start     -> after execution of `start`
    finish    -> after execution of `run`, guarded by state == "FINISHED"
    interrupt -> after execution of `interrupt`
    pause     -> after execution of `setPaused` with args[0] = true
    resume    -> after execution of `setPaused` with args[0] = false

Messages live in a `messages.txt` catalog (`ID = template` lines) whose
`{k}` placeholders are filled from the case's value fields.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from . import minilang as ml
from .diagnostics import CompileError, Loc, ParseError, read_source
from .lexer import EOF, NAME, PUNCT
from .render import escape_string
from .values import _PLACEHOLDER, placeholder_index

TRANSITIONS = ("start", "finish", "interrupt", "pause", "resume")

STATE_FIELD = "state"
FINISHED_VALUE = "FINISHED"

_TRANSITION_METHOD = {
    "start": "start",
    "finish": "run",
    "interrupt": "interrupt",
    "pause": "setPaused",
    "resume": "setPaused",
}

_PAUSE_ARG = {"pause": "true", "resume": "false"}


@dataclass
class Case:
    transition: str
    guards: list[str]
    message: str
    values: list[str]
    loc: Loc


@dataclass
class Command:
    target: str
    cases: list[Case]
    loc: Loc


@dataclass
class AuditModel:
    commands: list[Command] = field(default_factory=list)
    path: str = ""


class AuditParser(ml.MiniParser):
    def parse_model(self) -> AuditModel:
        model = AuditModel(path=self.path)
        while not self.ts.at(EOF):
            model.commands.append(self.parse_command())
        return model

    def parse_command(self) -> Command:
        loc = self.ts.loc()
        self.ts.expect(NAME, "logs")
        self.ts.expect(NAME, "for")
        target = self.ts.expect(NAME).text
        self.ts.expect(PUNCT, ":")
        cases: list[Case] = []
        while not self.ts.accept(PUNCT, ";"):
            cases.append(self.parse_case())
        return Command(target, cases, loc)

    def parse_case(self) -> Case:
        loc = self.ts.loc()
        self.ts.expect(NAME, "case")
        tok = self.ts.expect(NAME)
        if tok.text not in TRANSITIONS:
            raise ParseError(f"unknown transition {tok.text!r}", tok.loc(self.path))
        transition = tok.text
        guards: list[str] = []
        while self.ts.accept(PUNCT, "&"):
            guards.append(self.ts.expect(NAME).text)
        self.ts.expect(NAME, "log")
        message = self.ts.expect(NAME).text
        values: list[str] = []
        if self.ts.accept(NAME, "with"):
            while self.ts.at(NAME) and not self.ts.at_name("case"):
                values.append(self.ts.advance().text)
            if not values:
                raise self.ts.error("'with' needs at least one field name")
        return Case(transition, guards, message, values, loc)


def parse_audit(text: str, path: str) -> AuditModel:
    """Parse an `.audit` source. Raises ParseError with file:line."""
    return AuditParser(text, path).parse_model()


# ---------------------------------------------------------------------------
# Message catalog
# ---------------------------------------------------------------------------


def parse_catalog(text: str, path: str) -> dict[str, str]:
    """Parse `ID = template` lines; `#` starts a full-line comment."""
    catalog: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CompileError("expected 'ID = template'", Loc(path, lineno))
        ident, template = line.split("=", 1)
        ident = ident.strip()
        if not ident.isidentifier():
            raise CompileError(f"bad message id {ident!r}", Loc(path, lineno))
        if ident in catalog:
            raise CompileError(f"duplicate message id {ident!r}", Loc(path, lineno))
        catalog[ident] = template.strip()
    return catalog


def load_catalog(path: str) -> dict[str, str]:
    return parse_catalog(read_source(path), path)


def _max_placeholder(template: str) -> tuple[int, str]:
    """The highest placeholder index in `template` and its digits, else (-1, "")."""
    found = [(placeholder_index(d), d) for d in _PLACEHOLDER.findall(template)]
    return max(found) if found else (-1, "")


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def validate_audit(model: AuditModel, catalog: dict[str, str], program: ml.Program) -> None:
    classes = program.by_name()
    for cmd in model.commands:
        cls = classes.get(cmd.target)
        if cls is None:
            raise CompileError(f"audited type {cmd.target!r} not found", cmd.loc)
        fields = cls.field_names()
        for case in cmd.cases:
            for g in case.guards:
                if g not in fields:
                    raise CompileError(
                        f"guard field {g!r} does not exist on {cmd.target}", case.loc
                    )
            for v in case.values:
                if v not in fields:
                    raise CompileError(
                        f"value field {v!r} does not exist on {cmd.target}", case.loc
                    )
            if case.message not in catalog:
                raise CompileError(f"unknown message id {case.message!r}", case.loc)
            need, digits = _max_placeholder(catalog[case.message])
            if need >= len(case.values):
                raise CompileError(
                    f"message {case.message} uses placeholder {{{digits}}} but the case "
                    f"provides {len(case.values)} value field(s)",
                    case.loc,
                )
            if case.transition == "finish" and STATE_FIELD not in fields:
                raise CompileError(
                    f"finish cases need a {STATE_FIELD!r} field on {cmd.target} "
                    f"(checked against \"{FINISHED_VALUE}\")",
                    case.loc,
                )


# ---------------------------------------------------------------------------
# Code generation
# ---------------------------------------------------------------------------


def gen_audit_aspect(model: AuditModel, catalog: dict[str, str]) -> str:
    """Emit the `Logs` MiniAspect: one after-execution advice per audited
    (type, transition) pair, body a top-down first-match case chain."""
    for cmd in model.commands:
        for case in cmd.cases:
            if case.message not in catalog:
                raise CompileError(f"unknown message id {case.message!r}", case.loc)
    module = os.path.basename(model.path)
    out: list[str] = []
    out.append(f"// generated by the audit transformer from {model.path}")
    out.append("@hideType")
    out.append("aspect Logs {")
    out.append("  @hideMethod")
    out.append("  def audit(line) {")
    out.append("    audit_emit(line);")
    out.append("  }")
    for cmd in model.commands:
        groups: dict[str, list[Case]] = {}
        for case in cmd.cases:
            groups.setdefault(case.transition, []).append(case)
        for transition, cases in groups.items():
            method = _TRANSITION_METHOD[transition]
            pointcut = f"execution({method}) && this({cmd.target})"
            if transition in _PAUSE_ARG:
                pointcut += f" && args(0, {_PAUSE_ARG[transition]})"
            first_line = cases[0].loc.line
            out.append("")
            out.append(f'  @loc(file="{model.path}", line={first_line}, module="{module}")')
            out.append(f"  after(): {pointcut} {{")
            indent = "    "
            if transition == "finish":
                out.append(
                    f'{indent}if (targetObject.{STATE_FIELD} == "{FINISHED_VALUE}") {{'
                )
                indent += "  "
            for case in cases:
                cond = " && ".join(f"targetObject.{g}" for g in case.guards) or "true"
                args = "".join(f", targetObject.{v}" for v in case.values)
                template = escape_string(catalog[case.message])
                out.append(f"{indent}if ({cond}) {{")
                out.append(f'{indent}  this.audit(format("{template}"{args}));')
                out.append(f"{indent}  return;")
                out.append(f"{indent}}}")
            if transition == "finish":
                out.append("    }")
            out.append("  }")
    out.append("}")
    return "\n".join(out) + "\n"
