"""Seeded random MiniLang programs, and aspects over them, with random hide
annotations.

Used by the hide-filter property tests, the semantic-preservation
acceptance check and the cflow differential test. Bodies may recurse
without end, so a run of a program (given an entry by `main_source`) may
end at the call-depth bound or the step limit.
"""

from __future__ import annotations

import random

HIDE_METHOD_KINDS = ["call", "execution", "within"]
HIDE_FIELD_KINDS = ["set", "get"]
HIDE_TYPE_KINDS = ["pre_init", "init", "static_init", "within_init", "within_static_init"]


def _maybe_hide(rng: random.Random, tag: str, kinds: list[str], p: float = 0.35) -> str:
    if rng.random() >= p:
        return ""
    if rng.random() < 0.5:
        return f"@{tag}\n"
    chosen = [k for k in kinds if rng.random() < 0.5]
    return f"@{tag}({', '.join(chosen)})\n"


def random_program_source(rng: random.Random) -> str:
    n_classes = rng.randint(1, 3)
    names = [f"C{i}" for i in range(n_classes)]
    n_methods = {c: rng.randint(1, 3) for c in names}
    n_fields = {c: rng.randint(0, 2) for c in names}
    parts: list[str] = []
    for c in names:
        parts.append(_maybe_hide(rng, "hideType", HIDE_TYPE_KINDS))
        parts.append(f"class {c} {{\n")
        for fi in range(n_fields[c]):
            parts.append("  " + _maybe_hide(rng, "hideField", HIDE_FIELD_KINDS))
            parts.append(f"  var f{fi} = {rng.randint(0, 9)};\n")
        if rng.random() < 0.4:
            parts.append("  constructor() {\n")
            if n_fields[c]:
                parts.append(f"    this.f0 = {rng.randint(0, 9)};\n")
            parts.append("  }\n")
        if rng.random() < 0.3:
            other = rng.choice(names)
            parts.append("  static {\n")
            parts.append(f"    var o = new {other}();\n")
            parts.append(f"    o.m0();\n")
            parts.append("  }\n")
        for mi in range(n_methods[c]):
            parts.append("  " + _maybe_hide(rng, "hideMethod", HIDE_METHOD_KINDS))
            parts.append(f"  def m{mi}() {{\n")
            for _ in range(rng.randint(0, 3)):
                kind = rng.randrange(3)
                if kind == 0 and n_fields[c]:
                    f = rng.randrange(n_fields[c])
                    parts.append(f"    this.f{f} = this.f{f} + 1;\n")
                elif kind == 1:
                    m = rng.randrange(n_methods[c])
                    parts.append(f"    this.m{m}();\n")
                else:
                    other = rng.choice(names)
                    om = rng.randrange(n_methods[other])
                    parts.append(f"    var o{mi} = new {other}();\n")
                    parts.append(f"    o{mi}.m{om}();\n")
            parts.append("  }\n")
        parts.append("}\n")
    return "".join(parts)


def random_coordinator_source(rng: random.Random, program_src: str) -> str | None:
    """A coordinator over some class/method subset of the given program.

    Returns None when the program offers nothing to coordinate. The
    constructor-less classes generated above always qualify.
    """
    import miniweave.minilang as mlmod

    program = mlmod.parse_base(program_src, "rand.ml0")
    candidates = [c for c in program.classes if c.methods]
    if not candidates:
        return None
    cls = rng.choice(candidates)
    methods = [m.name for m in cls.methods]
    chosen = sorted(rng.sample(methods, rng.randint(1, len(methods))))
    return f"coordinator {cls.name} {{\n  selfex {{{', '.join(chosen)}}};\n}}\n"


def main_source(program) -> str:
    """A `Main` class whose `main` calls every method of the parsed
    `program` once, on a new object of its class."""
    calls = "".join(f"    new {c.name}().{m.name}();\n" for c in program.classes for m in c.methods)
    return f"class Main {{\n  def main() {{\n{calls}  }}\n}}\n"


def _random_residue(rng: random.Random, classes: list[str], targets) -> str:
    """A `this(C)`, `args(i, v)`, `cflow(S)` or `!cflow(S)` conjunct. A scope
    S is a `within`, a `!within`, a `within` or a call, or a call or
    execution with a `this`/`args` residue or a nested `cflow(within(..))`."""
    kind = rng.randrange(4)
    if kind == 0:
        return f"this({rng.choice(classes)})"
    if kind == 1:
        return f"args({rng.randrange(2)}, {rng.choice(['*', '0', '1', str(rng.randint(2, 9))])})"
    form = rng.randrange(5)
    if form == 0:
        scope = f"within({rng.choice(classes)})"
    elif form == 1:
        scope = f"!within({rng.choice(classes)})"
    elif form == 2:
        cls, m = rng.choice(targets)
        scope = f"within({rng.choice(classes)}) || call({cls}.{m})"
    else:
        cls, m = rng.choice(targets)
        more = (
            f"this({rng.choice(classes)})",
            f"args(0, {rng.choice(['*', str(rng.randint(0, 9))])})",
            f"cflow(within({rng.choice(classes)}))",
        )[rng.randrange(3)]
        scope = f"{rng.choice(['call', 'execution'])}({cls}.{m}) && {more}"
    return f"{'!' if kind == 3 else ''}cflow({scope})"


def random_aspect_source(rng: random.Random, program, residues: bool = False) -> str:
    """One aspect over the parsed `program`, with random hide annotations
    on the aspect, its fields, helpers and advice.

    Helper and advice bodies read and write `this.aN`, call helpers and call
    `new C().m()` for methods of `program`; some field initializers hold a
    get and a call too. Each advice has an execution, call, get or set
    anchor over `program`. With `residues`, most advice also get one
    `_random_residue` conjunct over the program's classes and `Asp`;
    without, the rng draws are those of an aspect with no residues.
    """
    targets = [(c.name, m.name) for c in program.classes for m in c.methods]
    fields = [(c.name, f.name) for c in program.classes for f in c.fields]
    n_fields = rng.randint(1, 3)
    n_helpers = rng.randint(1, 3)
    parts = [_maybe_hide(rng, "hideType", HIDE_TYPE_KINDS), "aspect Asp {\n"]

    def statements() -> None:
        for _ in range(rng.randint(0, 3)):
            kind = rng.randrange(3)
            if kind == 0:
                a = rng.randrange(n_fields)
                parts.append(f"    this.a{a} = this.a{rng.randrange(n_fields)};\n")
            elif kind == 1:
                parts.append(f"    this.h{rng.randrange(n_helpers)}();\n")
            else:
                cls, m = rng.choice(targets)
                parts.append(f"    new {cls}().{m}();\n")

    for fi in range(n_fields):
        parts.append("  " + _maybe_hide(rng, "hideField", HIDE_FIELD_KINDS))
        cls, m = rng.choice(targets)
        init = rng.choice(
            ["", " = 0", f" = this.a{rng.randrange(n_fields)}", f" = new {cls}().{m}()"]
        )
        parts.append(f"  var a{fi}{init};\n")
    for hi in range(n_helpers):
        parts.append("  " + _maybe_hide(rng, "hideMethod", HIDE_METHOD_KINDS))
        parts.append(f"  def h{hi}() {{\n")
        statements()
        parts.append("  }\n")
    for _ in range(rng.randint(1, 3)):
        parts.append("  " + _maybe_hide(rng, "hideMethod", HIDE_METHOD_KINDS))
        word = rng.choice(["execution", "call", "get", "set"] if fields else ["execution", "call"])
        cls, member = rng.choice(fields if word in ("get", "set") else targets)
        when = rng.choice(["before", "after"])
        pc = f"{word}({cls}.{member})"
        if residues and rng.random() < 0.8:
            classes = [c.name for c in program.classes] + ["Asp"]
            pc += " && " + _random_residue(rng, classes, targets)
        parts.append(f"  {when}(): {pc} {{\n")
        statements()
        parts.append("  }\n")
    parts.append("}\n")
    return "".join(parts)
