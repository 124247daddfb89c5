"""Seeded input generators and output checks for the miniweave benchmark.

Each workload is a `Workload` subclass. `generate(seed, out_dir)` writes the
input files and returns a `Case`: the compile inputs, the entry point, and
the facts the generator knows about the program (expected output lines,
advice lines, push/pop totals). `check(case, art, res)` tests one op's
outputs against those facts, never against the compiler's own output, and
returns a list of failure strings (empty when the op is correct).

The same seed always writes byte-identical files. Sizes are fixed per
workload so that different seeds cost about the same; the seed only picks
which elements get annotations, pointcuts, pauses and names.
"""

from __future__ import annotations

import os
import random
import re
from collections import Counter
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _read_repo(*parts: str) -> str:
    with open(os.path.join(ROOT, *parts), encoding="utf-8") as fh:
        return fh.read()


def _write(out_dir: str, name: str, text: str) -> str:
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


@dataclass
class Case:
    """Generated inputs of one workload plus the facts needed to check them."""

    inputs: list[str]
    dsals: str
    gen_dir: str
    entry: str = "Main.main"
    relationships: str | None = None
    facts: dict = field(default_factory=dict)


class Workload:
    name = ""
    per_op_sched_seed = False  # stack_cool: every op gets its own scheduler seed

    def __init__(self, scale: float = 1.0):
        self.scale = scale

    def size(self, n: int) -> int:
        return max(1, round(n * self.scale))

    def generate(self, seed: int, out_dir: str) -> Case:
        raise NotImplementedError

    def check(self, case: Case, art, res) -> list[str]:
        raise NotImplementedError


def _expect_completed(res) -> list[str]:
    if res.status != "completed":
        return [f"run ended {res.status}: {res.error or res.deadlock and res.deadlock.render()}"]
    return []


# ---------------------------------------------------------------------------
# weave_large: a big generated program, random hides, ~100 advice, a .cool
# coordinator, the relationships report on, and a short run.
# ---------------------------------------------------------------------------

_HIDE_METHOD_KINDS = ["call", "execution", "within"]
_HIDE_FIELD_KINDS = ["get", "set"]
_HIDE_TYPE_KINDS = ["pre_init", "init", "static_init", "within_init", "within_static_init"]


def _hide(rng: random.Random, tag: str, kinds: list[str]) -> str:
    if rng.random() < 0.5:
        return f"@{tag} "
    chosen = [k for k in kinds if rng.random() < 0.5] or [kinds[0]]
    return f"@{tag}({', '.join(chosen)}) "


class WeaveLarge(Workload):
    name = "weave_large"
    classes, methods, advice = 24, 8, 48

    def generate(self, seed: int, out_dir: str) -> Case:
        rng = random.Random(f"weave_large/{seed}")
        n_cls, n_meth, n_fld = self.size(self.classes), self.methods, 3
        n_adv = self.size(self.advice)
        names = [f"K{i}" for i in range(n_cls)]
        # A fixed share of the types, and of each method and field index, is
        # hidden; the seed picks which classes and which hide kinds.
        hidden_types = set(rng.sample(names, max(1, n_cls // 10)))
        share = max(1, n_cls // 8)
        hidden_methods = {(c, m) for m in range(n_meth) for c in rng.sample(names, share)}
        hidden_fields = {(c, f) for f in range(n_fld) for c in rng.sample(names, share)}

        # Method m_k (k > 0) calls m_{k-1}, on `this` for odd k and on a fresh
        # object for even k, so every call chain ends and the generator knows
        # what Main prints.
        ret: dict[tuple[str, int], int] = {}
        src: list[str] = []
        for c in names:
            if c in hidden_types:
                src.append(_hide(rng, "hideType", _HIDE_TYPE_KINDS))
            src.append(f"class {c} {{\n")
            for f in range(n_fld):
                ann = _hide(rng, "hideField", _HIDE_FIELD_KINDS) if (c, f) in hidden_fields else ""
                src.append(f"  {ann}var f{f} = {rng.randint(0, 9)};\n")
            src.append("  constructor() {\n    this.f0 = this.f0 + 1;\n  }\n")
            for m in range(n_meth):
                ann = _hide(rng, "hideMethod", _HIDE_METHOD_KINDS) if (c, m) in hidden_methods else ""
                k = rng.randint(1, 9)
                src.append(f"  {ann}def m{m}(a) {{\n")
                src.append(f"    var r = {k};\n")
                f = rng.randrange(n_fld)
                src.append(f"    this.f{f} = this.f{f} + a;\n")
                if m > 0:
                    if m % 2:
                        src.append(f"    r = r + this.m{m - 1}(a);\n")
                    else:
                        src.append(f"    var o = new {c}();\n    r = r + o.m{m - 1}(a);\n")
                    k += ret[(c, m - 1)]
                ret[(c, m)] = k
                src.append("    return r;\n  }\n")
            src.append("}\n\n")
        total = 0
        src.append("class Main {\n  def main() {\n    var total = 0;\n")
        top = n_meth // 2  # keeps the run a small share of the op
        for i, c in enumerate(names):
            src.append(f"    var o{i} = new {c}();\n    total = total + o{i}.m{top}({i % 4});\n")
            total += ret[(c, top)]
        src.append('    print(format("total {0}", total));\n  }\n}\n')
        program = _write(out_dir, "big.ml0", "".join(src))

        # One plain aspect. Kinds, patterns, residue forms and members follow
        # the advice index, so every seed weaves a like mix; the seed picks
        # the classes and values the residues name.
        lines = ["aspect Weaver {\n"]
        for i in range(n_adv):
            c, o = names[i * 7 % n_cls], rng.choice(names)
            kind = ("execution", "call", "get", "set")[i % 4]
            is_method = kind in ("execution", "call")
            member = f"m{i // 4 % n_meth}" if is_method else f"f{i // 4 % n_fld}"
            pattern = (f"{c}.{member}", f"*.{member}", f"{c}.*")[i // 4 % 3]
            extra = (
                "",
                f" && this({o})",
                f" && args(0, {rng.randrange(4)})" if kind != "get" else f" && !within({o})",
                f" && within({o})",
                f" && cflow(execution({o}.m{i % n_meth}))",
                f" && !cflow(within({o}))",
            )[(i + i // 4) % 6]  # each form once per kind in every 24 advice
            when = "before" if i % 3 else "after"
            lines.append(f"  {when}(): {kind}({pattern}){extra} {{\n    var z = {i};\n  }}\n")
        lines.append("}\n")
        aspect = _write(out_dir, "weaver.ma0", "".join(lines))
        adv_lines = [2 + 3 * i for i in range(n_adv)]  # each advice spans 3 lines

        coord_cls = rng.choice([c for c in names if c not in hidden_types])
        cool = _write(
            out_dir,
            "big.cool",
            f"coordinator {coord_cls} {{\n  selfex {{m0}};\n}}\n",
        )
        dsals = _write(out_dir, "dsals.txt", "cool\n")
        return Case(
            inputs=[program, cool, aspect],
            dsals=dsals,
            gen_dir=os.path.join(out_dir, "gen"),
            relationships=os.path.join(out_dir, "relationships.json"),
            facts={
                "output": [f"total {total}"],
                "advice_at": {f"{aspect}:{n}" for n in adv_lines},
                "cool_at": f"{cool}:2",  # the selfex clause
            },
        )

    def check(self, case: Case, art, res) -> list[str]:
        errors = _expect_completed(res)
        if res.output != case.facts["output"]:
            errors.append(f"printed {res.output[:2]} != {case.facts['output']}")
        unit = art.unit
        if len(unit.visible) + len(unit.visible.suppressed) != len(unit.all_shadows):
            errors.append("visible + suppressed != all shadows")
        for rec in art.relationships["advises"]:
            handle = rec["advice"]
            if handle not in case.facts["advice_at"] and handle != case.facts["cool_at"]:
                errors.append(f"advises handle {handle} is no generated advice line")
                break
        return errors


# ---------------------------------------------------------------------------
# jobs_audit: the demo job classes, ~40 jobs, some paused or interrupted.
# ---------------------------------------------------------------------------

def _catalog() -> dict[str, str]:
    out = {}
    for raw in _read_repo("demo", "messages.txt").splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            key, _, template = line.partition("=")
            out[key.strip()] = template.strip()
    return out


def _fmt(template: str, values: list[str]) -> str:
    return re.sub(r"\{(\d+)\}", lambda m: values[int(m.group(1))], template)


class JobsAudit(Workload):
    name = "jobs_audit"

    def generate(self, seed: int, out_dir: str) -> Case:
        rng = random.Random(f"jobs_audit/{seed}")
        n_jobs, n_files = self.size(40), self.size(15)
        base = _read_repo("demo", "jobs.ml0")
        base = base[: base.index("class Main")]
        catalog = _catalog()
        # fixed counts of each job kind and of pauses and interrupts
        kinds = [("copy", "mkdir", "mkfile")[j % 3] for j in range(n_jobs)]
        rng.shuffle(kinds)
        touched = rng.sample(range(n_jobs), n_jobs // 4)
        actions = {j: ("pause", "interrupt")[i % 2] for i, j in enumerate(touched)}
        expected: list[str] = []
        body = [
            "class Main {\n",
            "  def files(prefix, n) {\n    var out = [];\n    var i = 0;\n",
            "    while (i < n) {\n      push_back(out, format(\"{0}/f{1}.dat\", prefix, i));\n",
            "      i = i + 1;\n    }\n    return out;\n  }\n\n",
            "  def main() {\n",
        ]
        for j in range(n_jobs):
            prefix = f"/data/s{seed % 1000}/j{j}"
            files = "[" + ", ".join(f"{prefix}/f{i}.dat" for i in range(n_files)) + "]"
            kind = kinds[j]
            if kind == "copy":
                dst = f"/backup/j{j}/"
                body.append(f'    var j{j} = new CopyJob(this.files("{prefix}", {n_files}), "{prefix}/", "{dst}");\n')
                start = _fmt(catalog["COPY_STARTED"], [str(n_files), f"{prefix}/", dst, files])
                finish = _fmt(catalog["COPY_FINISHED"], [str(n_files), f"{prefix}/", dst])
            else:
                mode = "true" if kind == "mkfile" else "false"
                tag = "MKFILE" if kind == "mkfile" else "MKDIR"
                body.append(f'    var j{j} = new MkdirJob(this.files("{prefix}", {n_files}), {mode});\n')
                start = _fmt(catalog[f"{tag}_STARTED"], [files])
                finish = _fmt(catalog[f"{tag}_FINISHED"], [files])
            body.append(f"    j{j}.start();\n")
            if j in actions:
                if actions[j] == "pause":
                    body.append(f"    j{j}.setPaused(true);\n    j{j}.setPaused(false);\n")
                else:
                    body.append(f"    j{j}.interrupt();\n")
            else:
                expected += [start, finish]
        body.append("  }\n}\n")
        program = _write(out_dir, "jobs.ml0", base + "".join(body))
        audit = _write(out_dir, "jobs.audit", _read_repo("demo", "jobs.audit"))
        _write(out_dir, "messages.txt", _read_repo("demo", "messages.txt"))
        dsals = _write(out_dir, "dsals.txt", "audit\n")
        return Case(
            inputs=[program, audit],
            dsals=dsals,
            gen_dir=os.path.join(out_dir, "gen"),
            facts={"lines": expected},
        )

    def check(self, case: Case, art, res) -> list[str]:
        errors = _expect_completed(res)
        missing = Counter(case.facts["lines"]) - Counter(res.audit_lines)
        if missing:
            errors.append(f"missing audit line {next(iter(missing))[:80]}")
        return errors


# ---------------------------------------------------------------------------
# stack_cool: the bounded-stack demo with P producer/consumer pairs.
# ---------------------------------------------------------------------------

class StackCool(Workload):
    name = "stack_cool"
    per_op_sched_seed = True

    def generate(self, seed: int, out_dir: str) -> Case:
        rng = random.Random(f"stack_cool/{seed}")
        pairs, count = self.size(4), self.size(8)
        base = _read_repo("demo_stack", "stack.ml0")
        base = base[: base.index("class Main")]
        workers = [("Producer", i) for i in range(pairs)] + [("Consumer", i) for i in range(pairs)]
        rng.shuffle(workers)
        main = ["class Main {\n  def main() {\n", "    var stack = new BoundedStack(3);\n"]
        for kind, i in workers:
            main.append(f"    var {kind[0].lower()}{i} = new {kind}(stack, {count});\n")
        for kind, i in workers:
            main.append(f"    spawn {kind[0].lower()}{i}.run();\n")
        main.append("  }\n}\n")
        program = _write(out_dir, "stack.ml0", base + "".join(main))
        cool = _write(out_dir, "stack.cool", _read_repo("demo_stack", "stack.cool"))
        auditor = _write(out_dir, "auditor.ma0", _read_repo("demo_stack", "auditor.ma0"))
        dsals = _write(out_dir, "dsals.txt", "cool\n")
        return Case(
            inputs=[program, cool, auditor],
            dsals=dsals,
            gen_dir=os.path.join(out_dir, "gen"),
            facts={"transfers": pairs * count},
        )

    def check(self, case: Case, art, res) -> list[str]:
        errors = _expect_completed(res)
        n = case.facts["transfers"]
        pushes = res.count_jp("method_execution BoundedStack.push/1 ")
        pops = res.count_jp("method_execution BoundedStack.pop/0 ")
        if pushes != n or pops != n:
            errors.append(f"pushes={pushes} pops={pops}, expected {n} each")
        return errors

    @staticmethod
    def check_strip_hide(res) -> list[str]:
        """With @hide stripped the auditor re-enters the coordinator monitor."""
        if res.status != "deadlock":
            return [f"strip-hide run ended {res.status}, expected deadlock"]
        if not res.deadlock.self_edges():
            return ["strip-hide deadlock has no self-edge"]
        return []


# ---------------------------------------------------------------------------
# spy_deep: one thread recursing to depth ~40 under a cflow-guarded spy.
# ---------------------------------------------------------------------------

class SpyDeep(Workload):
    name = "spy_deep"

    def generate(self, seed: int, out_dir: str) -> Case:
        rng = random.Random(f"spy_deep/{seed}")
        depth, reps = 40, self.size(8)
        cls = rng.choice(["Walker", "Descent", "Probe", "Diver"])
        meth = rng.choice(["down", "dive", "sink", "walk"])
        src = (
            f"class {cls} {{\n"
            f"  var visits = 0;\n"
            f"  def {meth}(n) {{\n"
            f"    this.visits = this.visits + 1;\n"
            f"    if (n == 0) {{\n      return 0;\n    }}\n"
            f"    return 1 + this.{meth}(n - 1);\n"
            f"  }}\n}}\n\n"
            f"class Main {{\n  def main() {{\n"
            f"    var w = new {cls}();\n    var total = 0;\n    var i = 0;\n"
            f"    while (i < {reps}) {{\n"
            f"      total = total + w.{meth}({depth});\n      i = i + 1;\n    }}\n"
            f'    print(format("total {{0}}", total));\n  }}\n}}\n'
        )
        program = _write(out_dir, "deep.ml0", src)
        spy = _write(
            out_dir,
            "spy.ma0",
            "aspect Spy {\n  var seen = 0;\n\n"
            "  before(): call(*.*) && !cflow(within(Spy)) {\n"
            "    this.seen = this.seen + 1;\n  }\n}\n",
        )
        dsals = _write(out_dir, "dsals.txt", "# no DSALs\n")
        return Case(
            inputs=[program, spy],
            dsals=dsals,
            gen_dir=os.path.join(out_dir, "gen"),
            facts={"output": [f"total {reps * depth}"]},
        )

    def check(self, case: Case, art, res) -> list[str]:
        errors = _expect_completed(res)
        if res.output != case.facts["output"]:
            errors.append(f"printed {res.output[:2]} != {case.facts['output']}")
        return errors


WORKLOADS = {w.name: w for w in (WeaveLarge, JobsAudit, StackCool, SpyDeep)}
