"""Reference models and comparison views that only tests use.

Each one restates a rule of the toolchain in the most direct form, so a
test can check the woven or compiled result against it:

- `can_enter`: the COOL entry guard, evaluated over a snapshot of busy
  counts, conditions and coordinator fields;
- `sort_key`/`compare_advice`: advice precedence from the precedence
  declaration list;
- `restricted_keys`: a match table as (advice, shadow, residue) triples
  that do not depend on shadow ids;
- `edges`/`thread_ids`: the waits-for graph of a deadlock report;
- `eligible`/`ScanInterp`: the scheduler as a scan of every thread's state;
- `walk_eval_residue`/`WalkInterp`: cflow as a walk over every entered
  join point on the thread's stack;
- `TreeInterp`: the interpreter with no fast path, each operand by its own
  generator and each operator, condition, field and pick by its checked
  helper;
- `parse_aspect`: a source that holds exactly one aspect.
"""

from __future__ import annotations

import operator

import miniweave.minilang as ml
from miniweave.aspects import (
    AdviceDecl,
    AspectDecl,
    PcAnd,
    PcArgs,
    PcBinding,
    PcCflow,
    PcNot,
    PcOr,
    parse_aspect_file,
)
from miniweave.diagnostics import CompileError, Loc, MiniRuntimeError, ParseError
from miniweave.dsal_cool import CoordinatorDecl
from miniweave.interp import _NO_RETURN, BLOCKED, RUNNABLE, WAITING, DeadlockReport, Interp, _Env
from miniweave.joinpoints import Shadow
from miniweave.matching import (
    TRUE,
    MatchTable,
    advice_sort_key,
    cflow_active,
    eval_residue,
    match,
    precedence_ranks,
)
from miniweave.values import (
    MObject,
    Monitor,
    class_name_of,
    format_message,
    render_value,
    shown_value,
    value_eq,
)

# ---------------------------------------------------------------------------
# COOL entry guard
# ---------------------------------------------------------------------------

# the guard's binary operators other than `&&` and `||`, with Python semantics
_GUARD_OPS = {
    "==": operator.eq, "!=": operator.ne, "+": operator.add, "-": operator.sub,
    "*": operator.mul, "/": operator.floordiv, "%": operator.mod,
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


def can_enter(
    coord: CoordinatorDecl,
    method: str,
    busy: dict[str, int],
    conds: dict[str, object],
    fields: dict[str, object],
    target_fields: dict[str, object] | None = None,
) -> bool:
    """Entry guard: selfex => own busy count is zero; for each mutex set the
    method belongs to, every other member's busy count is zero; and the
    requires expression (if any) holds under the current state."""
    for group, _ in coord.selfex:
        if method in group and busy.get(method, 0) != 0:
            return False
    for group, _ in coord.mutex:
        if method in group:
            for other in group:
                if other != method and busy.get(other, 0) != 0:
                    return False
    add = coord.additions.get(method)
    if add is not None and add.requires is not None:
        env = dict(conds)
        env.update(fields)
        value = _eval_guard(add.requires, env, target_fields or {})
        if not isinstance(value, bool):
            raise CompileError("requires expression must be boolean", add.loc)
        return value
    return True


def _eval_guard(e, env: dict, target_fields: dict):
    if isinstance(e, ml.Binary):
        # down the left spine to the leftmost operand, then each operator on
        # the way back up; `&&` and `||` short-circuit per node
        spine = []
        while type(e) is ml.Binary:
            spine.append(e)
            e = e.left
        value = _eval_guard(e, env, target_fields)
        for node in reversed(spine):
            op = node.op
            if op == "&&" or op == "||":
                # `&&` goes on past true, `||` past false; otherwise the value stands
                value = bool(value)
                if value is (op == "&&"):
                    value = bool(_eval_guard(node.right, env, target_fields))
            else:
                value = _GUARD_OPS[op](value, _eval_guard(node.right, env, target_fields))
        return value
    if isinstance(e, (ml.IntLit, ml.BoolLit, ml.StrLit)):
        return e.value
    if isinstance(e, ml.NullLit):
        return None
    if isinstance(e, ml.LocalRef):
        if e.name in env:
            return env[e.name]
        if e.name in target_fields:
            return target_fields[e.name]
        raise CompileError(f"unknown name {e.name!r}", e.loc)
    if isinstance(e, ml.Unary):
        v = _eval_guard(e.operand, env, target_fields)
        return (not v) if e.op == "!" else -v
    if isinstance(e, ml.BuiltinCall) and e.name == "len":
        return len(_eval_guard(e.args[0], env, target_fields))
    raise CompileError("expression not supported in guard evaluation", e.loc)


# ---------------------------------------------------------------------------
# Advice precedence
# ---------------------------------------------------------------------------


def sort_key(advice: AdviceDecl, precedence: list[str]):
    """`advice_sort_key` under a precedence declaration list."""
    return advice_sort_key(advice, precedence_ranks(precedence))


def compare_advice(a: AdviceDecl, b: AdviceDecl, precedence: list[str]) -> int:
    """-1 when a precedes b, +1 when it follows. Total and antisymmetric."""
    ka = sort_key(a, precedence)
    kb = sort_key(b, precedence)
    if ka == kb:
        return 0  # only for a == b: (aspect, index) is unique
    return -1 if ka < kb else 1


# ---------------------------------------------------------------------------
# Match-table and deadlock views
# ---------------------------------------------------------------------------


def shadow_key(shadow: Shadow):
    """Identity that is stable across compilations of differing unit sets."""
    loc = shadow.loc
    return (shadow.kind.value, shadow.signature, loc.path, loc.line, loc.col)


def restricted_keys(table: MatchTable, aspect_names: set[str]) -> set:
    """(aspect, advice index, shadow key, residue) for each entry of the
    named aspects' advice."""
    return {
        (
            entry.advice.aspect_name,
            entry.advice.index,
            shadow_key(shadow),
            str(entry.residue),
        )
        for shadow, entry in table.pairs()
        if entry.advice.aspect_name in aspect_names
    }


def thread_ids(report: DeadlockReport) -> set[int]:
    return {s.tid for s in report.stuck}


def edges(report: DeadlockReport) -> list[tuple[int, int]]:
    """(waiter, holder) for each stuck thread whose monitor has a holder."""
    return [(s.tid, s.holder) for s in report.stuck if s.holder is not None]


# ---------------------------------------------------------------------------
# Scheduling by scan
# ---------------------------------------------------------------------------


def eligible(t) -> bool:
    """A thread can run: RUNNABLE, or BLOCKED on a monitor no one holds."""
    if t.status == RUNNABLE:
        return True
    if t.status == BLOCKED:
        return t.monitor is not None and t.monitor.holder is None
    return False


class ScanInterp(Interp):
    """The interpreter with the full-rotation scan for a scheduler: each
    pick tests every thread from the cursor on, finished ones included, and
    reads only thread and monitor state, never the `ready` mask. Each pick
    also checks that the mask holds exactly the threads the scan finds
    eligible."""

    def pick_next(self) -> int | None:
        n = len(self.rotation)
        ok = [eligible(self.threads[tid]) for tid in self.rotation]
        mask = sum(1 << i for i, e in enumerate(ok) if e)
        assert mask == self.ready, f"step {self.steps}: ready {self.ready:b}, scan {mask:b}"
        for off in range(n):
            idx = (self.rot_pos + off) % n
            if ok[idx]:
                self.rot_pos = (idx + 1) % n
                return idx
        return None


# ---------------------------------------------------------------------------
# Cflow by frame walk
# ---------------------------------------------------------------------------


def walk_eval_residue(residue, this_obj, target_obj, args, frames, state) -> bool:
    """`matching.eval_residue` with `cflow(P)` decided by walking `frames`,
    a (shadow, (this_obj, target_obj, args)) for every join point entered on
    the thread, outermost first: it holds when `match(P, shadow)` leaves a
    residue that holds on that frame's bindings. At each cflow test it
    asserts that the counters of `state` give the same answer."""
    if residue is TRUE:
        return True
    cls = type(residue)
    if cls is PcBinding:
        obj = this_obj if residue.binding == "this" else target_obj
        return class_name_of(obj) == residue.type_name
    if cls is PcArgs:
        if residue.position >= len(args):
            return False
        return residue.is_wildcard or value_eq(args[residue.position], residue.value)
    if cls is PcCflow:
        walked = False
        for shadow, (this, target, jp_args) in frames:
            found = match(residue.inner, shadow)
            if found is not None and walk_eval_residue(
                found, this, target, jp_args, frames, state
            ):
                walked = True
                break
        counted = cflow_active(state, residue)
        assert counted == walked, f"{residue}: counters say {counted}, the frame walk {walked}"
        return walked
    if cls is PcNot:
        return not walk_eval_residue(residue.inner, this_obj, target_obj, args, frames, state)
    parts = [walk_eval_residue(p, this_obj, target_obj, args, frames, state) for p in residue.parts]
    if cls is PcAnd:
        return all(parts)
    if cls is PcOr:
        return any(parts)
    raise TypeError(f"not a residue node: {residue!r}")


class WalkInterp(Interp):
    """The interpreter with a full cflow stack beside its scope counters:
    each visible join point pushes its shadow and its (this_obj, target_obj,
    args) on its thread's `walks` stack when it is entered and pops them when
    it is left. Each residue test is made both ways, by `eval_residue` over
    the counters and by `walk_eval_residue` over the stack, which also checks
    every cflow test on its way; the two must agree. `cflow_tests` counts
    those tests and `cflow_held` the ones that held. An advice whose residue
    holds runs through `Interp._advise`."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.walks: dict[int, list[tuple[Shadow, tuple]]] = {}
        self.cflow_tests = 0
        self.cflow_held = 0

    def _jp_enter(self, site, this_obj, target_obj, args):
        frame = (this_obj, target_obj, tuple(args))
        self.walks.setdefault(self.current.tid, []).append((site[0], frame))
        return super()._jp_enter(site, this_obj, target_obj, args)

    def _jp_exit(self, site) -> None:
        super()._jp_exit(site)
        assert self.walks[self.current.tid].pop()[0] is site[0]

    def _advise(self, entries, site, this_obj, target_obj, args):
        state = self.current.cflow
        frames = self.walks[self.current.tid]
        for entry in entries:
            residue = entry.residue
            walked = walk_eval_residue(residue, this_obj, target_obj, args, frames, state)
            assert eval_residue(residue, this_obj, target_obj, args, state) == walked, residue
            if "cflow" in str(residue):
                self.cflow_tests += 1
                self.cflow_held += walked
            if walked:
                yield from super()._advise((entry,), site, this_obj, target_obj, args)


# ---------------------------------------------------------------------------
# Checked-path interpretation
# ---------------------------------------------------------------------------

_TREE_LITERALS = (ml.IntLit, ml.BoolLit, ml.StrLit)

# binary operators on two ints; `/` and `%` also check for a zero divisor
_TREE_INT_OPS = {
    "-": operator.sub, "*": operator.mul, "/": operator.floordiv, "%": operator.mod,
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


def _tree_method_of(recv, name: str, args, loc: Loc) -> ml.MethodDecl:
    """The method or aspect helper a call of `name` on `recv` with `args`
    runs, found by a scan of its class's methods."""
    if recv is None:
        raise MiniRuntimeError(f"null dereference calling {name!r}", loc)
    decl = None
    if isinstance(recv, MObject):
        decl = next((m for m in recv.cls.methods if m.name == name), None)
    if decl is None:
        raise MiniRuntimeError(
            f"unknown method {name!r} on {class_name_of(recv) or shown_value(recv)}", loc
        )
    if len(decl.params) != len(args):
        raise MiniRuntimeError(
            f"{class_name_of(recv)}.{name} expects {len(decl.params)} argument(s), "
            f"got {len(args)}",
            loc,
        )
    return decl


class TreeInterp(Interp):
    """The interpreter with every operand evaluated by its own `eval_expr`
    generator, every operator, condition and field access through the
    checked helpers (`apply_operator`, `as_bool`, `field_read`,
    `field_write`), every scheduling point through `pick_next`, and a
    method found by a scan of its class's methods. A run must match
    `Interp`'s in status, steps, trace and error text."""

    def _switch(self) -> bool:
        idx = self.pick_next()
        if idx == self.cur_idx and self.steps < self.step_limit:
            self.steps += 1
            return False
        self.picked = idx
        return True

    def _spawned(self, recv, name: str, args, loc: Loc):
        yield from self.run_decl(recv, _tree_method_of(recv, name, args, loc), args, loc)

    def exec_block(self, stmts, env: _Env):
        """Run `stmts`: the value of the `return` that ended them, else _NO_RETURN."""
        for stmt in stmts:
            if self._switch():
                yield None
            kind = type(stmt)
            if kind is ml.ExprStmt:
                yield from self.eval_expr(stmt.expr, env)
            elif kind is ml.Assign:
                target = stmt.target
                if type(target) is ml.LocalRef:
                    env.locals[target.name] = yield from self.eval_expr(stmt.value, env)
                elif type(target) is ml.Index:
                    seq = yield from self.eval_expr(target.obj, env)
                    idx = yield from self.eval_expr(target.index, env)
                    value = yield from self.eval_expr(stmt.value, env)
                    self.index_check(seq, idx, target.loc)
                    seq[idx] = value
                else:  # field set join point
                    obj = yield from self.eval_expr(target.obj, env)
                    value = yield from self.eval_expr(stmt.value, env)
                    site = self.unit.sites.get(id(stmt))
                    if site is not None:
                        if self._switch():
                            yield None
                        before, after = self._jp_enter(site, env.this, obj, (value,))
                        if before:
                            yield from self._advise(before, site, env.this, obj, (value,))
                    self.field_write(obj, target.name, value, target.loc)
                    if site is not None:
                        if after:
                            yield from self._advise(after, site, env.this, obj, (value,))
                        self._jp_exit(site)
            elif kind is ml.VarDecl:
                init = stmt.init
                value = None if init is None else (yield from self.eval_expr(init, env))
                env.locals[stmt.name] = value
            elif kind is ml.If:
                later = False
                for test, body in stmt.arms:
                    # the step of the nested `if` an `else if` abbreviates
                    if later and self._switch():
                        yield None
                    cond = yield from self.eval_expr(test, env)
                    if self.as_bool(cond, test.loc if later else stmt.loc):
                        result = yield from self.exec_block(body, env)
                        break
                    later = True
                else:
                    result = yield from self.exec_block(stmt.orelse, env)
                if result is not _NO_RETURN:
                    return result
            elif kind is ml.While:
                while True:
                    if self._switch():
                        yield None
                    cond = yield from self.eval_expr(stmt.cond, env)
                    if not self.as_bool(cond, stmt.loc):
                        break
                    result = yield from self.exec_block(stmt.body, env)
                    if result is not _NO_RETURN:
                        return result
            elif kind is ml.Return:
                value = stmt.value
                return None if value is None else (yield from self.eval_expr(value, env))
            else:
                raise MiniRuntimeError(f"cannot execute {kind.__name__}", stmt.loc)
        return _NO_RETURN

    def eval_expr(self, expr, env: _Env):
        kind = type(expr)
        if kind in _TREE_LITERALS:
            return expr.value
        if kind is ml.LocalRef:
            return env.locals[expr.name]
        if kind is ml.ThisRef:
            return env.this
        if kind is ml.NullLit:
            return None
        if kind is ml.Binary:
            # down the left spine to the leftmost operand, then each operator
            # on the way back up; `&&` and `||` short-circuit per node
            spine = []
            while kind is ml.Binary:
                spine.append(expr)
                expr = expr.left
                kind = type(expr)
            value = yield from self.eval_expr(expr, env)
            for node in reversed(spine):
                op = node.op
                if op == "&&" or op == "||":
                    # `&&` goes on past true, `||` past false; otherwise the value stands
                    if self.as_bool(value, node.loc) is (op == "&&"):
                        right = yield from self.eval_expr(node.right, env)
                        value = self.as_bool(right, node.loc)
                else:
                    right = yield from self.eval_expr(node.right, env)
                    value = self.apply_operator(op, value, right, node.loc)
            return value
        if kind is ml.FieldGet:
            obj = yield from self.eval_expr(expr.obj, env)
            site = self.unit.sites.get(id(expr))
            if site is not None:
                if self._switch():
                    yield None
                before, after = self._jp_enter(site, env.this, obj, ())
                if before:
                    yield from self._advise(before, site, env.this, obj, ())
            result = self.field_read(obj, expr.name, expr.loc)
            if site is not None:
                if after:
                    yield from self._advise(after, site, env.this, obj, ())
                self._jp_exit(site)
            return result
        if kind is ml.MethodCall:
            recv = yield from self.eval_expr(expr.obj, env)
            args = []
            for a in expr.args:
                args.append((yield from self.eval_expr(a, env)))
            site = self.unit.sites.get(id(expr))
            if site is not None:
                if self._switch():
                    yield None
                before, after = self._jp_enter(site, env.this, recv, args)
                if before:
                    yield from self._advise(before, site, env.this, recv, args)
            decl = _tree_method_of(recv, expr.name, args, expr.loc)
            result = yield from self.run_decl(recv, decl, args, expr.loc)
            if site is not None:
                if after:
                    yield from self._advise(after, site, env.this, recv, args)
                self._jp_exit(site)
            return result
        if kind is ml.BuiltinCall:
            args = []
            for a in expr.args:
                args.append((yield from self.eval_expr(a, env)))
            return (yield from self.eval_builtin(expr, args, env))
        if kind is ml.Index:
            seq = yield from self.eval_expr(expr.obj, env)
            idx = yield from self.eval_expr(expr.index, env)
            self.index_check(seq, idx, expr.loc)
            return seq[idx]
        if kind is ml.ListLit:
            items = []
            for item in expr.items:
                items.append((yield from self.eval_expr(item, env)))
            return items
        if kind is ml.New:
            cls = self.classes[expr.class_name]
            args = []
            for a in expr.args:
                args.append((yield from self.eval_expr(a, env)))
            return (yield from self.instantiate(cls, args, expr.loc))
        if kind is ml.Spawn:
            call = expr.call
            recv = yield from self.eval_expr(call.obj, env)
            args = []
            for a in call.args:
                args.append((yield from self.eval_expr(a, env)))
            if not isinstance(recv, MObject):
                raise MiniRuntimeError("spawn needs an object receiver", expr.loc)
            tid = self.add_thread(self._spawned(recv, call.name, args, call.loc))
            self.emit("spawn", f"t{tid}")
            return tid
        if kind is ml.Unary:
            value = yield from self.eval_expr(expr.operand, env)
            if expr.op == "!":
                return not self.as_bool(value, expr.loc)
            return -self.as_int(value, expr.loc)
        raise MiniRuntimeError(f"cannot evaluate {kind.__name__}", expr.loc)

    def apply_operator(self, op: str, left, right, loc: Loc):
        """A binary operator other than `&&`/`||` on evaluated operands."""
        if op == "==":
            return value_eq(left, right)
        if op == "!=":
            return not value_eq(left, right)
        if op == "+":
            if isinstance(left, str) and isinstance(right, str):
                return left + right
            return self.as_int(left, loc) + self.as_int(right, loc)
        a = self.as_int(left, loc)
        b = self.as_int(right, loc)
        fn = _TREE_INT_OPS.get(op)
        if fn is None:
            raise MiniRuntimeError(f"unknown operator {op!r}", loc)
        if b == 0 and (op == "/" or op == "%"):
            raise MiniRuntimeError("division by zero", loc)
        return fn(a, b)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def parse_aspect(text: str, path: str) -> AspectDecl:
    """Parse a source expected to contain exactly one aspect declaration."""
    out = parse_aspect_file(text, path)
    if len(out.aspects) != 1:
        raise ParseError(f"expected exactly one aspect, found {len(out.aspects)}", Loc(path, 1))
    return out.aspects[0]
