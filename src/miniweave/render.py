"""Render MiniLang AST fragments back to source text, renaming as it writes.

Used by the DSAL transformers to splice coordinator expressions and blocks
into generated aspect code. Each `render_*` function takes `rename`, a
function from a bare name (a `LocalRef`) to the text written for it, so a
transformer renames while it renders and never builds a rewritten copy of
the tree; the default writes every name as it stands. A renamed name must
render as a primary or postfix expression (`st[2]`, `t.top`), which no
operator around it needs to parenthesize. `render_literal` is the one
spelling of a literal value; pointcut text and hide-argument error text use
it too.

A binary chain is rendered the way `interp.eval_expr` evaluates one: a loop
down the left spine to the leftmost operand, then each operator on the way
back up, so a left-deep chain costs no Python frames. A binary operand is
parenthesized only where `minilang._BINARY_PREC` needs it, and an `else if`
chain is rendered flat, so neither adds nesting for the parser's
`MAX_NESTING` to count. The operand of a prefix operator and the receiver
of a member access are parenthesized whenever they are compound.
"""

from __future__ import annotations

from . import minilang as ml


def escape_string(s: str) -> str:
    """Escape `s` for a MiniLang string literal."""
    return s.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n").replace("\t", "\\t")


def render_literal(value) -> str:
    """`null`, `true`/`false`, a quoted and escaped string, or a number as `str` writes it."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return f'"{escape_string(value)}"'
    return str(value)


def _as_written(name: str) -> str:
    """The default renaming: every name as it stands."""
    return name


def render_expr(e, rename=_as_written) -> str:
    if isinstance(e, ml.Binary):
        spine = []
        while type(e) is ml.Binary:
            spine.append(e)
            e = e.left
        text = render_expr(e, rename)
        for node in reversed(spine):
            prec = ml._BINARY_PREC[node.op]
            left = node.left
            if type(left) is ml.Binary and ml._BINARY_PREC[left.op] < prec:
                text = f"({text})"
            # every binary operator is left-associative: the right operand
            # needs parentheses at the operator's own level too
            right = node.right
            right_text = render_expr(right, rename)
            if type(right) is ml.Binary and ml._BINARY_PREC[right.op] <= prec:
                right_text = f"({right_text})"
            text = f"{text} {node.op} {right_text}"
        return text
    if isinstance(e, ml.LocalRef):
        return rename(e.name)
    if isinstance(e, (ml.IntLit, ml.BoolLit, ml.StrLit, ml.NullLit)):
        return render_literal(e.value)
    if isinstance(e, ml.ListLit):
        return "[" + ", ".join(render_expr(x, rename) for x in e.items) + "]"
    if isinstance(e, ml.ThisRef):
        return "this"
    if isinstance(e, ml.FieldGet):
        return f"{_postfix(e.obj, rename)}.{e.name}"
    if isinstance(e, ml.Index):
        return f"{_postfix(e.obj, rename)}[{render_expr(e.index, rename)}]"
    if isinstance(e, ml.MethodCall):
        args = ", ".join(render_expr(a, rename) for a in e.args)
        return f"{_postfix(e.obj, rename)}.{e.name}({args})"
    if isinstance(e, ml.BuiltinCall):
        args = ", ".join(render_expr(a, rename) for a in e.args)
        return f"{e.name}({args})"
    if isinstance(e, ml.New):
        args = ", ".join(render_expr(a, rename) for a in e.args)
        return f"new {e.class_name}({args})"
    if isinstance(e, ml.Spawn):
        return f"spawn {render_expr(e.call, rename)}"
    if isinstance(e, ml.Unary):
        text = render_expr(e.operand, rename)
        if isinstance(e.operand, (ml.Binary, ml.Unary)):
            text = f"({text})"
        return f"{e.op}{text}"
    raise TypeError(f"cannot render {type(e).__name__}")


def _postfix(e, rename) -> str:
    text = render_expr(e, rename)
    if isinstance(e, (ml.Binary, ml.Unary, ml.Spawn)):
        return f"({text})"
    return text


def render_stmt(s, indent: str = "", rename=_as_written) -> list[str]:
    if isinstance(s, ml.VarDecl):
        if s.init is None:
            return [f"{indent}var {s.name};"]
        return [f"{indent}var {s.name} = {render_expr(s.init, rename)};"]
    if isinstance(s, ml.Assign):
        return [f"{indent}{render_expr(s.target, rename)} = {render_expr(s.value, rename)};"]
    if isinstance(s, ml.If):
        lines = []
        for i, (cond, body) in enumerate(s.arms):
            head = "} else if" if i else "if"
            lines.append(f"{indent}{head} ({render_expr(cond, rename)}) {{")
            lines += render_block(body, indent + "  ", rename)
        if s.orelse:
            lines.append(f"{indent}}} else {{")
            lines += render_block(s.orelse, indent + "  ", rename)
        lines.append(f"{indent}}}")
        return lines
    if isinstance(s, ml.While):
        lines = [f"{indent}while ({render_expr(s.cond, rename)}) {{"]
        lines += render_block(s.body, indent + "  ", rename)
        lines.append(f"{indent}}}")
        return lines
    if isinstance(s, ml.Return):
        if s.value is None:
            return [f"{indent}return;"]
        return [f"{indent}return {render_expr(s.value, rename)};"]
    if isinstance(s, ml.ExprStmt):
        return [f"{indent}{render_expr(s.expr, rename)};"]
    raise TypeError(f"cannot render {type(s).__name__}")


def render_block(stmts, indent: str = "", rename=_as_written) -> list[str]:
    lines: list[str] = []
    for s in stmts:
        lines.extend(render_stmt(s, indent, rename))
    return lines
