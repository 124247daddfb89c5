"""Render MiniLang AST fragments back to source text.

Used by the DSAL transformers to splice rewritten coordinator expressions
and blocks into generated aspect code. A binary operand is parenthesized
only where `minilang._BINARY_PREC` needs it, and an `else if` chain is
rendered flat, so an operator chain or an `else if` chain adds no nesting
for the parser's `MAX_NESTING` to count. The operand of a prefix operator
and the receiver of a member access are parenthesized whenever they are
compound.
"""

from __future__ import annotations

from . import minilang as ml


def escape_string(s: str) -> str:
    """Escape `s` for a MiniLang string literal."""
    return s.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n").replace("\t", "\\t")


def render_expr(e) -> str:
    if isinstance(e, ml.IntLit):
        return str(e.value)
    if isinstance(e, ml.BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, ml.StrLit):
        return f'"{escape_string(e.value)}"'
    if isinstance(e, ml.NullLit):
        return "null"
    if isinstance(e, ml.ListLit):
        return "[" + ", ".join(render_expr(x) for x in e.items) + "]"
    if isinstance(e, ml.ThisRef):
        return "this"
    if isinstance(e, ml.LocalRef):
        return e.name
    if isinstance(e, ml.FieldGet):
        return f"{_postfix(e.obj)}.{e.name}"
    if isinstance(e, ml.Index):
        return f"{_postfix(e.obj)}[{render_expr(e.index)}]"
    if isinstance(e, ml.MethodCall):
        args = ", ".join(render_expr(a) for a in e.args)
        return f"{_postfix(e.obj)}.{e.name}({args})"
    if isinstance(e, ml.BuiltinCall):
        args = ", ".join(render_expr(a) for a in e.args)
        return f"{e.name}({args})"
    if isinstance(e, ml.New):
        args = ", ".join(render_expr(a) for a in e.args)
        return f"new {e.class_name}({args})"
    if isinstance(e, ml.Spawn):
        return f"spawn {render_expr(e.call)}"
    if isinstance(e, ml.Unary):
        return f"{e.op}{_wrap(e.operand)}"
    if isinstance(e, ml.Binary):
        prec = ml._BINARY_PREC[e.op]
        # every binary operator is left-associative: the right operand needs
        # parentheses at the operator's own level too
        return f"{_operand(e.left, prec)} {e.op} {_operand(e.right, prec + 1)}"
    raise TypeError(f"cannot render {type(e).__name__}")


def _operand(e, min_prec: int) -> str:
    text = render_expr(e)
    if isinstance(e, ml.Binary) and ml._BINARY_PREC[e.op] < min_prec:
        return f"({text})"
    return text


def _wrap(e) -> str:
    text = render_expr(e)
    if isinstance(e, (ml.Binary, ml.Unary)):
        return f"({text})"
    return text


def _postfix(e) -> str:
    text = render_expr(e)
    if isinstance(e, (ml.Binary, ml.Unary, ml.Spawn)):
        return f"({text})"
    return text


def render_stmt(s, indent: str = "") -> list[str]:
    if isinstance(s, ml.VarDecl):
        if s.init is None:
            return [f"{indent}var {s.name};"]
        return [f"{indent}var {s.name} = {render_expr(s.init)};"]
    if isinstance(s, ml.Assign):
        return [f"{indent}{render_expr(s.target)} = {render_expr(s.value)};"]
    if isinstance(s, ml.If):
        lines = []
        for i, (cond, body) in enumerate(s.arms):
            head = "} else if" if i else "if"
            lines.append(f"{indent}{head} ({render_expr(cond)}) {{")
            lines += render_block(body, indent + "  ")
        if s.orelse:
            lines.append(f"{indent}}} else {{")
            lines += render_block(s.orelse, indent + "  ")
        lines.append(f"{indent}}}")
        return lines
    if isinstance(s, ml.While):
        lines = [f"{indent}while ({render_expr(s.cond)}) {{"]
        lines += render_block(s.body, indent + "  ")
        lines.append(f"{indent}}}")
        return lines
    if isinstance(s, ml.Return):
        if s.value is None:
            return [f"{indent}return;"]
        return [f"{indent}return {render_expr(s.value)};"]
    if isinstance(s, ml.ExprStmt):
        return [f"{indent}{render_expr(s.expr)};"]
    raise TypeError(f"cannot render {type(s).__name__}")


def render_block(stmts, indent: str = "") -> list[str]:
    lines: list[str] = []
    for s in stmts:
        lines.extend(render_stmt(s, indent))
    return lines
