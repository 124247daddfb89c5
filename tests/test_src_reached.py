"""Every name that `src/miniweave/` defines is reached by the toolchain.

A function, class or method (dunders exempt) must be named outside its own
definition by code in `src/miniweave/` (re-exports in `__init__.py` do not
count), `scripts/` or `perfbench/`. Code that only tests call belongs in
`tests/`, as an oracle next to the tests that use it.

A name counts as used where it appears as an identifier, an attribute, an
imported name, or a segment of a string that is not a docstring:
`perfbench/tracer.py` wraps functions by their dotted names.
"""

from __future__ import annotations

import ast
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "miniweave")
READERS = [SRC, os.path.join(ROOT, "scripts"), os.path.join(ROOT, "perfbench")]

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _py_files(directory: str) -> list[str]:
    return sorted(
        os.path.join(directory, name) for name in os.listdir(directory) if name.endswith(".py")
    )


def _docstrings(tree: ast.AST) -> set[int]:
    """id() of each docstring constant in the tree."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                out.add(id(body[0].value))
    return out


def _uses(tree: ast.AST):
    """(name, line) for each use of a name in the tree."""
    docs = _docstrings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docs
        ):
            for word in _IDENT.findall(node.value):
                yield word, node.lineno


def _definitions(tree: ast.AST):
    """(name, first line, last line) of each function, class and method."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = node.name
            if not (name.startswith("__") and name.endswith("__")):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                yield name, first, node.end_lineno


def unreached_names() -> list[str]:
    uses: dict[str, list[tuple[str, int]]] = {}
    for directory in READERS:
        for path in _py_files(directory):
            if path == os.path.join(SRC, "__init__.py"):
                continue
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), path)
            for name, line in _uses(tree):
                uses.setdefault(name, []).append((path, line))
    out = []
    for path in _py_files(SRC):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for name, first, last in _definitions(tree):
            outside = [
                (p, line)
                for p, line in uses.get(name, ())
                if not (p == path and first <= line <= last)
            ]
            if not outside:
                out.append(f"{os.path.basename(path)}:{first}: {name}")
    return out


def test_every_src_name_is_reached_outside_tests():
    assert unreached_names() == []
