"""Runtime value model shared by the interpreter and the residue evaluator.

Values are int, bool, string, null (Python None), mutable lists, object
references, monitors, and the reflective join-point info handed to advice.
Equality is by value for scalars and by identity for lists, objects, and
monitors.
"""

from __future__ import annotations

import re
import sys

from .diagnostics import Loc, MiniRuntimeError


class MObject:
    """A heap object: its class declaration plus a field store. An aspect's
    singleton is one whose class is the aspect declaration, with no number."""

    __slots__ = ("cls", "fields", "num")

    def __init__(self, cls, num: int | None):
        self.cls = cls
        self.fields = {f.name: None for f in cls.fields}
        self.num = num  # creation index, for deterministic rendering; None for an aspect

    def __repr__(self) -> str:
        if self.num is None:
            return f"<aspect {self.cls.name}>"
        return f"<{self.cls.name}@{self.num}>"


class Monitor:
    """Non-reentrant monitor: re-acquisition by the holder blocks forever.
    The interpreter keeps the threads parked on it in `blocked` (waiting to
    acquire it) and `waiting` (in `monitor_wait`, until a notify), and in
    `bits` the rotation bits of `blocked`, valid while the rotation holds
    `bits_at` threads."""

    __slots__ = ("num", "holder", "created_at", "blocked", "waiting", "bits", "bits_at")

    def __init__(self, num: int, created_at: Loc | None = None):
        self.num = num
        self.holder: int | None = None
        self.created_at = created_at
        self.blocked: list = []
        self.waiting: list = []
        self.bits = 0
        self.bits_at = 0

    def __repr__(self) -> str:
        return f"<monitor:{self.num}>"


class JpInfo:
    """Reflective view of the current join point, bound to `jp` in advice.

    `signature` and `loc` come from the static shadow; `cls`/`member`/`arity`
    describe the runtime target (for calls, the actual receiver's class even
    when the shadow could not resolve it statically). Advice can read the
    fields but has no way to write them.
    """

    __slots__ = FIELDS = ("kind", "signature", "loc", "cls", "member", "arity")

    def __init__(self, kind: str, signature: str, loc: str, cls: str, member: str, arity: int):
        self.kind = kind
        self.signature = signature
        self.loc = loc
        self.cls = cls
        self.member = member
        self.arity = arity


def class_name_of(value) -> str | None:
    if isinstance(value, MObject):
        return value.cls.name
    return None


def value_eq(a, b) -> bool:
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    if isinstance(a, str) and isinstance(b, str):
        return a == b
    return a is b  # null, lists, objects, monitors: identity


def render_value(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        try:
            return str(value)
        except ValueError:  # more digits than Python converts
            raise MiniRuntimeError("value too large") from None
    if isinstance(value, str):
        return value
    if isinstance(value, list):
        if list in map(type, value):
            return _render_nested(value)
        return "[" + ", ".join([render_value(item) for item in value]) + "]"
    if isinstance(value, JpInfo):
        return value.signature
    return repr(value)


def shown_value(value) -> str:
    """`value` as an error message names it: rendered, unless too large."""
    try:
        return render_value(value)
    except MiniRuntimeError:
        return "a value too large to print"


def _render_nested(top: list) -> str:
    """Render a list holding lists from an explicit stack, so its depth
    costs no Python frames. A list met again while it is still open renders
    as `[...]`, as Python's repr does."""
    out = ["["]
    open_ids = {id(top)}
    stack = [(top, enumerate(top))]
    while stack:
        lst, items = stack[-1]
        for i, item in items:
            if i:
                out.append(", ")
            if not isinstance(item, list):
                out.append(render_value(item))
            elif id(item) in open_ids:
                out.append("[...]")
            else:
                open_ids.add(id(item))
                out.append("[")
                stack.append((item, enumerate(item)))
                break
        else:
            out.append("]")
            open_ids.discard(id(lst))
            stack.pop()
    return "".join(out)


_PLACEHOLDER = re.compile(r"\{(\d+)\}")


def placeholder_index(digits: str) -> int:
    """The index of a `{digits}` placeholder; one with more digits than
    Python converts is past any number of values."""
    try:
        return int(digits)
    except ValueError:
        return sys.maxsize


def format_message(template: str, values) -> str:
    """Replace `{k}` placeholders with rendered values. Out-of-range -> error."""

    def sub(m: re.Match) -> str:
        k = placeholder_index(m.group(1))
        if k >= len(values):
            raise MiniRuntimeError(f"format placeholder {m.group(0)} out of range")
        return render_value(values[k])

    return _PLACEHOLDER.sub(sub, template)
