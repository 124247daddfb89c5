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
    """A heap object: its class declaration plus a field store."""

    __slots__ = ("cls", "fields", "num")

    def __init__(self, cls, num: int):
        self.cls = cls
        self.fields = {f.name: None for f in cls.fields}
        self.num = num  # creation index, for deterministic rendering

    @property
    def class_name(self) -> str:
        return self.cls.name

    def __repr__(self) -> str:
        return f"<{self.cls.name}@{self.num}>"


class AspectInstance:
    """The singleton instance backing one aspect declaration."""

    __slots__ = ("decl", "fields")

    def __init__(self, decl):
        self.decl = decl
        self.fields = {f.name: None for f in decl.fields}

    @property
    def class_name(self) -> str:
        return self.decl.name

    def __repr__(self) -> str:
        return f"<aspect {self.decl.name}>"


class Monitor:
    """Non-reentrant monitor: re-acquisition by the holder blocks forever."""

    __slots__ = ("num", "holder", "created_at")

    def __init__(self, num: int, created_at: Loc | None = None):
        self.num = num
        self.holder: int | None = None
        self.created_at = created_at

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
    if isinstance(value, (MObject, AspectInstance)):
        return value.class_name
    return None


def value_eq(a, b) -> bool:
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    if isinstance(a, str) and isinstance(b, str):
        return a == b
    if a is None or b is None:
        return a is b
    return a is b  # lists, objects, monitors: identity


def render_value(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return value
    if isinstance(value, list):
        return "[" + ", ".join(render_value(v) for v in value) + "]"
    if isinstance(value, JpInfo):
        return value.signature
    return repr(value)


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
