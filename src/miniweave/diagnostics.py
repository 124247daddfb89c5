"""Source positions, error types and the source reader shared by every
front-end and the runtime."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(slots=True, unsafe_hash=True)
class Loc:
    """A source position. `col` is 1-based; 0 means column unknown.

    Built for every token and AST node, so it is slotted and not frozen (a
    frozen dataclass pays one `object.__setattr__` per field). It is equal
    only to another `Loc` with the same fields, hashed as the tuple of its
    fields, and printed as `path:line`. Nothing assigns to a `Loc` once built.
    """

    path: str
    line: int
    col: int = 0

    def __str__(self) -> str:
        return f"{self.path}:{self.line}"


class LocatedError(Exception):
    """An error message with the source position it is reported at, if any;
    `str` gives `path:line: msg`, or `msg` alone."""

    def __init__(self, msg: str, loc: Loc | None = None):
        self.msg = msg
        self.loc = loc
        super().__init__(f"{loc}: {msg}" if loc is not None else msg)


class CompileError(LocatedError):
    """Any error raised between reading sources and producing a woven unit."""


class ParseError(CompileError):
    """Syntax or annotation-placement error with a line/column position."""


class MiniRuntimeError(LocatedError):
    """Raised by the interpreter; aborts the run with a runtime-error status."""


def read_source(path: str) -> str:
    """The text of a UTF-8 input file, with newlines as `open` gives them.

    A missing or unreadable file, or bytes that are not UTF-8, raise a
    CompileError; the latter is located at the line of the first bad byte.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        raise CompileError(f"{path}: file not found") from None
    except OSError as e:
        raise CompileError(f"cannot read {path}: {e.strerror or e}") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        before = data[: e.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        raise CompileError("not valid UTF-8", Loc(path, before.count(b"\n") + 1)) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")
