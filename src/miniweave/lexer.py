"""Tokenizer shared by the MiniLang, MiniAspect, COOL, and audit front-ends.

Lexical rules, common to every front-end:

* a name starts with a letter (`str.isalpha`) or `_` and continues with
  letters, digits or `_`;
* an integer literal is ASCII digits `0-9`, at most as many as Python
  converts to an int; digits `.` digits is a float literal (only
  annotation arguments accept one);
* a string literal is `"..."` on one line, with the escapes `\\n \\t \\" \\\\`;
* `//` starts a comment that runs to the end of the line;
* spaces, tabs and `\\r` separate tokens; any other character that cannot
  start a token is an error at its `file:line`.

No token spans a newline, so `tokenize` runs one compiled pattern over each
line and reads a token's column straight from the match.
"""

from __future__ import annotations

import re

from .diagnostics import Loc, ParseError

NAME = "name"
INT = "int"
FLOAT = "float"
STRING = "string"
PUNCT = "punct"
EOF = "eof"

_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}

# The inside of a string literal: no bare quote or backslash, only valid escapes.
_STRING_BODY = r'[^"\\]*(?:\\[nt"\\][^"\\]*)*'

# Each match skips leading blanks, then takes one token, a comment, or the
# end of the line (the ungrouped alternative, so trailing blanks match too).
# The last group takes any other single character, so every position of a
# line is covered and a character that starts no token is never skipped.
_TOKEN_RE = re.compile(
    r"""[ \t\r]*(?:
      ([A-Za-z_]\w*)                                          # 1 name
    | (&&|\|\||[=!<>]=|/(?!/)|[{}()\[\];,.=<>+\-*%!@:&|])     # 2 punct
    | (?://.*)?$                                              # comment, end
    | ([0-9]+[.][0-9]+)                                       # 3 float
    | ([0-9]+)                                                # 4 int
    | "("""
    + _STRING_BODY
    + r""")"                                                  # 5 string
    | (\w+)                                                   # 6 other word
    | (.)                                                     # 7 anything else
    )""",
    re.VERBOSE,
)
_G_NAME, _G_PUNCT, _G_FLOAT, _G_INT, _G_STRING, _G_WORD = range(1, 7)
_STRING_PREFIX = re.compile('"' + _STRING_BODY)
_ESCAPE = re.compile(r"\\(.)")


class Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col

    def loc(self, path: str) -> Loc:
        return Loc(path, self.line, self.col)


def _unescape(m: re.Match) -> str:
    return _ESCAPES[m.group(1)]


def _bad_char(text: str, start: int, path: str, line: int) -> ParseError:
    """The error for a character at `text[start]` that starts no token."""
    ch = text[start]
    if ch == '"':
        end = _STRING_PREFIX.match(text, start).end()
        msg = "bad string escape" if end < len(text) else "unterminated string literal"
    else:
        msg = f"unexpected character {ch!r}"
    return ParseError(msg, Loc(path, line, start + 1))


def tokenize(src: str, path: str) -> list[Token]:
    """The tokens of `src`, ending with EOF; a ParseError at the first bad one."""
    tokens: list[Token] = []
    append = tokens.append
    finditer = _TOKEN_RE.finditer
    lines = src.split("\n")
    for line, text in enumerate(lines, 1):
        for m in finditer(text):
            g = m.lastindex
            if g is None:
                continue
            if g == _G_NAME:
                append(Token(NAME, m[g], line, m.start(g) + 1))
            elif g == _G_PUNCT:
                append(Token(PUNCT, m[g], line, m.start(g) + 1))
            elif g == _G_INT:
                append(Token(INT, m[g], line, m.start(g) + 1))
            elif g == _G_STRING:
                value = m[g]
                if "\\" in value:
                    value = _ESCAPE.sub(_unescape, value)
                # the group starts after the opening quote
                append(Token(STRING, value, line, m.start(g)))
            elif g == _G_FLOAT:
                append(Token(FLOAT, m[g], line, m.start(g) + 1))
            # a word led by a non-ASCII letter is a name; one led by any
            # other word character (a non-ASCII digit, say) is an error
            elif g == _G_WORD and m[g][0].isalpha():
                append(Token(NAME, m[g], line, m.start(g) + 1))
            else:
                raise _bad_char(text, m.start(g), path, line)
    append(Token(EOF, "", len(lines), len(lines[-1]) + 1))
    return tokens


class TokenStream:
    """Cursor over a token list with the usual expect/accept helpers.

    `cur` is the token at `pos`; only `advance` moves it, and never past EOF.
    """

    def __init__(self, tokens: list[Token], path: str):
        self.tokens = tokens
        self.path = path
        self.pos = 0
        self.cur = tokens[0]

    def loc(self) -> Loc:
        return self.cur.loc(self.path)

    def at(self, kind: str, text: str | None = None) -> bool:
        tok = self.cur
        return tok.kind == kind and (text is None or tok.text == text)

    def at_punct(self, text: str) -> bool:
        tok = self.cur
        return tok.text == text and tok.kind == PUNCT

    def at_name(self, text: str | None = None) -> bool:
        tok = self.cur
        return tok.kind == NAME and (text is None or tok.text == text)

    def advance(self) -> Token:
        tok = self.cur
        if tok.kind != EOF:
            self.pos += 1
            self.cur = self.tokens[self.pos]
        return tok

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        tok = self.cur
        if tok.kind == kind and (text is None or tok.text == text):
            return self.advance()
        return None

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.cur
        if tok.kind == kind and (text is None or tok.text == text):
            return self.advance()
        want = text if text is not None else kind
        got = tok.text or tok.kind
        raise ParseError(f"expected {want!r}, found {got!r}", self.loc())

    def expect_int(self) -> int:
        """Pass the INT token at the cursor and return its value: the one
        conversion of an integer literal, for every front-end."""
        tok = self.expect(INT)
        try:
            return int(tok.text)
        except ValueError:  # more digits than Python converts
            raise ParseError("integer literal too long", tok.loc(self.path)) from None

    def error(self, msg: str) -> ParseError:
        return ParseError(msg, self.loc())
