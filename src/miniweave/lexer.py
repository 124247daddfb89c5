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

`tokenize` runs one compiled pattern over the whole text; a newline is one
more alternative of it, which counts the line. It returns a `TokenStream`:
the tokens as four parallel lists (kind, text, line, column) rather than an
object per token, and the parsers' cursor over them, on the first token;
`len` counts the tokens, EOF included. The cursor keeps the current token's
kind and text, and builds a `Loc` only when a node or an error asks for one.
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

# The inside of a string literal: no bare quote, backslash or newline, only
# valid escapes.
_STRING_BODY = r'[^"\\\n]*(?:\\[nt"\\][^"\\\n]*)*'

# Each match skips leading blanks, then takes one token, a newline, a
# comment or the end of the text (the ungrouped alternatives, so trailing
# blanks match too). The last group takes any other single
# character, so every position is covered and a character that starts no
# token is never skipped.
_TOKEN_RE = re.compile(
    r"""[ \t\r]*(?:
      ([A-Za-z_]\w*)                                          # 1 name
    | (&&|\|\||[=!<>]=|/(?!/)|[{}()\[\];,.=<>+\-*%!@:&|])     # 2 punct
    | (\n)                                                    # 3 newline
    | //[^\n]* | \Z                                           # comment, end
    | ([0-9]+[.][0-9]+)                                       # 4 float
    | ([0-9]+)                                                # 5 int
    | "("""
    + _STRING_BODY
    + r""")"                                                  # 6 string
    | (\w+)                                                   # 7 other word
    | (.)                                                     # 8 anything else
    )""",
    re.VERBOSE,
)
_G_NEWLINE, _G_STRING, _G_WORD = 3, 6, 7
# the kind of each token group; a word is a name once its first letter checks
_KINDS = (None, NAME, PUNCT, None, FLOAT, INT, STRING, NAME, None)
_STRING_PREFIX = re.compile('"' + _STRING_BODY)
_ESCAPE = re.compile(r"\\(.)")


def _unescape(m: re.Match) -> str:
    return _ESCAPES[m.group(1)]


def _bad_char(src: str, start: int, loc: Loc) -> ParseError:
    """The error for a character at `src[start]` that starts no token."""
    ch = src[start]
    if ch == '"':
        end = _STRING_PREFIX.match(src, start).end()
        bad_escape = end < len(src) and src[end] != "\n"
        msg = "bad string escape" if bad_escape else "unterminated string literal"
    else:
        msg = f"unexpected character {ch!r}"
    return ParseError(msg, loc)


def tokenize(src: str, path: str) -> TokenStream:
    """The tokens of `src`, ending with EOF, with the cursor on the first; a
    ParseError at the first bad one."""
    kinds: list[str] = []
    texts: list[str] = []
    lines: list[int] = []
    cols: list[int] = []
    add_kind, add_text, add_line, add_col = kinds.append, texts.append, lines.append, cols.append
    line = 1
    base = -1  # the offset just before the current line, so col = offset - base
    for m in _TOKEN_RE.finditer(src):
        g = m.lastindex
        if g == _G_NEWLINE:
            line += 1
            base = m.start(g)
            continue
        if g is None:  # a comment
            continue
        text = m[g]
        start = m.start(g)
        if g == _G_STRING:
            if "\\" in text:
                text = _ESCAPE.sub(_unescape, text)
            start -= 1  # the token starts at the opening quote
        # a word led by a non-ASCII letter is a name; one led by any other
        # word character (a non-ASCII digit, say) is an error
        elif g >= _G_WORD and (g > _G_WORD or not text[0].isalpha()):
            raise _bad_char(src, start, Loc(path, line, start - base))
        add_kind(_KINDS[g])
        add_text(text)
        add_line(line)
        add_col(start - base)
    add_kind(EOF)
    add_text("")
    add_line(line)
    add_col(len(src) - base)
    return TokenStream(kinds, texts, lines, cols, path)


class TokenStream:
    """The tokens of one source as parallel lists ending with EOF, and a
    cursor over them with the usual expect/accept helpers.

    `kind` and `text` are those of the token at `pos`; only `advance` moves
    it, and never past EOF. The helpers that pass a token return its text.
    """

    def __init__(self, kinds: list[str], texts: list[str], lines: list[int], cols: list[int],
                 path: str):
        self.kinds = kinds
        self.texts = texts
        self.lines = lines
        self.cols = cols
        self.path = path
        self.pos = 0
        self.kind = kinds[0]
        self.text = texts[0]

    def __len__(self) -> int:
        return len(self.kinds)

    def loc(self) -> Loc:
        pos = self.pos
        return Loc(self.path, self.lines[pos], self.cols[pos])

    def at(self, kind: str, text: str | None = None) -> bool:
        return self.kind == kind and (text is None or self.text == text)

    def at_punct(self, text: str) -> bool:
        return self.text == text and self.kind == PUNCT

    def at_name(self, text: str | None = None) -> bool:
        return self.kind == NAME and (text is None or self.text == text)

    def advance(self) -> str:
        text = self.text
        if self.kind != EOF:
            pos = self.pos = self.pos + 1
            self.kind = self.kinds[pos]
            self.text = self.texts[pos]
        return text

    def accept(self, kind: str, text: str | None = None) -> bool:
        if self.kind == kind and (text is None or self.text == text):
            self.advance()
            return True
        return False

    def expect(self, kind: str, text: str | None = None) -> str:
        if self.kind == kind and (text is None or self.text == text):
            return self.advance()
        want = text if text is not None else kind
        got = self.text or self.kind
        raise ParseError(f"expected {want!r}, found {got!r}", self.loc())

    def expect_int(self) -> int:
        """Pass the INT token at the cursor and return its value: the one
        conversion of an integer literal, for every front-end."""
        try:
            value = int(self.text) if self.kind == INT else None
        except ValueError:  # more digits than Python converts
            raise self.error("integer literal too long") from None
        self.expect(INT)
        return value

    def error(self, msg: str) -> ParseError:
        return ParseError(msg, self.loc())
