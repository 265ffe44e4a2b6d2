"""Line-oriented lexer for the specification language."""

from __future__ import annotations

import re
from typing import Iterator, List

from repro.core.speclang.tokens import TokKind, Token

#: Blanks and tabs separate tokens and match no group, so ``finditer``
#: skips them; the junk group matches any other text.
_TOKEN_RE = re.compile(
    r"""
    (?P<defines>::=)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<int>[0-9]+)
  | (?P<section>\$[A-Za-z_-]+)
  | (?P<punct>[=,;.()\-])
  | (?P<junk>[^ \t]+)
    """,
    re.VERBOSE,
)

_GROUP_KINDS = {
    "ident": TokKind.IDENT,
    "int": TokKind.INT,
    "defines": TokKind.DEFINES,
    "section": TokKind.SECTION,
    "junk": TokKind.JUNK,
}

_PUNCT_KINDS = {
    "=": TokKind.EQUALS,
    ",": TokKind.COMMA,
    ";": TokKind.SEMI,
    ".": TokKind.DOT,
    "(": TokKind.LPAREN,
    ")": TokKind.RPAREN,
    "-": TokKind.MINUS,
}


class Line:
    """One logical source line: its tokens plus layout facts.

    Attributes
    ----------
    number:
        1-based source line number.
    indented:
        True when the first token does not start in column one.  Template
        lines are indented; production and section lines are not.
    tokens:
        The token list, always terminated by an ``EOL`` token.
    raw:
        The raw text (used to recover trailing template comments).
    """

    def __init__(self, number: int, raw: str, tokens: List[Token]):
        self.number = number
        self.raw = raw
        self.tokens = tokens
        self.indented = bool(tokens) and tokens[0].column > 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Line({self.number}, indented={self.indented}, {self.raw!r})"


def lex_line(raw: str, number: int) -> List[Token]:
    """Tokenize one line.

    Anything that is not a recognizable token is classified as ``JUNK``;
    the parser decides whether junk is a harmless trailing comment (legal
    after template operands and declarations) or a syntax error.
    """
    tokens: List[Token] = []
    for m in _TOKEN_RE.finditer(raw):
        group = m.lastgroup
        text = m.group()
        if group == "punct":
            kind = _PUNCT_KINDS[text]
        else:
            kind = _GROUP_KINDS[group]
            if kind is TokKind.SECTION:
                text = text[1:]  # strip the "$"
        tokens.append(Token(kind, text, number, m.start() + 1))
    tokens.append(Token(TokKind.EOL, "", number, len(raw) + 1))
    return tokens


def lex_spec(text: str) -> Iterator[Line]:
    """Yield the meaningful lines of a spec.

    Comment lines (first non-blank char ``*``) and blank lines are dropped
    here, exactly as the paper's spec header describes ("Lines beginning
    with '*' are comments. Blank lines are ignored. All others are
    examined!").  Lines end at ``\\n`` (or ``\\r\\n``) only, so a vertical
    tab, form feed or Unicode line separator stays inside its line,
    where the parser can report it with the right line number.
    """
    for number, raw in enumerate(text.split("\n"), start=1):
        raw = raw.rstrip("\r")
        stripped = raw.strip()
        if not stripped or stripped.startswith("*"):
            continue
        yield Line(number, raw, lex_line(raw.rstrip(), number))
