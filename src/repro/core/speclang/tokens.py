"""Tokens for the specification language.

The language is line oriented, so the lexer produces a list of tokens *per
line*; the parser never looks across line boundaries except to attach
template lines to the most recent production line.
"""

from __future__ import annotations

import enum


class TokKind(enum.Enum):
    """Lexical classes of the spec language."""

    IDENT = "ident"          # iadd, r, dsp, label_def, ...
    INT = "int"              # 42
    SECTION = "section"      # $Productions  (value holds the bare name)
    DEFINES = "::="          # production arrow
    EQUALS = "="
    COMMA = ","
    SEMI = ";"
    DOT = "."
    LPAREN = "("
    RPAREN = ")"
    MINUS = "-"
    JUNK = "junk"            # unlexable text (legal only inside comments)
    EOL = "eol"              # sentinel appended to every line


class Token:
    """One lexical token.

    ``column`` is 1-based; column matters in the productions section because
    production lines must start in column one while template lines must not
    (the paper's spec even shouts "Templates MUST skip column one!").
    A plain slotted class: the lexer builds thousands per spec.
    """

    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind: TokKind, text: str, line: int, column: int):
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind.name}, {self.text!r}, {self.line}:{self.column})"
