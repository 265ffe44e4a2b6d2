"""Lexer for the Pascal subset."""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import List, Optional

from repro.errors import PascalSyntaxError


class Tok(enum.Enum):
    IDENT = "identifier"
    NUMBER = "number"
    STRING = "string"
    # punctuation / operators
    ASSIGN = ":="
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    EQ = "="
    NE = "<>"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    LPAREN = "("
    RPAREN = ")"
    LBRACKET = "["
    RBRACKET = "]"
    SEMI = ";"
    COLON = ":"
    COMMA = ","
    DOT = "."
    DOTDOT = ".."
    EOF = "<eof>"
    # keywords
    PROGRAM = "program"
    CONST = "const"
    VAR = "var"
    PROCEDURE = "procedure"
    FUNCTION = "function"
    BEGIN = "begin"
    END = "end"
    IF = "if"
    THEN = "then"
    ELSE = "else"
    WHILE = "while"
    DO = "do"
    REPEAT = "repeat"
    UNTIL = "until"
    FOR = "for"
    TO = "to"
    DOWNTO = "downto"
    CASE = "case"
    OF = "of"
    ARRAY = "array"
    DIV = "div"
    MOD = "mod"
    IN = "in"
    SET = "set"
    AND = "and"
    OR = "or"
    NOT = "not"
    TRUE = "true"
    FALSE = "false"

    # Members are singletons: hash them by identity in C, not by name
    # through ``Enum.__hash__``, a Python call on every dict lookup the
    # parser keys by token kind.
    __hash__ = object.__hash__


KEYWORDS = {
    t.value: t
    for t in [
        Tok.PROGRAM, Tok.CONST, Tok.VAR, Tok.PROCEDURE, Tok.FUNCTION,
        Tok.BEGIN, Tok.END, Tok.IF, Tok.THEN, Tok.ELSE, Tok.WHILE, Tok.DO,
        Tok.REPEAT, Tok.UNTIL, Tok.FOR, Tok.TO, Tok.DOWNTO, Tok.CASE,
        Tok.OF,
        Tok.ARRAY, Tok.DIV, Tok.MOD, Tok.IN, Tok.SET, Tok.AND, Tok.OR,
        Tok.NOT,
        Tok.TRUE, Tok.FALSE,
    ]
}

_OPERATORS = {
    ":=": Tok.ASSIGN, "<>": Tok.NE, "<=": Tok.LE, ">=": Tok.GE,
    "..": Tok.DOTDOT,
    "+": Tok.PLUS, "-": Tok.MINUS, "*": Tok.STAR, "=": Tok.EQ,
    "<": Tok.LT, ">": Tok.GT, "(": Tok.LPAREN, ")": Tok.RPAREN,
    "[": Tok.LBRACKET, "]": Tok.RBRACKET, ";": Tok.SEMI, ":": Tok.COLON,
    ",": Tok.COMMA, ".": Tok.DOT,
}

#: One match per token: the blanks and comments before it, then the
#: token.  The token is optional, so a match never backtracks into the
#: skip and the next one starts where it ended, never inside a comment.
#: A ``(*`` comment ends at the first ``*)`` after its ``(``, so ``(*)``
#: is a whole comment.  The last group takes any character no other
#: group does -- among them the opening of an unterminated comment or
#: string -- and the blanks after the last token match with no token.
#: Identifiers and numbers are ASCII only.
_SCAN = re.compile(
    r"((?:[ \t\r\n]+|\{[^}]*\}|\((?=\*).*?\*\))*)"  # blanks and comments
    r"(?:([A-Za-z_][A-Za-z0-9_]*)"  # identifier or keyword
    r"|(:=|<>|<=|>=|\.\.|[-+*=<>\[\];:,.)]|\((?!\*))"  # operator
    r"|([0-9]+)"  # number
    r"|('(?:[^'\n]|'')*')"  # string, quotes included
    r"|(.))?",  # anything else
    re.DOTALL,
)

#: What a character that starts no token means.
_BAD_START = {
    "{": "unterminated { comment",
    "(": "unterminated (* comment",
    "'": "unterminated string",
}


@dataclass(slots=True, unsafe_hash=True)
class Token:
    kind: Tok
    text: str
    line: int
    value: Optional[int] = None   # numeric value for NUMBER / char code


def tokenize(source: str) -> List[Token]:
    """Full-source tokenization; raises on the first bad character.

    One pass of :data:`_SCAN`.  No token spans a newline, so a token's
    line is 1 plus the newlines in the blanks and comments before it."""
    tokens: List[Token] = []
    append = tokens.append
    keywords = KEYWORDS
    operators = _OPERATORS
    ident = Tok.IDENT
    line = 1
    for skipped, word, op, number, string, bad in _SCAN.findall(source):
        line += skipped.count("\n")
        if word:
            word = word.lower()
            append(Token(keywords.get(word, ident), word, line))
        elif op:
            append(Token(operators[op], op, line))
        elif number:
            append(Token(Tok.NUMBER, number, line, int(number)))
        elif string:
            text = string[1:-1].replace("''", "'")
            append(Token(Tok.STRING, text, line,
                         ord(text) if len(text) == 1 else None))
        elif bad:
            raise PascalSyntaxError(
                _BAD_START.get(bad, f"unexpected character {bad!r}"), line
            )
    append(Token(Tok.EOF, "", line))
    return tokens
