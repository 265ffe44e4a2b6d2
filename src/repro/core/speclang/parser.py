"""Parser for the specification language.

The parser is deliberately line oriented, mirroring the layout rules of the
original CoGG input (paper Appendix 2):

* ``$Section`` lines switch sections;
* inside ``$Productions`` a line starting in column one is a production,
  and indented lines are its templates;
* template operands never contain blanks, so everything after the operand
  field of a template line is a trailing comment;
* a template line's fields are separated by blanks and tabs, as the
  lexer's tokens are; any other whitespace in it is a syntax error.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple, Union

from repro.errors import SpecSyntaxError
from repro.core.speclang.ast import (
    Declaration,
    LAMBDA,
    Name,
    Number,
    OperandAST,
    Primary,
    ProductionAST,
    Ref,
    SECTION_NAMES,
    SpecAST,
    TemplateAST,
)
from repro.core.speclang.lexer import Line, lex_spec
from repro.core.speclang.tokens import TokKind, Token

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
#: A template line's fields are separated by blanks and tabs only, the
#: characters that separate the lexer's tokens.
_FIELD_RE = re.compile(r"[^ \t]+")
_OTHER_SPACE_RE = re.compile(r"[^\S \t]")

#: Paper section 2: "Currently up to eight machine instructions may be
#: emitted during a single reduction."
MAX_INSTRUCTIONS_PER_PRODUCTION = 8


class _TokenCursor:
    """Sequential cursor over one line's token list."""

    def __init__(self, tokens: List[Token]):
        self._tokens = tokens
        self._pos = 0

    def peek(self) -> Token:
        return self._tokens[self._pos]

    def next(self) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind is not TokKind.EOL:
            self._pos += 1
        return tok

    def at(self, kind: TokKind) -> bool:
        return self.peek().kind is kind

    def accept(self, kind: TokKind) -> Optional[Token]:
        if self.at(kind):
            return self.next()
        return None

    def expect(self, kind: TokKind, what: str) -> Token:
        tok = self.peek()
        if tok.kind is not kind:
            raise SpecSyntaxError(
                f"expected {what}, found {tok.text!r}", tok.line
            )
        return self.next()


def _normalize_section(name: str) -> str:
    return name.lower().replace("-", "").replace("_", "")


def _parse_primary(cur: _TokenCursor) -> Primary:
    """``name.index`` | ``name`` | ``[-]integer``."""
    if cur.at(TokKind.MINUS):
        cur.next()
        tok = cur.expect(TokKind.INT, "integer after '-'")
        return Number(-int(tok.text))
    if cur.at(TokKind.INT):
        return Number(int(cur.next().text))
    tok = cur.expect(TokKind.IDENT, "identifier")
    if cur.at(TokKind.DOT):
        cur.next()
        idx = cur.expect(TokKind.INT, "index after '.'")
        return Ref(tok.text, int(idx.text))
    return Name(tok.text)


def _parse_operand(cur: _TokenCursor) -> OperandAST:
    base = _parse_primary(cur)
    if not cur.at(TokKind.LPAREN):
        return OperandAST(base)
    cur.next()
    index = _parse_primary(cur)
    base_reg = None
    if cur.accept(TokKind.COMMA):
        base_reg = _parse_primary(cur)
    cur.expect(TokKind.RPAREN, "')'")
    return OperandAST(base, index, base_reg)


def _parse_operand_field(tokens: List[Token]) -> Tuple[OperandAST, ...]:
    """Parse one blank-free operand field, e.g. ``dsp.1(r.3,r.1),r.2``."""
    cur = _TokenCursor(tokens)
    operands = [_parse_operand(cur)]
    while cur.accept(TokKind.COMMA):
        operands.append(_parse_operand(cur))
    cur.expect(TokKind.EOL, "end of operand list")
    return tuple(operands)


def _parse_template_line(line: Line) -> TemplateAST:
    other = _OTHER_SPACE_RE.search(line.raw)
    if other is not None:
        raise SpecSyntaxError(
            f"whitespace {other.group()!r} in a template line; separate "
            f"fields with blanks or tabs",
            line.number,
        )
    spans = [m.span() for m in _FIELD_RE.finditer(line.raw)]
    fields = [line.raw[start:end] for start, end in spans]
    op = fields[0]
    if _IDENT_RE.match(op) is None:
        raise SpecSyntaxError(f"bad template operation {op!r}", line.number)
    operands: Tuple[OperandAST, ...] = ()
    comment_fields = fields[1:]
    if len(fields) > 1:
        # Parse the operand field from the line's own tokens; a field
        # that does not parse starts the trailing comment.
        start, end = spans[1]
        tokens = [t for t in line.tokens if start < t.column <= end]
        tokens.append(Token(TokKind.EOL, "", line.number, end + 1))
        try:
            operands = _parse_operand_field(tokens)
            comment_fields = fields[2:]
        except SpecSyntaxError:
            pass
    return TemplateAST(
        op=op,
        operands=operands,
        comment=" ".join(comment_fields),
        line=line.number,
    )


def _parse_production_line(line: Line) -> ProductionAST:
    cur = _TokenCursor(line.tokens)
    lhs_tok = cur.expect(TokKind.IDENT, "production left-hand side")
    lhs: Optional[Ref]
    if lhs_tok.text == LAMBDA:
        lhs = None
    else:
        cur.expect(TokKind.DOT, f"'.' after non-terminal {lhs_tok.text!r}")
        idx = cur.expect(TokKind.INT, "left-hand-side index")
        lhs = Ref(lhs_tok.text, int(idx.text))
    cur.expect(TokKind.DEFINES, "'::='")
    rhs: List[Union[str, Ref]] = []
    while not cur.at(TokKind.EOL):
        tok = cur.expect(TokKind.IDENT, "right-hand-side symbol")
        if cur.accept(TokKind.DOT):
            idx = cur.expect(TokKind.INT, "index after '.'")
            rhs.append(Ref(tok.text, int(idx.text)))
        else:
            rhs.append(tok.text)
    if not rhs:
        raise SpecSyntaxError("empty right-hand side", line.number)
    return ProductionAST(lhs=lhs, rhs=tuple(rhs), templates=(), line=line.number)


def _parse_declaration_line(line: Line) -> List[Declaration]:
    """``name [= value] {,|; name [= value]}`` with optional trailing text."""
    cur = _TokenCursor(line.tokens)
    decls: List[Declaration] = []
    while True:
        tok = cur.expect(TokKind.IDENT, "declared identifier")
        value: Union[int, str, None] = None
        if cur.accept(TokKind.EQUALS):
            if cur.at(TokKind.MINUS):
                cur.next()
                value = -int(cur.expect(TokKind.INT, "integer value").text)
            elif cur.at(TokKind.INT):
                value = int(cur.next().text)
            else:
                value = cur.expect(TokKind.IDENT, "value").text
        decls.append(Declaration(tok.text, value, line.number))
        if cur.accept(TokKind.COMMA) or cur.accept(TokKind.SEMI):
            # Trailing separator at end of line: continuation is implicit.
            if cur.at(TokKind.EOL):
                break
            continue
        # Anything else starts a trailing comment; stop at this line.
        break
    return decls


def parse_spec(text: str) -> SpecAST:
    """Parse a full specification into a :class:`SpecAST`.

    Raises :class:`~repro.errors.SpecSyntaxError` with a line number on the
    first malformed line.
    """
    spec = SpecAST()
    section: Optional[str] = None
    current_prod: Optional[ProductionAST] = None
    pending_templates: List[TemplateAST] = []

    def flush_production() -> None:
        nonlocal current_prod, pending_templates
        if current_prod is not None:
            spec.productions.append(
                ProductionAST(
                    lhs=current_prod.lhs,
                    rhs=current_prod.rhs,
                    templates=tuple(pending_templates),
                    line=current_prod.line,
                )
            )
        current_prod = None
        pending_templates = []

    for line in lex_spec(text):
        first = line.tokens[0]
        if first.kind is TokKind.SECTION:
            flush_production()
            name = _normalize_section(first.text)
            if name == "options":
                section = "options"
            elif name == "productions":
                section = "productions"
            elif name in SECTION_NAMES:
                section = name
                spec.declarations.setdefault(SECTION_NAMES[name], [])
            else:
                raise SpecSyntaxError(
                    f"unknown section ${first.text}", line.number
                )
            continue

        if section is None:
            raise SpecSyntaxError(
                "declarations must appear inside a $Section", line.number
            )
        if section == "options":
            spec.options.append(line.raw.strip())
        elif section == "productions":
            if line.indented:
                if current_prod is None:
                    raise SpecSyntaxError(
                        "template line with no preceding production",
                        line.number,
                    )
                pending_templates.append(_parse_template_line(line))
            else:
                flush_production()
                current_prod = _parse_production_line(line)
        else:
            kind = SECTION_NAMES[section]
            spec.declarations[kind].extend(_parse_declaration_line(line))

    flush_production()
    return spec
