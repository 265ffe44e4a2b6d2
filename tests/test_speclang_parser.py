"""Unit tests: specification-language parser."""

from pathlib import Path

import pytest

from repro.errors import SpecSyntaxError
from repro.core.speclang import lexer
from repro.core.speclang import parser as spec_parser
from repro.core.speclang.ast import Name, Number, Ref, SymKind
from repro.core.speclang.parser import parse_spec
from repro.machines.s370 import spec as s370_spec
from repro.machines.toy import spec as toy_spec

BASE = """
$Non-terminals
 r = register
$Terminals
 dsp = displacement, lng
$Operators
 iadd, fullword
$Opcodes
 a, l, mvc
$Constants
 using, modifies, ignore_lhs
 zero = 0; shift32 = 32
"""


def parse(productions: str):
    return parse_spec(BASE + "$Productions\n" + productions)


class TestDeclarations:
    def test_all_sections_collected(self):
        spec = parse("r.1 ::= iadd r.1 r.2\n")
        assert [d.name for d in spec.decls(SymKind.NONTERMINAL)] == ["r"]
        assert [d.name for d in spec.decls(SymKind.TERMINAL)] == [
            "dsp", "lng",
        ]
        assert [d.name for d in spec.decls(SymKind.OPERATOR)] == [
            "iadd", "fullword",
        ]

    def test_descriptive_alias(self):
        spec = parse("r.1 ::= iadd r.1 r.2\n")
        r = spec.decls(SymKind.NONTERMINAL)[0]
        assert r.value == "register"

    def test_numeric_constants(self):
        spec = parse("r.1 ::= iadd r.1 r.2\n")
        values = {d.name: d.value for d in spec.decls(SymKind.CONSTANT)}
        assert values["zero"] == 0
        assert values["shift32"] == 32
        assert values["using"] is None

    def test_trailing_comment_after_declaration(self):
        spec = parse_spec(
            "$Terminals\n"
            " dsp = displacement The displacement value.\n"
            "$Operators\n iadd\n"
            "$Non-terminals\n r\n"
            "$Opcodes\n a\n"
            "$Constants\n modifies\n"
            "$Productions\n"
            "r.1 ::= iadd r.1 r.2\n modifies r.1\n a r.1,r.2\n"
        )
        assert [d.name for d in spec.decls(SymKind.TERMINAL)] == ["dsp"]

    def test_unknown_section_rejected(self):
        with pytest.raises(SpecSyntaxError):
            parse_spec("$Nonsense\n x\n")

    def test_declaration_outside_section_rejected(self):
        with pytest.raises(SpecSyntaxError):
            parse_spec("foo, bar\n")


class TestProductions:
    def test_lambda_lhs(self):
        spec = parse("lambda ::= iadd r.1 r.2\n")
        assert spec.productions[0].lhs is None

    def test_indexed_lhs_and_rhs(self):
        spec = parse("r.2 ::= fullword dsp.1 r.1\n")
        prod = spec.productions[0]
        assert prod.lhs == Ref("r", 2)
        assert prod.rhs == ("fullword", Ref("dsp", 1), Ref("r", 1))

    def test_empty_rhs_rejected(self):
        with pytest.raises(SpecSyntaxError):
            parse("r.1 ::=\n")

    def test_missing_lhs_index_rejected(self):
        with pytest.raises(SpecSyntaxError):
            parse("r ::= iadd r.1 r.2\n")

    def test_template_attached_to_production(self):
        spec = parse(
            "r.1 ::= iadd r.1 r.2\n"
            " modifies r.1\n"
            " a r.1,r.2\n"
        )
        prod = spec.productions[0]
        assert [t.op for t in prod.templates] == ["modifies", "a"]

    def test_template_without_production_rejected(self):
        with pytest.raises(SpecSyntaxError):
            parse(" a r.1,r.2\n")

    def test_multiple_productions(self):
        spec = parse(
            "r.1 ::= iadd r.1 r.2\n"
            " a r.1,r.2\n"
            "lambda ::= fullword dsp.1 r.1\n"
        )
        assert len(spec.productions) == 2
        assert len(spec.productions[0].templates) == 1
        assert len(spec.productions[1].templates) == 0


class TestTemplates:
    def template(self, line: str):
        spec = parse("r.1 ::= iadd r.1 r.2\n" + line + "\n")
        return spec.productions[0].templates[0]

    def test_simple_register_operands(self):
        tmpl = self.template(" a r.1,r.2")
        assert tmpl.op == "a"
        assert [str(o) for o in tmpl.operands] == ["r.1", "r.2"]

    def test_address_operand_two_parts(self):
        tmpl = self.template(" l r.2,dsp.1(zero,r.1)")
        operand = tmpl.operands[1]
        assert operand.is_address
        assert operand.base == Ref("dsp", 1)
        assert operand.index == Name("zero")
        assert operand.base_reg == Ref("r", 1)

    def test_address_operand_one_part(self):
        tmpl = self.template(" mvc dsp.1(lng.2,r.1),zero(r.2)")
        second = tmpl.operands[1]
        assert second.base == Name("zero")
        assert second.index == Ref("r", 2)
        assert second.base_reg is None

    def test_integer_operand(self):
        tmpl = self.template(" a r.1,42")
        assert tmpl.operands[1].base == Number(42)

    def test_trailing_comment_preserved(self):
        tmpl = self.template(" a r.1,r.2 Commutative template.")
        assert tmpl.comment == "Commutative template."

    def test_zero_operand_template(self):
        tmpl = self.template(" ignore_lhs")
        assert tmpl.op == "ignore_lhs"
        assert tmpl.operands == ()

    def test_str_roundtrips_shape(self):
        tmpl = self.template(" l r.2,dsp.1(zero,r.1)")
        assert str(tmpl) == "l r.2,dsp.1(zero,r.1)"

    def test_tab_separates_fields(self):
        tmpl = self.template("\ta\tr.1,r.2\tSum.")
        assert [str(o) for o in tmpl.operands] == ["r.1", "r.2"]
        assert tmpl.comment == "Sum."

    @pytest.mark.parametrize("space", [
        "\v", "\f", "\x85", "\u2028", "\xa0", "\u2003", "\u3000", "\x1f",
    ])
    @pytest.mark.parametrize("where", ["after op", "in comment"])
    def test_other_whitespace_is_a_syntax_error(self, space, where):
        """The lexer separates tokens at blanks and tabs only, so any
        other whitespace would split the fields differently from the
        tokens; it is reported with its line number instead."""
        line = (
            f" a{space}r.1,r.2" if where == "after op"
            else f" a r.1,r.2 Sum{space}of two."
        )
        text = BASE + "$Productions\nr.1 ::= iadd r.1 r.2\n" + line + "\n"
        number = text.split("\n").index(line) + 1
        with pytest.raises(SpecSyntaxError, match="whitespace") as info:
            parse_spec(text)
        assert info.value.line == number


# ---- one lexing pass per line --------------------------------------------------

#: Templates whose second field is, or is not, an operand field.
COMMENT_TEMPLATES = """\
r.1 ::= iadd r.1 r.2
 l r.2,d.1 Load ole' B(J) *
 a ole' B(J) *
 l\tr.2,d.1(zero,r.1)\tLoad  it
 a r.1, r.2
 a r.1,r.2)
 a -3,dsp.1(,r.1) bad index
 ignore_lhs   * nothing here
"""

SPEC_TEXTS = {
    **{f"s370:{v}": s370_spec.spec_text(v) for v in s370_spec.VARIANTS},
    "toy": toy_spec.spec_text(),
    "comments": BASE + "$Productions\n" + COMMENT_TEMPLATES,
    **{
        f"speclint:{path.stem}": path.read_text()
        for path in sorted(
            (Path(__file__).parent / "fixtures" / "speclint").glob("*.spec")
        )
    },
}


def reference_template(raw: str):
    """(operands, comment) by lexing the second field on its own: the
    field holds the operands if it parses, else it starts the comment."""
    fields = raw.split()
    if len(fields) > 1:
        tokens = lexer.lex_line(fields[1], 0)
        try:
            return spec_parser._parse_operand_field(tokens), fields[2:]
        except SpecSyntaxError:
            pass
    return (), fields[1:]


@pytest.mark.parametrize("name", sorted(SPEC_TEXTS))
def test_templates_match_separate_field_parse(name):
    text = SPEC_TEXTS[name]
    lines = text.splitlines()
    templates = [
        t for p in parse_spec(text).productions for t in p.templates
    ]
    assert templates
    for template in templates:
        operands, comment = reference_template(lines[template.line - 1])
        assert template.operands == operands
        assert template.comment == " ".join(comment)


def test_comment_templates():
    spec = parse(COMMENT_TEMPLATES)
    shapes = [
        ([str(o) for o in t.operands], t.comment)
        for t in spec.productions[0].templates
    ]
    assert shapes == [
        (["r.2", "d.1"], "Load ole' B(J) *"),
        ([], "ole' B(J) *"),
        (["r.2", "d.1(zero,r.1)"], "Load it"),
        ([], "r.1, r.2"),
        ([], "r.1,r.2)"),
        ([], "-3,dsp.1(,r.1) bad index"),
        ([], "* nothing here"),
    ]


@pytest.mark.parametrize("name", sorted(SPEC_TEXTS))
def test_each_line_lexed_once(name, monkeypatch):
    """``parse_spec`` lexes every meaningful line exactly once: operand
    fields are parsed from the line's own tokens, not re-lexed."""
    real = lexer.lex_line
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(lexer, "lex_line", counting)
    monkeypatch.setattr(spec_parser, "lex_line", counting, raising=False)
    text = SPEC_TEXTS[name]
    parse_spec(text)
    meaningful = [
        line for line in text.splitlines()
        if line.strip() and not line.strip().startswith("*")
    ]
    assert len(calls) == len(meaningful)
