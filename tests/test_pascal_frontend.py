"""Unit tests: Pascal lexer, parser and static semantics."""

import pytest

from repro.errors import PascalSemaError, PascalSyntaxError
from repro.pascal import ast as A
from repro.pascal.lexer import Tok, tokenize
from repro.pascal.parser import parse_source
from repro.pascal.sema import check_program


def checked(src):
    return check_program(parse_source(src))


class TestLexer:
    def test_keywords_case_insensitive(self):
        toks = tokenize("PROGRAM Begin END")
        assert [t.kind for t in toks[:-1]] == [
            Tok.PROGRAM, Tok.BEGIN, Tok.END,
        ]

    def test_numbers(self):
        toks = tokenize("42 007")
        assert [t.value for t in toks[:-1]] == [42, 7]

    def test_range_dots_not_swallowed(self):
        toks = tokenize("1..10")
        assert [t.kind for t in toks[:-1]] == [
            Tok.NUMBER, Tok.DOTDOT, Tok.NUMBER,
        ]

    def test_two_char_operators(self):
        toks = tokenize(":= <> <= >=")
        assert [t.kind for t in toks[:-1]] == [
            Tok.ASSIGN, Tok.NE, Tok.LE, Tok.GE,
        ]

    def test_char_and_string_literals(self):
        toks = tokenize("'x' 'hello' ''''")
        assert toks[0].value == ord("x")
        assert toks[1].text == "hello"
        assert toks[2].text == "'"

    def test_comments_stripped(self):
        toks = tokenize("a { comment } b (* another *) c")
        assert [t.text for t in toks[:-1]] == ["a", "b", "c"]

    def test_unterminated_comment(self):
        with pytest.raises(PascalSyntaxError):
            tokenize("{ never closed")

    def test_bad_character(self):
        with pytest.raises(PascalSyntaxError):
            tokenize("a # b")

    @pytest.mark.parametrize("source, char", [
        ("x := \u00b2", "\u00b2"),    # superscript two: isdigit, not int
        ("x := \u0663", "\u0663"),    # Arabic-Indic three: int() takes it
        ("\u00e9 := 1", "\u00e9"),    # a Latin-1 letter
        ("x\u00e9 := 1", "\u00e9"),   # ... inside an identifier
        ("x := 1\u00b2", "\u00b2"),   # ... after a number
    ])
    def test_identifiers_and_numbers_are_ascii(self, source, char):
        with pytest.raises(PascalSyntaxError) as info:
            tokenize("begin\n" + source)
        assert str(info.value) == f"line 2: unexpected character {char!r}"
        assert info.value.line == 2

    def test_non_ascii_in_strings_and_comments_is_text(self):
        toks = tokenize("{ \u00b2 } x := '\u00e9' (* \u0663 *)")
        assert [(t.kind, t.value) for t in toks] == [
            (Tok.IDENT, None), (Tok.ASSIGN, None),
            (Tok.STRING, ord("\u00e9")), (Tok.EOF, None),
        ]

    def test_lines_count_newlines_in_comments(self):
        toks = tokenize("a\n{ one\ntwo }\n(* three\n*) b\r\n'c'\n")
        assert [(t.text, t.line) for t in toks] == [
            ("a", 1), ("b", 5), ("c", 6), ("", 7),
        ]

    @pytest.mark.parametrize("source, message, line", [
        ("a\n{ never closed", "unterminated { comment", 2),
        ("a\n\n(* never closed", "unterminated (* comment", 3),
        ("a := 'abc\n'", "unterminated string", 1),
        ("a := 'ab''", "unterminated string", 1),
    ])
    def test_unterminated_errors(self, source, message, line):
        with pytest.raises(PascalSyntaxError) as info:
            tokenize(source)
        assert str(info.value) == f"line {line}: {message}"


MINI = """
program mini;
const n = 10;
var x: integer;
    arr: array[1..10] of integer;
begin
  x := n;
  arr[1] := x * 2
end.
"""


class TestParser:
    def test_program_structure(self):
        prog = parse_source(MINI)
        assert prog.name == "mini"
        assert [c.name for c in prog.consts] == ["n"]
        assert [v.name for v in prog.variables] == ["x", "arr"]
        assert len(prog.body.body) == 2

    def test_array_type(self):
        prog = parse_source(MINI)
        arr = prog.variables[1]
        assert isinstance(arr.type, A.ArrayType)
        assert (arr.type.low, arr.type.high) == (1, 10)
        assert arr.type.element is A.Scalar.INTEGER

    def test_precedence(self):
        prog = parse_source(
            "program p; var x: integer;\n"
            "begin x := 1 + 2 * 3 end."
        )
        assign = prog.body.body[0]
        assert assign.value.op == "+"
        assert assign.value.right.op == "*"

    def test_relational_binds_loosest(self):
        prog = parse_source(
            "program p; var b: boolean;\n"
            "begin b := 1 + 2 < 3 * 4 end."
        )
        rel = prog.body.body[0].value
        assert rel.op == "<"
        assert rel.left.op == "+"
        assert rel.right.op == "*"

    def test_if_else_binds_inner(self):
        prog = parse_source(
            "program p; var x: integer;\n"
            "begin if true then if false then x := 1 else x := 2 end."
        )
        outer = prog.body.body[0]
        assert outer.otherwise is None
        assert outer.then.otherwise is not None

    def test_procedure_with_params(self):
        prog = parse_source(
            "program p;\n"
            "procedure f(a, b: integer; var c: integer);\n"
            "begin c := a + b end;\n"
            "begin f(1, 2, 3) end."  # sema will reject arg 3; parse is fine
        )
        routine = prog.routines[0]
        assert [p.name for p in routine.params] == ["a", "b", "c"]
        assert [p.by_ref for p in routine.params] == [False, False, True]

    def test_missing_semicolon(self):
        with pytest.raises(PascalSyntaxError):
            parse_source("program p var x: integer; begin end.")

    def test_empty_array_range(self):
        with pytest.raises(PascalSyntaxError):
            parse_source(
                "program p; var a: array[5..1] of integer; begin end."
            )

    def test_negative_const(self):
        prog = parse_source("program p; const m = -5; begin end.")
        assert prog.consts[0].value == -5


class TestSema:
    def test_types_annotated(self):
        prog = checked(MINI)
        assign = prog.body.body[0]
        assert assign.value.type is A.Scalar.INTEGER

    def test_const_folded_to_literal(self):
        prog = checked(MINI)
        assign = prog.body.body[0]
        assert isinstance(assign.value, A.IntLit)
        assert assign.value.value == 10

    def test_undeclared_variable(self):
        with pytest.raises(PascalSemaError):
            checked("program p; begin x := 1 end.")

    def test_type_mismatch(self):
        with pytest.raises(PascalSemaError):
            checked(
                "program p; var b: boolean; begin b := 3 end."
            )

    def test_int_shortint_compatible(self):
        checked(
            "program p; var s: shortint; i: integer;\n"
            "begin s := 3; i := s; s := i end."
        )

    def test_condition_must_be_boolean(self):
        with pytest.raises(PascalSemaError):
            checked("program p; begin if 1 then writeln(1) end.")

    def test_var_param_needs_lvalue(self):
        with pytest.raises(PascalSemaError) as err:
            checked(
                "program p;\n"
                "procedure f(var x: integer); begin x := 1 end;\n"
                "begin f(3) end."
            )
        assert "var parameter" in str(err.value)

    def test_var_param_exact_type(self):
        with pytest.raises(PascalSemaError):
            checked(
                "program p; var s: shortint;\n"
                "procedure f(var x: integer); begin x := 1 end;\n"
                "begin f(s) end."
            )

    def test_arity_checked(self):
        with pytest.raises(PascalSemaError):
            checked(
                "program p;\n"
                "procedure f(x: integer); begin end;\n"
                "begin f(1, 2) end."
            )

    def test_function_as_statement_rejected(self):
        with pytest.raises(PascalSemaError):
            checked(
                "program p;\n"
                "function f: integer; begin f := 1 end;\n"
                "begin f end."
            )

    def test_function_result_assignment(self):
        prog = checked(
            "program p; var x: integer;\n"
            "function f: integer; begin f := 41 + 1 end;\n"
            "begin x := f end."
        )
        routine = prog.routines[0]
        assert routine.result_decl is not None

    def test_reading_function_name_recurses(self):
        prog = checked(
            "program p; var x: integer;\n"
            "function f: integer; begin f := f end;\n"
            "begin x := f end."
        )
        body = prog.routines[0].body.body[0]
        assert isinstance(body.value, A.FuncCall)

    def test_array_by_value_rejected(self):
        with pytest.raises(PascalSemaError):
            checked(
                "program p; var a: array[0..3] of integer;\n"
                "procedure f(x: array[0..3] of integer); begin end;\n"
                "begin f(a) end."
            )

    def test_whole_array_assignment_same_type_ok(self):
        checked(
            "program p; var a, b: array[0..3] of integer;\n"
            "begin a := b end."
        )

    def test_whole_array_assignment_mismatch_rejected(self):
        with pytest.raises(PascalSemaError):
            checked(
                "program p; var a: array[0..3] of integer;\n"
                "    b: array[0..4] of integer;\n"
                "begin a := b end."
            )

    def test_array_assignment_from_expression_rejected(self):
        with pytest.raises(PascalSemaError):
            checked(
                "program p; var a: array[0..3] of integer;\n"
                "begin a := 3 end."
            )

    def test_for_var_must_be_integer(self):
        with pytest.raises(PascalSemaError):
            checked(
                "program p; var b: boolean;\n"
                "begin for b := 0 to 3 do writeln(1) end."
            )

    def test_const_not_assignable(self):
        with pytest.raises(PascalSemaError):
            checked("program p; const k = 1; begin k := 2 end.")

    def test_duplicate_declaration(self):
        with pytest.raises(PascalSemaError):
            checked("program p; var x: integer; x: boolean; begin end.")

    def test_char_comparison(self):
        checked(
            "program p; var c: char; b: boolean;\n"
            "begin c := 'a'; b := c < 'z' end."
        )

    def test_odd_returns_boolean(self):
        prog = checked(
            "program p; var b: boolean;\n"
            "begin b := odd(3) end."
        )
        assert prog.body.body[0].value.type is A.Scalar.BOOLEAN
