"""Integration tests: sets, case statements, whole-array assignment and
subscript range checking (the extensions beyond the first milestone,
all paper-derived: productions 10-12, 124-125 and 142-149)."""

import pytest

from repro.errors import PascalSemaError, PascalSyntaxError
from repro.machines.s370.spec import VARIANTS
from repro.pascal import compile_source, interpret_source
from repro.baseline import compile_baseline


def check(source, variant="full", optimize=True, checks=False):
    expected = interpret_source(source)
    compiled = compile_source(
        source, variant=variant, optimize=optimize, checks=checks
    )
    result = compiled.run()
    assert result.trap is None, result.trap
    assert result.output == expected
    return compiled, result


class TestSets:
    def test_constructor_and_membership(self):
        compiled, _ = check("""
program p; var s: set of 0..31;
begin
  s := [1, 5, 31];
  writeln(1 in s, ' ', 2 in s, ' ', 31 in s, ' ', 0 in s)
end.
""")
        # constant elements use the TM idiom
        assert " tm " in " " + compiled.listing().lower()

    def test_union_intersection_difference(self):
        check("""
program p; var s, t, u: set of 0..15;
begin
  s := [1, 2, 3]; t := [3, 4];
  u := s + t;  writeln(1 in u, 4 in u);
  u := s * t;  writeln(1 in u, 3 in u);
  u := u - [3]; writeln(3 in u)
end.
""")

    def test_computed_elements(self):
        compiled, _ = check("""
program p; var s: set of 0..63; i, c: integer;
begin
  s := [];
  for i := 0 to 63 do
    if i mod 7 = 0 then s := s + [i];
  c := 0;
  for i := 0 to 63 do if i in s then c := c + 1;
  writeln(c, ' ', 49 in s, ' ', 50 in s)
end.
""")
        # computed elements go through the bitmask-table sequence
        listing = compiled.listing()
        assert "srl" in listing and "stc" in listing

    def test_computed_exclusion(self):
        check("""
program p; var s: set of 0..31; i: integer;
begin
  s := [0, 1, 2, 3, 4, 5];
  i := 3;
  s := s - [i] - [i + 1];
  writeln(2 in s, 3 in s, 4 in s, 5 in s)
end.
""")

    def test_set_equality(self):
        check("""
program p; var s, t: set of 0..31;
begin
  s := [7]; t := [7];
  writeln(s = t, ' ', s <> t);
  t := t + [8];
  writeln(s = t, ' ', s <> t)
end.
""")

    def test_set_var_param(self):
        check("""
program p;
var s: set of 0..31; i, c: integer;
procedure evens(var x: set of 0..31);
var j: integer;
begin
  x := [];
  for j := 0 to 15 do x := x + [j * 2]
end;
begin
  evens(s);
  c := 0;
  for i := 0 to 31 do if i in s then c := c + 1;
  writeln(c, ' ', 30 in s, ' ', 29 in s)
end.
""")

    def test_big_set(self):
        check("""
program p; var s: set of 0..200; i: integer;
begin
  s := [0, 100, 200];
  i := 200;
  writeln(i in s, ' ', 0 in s, ' ', 99 in s)
end.
""")

    def test_in_as_value(self):
        check("""
program p; var s: set of 0..7; b: boolean;
begin
  s := [2];
  b := 2 in s;
  writeln(b, ' ', not (3 in s))
end.
""")

    def test_across_variants(self):
        src = """
program p; var s, t: set of 0..31; i: integer;
begin
  s := [1, 2]; t := [2, 3];
  s := s + t; s := s - [1];
  i := 2;
  writeln(i in s, ' ', s = t)
end.
"""
        for variant in VARIANTS:
            check(src, variant=variant)

    def test_baseline_agrees(self):
        src = """
program p; var s: set of 0..31; i, c: integer;
begin
  s := [3, 6, 9];
  c := 0;
  for i := 0 to 31 do if i in s then c := c + 1;
  writeln(c)
end.
"""
        assert compile_baseline(src).run().output == interpret_source(src)

    # --- static rejections -------------------------------------------------

    def test_element_out_of_range_rejected(self):
        with pytest.raises(PascalSemaError):
            compile_source(
                "program p; var s: set of 0..7;\n"
                "begin s := [9] end."
            )

    def test_nonzero_low_bound_rejected(self):
        with pytest.raises(PascalSyntaxError):
            compile_source(
                "program p; var s: set of 1..7; begin end."
            )

    def test_target_aliasing_rejected(self):
        with pytest.raises(PascalSemaError):
            compile_source(
                "program p; var s, t: set of 0..7;\n"
                "begin s := t + s end."
            )

    def test_difference_of_variables_rejected(self):
        with pytest.raises(PascalSemaError):
            compile_source(
                "program p; var s, t: set of 0..7;\n"
                "begin s := s - t end."
            )

    def test_set_in_integer_context_rejected(self):
        with pytest.raises(PascalSemaError):
            compile_source(
                "program p; var s: set of 0..7; x: integer;\n"
                "begin x := s end."
            )

    def test_constructor_outside_assignment_rejected(self):
        with pytest.raises(PascalSemaError):
            compile_source(
                "program p; var b: boolean;\n"
                "begin b := 1 in [1, 2] end."
            )


class TestCase:
    def test_basic_dispatch(self):
        check("""
program p; var x: integer;
begin
  for x := 0 to 5 do
    case x of
      1: writeln('one');
      2, 3: writeln('two-three');
      5: writeln('five')
      else writeln('other')
    end
end.
""")

    def test_without_else_falls_through(self):
        check("""
program p; var x: integer;
begin
  x := 9;
  case x of
    1: writeln('one');
    2: writeln('two')
  end;
  writeln('after')
end.
""")

    def test_char_selector(self):
        check("""
program p; var c: char;
begin
  c := 'q';
  case c of
    'a': writeln(1);
    'q': writeln(2)
    else writeln(3)
  end
end.
""")

    def test_negative_labels(self):
        check("""
program p; var x: integer;
begin
  x := -3;
  case x of
    -3: writeln('minus three');
    3: writeln('three')
  end
end.
""")

    def test_complex_selector_evaluated_once(self):
        check("""
program p;
var x, calls: integer;
function f: integer;
begin calls := calls + 1; f := 2 end;
begin
  calls := 0;
  case f * 10 of
    10: writeln('ten');
    20: writeln('twenty');
    30: writeln('thirty')
  end;
  writeln(calls)
end.
""")

    def test_duplicate_labels_rejected(self):
        with pytest.raises(PascalSemaError):
            compile_source(
                "program p; var x: integer;\n"
                "begin case x of 1: writeln(1); 1: writeln(2) end end."
            )


class TestArrayAssignment:
    def test_small_array_uses_mvc(self):
        compiled, _ = check("""
program p; var a, b: array[1..5] of integer; i: integer;
begin
  for i := 1 to 5 do a[i] := i * 10;
  b := a;
  writeln(b[1], ' ', b[5])
end.
""")
        assert any("mvc" in line for line in compiled.instructions())

    def test_large_array_uses_mvcl(self):
        compiled, _ = check("""
program p; var a, b: array[0..99] of integer; i: integer;
begin
  for i := 0 to 99 do a[i] := i;
  b := a;
  writeln(b[0], ' ', b[42], ' ', b[99])
end.
""")
        assert any("mvcl" in line for line in compiled.instructions())

    def test_char_arrays(self):
        check("""
program p; var a, b: array[1..6] of char; i: integer;
begin
  for i := 1 to 6 do a[i] := 'x';
  a[3] := 'o';
  b := a;
  for i := 1 to 6 do write(b[i]);
  writeln
end.
""")

    def test_aliasing_self_assign(self):
        check("""
program p; var a: array[1..4] of integer;
begin
  a[1] := 7; a[4] := 9;
  a := a;
  writeln(a[1], a[4])
end.
""")

    def test_mismatched_sizes_rejected(self):
        with pytest.raises(PascalSemaError):
            compile_source(
                "program p;\n"
                "var a: array[1..5] of integer;\n"
                "    b: array[1..6] of integer;\n"
                "begin a := b end."
            )


class TestRangeChecks:
    OOB = """
program p; var a: array[5..10] of integer; i: integer;
begin
  i := {INDEX};
  a[i] := 1;
  writeln('survived')
end.
"""

    def test_overflow_traps(self):
        src = self.OOB.replace("{INDEX}", "11")
        result = compile_source(src, checks=True).run()
        assert result.trap == "range check: overflow"

    def test_underflow_traps(self):
        src = self.OOB.replace("{INDEX}", "4")
        result = compile_source(src, checks=True).run()
        assert result.trap == "range check: underflow"

    def test_in_range_passes(self):
        src = self.OOB.replace("{INDEX}", "7")
        result = compile_source(src, checks=True).run()
        assert result.trap is None
        assert result.output == "survived\n"

    @pytest.mark.parametrize("index, trap", [
        ("7", None),
        ("4", "range check: underflow"),
        ("11", "range check: overflow"),
    ])
    def test_baseline_generator_checks_too(self, index, trap):
        src = self.OOB.replace("{INDEX}", index)
        result = compile_baseline(src, checks=True).run()
        assert result.trap == trap
        if trap is None:
            assert result.output == interpret_source(src)

    def test_unchecked_does_not_trap(self):
        src = self.OOB.replace("{INDEX}", "11")
        result = compile_source(src, checks=False).run()
        assert result.trap is None  # silent corruption, like 1982

    def test_checked_set_element_traps(self):
        src = """
program p; var s: set of 0..7; i: integer;
begin i := 99; s := [] ; s := s + [i] end.
"""
        result = compile_source(src, checks=True).run()
        assert result.trap == "range check: overflow"

    def test_constant_subscript_checked_statically(self):
        with pytest.raises(PascalSemaError):
            compile_source(
                "program p; var a: array[5..10] of integer;\n"
                "begin a[11] := 1 end."
            )

    def test_checking_costs_code(self):
        src = """
program p; var a: array[0..9] of integer; i: integer;
begin
  for i := 0 to 9 do a[i] := i;
  writeln(a[5])
end.
"""
        plain = compile_source(src, checks=False)
        checked = compile_source(src, checks=True)
        assert checked.stats["code_bytes"] > plain.stats["code_bytes"]
        # both still correct
        expected = interpret_source(src)
        assert plain.run().output == expected
        assert checked.run().output == expected


class TestDivideByZeroTrap:
    def test_compiled_division_by_zero_traps(self):
        src = """
program dz; var x, y: integer;
begin x := 1; y := 0; writeln(x div y) end.
"""
        result = compile_source(src).run()
        assert result.trap == "divide by zero"

    def test_interpreter_raises(self):
        from repro.errors import InterpError

        with pytest.raises(InterpError):
            interpret_source(
                "program dz; var x: integer;\n"
                "begin x := 0; writeln(1 div x) end."
            )

    def test_mod_by_zero_traps_too(self):
        src = """
program mz; var x, y: integer;
begin x := 1; y := 0; writeln(x mod y) end.
"""
        assert compile_source(src).run().trap == "divide by zero"
