"""Unit tests: machine descriptions, the cogg driver, operands, errors."""

import pytest

from repro import errors as E
from repro.core.cogg import build_code_generator
from repro.core.machine import (
    ClassKind,
    MachineDescription,
    RegisterClass,
    simple_machine,
    template_constants,
)
from repro.core.codegen.operand import (
    AttrValue,
    CCValue,
    LambdaValue,
    PairValue,
    RegValue,
    SpilledValue,
)

from helpers import TINY_SPEC, tiny_build


class TestRegisterClass:
    def test_pair_requires_underlying(self):
        with pytest.raises(E.SpecTypeError):
            RegisterClass("p", ClassKind.PAIR, members=(2,),
                          allocatable=(2,))

    def test_allocatable_must_be_members(self):
        with pytest.raises(E.SpecTypeError):
            RegisterClass("g", ClassKind.GPR, members=(1, 2),
                          allocatable=(3,))

    def test_simple_machine_defaults(self):
        machine = simple_machine("t")
        cls = machine.register_class("r")
        assert cls is not None
        assert cls.kind is ClassKind.GPR
        assert machine.register_class("zz") is None

    def test_gpr_class_of_pair(self):
        gpr = RegisterClass("g", ClassKind.GPR, members=(0, 1, 2, 3),
                            allocatable=(0, 1, 2, 3))
        pair = RegisterClass("p", ClassKind.PAIR, members=(0, 2),
                             allocatable=(0, 2), pair_of="r")
        machine = MachineDescription(
            name="m", classes={"r": gpr, "dbl": pair}
        )
        assert machine.gpr_class_of(pair) is gpr
        assert machine.gpr_class_of(gpr) is gpr

    def test_constant_resolution(self):
        """Template constants: the machine's, over the spec's numeric
        declarations."""
        sdts = tiny_build().sdts
        machine = simple_machine("t")
        assert template_constants(sdts, machine) == {"zero": 0}
        machine.constants.update(zero=5, magic=99)
        assert template_constants(sdts, machine) == {"zero": 5, "magic": 99}


class TestBuildResult:
    def test_statistics_merge_grammar_and_tables(self):
        build = tiny_build()
        stats = build.statistics()
        assert "productions" in stats and "states" in stats

    def test_size_report_consistency(self):
        build = tiny_build()
        report = build.size_report()
        assert report["uncompressed_bytes"] == build.tables.size_bytes()
        assert report["compression_ratio"] == pytest.approx(
            report["compressed_bytes"] / report["uncompressed_bytes"]
        )

    def test_conflict_summary_keys(self):
        summary = tiny_build().conflict_summary()
        assert set(summary) >= {"shift/reduce", "reduce/reduce"}

    def test_default_machine_when_none_given(self):
        build = build_code_generator(TINY_SPEC)
        assert build.machine.name == "testmachine"


class TestOperandValues:
    def test_pair_odd(self):
        pair = PairValue(4, "dbl")
        assert pair.odd == 5

    def test_str_forms(self):
        assert str(RegValue(3, "r")) == "r3"
        assert str(PairValue(2, "dbl")) == "dbl(2,3)"
        assert str(AttrValue("dsp", 80)) == "dsp=80"
        assert str(CCValue()) == "cc"
        assert str(LambdaValue()) == "lambda"
        assert "spill" in str(SpilledValue("r", 80, 13))

    def test_values_hashable_and_comparable(self):
        assert RegValue(1, "r") == RegValue(1, "r")
        assert RegValue(1, "r") != RegValue(2, "r")
        assert len({CCValue(), CCValue()}) == 1


class TestErrorHierarchy:
    def test_everything_is_reproerror(self):
        for name in dir(E):
            obj = getattr(E, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                if obj is not E.ReproError:
                    assert issubclass(obj, E.ReproError)

    def test_spec_error_carries_line(self):
        err = E.SpecError("bad thing", line=42)
        assert "line 42" in str(err)
        assert err.line == 42

    def test_pascal_error_line(self):
        err = E.PascalSyntaxError("oops", line=7)
        assert "line 7" in str(err)

    def test_codegen_subclassing(self):
        assert issubclass(E.RegisterPressureError, E.CodeGenError)
        assert issubclass(E.SpecSyntaxError, E.SpecError)
        assert issubclass(E.SpecTypeError, E.SpecError)


class TestParserRuntimeEdges:
    def test_prefixed_values_ride_sem_field(self):
        """A token with a sem payload wins over value interpretation."""
        from repro.ir.linear import IFToken

        build = tiny_build()
        gen = build.code_generator
        value = RegValue(5, "r")
        token = IFToken("r", 99, sem=value)
        assert gen._shift_value(token) is value

    def test_register_token_needs_number(self):
        from repro.ir.linear import IFToken

        build = tiny_build()
        with pytest.raises(E.CodeGenError):
            build.code_generator._shift_value(IFToken("r"))

    def test_operator_token_has_no_value(self):
        from repro.ir.linear import IFToken

        build = tiny_build()
        assert build.code_generator._shift_value(IFToken("word")) is None

    def test_accept_requires_consumed_input(self):
        from repro.ir.linear import IFToken as T

        build = tiny_build()
        good = [
            T("store"), T("d", 0),
            T("word"), T("d", 4),
        ]
        code = build.code_generator.generate(good)
        assert code.reductions == 3  # load, store-lambda, seq

    def test_error_message_names_state_and_lookahead(self):
        from repro.ir.linear import IFToken as T

        build = tiny_build()
        with pytest.raises(E.CodeGenError) as err:
            build.code_generator.generate([T("d", 0)])
        message = str(err.value)
        assert "state" in message and "lookahead" in message
