"""A Pascal-subset front end: the host compiler for the code generator.

The paper replaced the hand-written code generator of "a production
Pascal compiler"; this package is our stand-in for that compiler's front
end (lexer, parser, static semantics), plus the IF generator that feeds
the shaper/optimizer/code-generator pipeline and a reference interpreter
used as a differential-testing oracle.

Supported subset: programs with ``const``/``var`` declarations,
procedures and functions (value and ``var`` parameters, recursion),
``integer``/``shortint``/``char``/``boolean`` scalars, one-dimensional
arrays, the usual statements (``:=``, ``if``, ``while``, ``repeat``,
``for``, calls, ``begin/end``) and ``write``/``writeln``.
"""

from repro.pascal.compiler import CompiledProgram, compile_source, run_source

__all__ = [
    "CompiledProgram",
    "compile_source",
    "run_source",
    "interpret_source",
]


def __getattr__(name: str):
    # No compile or run uses the reference interpreter: import on use.
    if name == "interpret_source":
        from repro.pascal.interp import interpret_source

        return interpret_source
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
