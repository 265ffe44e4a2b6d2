"""Guard: no function of the -O2..-O4 fact layer imports anything.

A function-level ``import`` runs on every call.  In the dataflow step
functions that was about 300k executions per ``opt_stress`` pass and a
fifth of its compile time, so every module below imports at module
level.  Only the trace-only renderers, which run when a listing or a
DOT graph is asked for, may import lazily.
"""

import ast
from pathlib import Path

import pytest

import repro.opt

OPT = Path(repro.opt.__file__).parent

MODULES = ("dataflow", "cfg", "globalopt", "spillplan", "summaries")

#: module -> qualified names of the functions allowed to import.
ALLOWED = {
    "cfg": {"to_dot"},
    "globalopt": {"_Global._record"},
}


def _imports_in_functions(tree: ast.AST):
    """Yield ``(qualname, lineno)`` for each import inside a function."""

    def visit(node, scope, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                if in_function:
                    yield ".".join(scope), child.lineno
            elif isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                yield from visit(
                    child, scope + [child.name],
                    in_function or not isinstance(child, ast.ClassDef),
                )
            else:
                yield from visit(child, scope, in_function)

    yield from visit(tree, [], False)


@pytest.mark.parametrize("module", MODULES)
def test_no_function_level_imports(module):
    tree = ast.parse((OPT / f"{module}.py").read_text())
    found = [
        f"{module}.{name} (line {line})"
        for name, line in _imports_in_functions(tree)
        if name not in ALLOWED.get(module, set())
    ]
    assert found == []


def test_guard_sees_a_function_level_import():
    tree = ast.parse(
        "import os\n"
        "class C:\n"
        "    def m(self):\n"
        "        def inner():\n"
        "            from x import y\n"
    )
    assert list(_imports_in_functions(tree)) == [("C.m.inner", 5)]

