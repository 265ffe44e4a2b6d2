"""A ratchet on the size of the generated code generator's runtime.

Paper section 6 puts the generated code generator under 2,500 lines.
Here its runtime is ``core/codegen/*.py`` plus ``core/specialize.py``,
counted by one fixed rule:

    A line counts when it holds a token other than COMMENT, NL, INDENT,
    DEDENT or ENDMARKER (``tokenize``; ENDMARKER sits past the last
    line), a multi-line token counting every line it spans, and it is
    not part of a module, class or function docstring (``ast``: a
    string constant as the first statement of the body).

So blank lines, comment lines and docstrings are free; code,
annotations and non-docstring string literals count.  The limit is the
count after the last change that shrank the runtime: a change may lower
it, and one that grows the runtime has to raise it and say why.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

import repro.core

#: The runtime's size by the rule above, at most.
RUNTIME_LINE_LIMIT = 2438

_FREE_TOKENS = {
    tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENDMARKER,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def counted_lines(text: str) -> int:
    """The lines of Python source ``text`` that count under the rule."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _FREE_TOKENS:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(text)):
        if not isinstance(node, _DOCUMENTED) or not node.body:
            continue
        first = node.body[0]
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def runtime_files():
    core = Path(repro.core.__file__).parent
    return sorted((core / "codegen").glob("*.py")) + [core / "specialize.py"]


def test_rule_skips_comments_blanks_and_docstrings():
    text = (
        '"""Module\ndocstring."""\n'
        "\n"
        "# a comment\n"
        "def f(x):\n"
        '    """Function docstring."""\n'
        "    return (x +\n"
        "            1)  # trailing comment\n"
        "\n"
        'TEXT = """two\nlines"""\n'
    )
    # def, return, its continuation, and both lines of TEXT.
    assert counted_lines(text) == 5


def test_runtime_within_its_line_limit():
    files = runtime_files()
    assert any(f.name == "parser_rt.py" for f in files)
    counts = {
        f.name: counted_lines(f.read_text(encoding="utf-8")) for f in files
    }
    total = sum(counts.values())
    assert total <= RUNTIME_LINE_LIMIT, (
        f"the code generator runtime has {total} counted lines, over its "
        f"limit of {RUNTIME_LINE_LIMIT}: "
        + ", ".join(f"{name} {n}" for name, n in counts.items())
    )
