"""Set-up imports only what a compile or a run uses.

A cold start pays for every module it imports, so the compile path must
not drag in the batch driver, the request service, the disassembler or
the reference interpreter.  The compile server, which needs the request
service for every request, imports it while starting up instead of in
its first request.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Modules neither a compile nor a run uses.
UNUSED_BY_COMPILE = (
    "repro.pipeline.batch",
    "repro.pipeline.service",
    "repro.machines.s370.disasm",
    "repro.pascal.interp",
)

_COMPILE_SNIPPET = """
import json, sys
from repro.pascal.compiler import cached_build, compile_source

cached_build("full")
compiled = compile_source(
    "program t; var a: integer; begin a := 2 + 3; writeln(a) end.",
    opt_level=1,
)
assert compiled.run().output == "5\\n"
print(json.dumps(sorted(sys.modules)))
"""

_SERVER_SNIPPET = """
import json, sys
import repro.server.app

print(json.dumps(sorted(sys.modules)))
"""


def _modules_after(snippet: str, cache_dir: Path) -> set:
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"),
               REPRO_CACHE_DIR=str(cache_dir))
    proc = subprocess.run(
        [sys.executable, "-c", snippet],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_compile_loads_no_unused_module(tmp_path):
    loaded = _modules_after(_COMPILE_SNIPPET, tmp_path)
    assert "repro.pascal.compiler" in loaded
    assert loaded.isdisjoint(UNUSED_BY_COMPILE), sorted(
        loaded.intersection(UNUSED_BY_COMPILE)
    )


def test_server_imports_request_service(tmp_path):
    assert "repro.pipeline.service" in _modules_after(
        _SERVER_SNIPPET, tmp_path
    )


def test_deferred_names_still_resolve():
    from repro.pascal import interpret_source
    from repro.pipeline import pool

    assert interpret_source(
        "program t; begin writeln(7) end."
    ) == "7\n"
    assert callable(pool.acquire)
