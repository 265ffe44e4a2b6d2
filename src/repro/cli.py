"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run FILE``
    Compile a Pascal program with the table-driven code generator and
    execute it on the S/370 simulator.  ``-O 0`` skips the
    post-selection peephole pass (default ``-O 1``).
``compile FILE``
    Compile and show statistics; ``--listing`` prints the resolved
    assembly, ``--dump-asm`` the before/after peephole diff with
    per-rule annotations, ``--dump-summaries`` the per-routine
    interprocedural effect summaries, ``-o`` writes the object-module
    card images.
``interp FILE``
    Run the reference interpreter (the differential-testing oracle).
``tables``
    Report the paper's Table 1/Table 2 statistics for a spec variant.
``spec-check FILE``
    Parse and type check a code-generator specification, then build its
    tables against the S/370 machine binding and print diagnostics.
``lint SPEC``
    Run the speclint static analyzer (:mod:`repro.analysis`) over a spec
    file or a built-in spec (``toy``, ``s370``, ``s370:minimal``...),
    reporting blocking hazards, chain loops, dead rules and template/ISA
    mismatches; ``--json`` emits the machine-readable report.
``chaos``
    Seeded fault-injection campaign: corrupt parse tables, IF streams,
    register classes, object modules and build-cache artifacts,
    asserting the pipeline always fails with a typed error, or still
    produces correct code (see :mod:`repro.robustness.faultinject`).
``serve``
    Start the long-lived compile server (:mod:`repro.server`): tables
    built once at startup, then ``POST /compile``, ``POST /run``,
    ``POST /lint`` and ``GET /metrics`` over HTTP, with a bounded
    request queue (429 + ``Retry-After`` past ``--queue-limit``),
    per-request ``--deadline-ms`` watchdogs, typed JSON error
    envelopes, a per-spec circuit breaker degrading to the baseline
    generator, and graceful SIGTERM drain.
``batch``
    Compile (and run) many programs through the parallel batch driver
    (:mod:`repro.pipeline.batch`): ``--jobs N`` workers warm-start from
    the persistent build cache, results are reported in input order,
    and pool failure degrades gracefully to serial.
``bench [speed|codequality]``
    Benchmark trajectories.  ``speed`` (the default): tokens/second
    through the code generator with and without compiled reducers and
    over compressed tables, steps/second through the simulator's compiled blocks
    against its reference loop, end-to-end per-phase medians and batch
    throughput, table-build phase times, and cold-vs-warm build-cache
    start; writes ``BENCH_speed.json`` (see :mod:`repro.bench.speed`).
    ``codequality``: executed instructions, code bytes and per-rule
    peephole hits across the table-driven ``-O0``/``-O1`` and baseline
    tree-generator lanes, gated on identical program outputs; writes
    ``BENCH_codequality.json`` (see :mod:`repro.bench.codequality`).

``run``, ``compile`` and ``batch`` accept ``--profile`` to print the
phase profiler's table (front end -> shape/CSE -> linearize -> select ->
assemble -> simulate) after the normal output.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.errors import ReproError


def _add_variant(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--variant",
        choices=("minimal", "medium", "full"),
        default="full",
        help="spec grammar size (default: full)",
    )


def _add_table_mode(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--table-mode",
        choices=("dense", "compressed"),
        default="dense",
        help="runtime table representation: the full action matrix or "
             "the base/next/check compressed arrays (default: dense)",
    )


def _add_opt_level(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "-O", dest="opt_level", type=int, choices=(0, 1, 2, 3, 4), default=1,
        help="post-selection optimization level: 0 assembles the "
             "selector's output as-is, 1 runs the peephole pass "
             "(default), 2 adds the global CFG/dataflow optimizer, "
             "3 adds global CSE and liveness-planned register "
             "allocation, 4 adds interprocedural effect summaries "
             "(call-boundary facts and spill rematerialization)",
    )


class _InjectorNames:
    """``chaos --injector`` choices: the keys of
    :data:`repro.robustness.faultinject.INJECTORS`, imported only when a
    value is checked or help is shown (the harness is slow to import)."""

    def __contains__(self, name: object) -> bool:
        return name in list(self)

    def __iter__(self):
        from repro.robustness.faultinject import INJECTORS

        return iter(sorted(INJECTORS))


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "CoGG: table-driven code generation "
            "(reproduction of Bird, PLDI 1982)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="compile and simulate a program")
    run.add_argument("file", type=Path)
    _add_variant(run)
    _add_table_mode(run)
    run.add_argument("--checks", action="store_true",
                     help="enable subscript/set range checking")
    run.add_argument("--no-optimize", action="store_true",
                     help="disable the CSE optimizer")
    run.add_argument("--baseline", action="store_true",
                     help="use the hand-written baseline generator")
    run.add_argument("--fallback", action="store_true",
                     help="degrade blocked routines to the baseline "
                          "generator instead of failing")
    run.add_argument("--input", type=int, nargs="*", default=None,
                     metavar="N",
                     help="integers consumed by read/readln")
    run.add_argument("--profile", action="store_true",
                     help="print per-phase wall times after the run")
    _add_opt_level(run)

    comp = sub.add_parser("compile", help="compile and inspect")
    comp.add_argument("file", type=Path)
    _add_variant(comp)
    _add_table_mode(comp)
    comp.add_argument("--checks", action="store_true")
    comp.add_argument("--no-optimize", action="store_true")
    comp.add_argument("--debug", action="store_true",
                      help="annotate the listing with source lines")
    comp.add_argument("--fallback", action="store_true",
                      help="degrade blocked routines to the baseline "
                           "generator instead of failing")
    comp.add_argument("--listing", action="store_true",
                      help="print the resolved assembly listing")
    comp.add_argument("--profile", action="store_true",
                      help="print per-phase wall times after the stats")
    comp.add_argument("-o", "--output", type=Path,
                      help="write object-module records here")
    comp.add_argument("--dump-asm", action="store_true",
                      help="print the before/after peephole unified diff "
                           "with per-rule annotations")
    comp.add_argument("--dump-cfg", action="store_true",
                      help="print the control-flow graph as Graphviz DOT "
                           "with per-block register/CC liveness")
    comp.add_argument("--dump-summaries", action="store_true",
                      help="print the per-routine interprocedural effect "
                           "summaries (clobbers, memory writes, condition "
                           "code) the -O4 passes consume")
    _add_opt_level(comp)

    batch = sub.add_parser(
        "batch",
        help="compile (and run) many programs in parallel",
    )
    batch.add_argument("files", type=Path, nargs="+",
                       help="Pascal source files, compiled in this order")
    _add_variant(batch)
    _add_table_mode(batch)
    batch.add_argument("-j", "--jobs", type=int, default=None,
                       help="worker processes (default: CPU count; "
                            "1 = strictly serial)")
    batch.add_argument("--checks", action="store_true")
    batch.add_argument("--no-optimize", action="store_true")
    batch.add_argument("--fallback", action="store_true",
                       help="degrade blocked routines to the baseline "
                            "generator instead of failing that program")
    batch.add_argument("--no-run", action="store_true",
                       help="compile only; skip the simulator")
    batch.add_argument("--profile", action="store_true",
                       help="print the batch's summed per-phase times")
    _add_opt_level(batch)

    interp = sub.add_parser("interp", help="run the reference interpreter")
    interp.add_argument("file", type=Path)

    tables = sub.add_parser("tables", help="Table 1/2 statistics")
    _add_variant(tables)

    check = sub.add_parser("spec-check",
                           help="check a code-generator specification")
    check.add_argument("file", type=Path)

    lint = sub.add_parser("lint",
                          help="static analysis of a code-generator spec")
    lint.add_argument("spec",
                      help="spec file, or built-in 'toy' / 's370' / "
                           "'s370:VARIANT'")
    lint.add_argument("--json", action="store_true", dest="as_json",
                      help="emit the JSON report (schema version 1)")
    lint.add_argument("--fail-on", choices=("error", "warning", "info"),
                      default="error",
                      help="exit nonzero when any diagnostic at or above "
                           "this severity is found (default: error)")
    lint.add_argument("--target", choices=("auto", "s370", "toy", "generic"),
                      default="auto",
                      help="machine binding for spec files (default: auto "
                           "= generic 8-register test machine; built-in "
                           "specs always use their own binding)")
    lint.add_argument("--gencode", metavar="SRC", default=None,
                      help="sanitize the code *generated* for a Pascal "
                           "source file (or 'bench' for every bench "
                           "workload) instead of analyzing the spec; "
                           "SPEC names the s370 variant to compile with")
    lint.add_argument("-O", dest="opt_level", type=int,
                      choices=(0, 1, 2, 3, 4), default=1,
                      help="optimization level for --gencode compiles "
                           "(default: 1)")

    dump = sub.add_parser("objdump",
                          help="disassemble an object-module file")
    dump.add_argument("file", type=Path)

    chaos = sub.add_parser("chaos",
                           help="seeded fault-injection campaign")
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--runs", type=int, default=100)
    chaos.add_argument("--injector", action="append", default=None,
                       choices=_InjectorNames(), metavar="NAME",
                       help="restrict to one injector: %(choices)s "
                            "(repeatable; default: all)")
    _add_variant(chaos)

    serve = sub.add_parser(
        "serve",
        help="start the long-lived compile server "
             "(POST /compile, /run, /lint; GET /metrics)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8370,
                       help="listen port (0 picks a free one; "
                            "default: 8370)")
    serve.add_argument("-j", "--jobs", type=int, default=2,
                       help="concurrent worker slots (default: 2)")
    serve.add_argument("--queue-limit", type=int, default=16,
                       help="max requests waiting for a slot before "
                            "429s start (default: 16)")
    serve.add_argument("--deadline-ms", type=float, default=10_000.0,
                       help="per-request deadline from receipt to "
                            "response (default: 10000)")
    serve.add_argument("--drain-ms", type=float, default=5_000.0,
                       help="how long SIGTERM waits for in-flight "
                            "requests (default: 5000)")
    serve.add_argument("--body-limit", type=int, default=None,
                       help="request body byte cap (default: 1 MiB)")
    serve.add_argument("--fallback", action="store_true",
                       help="default per-routine baseline fallback for "
                            "requests that don't specify one")
    serve.add_argument("--metrics-file", type=Path, default=None,
                       help="write the final metrics snapshot here on "
                            "drain")
    _add_variant(serve)
    _add_table_mode(serve)

    bench = sub.add_parser("bench",
                           help="benchmark trajectories (speed / "
                                "generated-code quality)")
    bench.add_argument("mode", nargs="?", choices=("speed", "codequality"),
                       default="speed",
                       help="speed: runtime throughput record "
                            "(BENCH_speed.json); codequality: executed "
                            "instructions + code bytes across the "
                            "-O0/-O1/baseline lanes "
                            "(BENCH_codequality.json)")
    bench.add_argument("-n", "--iterations", type=int, default=9,
                       help="timing runs per lane; the median is "
                            "reported (speed mode only, default: 9)")
    bench.add_argument("--assignments", type=int, default=250,
                       help="straightline workload size (default: 250)")
    bench.add_argument("--seed", type=int, default=9)
    bench.add_argument("-o", "--output", type=Path, default=None,
                       help="where to write the JSON record (default: "
                            "./BENCH_speed.json or "
                            "./BENCH_codequality.json by mode)")
    bench.add_argument("--no-write", action="store_true",
                       help="print the summary without writing the JSON")
    bench.add_argument("--validate", type=Path, metavar="REPORT",
                       help="validate an existing report against the "
                            "mode's schema and exit")
    bench.add_argument("--compare", nargs=2, type=Path,
                       metavar=("OLD", "NEW"),
                       help="print per-workload quality deltas between "
                            "two codequality reports; exits nonzero if "
                            "any metric regressed (codequality mode "
                            "only)")
    bench.add_argument("-j", "--jobs", type=int, default=None,
                       help="worker processes for the batch-throughput "
                            "section (default: min(4, CPU count))")
    _add_variant(bench)

    return parser


def _report_degradations(compiled) -> None:
    """One ``** degraded:`` stderr line per routine that fell back to the
    baseline generator and per optimization level given up."""
    from repro.pascal.compiler import describe_degradation

    for event in compiled.fallback_events:
        print(f"** degraded: {event}", file=sys.stderr)
    for event in compiled.stats["degraded"]:
        print(f"** degraded: {describe_degradation(event)}",
              file=sys.stderr)


def cmd_run(args: argparse.Namespace) -> int:
    source = args.file.read_text()
    if args.baseline:
        from repro.baseline import compile_baseline
        from repro.machines.s370 import runtime
        from repro.machines.s370.simulator import Simulator

        program = compile_baseline(source)
        simulator = Simulator(input_values=args.input)
        simulator.load_image(
            runtime.ExecutableImage(
                code=program.module.code,
                entry=program.module.entry,
                data=program.data,
                relocations=list(program.module.relocations),
            )
        )
        result = simulator.run()
    else:
        from repro.pascal import compile_source
        from repro.pipeline.profile import PhaseProfiler

        profiler = PhaseProfiler() if args.profile else None
        compiled = compile_source(
            source,
            variant=args.variant,
            optimize=not args.no_optimize,
            checks=args.checks,
            fallback=args.fallback,
            table_mode=args.table_mode,
            profiler=profiler,
            opt_level=args.opt_level,
        )
        _report_degradations(compiled)
        result = compiled.run(input_values=args.input, profiler=profiler)
        if profiler is not None:
            print(profiler.render(), file=sys.stderr)
    sys.stdout.write(result.output)
    if result.trap is not None:
        print(f"** trapped: {result.trap}", file=sys.stderr)
        return 2
    return 0


def _render_peephole_diff(compiled) -> str:
    """Unified diff of the symbolic listing around the peephole pass,
    followed by the per-rule rewrite annotations (``--dump-asm``)."""
    import difflib

    if compiled.asm_before is None or compiled.asm_after is None:
        return "(peephole disabled: nothing to diff)"
    diff = difflib.unified_diff(
        compiled.asm_before.splitlines(),
        compiled.asm_after.splitlines(),
        fromfile="before-peephole",
        tofile="after-peephole",
        lineterm="",
    )
    lines = list(diff) or ["(peephole made no changes)"]
    if compiled.peephole_events:
        lines.append("")
        lines.append("rewrites:")
        lines.extend(
            f"  {event.render()}" for event in compiled.peephole_events
        )
    return "\n".join(lines)


def cmd_compile(args: argparse.Namespace) -> int:
    from repro.pascal import compile_source
    from repro.pipeline.profile import PhaseProfiler

    profiler = PhaseProfiler() if args.profile else None
    compiled = compile_source(
        args.file.read_text(),
        variant=args.variant,
        optimize=not args.no_optimize,
        checks=args.checks,
        debug=args.debug,
        fallback=args.fallback,
        table_mode=args.table_mode,
        profiler=profiler,
        opt_level=args.opt_level,
        peephole_trace=args.dump_asm,
    )
    _report_degradations(compiled)
    for key, value in compiled.stats.items():
        print(f"{key:16s} {value}")
    print(f"{'cse_groups':16s} {compiled.cse_count}")
    if profiler is not None:
        print()
        print(profiler.render())
    if args.dump_asm:
        print()
        print(_render_peephole_diff(compiled))
    if args.dump_cfg:
        from repro.opt.cfg import build_cfg, to_dot
        from repro.opt.dataflow import liveness
        from repro.pascal.compiler import cached_build

        encoder = cached_build(
            args.variant, table_mode=args.table_mode
        ).machine.encoder
        cfg = build_cfg(compiled.generated.buffer, encoder)
        live = liveness(cfg) if cfg.ok else None
        print()
        print(to_dot(
            cfg,
            live_in=live.live_in if live else None,
            live_out=live.live_out if live else None,
            title=args.file.stem,
        ), end="")
        if not cfg.ok:
            print(f"// cfg degraded: {cfg.reason}", file=sys.stderr)
    if args.dump_summaries:
        from repro.opt.cfg import build_cfg
        from repro.opt.summaries import compute_summaries, render_summaries
        from repro.pascal.compiler import cached_build

        encoder = cached_build(
            args.variant, table_mode=args.table_mode
        ).machine.encoder
        cfg = build_cfg(
            compiled.generated.buffer, encoder,
            disjoint_bases=encoder.disjoint_base_pairs(),
        )
        print()
        if cfg.ok:
            print(render_summaries(compute_summaries(cfg, encoder)))
        else:
            print(f"(no summaries: cfg degraded: {cfg.reason})")
    if args.listing:
        print()
        print(compiled.listing())
    if args.output is not None:
        args.output.write_bytes(compiled.object_records)
        print(f"\nwrote {len(compiled.object_records)} bytes "
              f"({len(compiled.object_records) // 80} card images) "
              f"to {args.output}")
    return 0


def cmd_batch(args: argparse.Namespace) -> int:
    from repro.pipeline.batch import compile_batch, load_sources

    report = compile_batch(
        load_sources(args.files),
        jobs=args.jobs,
        variant=args.variant,
        table_mode=args.table_mode,
        optimize=not args.no_optimize,
        checks=args.checks,
        fallback=args.fallback,
        run=not args.no_run,
        profile=args.profile,
        opt_level=args.opt_level,
    )
    # Program outputs on stdout, in input order, so a parallel batch is
    # byte-identical to a serial one; diagnostics go to stderr.
    for result in report.results:
        if result.output is not None:
            sys.stdout.write(result.output)
    print(report.render(), file=sys.stderr)
    if args.profile:
        from repro.pipeline.profile import PhaseProfiler

        profiler = PhaseProfiler(report.merged_profile())
        print(file=sys.stderr)
        print(profiler.render(), file=sys.stderr)
    return 0 if report.ok else 2


def cmd_interp(args: argparse.Namespace) -> int:
    from repro.pascal import interpret_source

    sys.stdout.write(interpret_source(args.file.read_text()))
    return 0


def cmd_tables(args: argparse.Namespace) -> int:
    from repro.core.diagnostics import summarize
    from repro.pascal.compiler import cached_build

    print(summarize(cached_build(args.variant)))
    return 0


def cmd_spec_check(args: argparse.Namespace) -> int:
    from repro.core.cogg import build_code_generator
    from repro.core.diagnostics import summarize
    from repro.machines.s370.spec import extra_semops, machine_description

    build = build_code_generator(
        args.file.read_text(),
        machine_description(),
        extra_semops=extra_semops(),
    )
    print(summarize(build))
    return 0


def _lint_gencode(args: argparse.Namespace) -> int:
    """``lint SPEC --gencode SRC``: sanitize generated code.

    ``SRC`` is a Pascal source file, or the literal ``bench`` to sweep
    every code-quality workload; ``SPEC`` names the s370 spec variant
    the program is compiled with.
    """
    from repro.analysis import run_gencode_lint
    from repro.pascal.compiler import cached_build, compile_source

    if args.gencode == "bench":
        from repro.bench.codequality import quality_workloads

        programs = list(quality_workloads())
    else:
        path = Path(args.gencode)
        programs = [(path.stem, path.read_text())]

    variant = args.spec if args.spec != "s370" else "full"
    encoder = cached_build(variant).machine.encoder
    failed = False
    for name, source in programs:
        compiled = compile_source(
            source, variant=variant, opt_level=args.opt_level
        )
        report = run_gencode_lint(
            compiled.generated, encoder,
            program_name=f"{name} (-O{args.opt_level})", target="s370",
        )
        print(report.to_json(indent=2) if args.as_json
              else report.render())
        if report.at_least(args.fail_on):
            failed = True
    return 1 if failed else 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import Diagnostic, LintReport, run_lint
    from repro.core.cogg import build_code_generator
    from repro.pipeline.service import lint_inputs

    if args.gencode is not None:
        return _lint_gencode(args)
    name, text, machine, extra = lint_inputs(args.spec, args.target)
    try:
        build = build_code_generator(text, machine, extra_semops=extra)
    except ReproError as error:
        report = LintReport(spec_name=name, target=machine.name)
        report.extend([
            Diagnostic(
                code="SL000",
                severity="error",
                message=f"specification failed to build: {error}",
                line=getattr(error, "line", 0) or 0,
            )
        ])
    else:
        report = run_lint(build, spec_name=name)
    print(report.to_json(indent=2) if args.as_json else report.render())
    return 1 if report.at_least(args.fail_on) else 0


def cmd_objdump(args: argparse.Namespace) -> int:
    from repro.machines.s370.disasm import render
    from repro.machines.s370.objmod import read_object

    obj = read_object(args.file.read_bytes())
    print(f"* module {obj.name}: {len(obj.code)} bytes of code, "
          f"entry {obj.entry:#x}, {len(obj.data)} bytes of data, "
          f"{len(obj.relocations)} relocations")
    print(render(obj.code, start=obj.entry))
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.robustness import run_chaos

    report = run_chaos(
        seed=args.seed,
        runs=args.runs,
        injectors=args.injector,
        variant=args.variant,
    )
    print(report.render())
    return 0 if report.ok else 1


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.server.app import ServerConfig, serve
    from repro.server.wire import DEFAULT_BODY_LIMIT

    return serve(ServerConfig(
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        queue_limit=args.queue_limit,
        deadline_ms=args.deadline_ms,
        drain_ms=args.drain_ms,
        body_limit=(args.body_limit if args.body_limit is not None
                    else DEFAULT_BODY_LIMIT),
        fallback=args.fallback,
        metrics_path=(str(args.metrics_file)
                      if args.metrics_file is not None else None),
        variant=args.variant,
        table_mode=args.table_mode,
    ))


def cmd_bench(args: argparse.Namespace) -> int:
    import json

    if args.mode == "codequality":
        from repro.bench import codequality as lane
    else:
        from repro.bench import speed as lane  # type: ignore[no-redef]

    if args.compare is not None:
        if args.mode != "codequality":
            print("--compare requires the codequality mode",
                  file=sys.stderr)
            return 2
        old_path, new_path = args.compare
        old = json.loads(old_path.read_text())
        new = json.loads(new_path.read_text())
        table, regressions = lane.compare_reports(old, new)
        print(table)
        return 1 if regressions else 0

    if args.validate is not None:
        report = json.loads(args.validate.read_text())
        problems = lane.validate_report(report)
        for problem in problems:
            print(f"invalid: {problem}", file=sys.stderr)
        if not problems:
            print(f"{args.validate}: valid (schema "
                  f"{report['schema_version']}, rev {report['git_rev']})")
        return 1 if problems else 0

    if args.mode == "codequality":
        report = lane.run_bench(variant=args.variant)
    else:
        report = lane.run_bench(
            iterations=args.iterations,
            assignments=args.assignments,
            seed=args.seed,
            variant=args.variant,
            jobs=args.jobs,
        )
    print(lane.render_summary(report))
    if not args.no_write:
        output = args.output if args.output is not None \
            else Path(lane.DEFAULT_REPORT)
        lane.write_report(report, output)
        print(f"\nwrote {output}")
    return 0


_COMMANDS = {
    "run": cmd_run,
    "compile": cmd_compile,
    "batch": cmd_batch,
    "interp": cmd_interp,
    "tables": cmd_tables,
    "spec-check": cmd_spec_check,
    "lint": cmd_lint,
    "objdump": cmd_objdump,
    "chaos": cmd_chaos,
    "serve": cmd_serve,
    "bench": cmd_bench,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
