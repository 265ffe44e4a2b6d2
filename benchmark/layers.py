"""The compile pipeline, called layer by layer from outside the compiler.

:func:`compile_layers` makes the calls ``repro.pascal.compiler.compile_program``
makes, in its order and with its arguments, and puts a span around each
public layer call.  The object code it produces must be byte-identical to
``compile_source``'s; the benchmark checks that for every program before
it times anything.  :func:`run_layers` loads and runs the result as
``CompiledProgram.run`` does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.codegen.emitter import Instr
from repro.core.codegen.loader_records import resolve_module
from repro.ir.optimizer import optimize_routine
from repro.machines.s370 import runtime
from repro.machines.s370.objmod import write_object
from repro.machines.s370.simulator import SimResult, Simulator
from repro.opt.globalopt import run_global
from repro.opt.peephole import run_peephole
from repro.opt.spillplan import generate_with_liveness
from repro.pascal.irgen import generate_ir
from repro.pascal.parser import parse_source
from repro.pascal.sema import check_program

from spans import Tracer

#: The simulator's default step limit (``CompiledProgram.run``).
MAX_STEPS = 2_000_000

#: Spans whose durations add up to compile time, and to simulator time.
COMPILE_SPANS = (
    "frontend.parse", "frontend.check", "ir.generate", "ir.optimize",
    "ir.linearize", "select", "peephole", "globalopt", "asm.resolve",
    "asm.write_object",
)
RUN_SPANS = ("sim.load", "sim.run")


@dataclass
class Compiled:
    """What one compile produced, plus the counts the metrics read."""

    module: object
    data: bytes
    records: bytes
    tokens: int
    reductions: int
    cse_count: int
    instructions: int
    peephole: Optional[object]
    globalopt: Optional[object]
    regalloc: Optional[Dict[str, object]]


def compile_layers(
    tracer: Tracer, build, source: str, level: int, count: bool = False
) -> Compiled:
    """Compile ``source`` at ``level`` with the defaults of ``compile_source``
    (variant ``full``, dense tables, IF optimization on, no checks).

    ``count`` also counts the instructions selection emitted (the
    peephole's input), which costs a scan of the code buffer."""
    with tracer.span("frontend.parse"):
        tree = parse_source(source)
    with tracer.span("frontend.check"):
        program = check_program(tree)
    with tracer.span("ir.generate"):
        ir = generate_ir(program, checks=False, debug=False)
    cse_count = 0
    with tracer.span("ir.optimize"):
        next_id = 1
        for routine in ir.routines:
            statements, next_id, added = optimize_routine(
                routine.statements,
                routine.frame,
                next_cse_id=next_id,
                base_reg=runtime.R_STACK_BASE,
            )
            routine.statements = statements
            cse_count += added
    with tracer.span("ir.linearize"):
        tokens = ir.tokens(codes=build.code_generator.tables.sym_index)
    regalloc = None
    with tracer.span("select"):
        if level >= 3:
            generated, regalloc = generate_with_liveness(
                build, tokens, frame=ir.spill_frame, level=level
            )
        else:
            generated = build.code_generator.generate(
                tokens, frame=ir.spill_frame
            )
    instructions = sum(
        1 for item in generated.buffer.items if isinstance(item, Instr)
    ) if count else 0
    peephole = globalopt = None
    if level >= 1:
        with tracer.span("peephole"):
            peephole = run_peephole(generated, rules=None, trace=False)
    if level >= 2:
        with tracer.span("globalopt"):
            globalopt = run_global(
                generated, build.machine.encoder, trace=False, level=level
            )
    with tracer.span("asm.resolve"):
        module = resolve_module(
            generated, build.machine, entry_label=ir.main_label
        )
    with tracer.span("asm.write_object"):
        records = write_object(
            module, data=ir.data, name=program.name[:8].upper()
        )
    return Compiled(
        module=module,
        data=ir.data,
        records=records,
        tokens=len(tokens),
        reductions=generated.reductions,
        cse_count=cse_count,
        instructions=instructions,
        peephole=peephole,
        globalopt=globalopt,
        regalloc=regalloc,
    )


def run_layers(
    tracer: Tracer, compiled: Compiled, inputs: List[int]
) -> SimResult:
    """Load and run on a fresh simulator."""
    module = compiled.module
    image = runtime.ExecutableImage(
        code=module.code,
        entry=module.entry,
        data=compiled.data,
        relocations=list(module.relocations),
    )
    simulator = Simulator(input_values=list(inputs))
    with tracer.span("sim.load"):
        simulator.load_image(image)
    with tracer.span("sim.run"):
        return simulator.run(max_steps=MAX_STEPS)
