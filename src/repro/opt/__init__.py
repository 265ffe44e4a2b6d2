"""Post-selection optimization passes over symbolic S/370 code.

The table-driven code generator emits locally-optimal code per
production; what it cannot see is the seam *between* reductions --
a value stored by one statement and immediately reloaded by the next,
a branch whose target is another branch, a constant materialization
feeding a single add.  Bird's paper closes part of this gap with idiom
productions in the grammar (section 5); the peephole pass here covers
the rest, the pairing Hjort Blindell's survey calls the standard
table-driven design.

At -O1 that is :mod:`repro.opt.peephole`: one forward pass over the
emitter's symbolic instruction stream, run between selection and branch
resolution so labels and relocation sites stay symbolic.  -O2..-O4 add
the global passes of :mod:`repro.opt.globalopt`; both report through
:class:`~repro.opt.peephole.RewriteResult`.
"""

from repro.opt.peephole import (
    ALL_RULES,
    RewriteEvent,
    RewriteResult,
    run_peephole,
)

__all__ = ["ALL_RULES", "RewriteEvent", "RewriteResult", "run_peephole"]
