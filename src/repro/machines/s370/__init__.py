"""IBM System/370 target (the paper's Amdahl 470).

Public surface:

* :func:`spec_text` / spec variants -- the SDTS for the machine;
* :func:`machine_description` -- register classes + runtime constants;
* :class:`~repro.machines.s370.encode.S370Encoder` -- instruction encoder;
* :mod:`~repro.machines.s370.objmod` -- ESD/TXT/RLD/END object records;
* :class:`~repro.machines.s370.simulator.Simulator` -- subset emulator;
* :mod:`~repro.machines.s370.runtime` -- linkage conventions and the
  runtime support area (entry_code, check handlers, SVC services);
* :mod:`~repro.machines.s370.disasm` -- the disassembler, imported from
  its module only (no compile or run needs it).
"""

from repro.machines.s370.spec import machine_description, spec_text
from repro.machines.s370.simulator import Simulator
from repro.machines.s370.encode import S370Encoder

__all__ = [
    "machine_description",
    "spec_text",
    "Simulator",
    "S370Encoder",
]
