"""The Loader Record Generator (paper sections 3 and 4.2).

Resolves every label reference and branch instruction after all code for
a module has been generated, then materializes the final byte image:

* **short branch**: the target lies in the first page covered by the
  code base register -> a single 4-byte ``BC cond,target(0,code_base)``;
* **long branch**: the target is off-page -> "an additional load
  instruction (loading a page multiple value into a register) is
  required to establish addressability" (paper 4.2).  We load the page
  multiple from a literal pool placed at module offset zero (so the pool
  itself is always addressable) and branch indexed through the spare
  register the BRANCH template allocated.

Deciding short vs. long is the classic span-dependent instruction
problem (the paper's refs [9, 10]): lengthening one branch can push
another branch's target off-page.  We start everything short and grow to
a fixpoint; growth is monotone, so termination is immediate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import LoaderError
from repro.core.machine import Encoder, MachineDescription
from repro.core.codegen.emitter import (
    AConSite,
    BranchSite,
    BufferItem,
    DataBlock,
    Imm,
    Instr,
    LabelMark,
    Mem,
    R,
    SkipSite,
    StmtMark,
)
from repro.core.codegen.parser_rt import GeneratedCode


class ListingLine:
    """One line of the post-resolution assembly listing.

    ``text`` may be given as an :class:`Instr`, whose opcode and operands
    are kept and formatted on the first read of ``text``: most resolved
    modules are never listed.
    """

    __slots__ = ("address", "data", "comment", "_text")

    def __init__(
        self, address: int, data: bytes, text: Union[str, Instr],
        comment: str = "",
    ):
        self.address = address
        self.data = data
        self.comment = comment
        self._text: Union[str, Tuple[str, tuple]] = (
            text if isinstance(text, str) else (text.opcode, text.operands)
        )

    @property
    def text(self) -> str:
        text = self._text
        if not isinstance(text, str):
            text = self._text = str(Instr(*text))
        return text

    def render(self) -> str:
        hexes = self.data.hex().upper()
        body = f"{self.address:06X}  {hexes:<16} {self.text}"
        if self.comment:
            body = f"{body:<60} {self.comment}"
        return body


@dataclass
class ResolvedModule:
    """A fully resolved, relocatable module image."""

    code: bytes
    entry: int
    relocations: List[int] = field(default_factory=list)
    labels: Dict[int, int] = field(default_factory=dict)
    short_branches: int = 0
    long_branches: int = 0
    literal_pool: List[int] = field(default_factory=list)
    listing_lines: List[ListingLine] = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.code)

    def listing(self) -> str:
        return "\n".join(line.render() for line in self.listing_lines)


@dataclass
class _Sizes:
    """Per-target branch-site byte sizes, derived from the encoder."""

    short: int
    long: int


def _site_sizes(machine: MachineDescription) -> _Sizes:
    encoder = machine.encoder
    assert encoder is not None
    branch = encoder.size(Instr(machine.branch_op, (Imm(0), Mem(0, 0, 0))))
    load = encoder.size(
        Instr(machine.branch_load_op, (R(0), Mem(0, 0, 0)))
    )
    return _Sizes(short=branch, long=branch + load)


def _item_size(
    item: BufferItem, encoder: Encoder, long_flags: Dict[int, bool],
    index: int, address: int, sizes: _Sizes,
) -> int:
    if isinstance(item, Instr):
        return encoder.size(item)
    if isinstance(item, (LabelMark, StmtMark)):
        return 0
    if isinstance(item, (BranchSite, SkipSite)):
        return sizes.long if long_flags.get(index, False) else sizes.short
    if isinstance(item, AConSite):
        return 4 + (-address) % 4  # align the constant itself
    if isinstance(item, DataBlock):
        return len(item.data)
    raise LoaderError(f"unknown buffer item {item!r}")


def _layout(
    items: List[BufferItem],
    encoder: Encoder,
    long_flags: Dict[int, bool],
    pool_size: int,
    sizes: _Sizes,
) -> Tuple[List[int], Dict[int, int]]:
    """Addresses per item plus the label address map, for one iteration."""
    addresses: List[int] = []
    labels: Dict[int, int] = {}
    address = pool_size
    for index, item in enumerate(items):
        addresses.append(address)
        if isinstance(item, LabelMark):
            labels[item.label] = address
        address += _item_size(
            item, encoder, long_flags, index, address, sizes
        )
    addresses.append(address)  # end sentinel: total size
    return addresses, labels


def resolve_module(
    generated: GeneratedCode,
    machine: MachineDescription,
    entry_label: Optional[int] = None,
) -> ResolvedModule:
    """Run the two conceptual passes of the loader record generator:
    the span-dependent sizing fixpoint, then byte materialization."""
    encoder = machine.encoder
    if encoder is None:
        raise LoaderError(
            f"machine {machine.name!r} provides no instruction encoder"
        )
    generated.labels.validate()
    items = generated.buffer.items
    page = machine.page_size
    code_base = machine.constants.get("code_base")
    if code_base is None:
        raise LoaderError(
            "machine constants must define 'code_base' for branch "
            "resolution"
        )

    long_flags: Dict[int, bool] = {}
    literals: List[int] = []  # page multiples, in first-need order
    sizes = _site_sizes(machine)

    while True:
        pool_size = 4 * len(literals)
        addresses, labels = _layout(
            items, encoder, long_flags, pool_size, sizes
        )
        changed = False
        for index, item in enumerate(items):
            if isinstance(item, BranchSite):
                target = labels.get(item.label)
                if target is None:
                    raise LoaderError(
                        f"branch references unresolved label {item.label}"
                    )
            elif isinstance(item, SkipSite):
                size = sizes.long if long_flags.get(index, False) \
                    else sizes.short
                target = addresses[index] + size + 2 * item.halfwords
            else:
                continue
            needs_long = target >= page
            if needs_long and not long_flags.get(index, False):
                long_flags[index] = True
                changed = True
            if needs_long:
                multiple = (target // page) * page
                if multiple not in literals:
                    literals.append(multiple)
                    changed = True
        if not changed:
            # Nothing grew: this iteration's layout is the final one.
            break

    if entry_label is not None:
        if entry_label not in labels:
            raise LoaderError(f"entry label {entry_label} is not defined")
        entry = labels[entry_label]
    else:
        entry = pool_size
    module = ResolvedModule(
        code=b"",
        entry=entry,
        labels=labels,
        literal_pool=list(literals),
    )

    out = bytearray()
    for multiple in literals:
        offset = len(out)
        data = multiple.to_bytes(4, "big")
        out += data
        module.listing_lines.append(
            ListingLine(offset, data, f"DC A({multiple})", "literal pool")
        )

    def emit_instr(instr: Instr, address: int, comment: str = "") -> None:
        expected = len(out)
        if expected != address:
            raise LoaderError(
                f"layout drift: expected address {address:#x}, "
                f"materialized at {expected:#x}"
            )
        data = encoder.encode(instr, address)
        out.extend(data)
        module.listing_lines.append(
            ListingLine(address, data, instr, comment or instr.comment)
        )

    for index, item in enumerate(items):
        address = addresses[index]
        if isinstance(item, Instr):
            emit_instr(item, address)
        elif isinstance(item, LabelMark):
            module.listing_lines.append(
                ListingLine(address, b"", f"L{item.label} EQU *")
            )
        elif isinstance(item, StmtMark):
            module.listing_lines.append(
                ListingLine(address, b"", f"* source line {item.stmt}")
            )
        elif isinstance(item, (BranchSite, SkipSite)):
            if isinstance(item, BranchSite):
                target = labels[item.label]
                what = f"-> L{item.label}"
            else:
                size = sizes.long if long_flags.get(index, False) \
                    else sizes.short
                target = address + size + 2 * item.halfwords
                what = f"skip +{item.halfwords}h"
            link_reg = getattr(item, "link_reg", None)
            if link_reg is not None:
                op = machine.call_op
                first: object = R(link_reg)
            else:
                op = machine.branch_op
                first = Imm(item.cond)
            if not long_flags.get(index, False):
                emit_instr(
                    Instr(op, (first, Mem(target, 0, code_base))),
                    address,
                    comment=(item.comment or what),
                )
            else:
                if item.index_reg == 0:
                    raise LoaderError(
                        f"long branch at {address:#x} has no spare index "
                        f"register (BRANCH template allocated none)"
                    )
                multiple = (target // page) * page
                lit_off = 4 * literals.index(multiple)
                emit_instr(
                    Instr(
                        machine.branch_load_op,
                        (R(item.index_reg), Mem(lit_off, 0, code_base)),
                    ),
                    address,
                    comment=f"page multiple for {what}",
                )
                emit_instr(
                    Instr(
                        op,
                        (first, Mem(target - multiple, item.index_reg,
                                    code_base)),
                    ),
                    address + (sizes.long - sizes.short),
                    comment=(item.comment or what),
                )
        elif isinstance(item, AConSite):
            pad = (-len(out)) % 4
            out.extend(b"\x00" * pad)
            acon_addr = len(out)
            module.relocations.append(acon_addr)
            data = labels[item.label].to_bytes(4, "big")
            out.extend(data)
            module.listing_lines.append(
                ListingLine(acon_addr, data, f"DC A(L{item.label})")
            )
        elif isinstance(item, DataBlock):
            out.extend(item.data)
            module.listing_lines.append(
                ListingLine(address, item.data, f"DC X'{item.data.hex()}'")
            )

    module.code = bytes(out)
    module.short_branches = sum(
        1
        for i, it in enumerate(items)
        if isinstance(it, (BranchSite, SkipSite)) and not long_flags.get(i)
    )
    module.long_branches = sum(1 for f in long_flags.values() if f)
    for label, addr in labels.items():
        module.labels[label] = addr
    return module
