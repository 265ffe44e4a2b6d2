"""The standard IF operator and terminal vocabulary.

Specs are free to declare any operator names, but the Pascal front end,
the shaper and the shipped machine specs agree on this vocabulary (a
subset of the paper's Appendix 2 ``$Operators`` list).  Arities are over
*tree* children; several operators accept more than one shape (e.g. a
data reference with or without an index register).
"""

from __future__ import annotations

from typing import Dict, FrozenSet

#: operator -> allowed child counts.
OPERATOR_ARITIES: Dict[str, FrozenSet[int]] = {
    # Data references: (dsp, base) or (index, dsp, base).  The unary type
    # operators of paper 4.5 -- "access to and checking of different data
    # types of the architecture".
    "fullword": frozenset({2, 3}),
    "halfword": frozenset({2, 3}),
    "byteword": frozenset({2, 3}),
    # Address computation (LA-style): (dsp, base) or (index, dsp, base).
    "addr": frozenset({2, 3}),
    # Integer arithmetic.
    "iadd": frozenset({2}),
    "isub": frozenset({2}),
    "imult": frozenset({2}),
    "idiv": frozenset({2}),
    "imod": frozenset({2}),
    "ineg": frozenset({1}),
    "iabs": frozenset({1}),
    "iodd": frozenset({1}),
    "imax": frozenset({2}),
    "imin": frozenset({2}),
    "incr": frozenset({1}),
    "decr": frozenset({1}),
    "l_shift": frozenset({2}),
    "r_shift": frozenset({2}),
    # Constants: child is a val terminal.
    "pos_constant": frozenset({1}),
    "neg_constant": frozenset({1}),
    # Statement-number markers (paper's STMT_RECORD diagnostics).
    "statement": frozenset({1}),
    # Comparison produces the condition code; branch consumes it.
    "icompare": frozenset({2}),
    # assign <typed-target-reference> <value>.
    "assign": frozenset({2}),
    # Whole-object assignment (paper productions 10-12): target address,
    # source address, and a length -- a lng terminal for the MVC form
    # (block_assign) or a computed size register for MVCL (var_assign).
    "block_assign": frozenset({3}),
    "var_assign": frozenset({3}),
    # Branching and labels (paper 4.2).
    "label_def": frozenset({1}),
    "branch_op": frozenset({1, 3}),     # unconditional: lbl; cond: lbl cond cc
    # Booleans (0/1 in registers, bytes in storage).
    "boolean_and": frozenset({2}),
    "boolean_or": frozenset({2}),
    "boolean_not": frozenset({1}),
    "boolean_test": frozenset({1}),
    "izero_test": frozenset({1}),
    # Bitset support (the paper's set templates, productions 142-149):
    # first child is the set's address reference, second the element (an
    # elmnt mask leaf for constants, a value subtree otherwise).
    "test_bit_value": frozenset({2}),
    "set_bit_value": frozenset({2}),
    "clear_bit_value": frozenset({2}),
    "set_clear": frozenset({2}),        # address, lng
    "set_union": frozenset({3}),        # dest addr, src addr, lng
    "set_intersect": frozenset({3}),
    "set_compare": frozenset({3}),      # -> condition code (CLC)
    # Procedures and linkage (paper Appendix 2, productions 94-96).
    "procedure_call": frozenset({2}),   # cnt, lbl
    "function_call": frozenset({2}),    # cnt, lbl
    "procedure_entry": frozenset({0}),
    "procedure_exit": frozenset({0}),
    "store_param": frozenset({2}),      # dsp (in callee frame), value
    "set_result": frozenset({1}),       # value -> result register
    # I/O (SVC services of the simulated supervisor).
    "write_int": frozenset({1}),
    "write_char": frozenset({1}),
    "write_bool": frozenset({1}),
    "write_str": frozenset({3}),        # lng, dsp, base
    "write_nl": frozenset({0}),
    "read_int": frozenset({0}),        # SVC input -> result register
    # Common subexpressions (paper 4.4).
    "make_common": frozenset({4}),      # cse, cnt, home-reference, expr
    "use_common": frozenset({1}),       # cse
    # Checking (paper Appendix 2, productions 124-125).
    "range_check": frozenset({3}),      # value, low, high
}

#: terminal -> human description; terminals are "identifiers whose values
#: are set by the shaping routine" (paper section 2).
TERMINALS: Dict[str, str] = {
    "dsp": "displacement",
    "lng": "length (bytes)",
    "cnt": "count (CSE uses, parameters)",
    "lbl": "label number",
    "cse": "common-subexpression number",
    "cond": "branch condition mask",
    "val": "immediate constant value",
    "stmt": "statement number",
    "elmnt": "set element bit mask",
}

#: S/370 BC-instruction condition masks, used as ``cond`` terminal values
#: and as spec constants.  After a compare: CC0 = equal, CC1 = low,
#: CC2 = high.
COND_EQ = 8
COND_LT = 4
COND_GT = 2
COND_NE = 7
COND_LE = 13   # not high
COND_GE = 11   # not low
COND_ALWAYS = 15
COND_FALSE = 8   # TM: all selected bits zero
COND_TRUE = 7    # TM: mixed or all ones

#: cond mask -> mask for the inverted branch (used when lowering
#: "branch if false" from a comparison).
INVERT_COND: Dict[int, int] = {
    COND_EQ: COND_NE,
    COND_NE: COND_EQ,
    COND_LT: COND_GE,
    COND_GE: COND_LT,
    COND_GT: COND_LE,
    COND_LE: COND_GT,
    COND_FALSE: COND_TRUE,
    COND_TRUE: COND_FALSE,
}


def is_terminal(name: str) -> bool:
    return name in TERMINALS
