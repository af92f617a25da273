"""Per-instruction significance summary consumed by the timing models.

:class:`SigInfo` carries the significance facts (fetch bytes,
operand/result blocks, ALU occupancy) an organization reads to size its
stages; :func:`alu_activity` runs the significance ALU for one record.
The kernel builds one :class:`SigInfo` per significance signature; the
kernel and the activity model both call :func:`alu_activity`.
"""

from repro.core.alu import (
    significance_add,
    significance_compare,
    significance_logical,
    significance_shift,
)
from repro.core.extension import BYTE_SCHEME


class SigInfo:
    """Significance facts about one executed instruction."""

    __slots__ = (
        "fetch_bytes",
        "src_blocks",
        "result_blocks",
        "mem_blocks",
        "alu_blocks",
        "alu_result",
        "max_src_blocks",
    )

    def __init__(self, fetch_bytes, src_blocks, result_blocks, mem_blocks,
                 alu_blocks, alu_result):
        self.fetch_bytes = fetch_bytes
        self.src_blocks = src_blocks
        self.result_blocks = result_blocks
        self.mem_blocks = mem_blocks
        self.alu_blocks = alu_blocks
        self.alu_result = alu_result
        self.max_src_blocks = max(src_blocks) if src_blocks else 0


def alu_activity(record, scheme=BYTE_SCHEME):
    """Run the significance ALU for a trace record; None if no ALU op."""
    kind = record.alu_kind
    if kind is None:
        return None
    a = record.alu_a
    b = record.alu_b
    if kind == "add":
        return significance_add(a, b, scheme=scheme)
    if kind == "sub":
        return significance_add(a, b, scheme=scheme, subtract=True)
    if kind == "slt":
        return significance_compare(a, b, signed=True, scheme=scheme)
    if kind == "sltu":
        return significance_compare(a, b, signed=False, scheme=scheme)
    if kind in ("and", "or", "xor", "nor"):
        return significance_logical(a, b, kind, scheme=scheme)
    if kind in ("sll", "srl", "sra"):
        return significance_shift(a, b, kind, scheme=scheme)
    if kind in ("mult", "div", "lui"):
        # Iterative multiplier/divider and the LUI mover are modelled as
        # touching the significant blocks of both operands (at least one).
        return None
    return None
