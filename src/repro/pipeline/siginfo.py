"""Significance signatures: the per-record facts the timing models read.

Every organization sizes its stages, and the activity model counts its
bits, from a few significance facts about each executed instruction,
the record's :class:`Signature`: its word, the widest and the summed
source operands, the significance-ALU occupancy and activity, the
memory and result widths, and whether (and how) it touches memory.
Operand values repeat and a few static instructions dominate the
dynamic stream, so a whole trace has only a few hundred distinct
signatures under one scheme.

:func:`significance_column` is the one pass that computes them: it maps
a trace to an ``array`` of signature ids and returns the signature
list, the per-id record histogram and the word-level static facts
alongside.  Its value, ALU and word memos live only inside that pass,
and it is the only caller of :func:`alu_activity`, which runs the
significance ALU for one record.
"""

from array import array
from collections import Counter, namedtuple

from repro.core.alu import (
    significance_add,
    significance_compare,
    significance_logical,
    significance_shift,
)
from repro.core.extension import BYTE_SCHEME
from repro.isa.encoding import decode

#: Largest signature id an ``array('H')`` column holds; a trace with
#: more signatures switches its column to ``array('I')``.
_SHORT_IDS = 1 << 16


class Signature(
    namedtuple(
        "Signature",
        ("word", "max_src", "alu_blocks", "mem_blocks", "result_blocks",
         "has_mem", "is_store", "read_blocks", "alu_operated"),
    )
):
    """The significance facts the timing hooks and the activity model read.

    Widths are in blocks of the scheme the signature was computed under.
    ``max_src`` is the widest source operand, ``alu_blocks`` the blocks
    the significance ALU occupies (0 without an ALU operation),
    ``mem_blocks`` the significant blocks of the memory value within the
    access size (0 without an access) and ``result_blocks`` those of
    the register result (0 without one; every value has at least one).
    ``read_blocks`` sums the source operands' blocks.  ``alu_operated``
    is the ALU's activity in blocks: the blocks it operates on, which
    may be 0, or the wider operand's for ``mult``, ``div`` and ``lui``;
    -1 without an ALU operation.
    """

    __slots__ = ()

    @property
    def instr(self):
        """The decoded instruction (the word determines it)."""
        return decode(self.word)


#: One trace under one scheme: ``ids`` holds a signature id per record,
#: ``signatures[id]`` the :class:`Signature`, ``histogram[id]`` how many
#: records carry it, and ``statics[word]`` the word-level facts
#: ``(source registers, destination register, destination kind,
#: is_control)``.  The destination kind is 0 (none), 1 (load result),
#: 2 (forwardable ALU result) or 3 (link value, ``mfhi``/``mflo``).
SignificanceColumn = namedtuple(
    "SignificanceColumn", ("ids", "signatures", "histogram", "statics")
)


class _Memo(dict):
    """``memo[key]`` computes ``function(key)`` once per distinct key."""

    __slots__ = ("function",)

    def __init__(self, function):
        super().__init__()
        self.function = function

    def __missing__(self, key):
        value = self[key] = self.function(key)
        return value


def _static_facts(record):
    # Whether a record has an ALU operation is a property of its opcode
    # (the interpreter sets ``alu_kind`` per opcode), so the destination
    # kind is a word-level fact like the registers.
    instr = record.instr
    dest = instr.destination_register()
    if dest is None:
        dest_kind = 0
    elif instr.is_load:
        dest_kind = 1
    elif record.alu_kind is not None:
        dest_kind = 2
    else:
        dest_kind = 3
    return instr.source_registers(), dest, dest_kind, instr.is_control


def significance_column(records, scheme=BYTE_SCHEME):
    """The :class:`SignificanceColumn` of ``records`` under ``scheme``."""
    block_bytes = scheme.block_bits // 8
    # With one block per word every width is exactly one block, and so
    # is every ALU operation: the ALU need not run.
    one_block = scheme.num_blocks == 1
    blocks_of = _Memo(scheme.significant_blocks)
    alu_memo = {}
    statics = {}
    ids_of = {}
    signatures = []
    ids = array("H")
    append = ids.append

    for record in records:
        word = record.instr.word
        if word not in statics:
            statics[word] = _static_facts(record)

        max_src = read_blocks = 0
        for value in record.read_values:
            blocks = blocks_of[value]
            read_blocks += blocks
            if blocks > max_src:
                max_src = blocks

        write_value = record.write_value
        result_blocks = 0 if write_value is None else blocks_of[write_value]

        if record.mem_addr is None:
            has_mem = False
            mem_blocks = 0
        else:
            has_mem = True
            mem_blocks = blocks_of[record.mem_value]
            size_blocks = record.mem_size // block_bytes or 1
            if size_blocks < mem_blocks:
                mem_blocks = size_blocks

        alu_kind = record.alu_kind
        if alu_kind is None:
            alu_blocks = 0
            alu_operated = -1
        elif one_block:
            alu_blocks = alu_operated = 1
        elif alu_kind in ("mult", "div", "lui"):
            # The iterative multiplier/divider and the LUI mover touch
            # the significant blocks of both operands.  The kernel
            # sizes LUI's occupancy by its result instead.
            alu_operated = max(blocks_of[record.alu_a], blocks_of[record.alu_b])
            if alu_kind != "lui":
                alu_blocks = alu_operated
            else:
                alu_blocks = result_blocks if result_blocks > 1 else 1
        else:
            alu_key = (alu_kind, record.alu_a, record.alu_b)
            alu_pair = alu_memo.get(alu_key)
            if alu_pair is None:
                operated = alu_activity(record, scheme).blocks_operated
                alu_pair = alu_memo[alu_key] = (max(1, operated), operated)
            alu_blocks, alu_operated = alu_pair

        key = (word, max_src, alu_blocks, mem_blocks, result_blocks,
               has_mem, record.mem_is_store, read_blocks, alu_operated)
        sid = ids_of.get(key)
        if sid is None:
            sid = ids_of[key] = len(signatures)
            signatures.append(Signature._make(key))
            if sid == _SHORT_IDS:
                ids = array("I", ids)
                append = ids.append
        append(sid)

    histogram = [0] * len(signatures)
    for sid, count in Counter(ids).items():
        histogram[sid] = count
    return SignificanceColumn(ids, signatures, histogram, statics)


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
    # mult, div and lui have no block-serial model (see
    # significance_column for how they are counted).
    return None
