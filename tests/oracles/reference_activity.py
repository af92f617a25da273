"""The reference activity model: the original unmemoized per-record loop.

The production model (:class:`repro.pipeline.activity.ActivityModel`)
reads the trace's significance column (per-signature sums) and its
trace summary (the block-serial PC over distinct PC edges), and counts
L1 line fills on the memoized L1D structure alone.  This oracle does
the same accounting the obvious way:
the scheme's ``significant_blocks`` and :func:`alu_activity` called per
record, and every fetch and data access walked through the full
reference :class:`~oracles.reference_hierarchy.MemoryHierarchy`, whose
per-access ``l1_fill`` flag charges the line fill.  The differential
suite (``tests/test_activity_model.py``) requires field-for-field equal
:class:`~repro.pipeline.activity.ActivityReport`\\ s from both.
"""

from repro.core.extension import BYTE_SCHEME
from repro.core.icompress import InstructionCompressor
from repro.core.pc import BlockSerialPC
from repro.pipeline.activity import STAGES, ActivityReport
from repro.pipeline.siginfo import alu_activity

from oracles.reference_hierarchy import MemoryHierarchy


def process(records, name="trace", scheme=BYTE_SCHEME, ext_bits_in_memory=False):
    """Count baseline and compressed activity over ``records``."""
    block_bits = scheme.block_bits
    ext_bits = scheme.num_ext_bits
    compressor = InstructionCompressor()
    hierarchy = MemoryHierarchy()
    pc_model = BlockSerialPC(block_bits=block_bits)
    baseline = {stage: 0 for stage in STAGES}
    compressed = {stage: 0 for stage in STAGES}
    data_bits_accessed = 0
    data_words_accessed = 0
    count = 0
    previous_pc = None
    l1d = hierarchy.l1d.config
    tag_bits = 32 - (l1d.num_sets.bit_length() - 1) - (
        l1d.line_bytes.bit_length() - 1
    )
    for record in records:
        count += 1
        instr = record.instr

        # ---------------------------------------------------------- fetch
        hierarchy.access_instruction(record.pc)
        fetch_bits = compressor.fetch_bits(instr)
        baseline["fetch"] += 32
        compressed["fetch"] += fetch_bits

        # -------------------------------------------------------- rf read
        read_bits = 0
        for value in record.read_values:
            read_bits += scheme.significant_blocks(value) * block_bits + ext_bits
        baseline["rf_read"] += 32 * len(record.read_values)
        compressed["rf_read"] += read_bits

        # ------------------------------------------------------- rf write
        if record.write_value is not None and instr.destination_register() is not None:
            baseline["rf_write"] += 32
            compressed["rf_write"] += (
                scheme.significant_blocks(record.write_value) * block_bits
                + ext_bits
            )

        # ------------------------------------------------------------ alu
        result = alu_activity(record, scheme)
        if result is not None:
            baseline["alu"] += 32
            compressed["alu"] += result.bits_operated
        elif record.alu_kind in ("mult", "div", "lui"):
            baseline["alu"] += 32
            a_blocks = scheme.significant_blocks(record.alu_a)
            b_blocks = scheme.significant_blocks(record.alu_b)
            compressed["alu"] += max(a_blocks, b_blocks) * block_bits

        # -------------------------------------------------------- d-cache
        mem_value_bits = 0
        if record.mem_addr is not None:
            access = hierarchy.access_data(
                record.mem_addr, is_store=record.mem_is_store
            )
            access_bits = 8 * record.mem_size
            value_blocks = scheme.significant_blocks(record.mem_value)
            value_bits = min(value_blocks * block_bits, access_bits) + ext_bits
            baseline["dcache_data"] += 32
            compressed["dcache_data"] += value_bits
            mem_value_bits = value_bits
            data_bits_accessed += value_bits
            data_words_accessed += 1
            baseline["dcache_tag"] += tag_bits
            tag_value = record.mem_addr >> (32 - tag_bits)
            tag_stored = (
                scheme.significant_blocks(tag_value) * block_bits + ext_bits
            )
            compressed["dcache_tag"] += min(tag_bits, tag_stored)
            if access.l1_fill:
                line_bits = 8 * l1d.line_bytes
                baseline["dcache_data"] += line_bits
                ratio = data_bits_accessed / (32.0 * data_words_accessed)
                fill_bits = int(line_bits * min(1.0, ratio))
                if ext_bits_in_memory:
                    words_per_line = l1d.line_bytes // 4
                    fill_bits = max(
                        fill_bits - words_per_line * ext_bits,
                        words_per_line * (block_bits + ext_bits),
                    )
                compressed["dcache_data"] += fill_bits

        # ------------------------------------------------------------- pc
        baseline["pc"] += 32
        if previous_pc is not None and record.pc != previous_pc + 4:
            pc_model.redirect(record.pc)
        else:
            pc_model.increment()
        previous_pc = record.pc

        # -------------------------------------------------------- latches
        result_bits = 0
        if record.write_value is not None:
            result_bits = (
                scheme.significant_blocks(record.write_value) * block_bits
                + ext_bits
            )
        latch_baseline = 32 + 32 * len(record.read_values)
        if record.write_value is not None:
            latch_baseline += 32
        if record.mem_addr is not None:
            latch_baseline += 32
        baseline["latches"] += latch_baseline
        compressed["latches"] += fetch_bits + read_bits + result_bits + mem_value_bits

    compressed["pc"] = pc_model.bits_operated
    return ActivityReport(name, baseline, compressed, count)
