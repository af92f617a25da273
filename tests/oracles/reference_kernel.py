"""The reference pipeline kernel: the original fused per-record loop.

The production kernel (:class:`repro.pipeline.kernel.TabularKernel`)
expands the whole trace up front with memoization and replays a
tightened recurrence over the expanded rows.  This oracle does the same
work the obvious way: one :func:`compute_siginfo` per record, the
organization's hooks called per record, and its timing plans evaluated
inline.  The differential suites (``tests/test_kernels.py``,
``tests/test_hierarchies.py``) require field-wise equal
:class:`~repro.pipeline.base.PipelineResult`\\ s from both.

``hierarchy`` is any object with the narrow timing protocol
(``ifetch_stall`` / ``data_stall`` / ``stats``); pass a
:class:`~oracles.reference_hierarchy.MemoryHierarchy` to run both oracles
together.
"""

from repro.core.extension import BYTE_SCHEME
from repro.core.icompress import InstructionCompressor
from repro.pipeline.base import PipelineResult
from repro.pipeline.siginfo import SigInfo, alu_activity

_DEFAULT_COMPRESSOR = InstructionCompressor()


def compute_siginfo(record, scheme=BYTE_SCHEME, compressor=None):
    """Build the :class:`~repro.pipeline.siginfo.SigInfo` for one record."""
    compressor = compressor or _DEFAULT_COMPRESSOR
    fetch_bytes = compressor.bytes_fetched(record.instr)
    src_blocks = tuple(
        scheme.significant_blocks(value) for value in record.read_values
    )
    result_blocks = (
        scheme.significant_blocks(record.write_value)
        if record.write_value is not None
        else 0
    )
    if record.mem_addr is not None:
        block_bytes = scheme.block_bits // 8
        value_blocks = scheme.significant_blocks(record.mem_value)
        size_blocks = max(1, record.mem_size // block_bytes)
        mem_blocks = min(value_blocks, size_blocks)
    else:
        mem_blocks = 0
    result = alu_activity(record, scheme)
    if result is not None:
        alu_blocks = max(1, result.blocks_operated)
    elif record.alu_kind in ("mult", "div"):
        a_blocks = scheme.significant_blocks(record.alu_a)
        b_blocks = scheme.significant_blocks(record.alu_b)
        alu_blocks = max(a_blocks, b_blocks)
    elif record.alu_kind == "lui":
        alu_blocks = max(1, result_blocks)
    else:
        alu_blocks = 0
    return SigInfo(fetch_bytes, src_blocks, result_blocks, mem_blocks,
                   alu_blocks, result)


def _address_ready(org, record, info, ex_start, ex_end):
    """Cycle at which a memory access may index the D-cache."""
    kind, offset = org.address_plan(record, info)
    if kind == "ex_end":
        return ex_end
    return ex_start + offset


def _resolution_time(org, record, info, rd_end, ex_start, ex_end):
    """Cycle at which a control instruction redirects fetch."""
    kind, depth = org.resolution_plan(record, info)
    if kind == "rd_end":
        return rd_end
    if kind == "ex_end":
        return ex_end
    return max(ex_start + depth, rd_end)


def simulate(records, organization, hierarchy, predictor=None):
    """Run the fused expansion + recurrence loop; returns a PipelineResult."""
    org = organization
    scheme = org.scheme
    compressor = org.compressor
    free = [0, 0, 0, 0, 0]  # IF, RD, EX, MEM, WB
    redirect_time = 0
    fetch_debt = 0  # byte backlog of the banked instruction cache
    # Register readiness: reg -> (first_block_ready, last_block_ready).
    ready = {}
    stalls = {
        "branch": 0,
        "icache": 0,
        "dcache": 0,
        "data": 0,
        "rd_struct": 0,
        "ex_struct": 0,
        "mem_struct": 0,
        "wb_struct": 0,
    }
    last_end = 0
    count = 0
    excess = {"if": 0, "rd": 0, "ex": 0, "mem": 0, "wb": 0}
    for record in records:
        count += 1
        info = compute_siginfo(record, scheme=scheme, compressor=compressor)
        occ_if, occ_rd, occ_ex, occ_mem, occ_wb = org.occupancies(record, info)
        excess["if"] += occ_if - 1
        excess["rd"] += occ_rd - 1
        excess["ex"] += occ_ex - 1
        excess["mem"] += occ_mem - 1
        excess["wb"] += occ_wb - 1

        # ----------------------------------------------------------- IF
        imiss = hierarchy.ifetch_stall(record.pc)
        want_if = free[0]
        if_start = max(want_if, redirect_time)
        if if_start > want_if:
            stalls["branch"] += if_start - want_if
            fetch_debt = 0  # a redirect drains the fetch banks
        if org.banked_fetch:
            # Three permuted byte banks sustain 3 bytes/cycle: fourth
            # bytes accumulate as bank debt, costing one extra cycle
            # per three backlog bytes rather than one per instruction.
            fetch_debt += max(0, info.fetch_bytes - 3)
            extra = 0
            if fetch_debt >= 3:
                extra = 1
                fetch_debt -= 3
            if_end = if_start + 1 + extra + imiss
        else:
            if_end = if_start + occ_if + imiss
        stalls["icache"] += imiss
        free[0] = if_end

        # ----------------------------------------------------------- RD
        arrival = if_start + 1 + imiss
        rd_start = max(arrival, free[1])
        stalls["rd_struct"] += rd_start - arrival
        rd_end = max(rd_start + occ_rd, if_end)
        free[1] = rd_end

        # ----------------------------------------------------------- EX
        ready_first = 0
        ready_last = 0
        for register in record.instr.source_registers():
            times = ready.get(register)
            if times is not None:
                if times[0] > ready_first:
                    ready_first = times[0]
                if times[1] > ready_last:
                    ready_last = times[1]
        arrival = rd_start + 1
        structural = max(arrival, free[2])
        stalls["ex_struct"] += structural - arrival
        if org.streams_operands:
            ex_start = max(structural, ready_first)
        else:
            ex_start = max(structural, ready_last)
        stalls["data"] += ex_start - structural
        ex_busy_until = ex_start + occ_ex
        free[2] = ex_busy_until
        # Completion may trail occupancy (skew latches) and can never
        # precede the arrival of the last instruction byte.  Byte lanes
        # align between producer and consumer, so per-byte chaining is
        # captured by the ready_first constraint alone.
        ex_end = max(ex_busy_until + org.ex_latency(record, info), rd_end)

        # ---------------------------------------------------------- MEM
        # The stage is *busy* for its occupancy (plus any blocking miss);
        # *completion* additionally trails the EX completion latency,
        # without holding the stage for later instructions.
        dmiss = 0
        if record.mem_addr is not None:
            dmiss = hierarchy.data_stall(
                record.mem_addr, is_store=record.mem_is_store
            )
        arrival = ex_start + 1
        if record.mem_addr is None:
            mem_start = max(arrival, free[3])
        else:
            address_ready = _address_ready(org, record, info, ex_start, ex_end)
            mem_start = max(arrival, address_ready, free[3])
        stalls["mem_struct"] += max(0, free[3] - arrival)
        free[3] = mem_start + occ_mem + dmiss
        mem_end = max(free[3], ex_end)
        stalls["dcache"] += dmiss

        # ----------------------------------------------------------- WB
        arrival = mem_start + 1
        wb_start = max(arrival, free[4])
        stalls["wb_struct"] += max(0, free[4] - arrival)
        free[4] = wb_start + occ_wb
        wb_end = max(free[4], mem_end)

        # --------------------------------------------- result readiness
        destination = record.instr.destination_register()
        if destination is not None:
            if record.instr.is_load:
                # mem_end already includes any miss stall; the first
                # block emerges occ_mem-1 cycles before the last.
                first = mem_end - max(0, occ_mem - 1)
                ready[destination] = (first, mem_end)
            elif record.alu_kind is not None:
                first = min(ex_start + 1 + org.forward_latency, ex_end)
                ready[destination] = (first, ex_end)
            else:
                # jal/jalr link values, mfhi/mflo.
                ready[destination] = (ex_end, ex_end)

        # ------------------------------------------------- control flow
        if record.instr.is_control:
            if predictor is not None and predictor.predict(record):
                pass  # correct prediction: fetch continues unhindered
            else:
                redirect_time = _resolution_time(
                    org, record, info, rd_end, ex_start, ex_end
                )
        last_end = wb_end
    return PipelineResult(
        org.name,
        count,
        last_end,
        stalls,
        hierarchy.stats(),
        stage_excess=excess,
        predictor_accuracy=(
            predictor.accuracy if predictor is not None else None
        ),
    )
