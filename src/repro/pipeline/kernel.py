"""The pipeline kernel: semantic expansion, then the timing recurrence.

The trace-driven timing model splits into two halves:

* **semantic expansion** (:meth:`TabularKernel.expand`) — turning each
  trace record into the per-stage occupancies, fetch footprint, EX
  latency, register usage and control/memory timing *plans* its
  organization assigns it.  This is a pure function of the record and
  the organization.
* **the timing recurrence** (:meth:`TabularKernel.simulate`) — the
  stateful reservation model that threads those per-record facts
  through the five stages, the memory hierarchy and the optional branch
  predictor.

Expansion walks the trace once, memoizing the significance work per
unique instruction word, operand value and ALU operation (traces revisit
the same static instructions thousands of times, and operand values
repeat heavily — that regularity is the paper's own premise).  The
recurrence then runs over local variables with no per-record attribute
lookups or dict churn.

``simulate``'s ``hierarchy`` is a per-run
:class:`~repro.sim.hierarchy_model.MemoHierarchy`, consumed only
through its narrow timing protocol: ``ifetch_stall(pc)`` /
``data_stall(addr, is_store)`` returning bare stall-cycle integers, plus
``stats()`` for the result.

This is the only production kernel.  The differential suite
(``tests/test_kernels.py``) holds it, field for field, to the original
fused loop kept as a test oracle in ``tests/oracles/reference_kernel.py``.
"""

from repro.obs import tracing
from repro.pipeline.base import PipelineResult
from repro.pipeline.siginfo import SigInfo, alu_activity

#: The kernel's name, as :func:`get_kernel` and the benchmark know it.
TABULAR_KERNEL = "tabular"


class ExpandedTrace:
    """Semantic expansion of one trace under one organization.

    ``rows`` holds one plain tuple per record (see
    :meth:`TabularKernel.expand` for the layout) and ``stage_excess``
    the summed beyond-one-cycle occupancy per stage.
    """

    __slots__ = ("organization", "rows", "stage_excess")

    def __init__(self, organization, rows, stage_excess):
        self.organization = organization
        self.rows = rows
        self.stage_excess = stage_excess

    @property
    def count(self):
        """Number of expanded records."""
        return len(self.rows)

    def __repr__(self):
        return "ExpandedTrace(%s, %d records)" % (
            self.organization.name, self.count,
        )


#: Address-readiness modes in an expanded row.
_ADDR_EX_END = 0
_ADDR_EX_START = 1

#: Resolution modes in an expanded row.
_RES_NONE = 0
_RES_RD_END = 1
_RES_EX_END = 2
_RES_EX_START = 3

_ADDR_MODES = {"ex_end": _ADDR_EX_END, "ex_start": _ADDR_EX_START}
_RES_MODES = {"rd_end": _RES_RD_END, "ex_end": _RES_EX_END,
              "ex_start": _RES_EX_START}


class TabularKernel:
    """Precomputed expansion plus a tightened reservation recurrence.

    Kernels hold no per-run state: the one instance serves every
    simulation in a process.

    ``expand`` walks the trace once and emits one plain tuple per
    record::

        (pc, srcs, dest, dest_kind,
         occ_if, occ_rd, occ_ex, occ_mem, occ_wb, ex_lat, fetch_bytes,
         mem_addr, mem_is_store, addr_mode, addr_off,
         res_mode, res_depth, record)

    Three memo tables carry the significance work:

    * per instruction *word*: fetch bytes, source/destination registers
      and control classification (a trace has a few hundred static
      instructions, so this table hits ~100%);
    * per operand *value*: ``scheme.significant_blocks`` (operand values
      repeat heavily — the premise of the paper);
    * per ``(alu_kind, a, b)`` triple: the significance-ALU block count.

    The per-record occupancies, EX latency and timing plans are then
    memoized on the *significance signature* — ``(word, max_src_blocks,
    alu_blocks, mem_blocks, result_blocks, has_mem, is_store)`` — which
    is the documented purity contract for organizations under this
    kernel: their ``occupancies``/``ex_latency``/plan hooks may depend
    on the record only through that signature (all built-in
    organizations do; ``info.src_blocks`` is collapsed to its maximum
    and ``info.alu_result`` is ``None`` on the memoized path).

    ``simulate`` replays the reservation recurrence over those rows
    with stage clocks, stall counters and register readiness held in
    local variables — no per-record siginfo construction, organization
    dispatch or dict churn.
    """

    name = TABULAR_KERNEL

    def run(self, records, organization, hierarchy, predictor=None):
        """``simulate(expand(records, organization), ...)``.

        Both halves run under ``compute``-category spans, so a trace
        shows expansion and timing-recurrence cost separately per
        organization.
        """
        with tracing.span(
            "kernel.expand", "compute", organization=organization.name,
        ):
            expanded = self.expand(records, organization)
        with tracing.span(
            "kernel.simulate", "compute", organization=organization.name,
        ):
            return self.simulate(expanded, hierarchy, predictor)

    def expand(self, records, organization):
        """One-pass memoized expansion; returns a row-table ExpandedTrace."""
        org = organization
        scheme = org.scheme
        compressor = org.compressor
        block_bytes = scheme.block_bits // 8
        sig_blocks = scheme.significant_blocks

        word_memo = {}     # instr word -> static facts
        value_memo = {}    # operand value -> significant blocks
        alu_memo = {}      # (kind, a, b) -> alu blocks
        row_memo = {}      # significance signature -> timing row tail

        rows = []
        append = rows.append
        exc_if = exc_rd = exc_ex = exc_mem = exc_wb = 0

        for record in records:
            instr = record.instr
            word = instr.word
            static = word_memo.get(word)
            if static is None:
                static = (
                    compressor.bytes_fetched(instr),
                    instr.source_registers(),
                    instr.destination_register(),
                    instr.is_load,
                    instr.is_control,
                )
                word_memo[word] = static
            fetch_bytes, srcs, dest, is_load, is_control = static

            max_src = 0
            for value in record.read_values:
                blocks = value_memo.get(value)
                if blocks is None:
                    blocks = sig_blocks(value)
                    value_memo[value] = blocks
                if blocks > max_src:
                    max_src = blocks

            write_value = record.write_value
            if write_value is None:
                result_blocks = 0
            else:
                result_blocks = value_memo.get(write_value)
                if result_blocks is None:
                    result_blocks = sig_blocks(write_value)
                    value_memo[write_value] = result_blocks

            mem_addr = record.mem_addr
            has_mem = mem_addr is not None
            is_store = record.mem_is_store
            if has_mem:
                value_blocks = value_memo.get(record.mem_value)
                if value_blocks is None:
                    value_blocks = sig_blocks(record.mem_value)
                    value_memo[record.mem_value] = value_blocks
                size_blocks = record.mem_size // block_bytes
                if size_blocks < 1:
                    size_blocks = 1
                mem_blocks = (
                    value_blocks if value_blocks < size_blocks else size_blocks
                )
            else:
                mem_blocks = 0

            alu_kind = record.alu_kind
            if alu_kind is None:
                alu_blocks = 0
                dest_kind = 0 if dest is None else 3
            else:
                if alu_kind == "lui":
                    alu_blocks = result_blocks if result_blocks > 1 else 1
                elif alu_kind in ("mult", "div"):
                    a_blocks = value_memo.get(record.alu_a)
                    if a_blocks is None:
                        a_blocks = sig_blocks(record.alu_a)
                        value_memo[record.alu_a] = a_blocks
                    b_blocks = value_memo.get(record.alu_b)
                    if b_blocks is None:
                        b_blocks = sig_blocks(record.alu_b)
                        value_memo[record.alu_b] = b_blocks
                    alu_blocks = a_blocks if a_blocks > b_blocks else b_blocks
                else:
                    alu_key = (alu_kind, record.alu_a, record.alu_b)
                    alu_blocks = alu_memo.get(alu_key)
                    if alu_blocks is None:
                        result = alu_activity(record, scheme)
                        if result is None:
                            alu_blocks = 0
                        else:
                            alu_blocks = result.blocks_operated
                            if alu_blocks < 1:
                                alu_blocks = 1
                        alu_memo[alu_key] = alu_blocks
                dest_kind = 0 if dest is None else 2
            if is_load and dest is not None:
                dest_kind = 1

            signature = (word, max_src, alu_blocks, mem_blocks,
                         result_blocks, has_mem, is_store)
            tail = row_memo.get(signature)
            if tail is None:
                info = SigInfo(
                    fetch_bytes,
                    (max_src,) if max_src else (),
                    result_blocks,
                    mem_blocks,
                    alu_blocks,
                    None,
                )
                occ = org.occupancies(record, info)
                ex_lat = org.ex_latency(record, info)
                if has_mem:
                    addr_kind, addr_off = org.address_plan(record, info)
                    addr_mode = _ADDR_MODES[addr_kind]
                else:
                    addr_mode = _ADDR_EX_END
                    addr_off = 0
                if is_control:
                    res_kind, res_depth = org.resolution_plan(record, info)
                    res_mode = _RES_MODES[res_kind]
                else:
                    res_mode = _RES_NONE
                    res_depth = 0
                tail = occ + (ex_lat, addr_mode, addr_off, res_mode, res_depth)
                row_memo[signature] = tail
            occ_if = tail[0]
            exc_if += occ_if - 1
            exc_rd += tail[1] - 1
            exc_ex += tail[2] - 1
            exc_mem += tail[3] - 1
            exc_wb += tail[4] - 1
            append((
                record.pc, srcs, dest, dest_kind,
                occ_if, tail[1], tail[2], tail[3], tail[4], tail[5],
                fetch_bytes, mem_addr, is_store, tail[6], tail[7],
                tail[8], tail[9], record,
            ))
        stage_excess = {
            "if": exc_if, "rd": exc_rd, "ex": exc_ex,
            "mem": exc_mem, "wb": exc_wb,
        }
        return ExpandedTrace(org, rows, stage_excess)

    def simulate(self, expanded, hierarchy, predictor=None):
        """Replay the tightened recurrence over precomputed rows."""
        rows = expanded.rows
        org = expanded.organization
        banked_fetch = org.banked_fetch
        streams = org.streams_operands
        forward_latency = org.forward_latency
        ifetch_stall = hierarchy.ifetch_stall
        data_stall = hierarchy.data_stall
        predict = predictor.predict if predictor is not None else None

        # Stage clocks and stall counters as locals (no list/dict churn).
        f_if = f_rd = f_ex = f_mem = f_wb = 0
        redirect_time = 0
        fetch_debt = 0
        s_branch = s_icache = s_dcache = s_data = 0
        s_rd = s_ex = s_mem = s_wb = 0
        last_end = 0
        # Register readiness as flat per-register arrays (regs are 0..31).
        ready_first_of = [0] * 32
        ready_last_of = [0] * 32

        for (pc, srcs, dest, dest_kind,
             occ_if, occ_rd, occ_ex, occ_mem, occ_wb, ex_lat,
             fetch_bytes, mem_addr, is_store, addr_mode, addr_off,
             res_mode, res_depth, record) in rows:
            # ----------------------------------------------------------- IF
            imiss = ifetch_stall(pc)
            if_start = f_if
            if redirect_time > if_start:
                s_branch += redirect_time - if_start
                if_start = redirect_time
                fetch_debt = 0
            if banked_fetch:
                if fetch_bytes > 3:
                    fetch_debt += fetch_bytes - 3
                if fetch_debt >= 3:
                    fetch_debt -= 3
                    if_end = if_start + 2 + imiss
                else:
                    if_end = if_start + 1 + imiss
            else:
                if_end = if_start + occ_if + imiss
            s_icache += imiss
            f_if = if_end

            # ----------------------------------------------------------- RD
            arrival = if_start + 1 + imiss
            rd_start = arrival if arrival >= f_rd else f_rd
            s_rd += rd_start - arrival
            rd_end = rd_start + occ_rd
            if if_end > rd_end:
                rd_end = if_end
            f_rd = rd_end

            # ----------------------------------------------------------- EX
            ready_first = 0
            ready_last = 0
            for register in srcs:
                value = ready_first_of[register]
                if value > ready_first:
                    ready_first = value
                value = ready_last_of[register]
                if value > ready_last:
                    ready_last = value
            arrival = rd_start + 1
            structural = arrival if arrival >= f_ex else f_ex
            s_ex += structural - arrival
            operands = ready_first if streams else ready_last
            ex_start = operands if operands > structural else structural
            s_data += ex_start - structural
            ex_busy_until = ex_start + occ_ex
            f_ex = ex_busy_until
            ex_end = ex_busy_until + ex_lat
            if rd_end > ex_end:
                ex_end = rd_end

            # ---------------------------------------------------------- MEM
            arrival = ex_start + 1
            if mem_addr is None:
                dmiss = 0
                mem_start = arrival if arrival >= f_mem else f_mem
            else:
                dmiss = data_stall(mem_addr, is_store)
                if addr_mode == _ADDR_EX_END:
                    address_ready = ex_end
                else:
                    address_ready = ex_start + addr_off
                mem_start = arrival
                if address_ready > mem_start:
                    mem_start = address_ready
                if f_mem > mem_start:
                    mem_start = f_mem
            if f_mem > arrival:
                s_mem += f_mem - arrival
            f_mem = mem_start + occ_mem + dmiss
            mem_end = f_mem if f_mem >= ex_end else ex_end
            s_dcache += dmiss

            # ----------------------------------------------------------- WB
            arrival = mem_start + 1
            wb_start = arrival if arrival >= f_wb else f_wb
            if f_wb > arrival:
                s_wb += f_wb - arrival
            f_wb = wb_start + occ_wb
            wb_end = f_wb if f_wb >= mem_end else mem_end

            # --------------------------------------------- result readiness
            if dest_kind:
                if dest_kind == 2:  # ALU result, forwardable
                    first = ex_start + 1 + forward_latency
                    if first > ex_end:
                        first = ex_end
                    ready_first_of[dest] = first
                    ready_last_of[dest] = ex_end
                elif dest_kind == 1:  # load
                    first = mem_end - (occ_mem - 1 if occ_mem > 1 else 0)
                    ready_first_of[dest] = first
                    ready_last_of[dest] = mem_end
                else:  # jal/jalr link values, mfhi/mflo
                    ready_first_of[dest] = ex_end
                    ready_last_of[dest] = ex_end

            # ------------------------------------------------- control flow
            if res_mode:
                if predict is not None and predict(record):
                    pass  # correct prediction: fetch continues unhindered
                elif res_mode == _RES_EX_END:
                    redirect_time = ex_end
                elif res_mode == _RES_RD_END:
                    redirect_time = rd_end
                else:
                    redirect_time = ex_start + res_depth
                    if rd_end > redirect_time:
                        redirect_time = rd_end
            last_end = wb_end

        stalls = {
            "branch": s_branch,
            "icache": s_icache,
            "dcache": s_dcache,
            "data": s_data,
            "rd_struct": s_rd,
            "ex_struct": s_ex,
            "mem_struct": s_mem,
            "wb_struct": s_wb,
        }
        return PipelineResult(
            org.name,
            len(rows),
            last_end,
            stalls,
            hierarchy.stats(),
            stage_excess=dict(expanded.stage_excess),
            predictor_accuracy=(
                predictor.accuracy if predictor is not None else None
            ),
        )


_KERNEL = TabularKernel()


def get_kernel(name):
    """The kernel called ``name`` (KeyError unless ``tabular``)."""
    return {TABULAR_KERNEL: _KERNEL}[name]


def default_kernel_name():
    """The name of the one kernel: ``tabular``."""
    return TABULAR_KERNEL
