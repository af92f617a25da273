"""The pipeline kernel: per-trace columns, organization tables, recurrence.

A trace-driven simulation splits into work that depends only on the
trace and work that depends on the organization.  :class:`TraceColumns`
holds the first kind.  Three passes fill it, each at most once per
trace, and every simulation over the trace reads the result:

* the **significance pass** (one per scheme,
  :func:`~repro.pipeline.siginfo.significance_column`) gives a column of
  signature ids, the signature list and its histogram.  A trace has a
  few hundred distinct signatures per scheme.  It is the only caller
  of :func:`~repro.pipeline.siginfo.alu_activity`, and the activity
  model (:class:`~repro.pipeline.activity.ActivityModel`) counts its
  bits from the same column;
* the **memory-system pass**
  (:meth:`~repro.sim.hierarchy_model.MemoHierarchy.classify_block`)
  gives the instruction- and data-side stall columns and the final
  hierarchy statistics.  Every organization makes the same hierarchy
  calls in the same order, one fetch per record and one data access per
  memory record, so the stalls do not depend on the organization;
* the **prediction pass** gives the bimodal predictor's per-record hit
  column and its accuracy.  The predictor, too, sees every control
  record in order under every organization.

A fourth pass serves the other consumers of the trace: the **summary
pass** (:func:`~repro.pipeline.trace_summary.summarize`) gives the
operand-value, per-PC and PC-edge histograms that every trace walker
(:mod:`repro.study.walkers`) and the activity model's block-serial PC
reduce.

The kernel does the organization-dependent rest:

* :meth:`TabularKernel.expand` maps one organization over the signature
  list into a :class:`TimingTable`: per signature, the register usage,
  stage occupancies, EX latency, fetch bytes and the address and
  resolution plans.  ``stage_excess`` is a sum over the histogram.  The
  table is built once per organization and kept with the columns, so a
  predictor variant reuses it;
* :meth:`TabularKernel.simulate` runs the reservation recurrence over
  the zipped ``(signature id, fetch stall, data stall, prediction hit)``
  columns, indexing the table by signature id.  It holds no trace
  record and calls no hierarchy method.

Each pass runs inside the first call that needs it, under its own
``compute`` span (``columns.significance``, ``columns.memory``,
``columns.prediction``, ``columns.summary``).

This is the only production kernel.  The differential suite
(``tests/test_kernels.py``) holds it, field for field, to the original
fused per-record loop kept as a test oracle in
``tests/oracles/reference_kernel.py``.
"""

from array import array
from collections import namedtuple
from itertools import repeat

from repro.obs import tracing
from repro.pipeline.base import PipelineResult
from repro.pipeline.predictor import BimodalPredictor
from repro.pipeline.siginfo import significance_column
from repro.pipeline.trace_summary import summarize
from repro.sim.hierarchy_model import MemoHierarchy

#: The kernel's name, as :func:`get_kernel` and the benchmark know it.
TABULAR_KERNEL = "tabular"


class TraceColumns:
    """The organization-independent columns of one trace.

    ``hierarchy`` is the object the memory-system pass classifies the
    trace through (``None``: a fresh paper-geometry
    :class:`~repro.sim.hierarchy_model.MemoHierarchy`) and ``predictor``
    the one the prediction pass runs (``None``: a fresh
    :class:`~repro.pipeline.predictor.BimodalPredictor`).  ``label``
    (``workload@scale``) tags the passes' spans.  Every pass runs on
    first use; ``len()`` is the record count.
    """

    def __init__(self, records, hierarchy=None, predictor=None, label=None):
        self.records = records
        self.label = label
        self._hierarchy = hierarchy
        self._predictor = predictor
        self._significance = {}
        self._memory = None
        self._prediction = None
        self._summary = None
        #: organization -> its :class:`TimingTable` (see
        #: :meth:`TabularKernel.expand`).
        self.tables = {}

    def __len__(self):
        return len(self.records)

    def significance(self, scheme):
        """The :class:`~repro.pipeline.siginfo.SignificanceColumn` under
        ``scheme``."""
        column = self._significance.get(scheme)
        if column is None:
            with tracing.span(
                "columns.significance", "compute", scheme=scheme.name,
                trace=self.label, records=len(self.records),
            ):
                column = significance_column(self.records, scheme)
            self._significance[scheme] = column
        return column

    def memory(self):
        """``(fetch stalls, data stalls, hierarchy stats)``."""
        if self._memory is None:
            hierarchy = self._hierarchy
            if hierarchy is None:
                hierarchy = MemoHierarchy()
            with tracing.span(
                "columns.memory", "compute", trace=self.label,
                records=len(self.records),
            ):
                istalls, dstalls = hierarchy.classify_block(self.records)
            self._memory = (istalls, dstalls, hierarchy.stats())
        return self._memory

    def prediction(self):
        """``(hit column, accuracy)``: 1 where a control record was
        predicted correctly, else 0."""
        if self._prediction is None:
            predictor = self._predictor
            if predictor is None:
                predictor = BimodalPredictor()
            with tracing.span(
                "columns.prediction", "compute", trace=self.label,
                records=len(self.records),
            ):
                predict = predictor.predict
                hits = array("B", bytes(len(self.records)))
                for index, record in enumerate(self.records):
                    if record.instr.is_control and predict(record):
                        hits[index] = 1
            self._prediction = (hits, predictor.accuracy)
        return self._prediction

    def summary(self):
        """The trace's :class:`~repro.pipeline.trace_summary.TraceSummary`."""
        if self._summary is None:
            self._summary = summarize(self.records, self.label)
        return self._summary


#: One organization's expansion of one trace: ``rows[signature id]`` is
#: ``(src_a, src_b, dest, dest_kind, occ_if, occ_rd, occ_ex, occ_mem,
#: occ_wb, ex_lat, fetch_bytes, has_mem, addr_mode, addr_off, res_mode,
#: res_depth)`` and ``stage_excess`` the summed beyond-one-cycle
#: occupancy per stage.  An instruction reads at most two registers; a
#: missing source is :data:`_NO_REGISTER`.
TimingTable = namedtuple(
    "TimingTable", ("organization", "rows", "stage_excess")
)

#: Address-readiness modes in a table row.
_ADDR_EX_END = 0
_ADDR_EX_START = 1

#: Resolution modes in a table row.
_RES_NONE = 0
_RES_RD_END = 1
_RES_EX_END = 2
_RES_EX_START = 3

_ADDR_MODES = {"ex_end": _ADDR_EX_END, "ex_start": _ADDR_EX_START}
_RES_MODES = {"rd_end": _RES_RD_END, "ex_end": _RES_EX_END,
              "ex_start": _RES_EX_START}

_STAGES = ("if", "rd", "ex", "mem", "wb")

#: The readiness slot a missing source reads: past the 32 registers, so
#: no result ever lands there and it stays 0.
_NO_REGISTER = 32


def _timing_table(org, column):
    """Map ``org``'s hooks over the signatures of ``column``."""
    bytes_fetched = org.compressor.bytes_fetched
    excess = [0] * len(_STAGES)
    rows = []
    for sig, count in zip(column.signatures, column.histogram):
        srcs, dest, dest_kind, is_control = column.statics[sig.word]
        occ = org.occupancies(sig)
        for stage, cycles in enumerate(occ):
            excess[stage] += (cycles - 1) * count
        if sig.has_mem:
            addr_kind, addr_off = org.address_plan(sig)
            addr_mode = _ADDR_MODES[addr_kind]
        else:
            addr_mode = _ADDR_EX_END
            addr_off = 0
        if is_control:
            res_kind, res_depth = org.resolution_plan(sig)
            res_mode = _RES_MODES[res_kind]
        else:
            res_mode = _RES_NONE
            res_depth = 0
        src_a, src_b = srcs + (_NO_REGISTER,) * (2 - len(srcs))
        rows.append((src_a, src_b, dest, dest_kind) + tuple(occ) + (
            org.ex_latency(sig), bytes_fetched(sig.instr), sig.has_mem,
            addr_mode, addr_off, res_mode, res_depth,
        ))
    return TimingTable(org, rows, dict(zip(_STAGES, excess)))


class TabularKernel:
    """Organization tables plus a tightened reservation recurrence.

    Kernels hold no per-run state: the one instance serves every
    simulation in a process.  An organization's timing hooks receive a
    :class:`~repro.pipeline.siginfo.Signature` and must depend on the
    record only through it (every built-in organization does).
    """

    name = TABULAR_KERNEL

    def run(self, records, organization, hierarchy, predictor=None):
        """Simulate ``records`` over private columns.

        The memory-system pass runs through ``hierarchy`` and, when a
        ``predictor`` is given, the prediction pass through it, so both
        objects end in the state a record-at-a-time run leaves them in.
        """
        columns = TraceColumns(records, hierarchy, predictor)
        return self.run_columns(columns, organization, predictor is not None)

    def run_columns(self, columns, organization, predicted=False):
        """``simulate(expand(columns, organization), columns, predicted)``.

        Both halves run under ``compute``-category spans that note the
        record count, so a trace shows expansion and timing-recurrence
        cost (and records/s) separately per organization.
        """
        with tracing.span(
            "kernel.expand", "compute", organization=organization.name,
            records=len(columns),
        ):
            table = self.expand(columns, organization)
        with tracing.span(
            "kernel.simulate", "compute", organization=organization.name,
            records=len(columns),
        ):
            return self.simulate(table, columns, predicted)

    def expand(self, columns, organization):
        """The :class:`TimingTable` of ``organization`` over ``columns``,
        built once per organization and kept with the columns."""
        table = columns.tables.get(organization)
        if table is None:
            table = _timing_table(
                organization, columns.significance(organization.scheme)
            )
            columns.tables[organization] = table
        return table

    def simulate(self, table, columns, predicted=False):
        """Replay the recurrence over the columns; with ``predicted``,
        correctly predicted control records stop gating fetch."""
        org = table.organization
        rows = table.rows
        ids = columns.significance(org.scheme).ids
        istalls, dstalls, hierarchy_stats = columns.memory()
        if predicted:
            hits, accuracy = columns.prediction()
        else:
            hits, accuracy = repeat(0), None
        banked_fetch = org.banked_fetch
        streams = org.streams_operands
        forward_latency = org.forward_latency

        # Stage clocks and stall counters as locals (no list/dict churn).
        f_if = f_rd = f_ex = f_mem = f_wb = 0
        redirect_time = 0
        fetch_debt = 0
        s_branch = s_icache = s_dcache = s_data = 0
        s_rd = s_ex = s_mem = s_wb = 0
        last_end = 0
        # Register readiness as one flat per-register array (regs are
        # 0..31, plus the never-written _NO_REGISTER slot): the cycle a
        # value can gate EX, which the organization's forwarding style
        # decides (its first slice when operands stream, else its last).
        ready_of = [0] * (_NO_REGISTER + 1)

        for sid, imiss, dmiss, hit in zip(ids, istalls, dstalls, hits):
            (src_a, src_b, dest, dest_kind,
             occ_if, occ_rd, occ_ex, occ_mem, occ_wb, ex_lat,
             fetch_bytes, has_mem, addr_mode, addr_off,
             res_mode, res_depth) = rows[sid]
            # ----------------------------------------------------------- IF
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
            operands = ready_of[src_a]
            value = ready_of[src_b]
            if value > operands:
                operands = value
            arrival = rd_start + 1
            structural = arrival if arrival >= f_ex else f_ex
            s_ex += structural - arrival
            ex_start = operands if operands > structural else structural
            s_data += ex_start - structural
            ex_busy_until = ex_start + occ_ex
            f_ex = ex_busy_until
            ex_end = ex_busy_until + ex_lat
            if rd_end > ex_end:
                ex_end = rd_end

            # ---------------------------------------------------------- MEM
            arrival = ex_start + 1
            if has_mem:
                if addr_mode == _ADDR_EX_END:
                    address_ready = ex_end
                else:
                    address_ready = ex_start + addr_off
                mem_start = arrival
                if address_ready > mem_start:
                    mem_start = address_ready
                if f_mem > mem_start:
                    mem_start = f_mem
            else:
                mem_start = arrival if arrival >= f_mem else f_mem
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
                    ready = ex_end
                    if streams:
                        first = ex_start + 1 + forward_latency
                        if first < ready:
                            ready = first
                elif dest_kind == 1:  # load
                    ready = mem_end
                    if streams and occ_mem > 1:
                        ready -= occ_mem - 1
                else:  # jal/jalr link values, mfhi/mflo
                    ready = ex_end
                ready_of[dest] = ready

            # ------------------------------------------------- control flow
            if res_mode and not hit:
                # A correct prediction lets fetch continue unhindered.
                if res_mode == _RES_EX_END:
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
            len(ids),
            last_end,
            stalls,
            {name: dict(entry) for name, entry in hierarchy_stats.items()},
            stage_excess=dict(table.stage_excess),
            predictor_accuracy=accuracy,
        )


_KERNEL = TabularKernel()


def get_kernel(name):
    """The kernel called ``name`` (KeyError unless ``tabular``)."""
    return {TABULAR_KERNEL: _KERNEL}[name]


def default_kernel_name():
    """The name of the one kernel: ``tabular``."""
    return TABULAR_KERNEL
