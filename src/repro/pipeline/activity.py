"""Per-stage switching-activity accounting (paper Section 2.9).

For a dynamic trace, counts the bits each pipeline stage must read,
write, operate on or latch — once for the conventional 32-bit machine
and once for the significance-compressed machine — and reports the
percent reduction per stage, exactly the quantity Tables 5 and 6 report:

=============  ==========================================================
column         what is counted
=============  ==========================================================
fetch          instruction bytes read from the I-cache (+1 extension bit)
rf_read        register source operands (significant blocks + ext bits)
rf_write       register results written back
alu            blocks the significance ALU operates on (Cases 1-3)
dcache_data    load/store data bytes plus line-fill traffic
dcache_tag     tag-array bits compared per access
pc             PC-increment block activity (increments and redirects)
latches        inter-stage latch bits (instruction, operands, results)
=============  ==========================================================

The counts come from the trace's significance column
(:func:`~repro.pipeline.siginfo.significance_column`, which the
kernel's simulations of the trace share) and its summary
(:func:`~repro.pipeline.trace_summary.summarize`, which the trace
walkers share), so the model does no per-value or ALU work of its own:
fetch, register-file, ALU and latch bits are sums over the signature
histogram, the block-serial PC is summed over the PC transition edges,
and one sequential pass over the records adds what depends on the
address or the record order — the data bits with the line fills they
scale, and the tag compare.  Line fills, counted on the memoized L1D
structure, are charged at the line size scaled by the running
compression ratio of accessed data words (the trace does not expose
whole-line contents; see docs/ARCHITECTURE.md, "Activity
accounting").  The original per-record loop is the test oracle in
``tests/oracles/reference_activity.py``.
"""

from repro.core.extension import BYTE_SCHEME
from repro.core.icompress import InstructionCompressor
from repro.obs import tracing
from repro.pipeline.kernel import TraceColumns
from repro.pipeline.trace_summary import replay_pc_model
from repro.sim.hierarchy import PAPER_HIERARCHY
from repro.sim.hierarchy_model import memo_cache

STAGES = (
    "fetch",
    "rf_read",
    "rf_write",
    "alu",
    "dcache_data",
    "dcache_tag",
    "pc",
    "latches",
)


#: Bumped whenever ActivityReport.to_dict changes shape or meaning.
REPORT_SCHEMA_VERSION = 1


class ActivityReport:
    """Baseline vs compressed bit counts per stage, with savings."""

    def __init__(self, name, baseline, compressed, instructions):
        self.name = name
        self.baseline = dict(baseline)
        self.compressed = dict(compressed)
        self.instructions = instructions

    def to_dict(self):
        """Versioned plain-data form for the persistent result store."""
        return {
            "version": REPORT_SCHEMA_VERSION,
            "name": self.name,
            "baseline": dict(self.baseline),
            "compressed": dict(self.compressed),
            "instructions": self.instructions,
        }

    @classmethod
    def from_dict(cls, payload):
        """Rebuild a report from :meth:`to_dict` output (ValueError on skew)."""
        if payload.get("version") != REPORT_SCHEMA_VERSION:
            raise ValueError(
                "activity report schema v%r, expected v%d"
                % (payload.get("version"), REPORT_SCHEMA_VERSION)
            )
        try:
            return cls(
                payload["name"],
                payload["baseline"],
                payload["compressed"],
                payload["instructions"],
            )
        except KeyError as error:
            raise ValueError("activity report payload missing %s" % error)

    def __eq__(self, other):
        if not isinstance(other, ActivityReport):
            return NotImplemented
        return (
            self.name == other.name
            and self.baseline == other.baseline
            and self.compressed == other.compressed
            and self.instructions == other.instructions
        )

    __hash__ = object.__hash__

    def savings(self, stage):
        """Fractional activity reduction for ``stage`` (0..1)."""
        base = self.baseline.get(stage, 0)
        if base == 0:
            return 0.0
        return 1.0 - self.compressed.get(stage, 0) / base

    def savings_percent(self, stage):
        """Reduction for ``stage`` in percent, as the paper's tables."""
        return 100.0 * self.savings(stage)

    def row(self):
        """Savings percentages in table-column order."""
        return [self.savings_percent(stage) for stage in STAGES]

    def __repr__(self):
        return "ActivityReport(%s: %s)" % (
            self.name,
            ", ".join("%s=%.1f%%" % (s, self.savings_percent(s)) for s in STAGES),
        )


def _average_report(name, reports):
    """Arithmetic mean of savings across reports (the tables' AVG row)."""
    baseline = {stage: 0 for stage in STAGES}
    compressed = {stage: 0 for stage in STAGES}
    for report in reports:
        for stage in STAGES:
            baseline[stage] += report.baseline[stage]
            compressed[stage] += report.compressed[stage]
    total = sum(report.instructions for report in reports)
    return ActivityReport(name, baseline, compressed, total)


class ActivityModel:
    """Computes an :class:`ActivityReport` for a trace.

    ``scheme`` sets the significance granularity of the data path and of
    the PC incrementer (Table 5 measures an 8-bit serial PC, Table 6 a
    16-bit one).  ``ext_bits_in_memory`` selects Section 1's option of
    keeping extension bits in main memory: L1 line fills then arrive
    already compressed instead of paying the full-width transfer.
    """

    def __init__(self, scheme=BYTE_SCHEME, ext_bits_in_memory=False):
        self.scheme = scheme
        self.ext_bits_in_memory = ext_bits_in_memory

    def config_key(self):
        """Hashable, JSON-able description of this model's configuration.

        The unit scheduler memoizes :meth:`process` outputs under this
        key; it covers everything that shapes a report.
        """
        return (self.scheme.name, bool(self.ext_bits_in_memory))

    def process(self, trace, name="trace"):
        """Count baseline and compressed activity over ``trace``.

        ``trace`` is the trace's :class:`~repro.pipeline.kernel.TraceColumns`,
        whose significance column under this model's scheme the kernel's
        simulations of the trace share, or a record sequence, counted
        over private columns.
        """
        columns = trace if isinstance(trace, TraceColumns) else TraceColumns(trace)
        with tracing.span(
            "activity.process", "compute", scheme=self.scheme.name
        ) as handle:
            report = self._count(columns, name)
            handle.note(records=report.instructions)
            return report

    def _count(self, columns, name):
        scheme = self.scheme
        block_bits = scheme.block_bits
        ext_bits = scheme.num_ext_bits
        column = columns.significance(scheme)
        compressor = InstructionCompressor()

        # Each count here is a per-signature fact times the signature's
        # weight, the number of records carrying it.
        count = len(columns)
        reads = fetch = rf_read = 0
        results = writes = rf_write = 0
        alu_ops = alu = 0
        latches = 0
        # Per signature id: the data bits of its memory access (0 without
        # one), which the sequential pass sums in trace order.
        data_bits_of = []
        for sig, weight in zip(column.signatures, column.histogram):
            sources, dest = column.statics[sig.word][:2]
            instr = sig.instr
            fetch_bits = compressor.fetch_bits(instr)
            fetch += weight * fetch_bits

            read_bits = sig.read_blocks * block_bits + len(sources) * ext_bits
            reads += weight * len(sources)
            rf_read += weight * read_bits

            result_bits = 0
            if sig.result_blocks:
                result_bits = sig.result_blocks * block_bits + ext_bits
                results += weight
                if dest is not None:
                    writes += weight
                    rf_write += weight * result_bits

            if sig.alu_operated >= 0:
                alu_ops += weight
                alu += weight * sig.alu_operated * block_bits

            data_bits = 0
            if sig.has_mem:
                data_bits = min(
                    sig.mem_blocks * block_bits, 8 * instr.memory_size
                ) + ext_bits
            data_bits_of.append(data_bits)

            latches += weight * (fetch_bits + read_bits + result_bits + data_bits)

        # The block-serial PC, from PC 0, over the trace's PC edges.
        pc_bits = replay_pc_model(
            block_bits, [columns.summary().pc_payload((block_bits,))]
        ).bits_operated

        # One sequential pass for what depends on the address or on the
        # record order: the tag compare and the L1D line fills with their
        # running compression ratio.
        l1d_config = PAPER_HIERARCHY.l1d
        l1d = memo_cache(l1d_config)
        access_line = l1d.access_line
        line_shift = l1d.line_shift
        line_bytes = l1d_config.line_bytes
        line_bits = 8 * line_bytes
        tag_bits = 32 - (l1d_config.num_sets.bit_length() - 1) - (
            line_bytes.bit_length() - 1
        )
        tag_shift = 32 - tag_bits
        words_per_line = line_bytes // 4
        fill_floor = words_per_line * (block_bits + ext_bits)
        fill_ext_bits = words_per_line * ext_bits
        ext_bits_in_memory = self.ext_bits_in_memory

        tag_histogram = {}
        accesses = dcache_data = 0
        fills = fill_bits_total = 0
        for sid, record in zip(column.ids, columns.records):
            mem_addr = record.mem_addr
            if mem_addr is None:
                continue
            accesses += 1
            dcache_data += data_bits_of[sid]
            tag = mem_addr >> tag_shift
            tag_histogram[tag] = tag_histogram.get(tag, 0) + 1
            # Line fill traffic, scaled by the running compression ratio
            # of the data words accessed so far, whose bits dcache_data
            # holds (docs/ARCHITECTURE.md, "Activity accounting").
            if not access_line(mem_addr >> line_shift, record.mem_is_store)[0]:
                fills += 1
                ratio = dcache_data / (32.0 * accesses)
                fill_bits = int(line_bits * min(1.0, ratio))
                if ext_bits_in_memory:
                    # Memory already stores the compressed form, so the
                    # fill also skips regenerating the extension bits: a
                    # further reduction by the ext-bit share.
                    fill_bits = max(fill_bits - fill_ext_bits, fill_floor)
                fill_bits_total += fill_bits

        # Tag compare: insignificant tag bytes are replaced by an
        # extension-bit comparison, but the physical array never exceeds
        # the baseline tag width — savings are negligible for realistic
        # (high) addresses, as the paper reports.
        dcache_tag = 0
        for tag, tags in tag_histogram.items():
            stored = scheme.significant_blocks(tag) * block_bits + ext_bits
            dcache_tag += tags * (stored if stored < tag_bits else tag_bits)

        baseline = {
            "fetch": 32 * count,
            "rf_read": 32 * reads,
            "rf_write": 32 * writes,
            "alu": 32 * alu_ops,
            "dcache_data": 32 * accesses + line_bits * fills,
            "dcache_tag": tag_bits * accesses,
            "pc": 32 * count,
            # The instruction, each operand, the result and the
            # memory value each cross the latches at full width.
            "latches": 32 * (count + reads + results + accesses),
        }
        compressed = {
            "fetch": fetch,
            "rf_read": rf_read,
            "rf_write": rf_write,
            "alu": alu,
            "dcache_data": dcache_data + fill_bits_total,
            "dcache_tag": dcache_tag,
            "pc": pc_bits,
            "latches": latches,
        }
        return ActivityReport(name, baseline, compressed, count)
