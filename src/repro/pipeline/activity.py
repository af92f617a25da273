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

Line fills are charged at the line size scaled by the running average
compression ratio of accessed data words (the trace does not expose
whole-line contents; the approximation is documented in DESIGN.md).
"""

from repro.core.extension import BYTE_SCHEME
from repro.core.icompress import InstructionCompressor
from repro.core.pc import BlockSerialPC
from repro.pipeline.siginfo import alu_activity
from repro.sim.hierarchy import MemoryHierarchy

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
    """Computes an :class:`ActivityReport` for a trace."""

    def __init__(self, scheme=BYTE_SCHEME, compressor=None, hierarchy_config=None,
                 pc_block_bits=None, latch_boundaries=4,
                 ext_bits_in_memory=False, static_tags=None):
        self.scheme = scheme
        # A static tag table (repro.analysis.tag_table.TagTable) switches
        # the value-path accounting from dynamic per-value tags to the
        # compile-time widths: every operand moves at the byte width the
        # analysis proved for its instruction address, with zero stored
        # or moved extension bits.  The tag arrays see no savings — the
        # analysis does not bound addresses — so dcache_tag stays at the
        # baseline width.
        self.static_tags = static_tags
        # A custom compressor or hierarchy makes the model's output
        # unrepresentable by the declarative config key below.
        self._standard_config = compressor is None and hierarchy_config is None
        self.compressor = compressor or InstructionCompressor()
        self.hierarchy_config = hierarchy_config
        # The PC incrementer uses the same block granularity as the data
        # path unless explicitly overridden (Table 6 measures a 16-bit
        # serial PC, Table 5 an 8-bit one).
        self.pc_block_bits = pc_block_bits or scheme.block_bits
        self.latch_boundaries = latch_boundaries
        # Section 1 notes extension bits "could also be maintained in
        # memory": with this enabled, L1 line fills arrive already
        # compressed (significant bytes only) instead of paying the
        # full-width transfer on the fill path.
        self.ext_bits_in_memory = ext_bits_in_memory

    def config_key(self):
        """Hashable, JSON-able description of this model's configuration.

        The unit scheduler memoizes :meth:`process` outputs under this
        key; it must therefore cover everything that shapes a report.
        Returns ``None`` for models the key cannot express (custom
        compressor, hierarchy, or a static tag table — which is tied to
        one specific program), which opts them out of memoization.
        """
        if not self._standard_config or self.scheme.name is None:
            return None
        if self.static_tags is not None:
            return None
        return (
            self.scheme.name,
            self.pc_block_bits,
            self.latch_boundaries,
            bool(self.ext_bits_in_memory),
        )

    def process(self, records, name="trace"):
        """Count baseline and compressed activity over ``records``."""
        scheme = self.scheme
        block_bits = scheme.block_bits
        ext_bits = scheme.num_ext_bits
        static = self.static_tags
        hierarchy = MemoryHierarchy(self.hierarchy_config)
        pc_model = BlockSerialPC(block_bits=self.pc_block_bits)
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

            # ------------------------------------------------------ fetch
            hierarchy.access_instruction(record.pc)
            fetch_bits = self.compressor.fetch_bits(instr)
            baseline["fetch"] += 32
            compressed["fetch"] += fetch_bits

            # ---------------------------------------------------- rf read
            read_bits = 0
            if static is not None:
                for index in range(len(record.read_values)):
                    read_bits += 8 * static.read_bytes(record.pc, index)
            else:
                for value in record.read_values:
                    read_bits += (
                        scheme.significant_blocks(value) * block_bits + ext_bits
                    )
            baseline["rf_read"] += 32 * len(record.read_values)
            compressed["rf_read"] += read_bits

            # --------------------------------------------------- rf write
            if record.write_value is not None and instr.destination_register() is not None:
                baseline["rf_write"] += 32
                if static is not None:
                    compressed["rf_write"] += 8 * static.write_bytes(record.pc)
                else:
                    compressed["rf_write"] += (
                        scheme.significant_blocks(record.write_value) * block_bits
                        + ext_bits
                    )

            # -------------------------------------------------------- alu
            if static is not None:
                # A statically tagged ALU is sized once per instruction
                # address: its widest proven source operand.
                if record.alu_kind is not None:
                    baseline["alu"] += 32
                    widest = max(
                        (
                            static.read_bytes(record.pc, index)
                            for index in range(len(record.read_values))
                        ),
                        default=1,
                    )
                    compressed["alu"] += 8 * max(1, widest)
            else:
                result = alu_activity(record, scheme)
                if result is not None:
                    baseline["alu"] += 32
                    compressed["alu"] += result.bits_operated
                elif record.alu_kind in ("mult", "div", "lui"):
                    baseline["alu"] += 32
                    a_blocks = scheme.significant_blocks(record.alu_a)
                    b_blocks = scheme.significant_blocks(record.alu_b)
                    compressed["alu"] += max(a_blocks, b_blocks) * block_bits

            # ----------------------------------------------------- d-cache
            mem_value_bits = 0
            if record.mem_addr is not None:
                access = hierarchy.access_data(
                    record.mem_addr, is_store=record.mem_is_store
                )
                access_bits = 8 * record.mem_size
                if static is not None:
                    # Loads deliver the memory value to the destination
                    # register (static bound: the write tag); stores
                    # carry a source register already covered by the
                    # read tags.
                    if record.mem_is_store:
                        value_bytes = max(
                            (
                                static.read_bytes(record.pc, index)
                                for index in range(len(record.read_values))
                            ),
                            default=4,
                        )
                    else:
                        value_bytes = static.write_bytes(record.pc)
                    value_bits = min(8 * value_bytes, access_bits)
                else:
                    value_blocks = scheme.significant_blocks(record.mem_value)
                    value_bits = (
                        min(value_blocks * block_bits, access_bits) + ext_bits
                    )
                baseline["dcache_data"] += 32  # word-wide data array access
                compressed["dcache_data"] += value_bits
                mem_value_bits = value_bits
                data_bits_accessed += value_bits
                data_words_accessed += 1
                # Tag compare: insignificant tag bytes are replaced by an
                # extension-bit comparison, but the physical array never
                # exceeds the baseline tag width — savings are negligible
                # for realistic (high) addresses, as the paper reports.
                # The static analysis does not bound addresses at all, so
                # under static tags the compare stays at baseline width.
                baseline["dcache_tag"] += tag_bits
                if static is not None:
                    compressed["dcache_tag"] += tag_bits
                else:
                    tag_value = record.mem_addr >> (32 - tag_bits)
                    tag_stored = (
                        scheme.significant_blocks(tag_value) * block_bits
                        + ext_bits
                    )
                    compressed["dcache_tag"] += min(tag_bits, tag_stored)
                # Line fill traffic, scaled by the running compression ratio.
                if access.l1_fill:
                    line_bits = 8 * l1d.line_bytes
                    baseline["dcache_data"] += line_bits
                    if data_words_accessed:
                        ratio = data_bits_accessed / (32.0 * data_words_accessed)
                    else:
                        ratio = 1.0
                    fill_bits = int(line_bits * min(1.0, ratio))
                    if self.ext_bits_in_memory:
                        # Memory already stores the compressed form, so the
                        # fill also skips regenerating the extension bits:
                        # model a further reduction by the ext-bit share.
                        words_per_line = l1d.line_bytes // 4
                        fill_bits = max(
                            fill_bits - words_per_line * ext_bits,
                            words_per_line * (block_bits + ext_bits),
                        )
                    compressed["dcache_data"] += fill_bits

            # --------------------------------------------------------- pc
            baseline["pc"] += 32
            if previous_pc is not None and record.pc != previous_pc + 4:
                pc_model.redirect(record.pc)
            else:
                pc_model.increment()
            previous_pc = record.pc

            # ---------------------------------------------------- latches
            result_bits = 0
            if record.write_value is not None:
                if static is not None:
                    result_bits = 8 * static.write_bytes(record.pc)
                else:
                    result_bits = (
                        scheme.significant_blocks(record.write_value) * block_bits
                        + ext_bits
                    )
            latch_compressed = fetch_bits + read_bits + result_bits + mem_value_bits
            latch_baseline = 32 + 32 * len(record.read_values)
            if record.write_value is not None:
                latch_baseline += 32
            if record.mem_addr is not None:
                latch_baseline += 32
            baseline["latches"] += latch_baseline
            compressed["latches"] += latch_compressed

        compressed["pc"] = pc_model.bits_operated
        return ActivityReport(name, baseline, compressed, count)
