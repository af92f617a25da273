"""The reference trace walkers: one ``feed`` per record, then ``finish``.

The production walkers (:mod:`repro.study.walkers`) reduce the trace's
:class:`~repro.pipeline.trace_summary.TraceSummary`: operand-value
histograms, per-PC execution counts and a PC transition-edge histogram
built in one pass.  These reducers do the same accounting the obvious
way, folding every record into each walker in trace order: the pattern
and stored-bit walkers count every operand value (classifying each
distinct value once), the PC walker drives one
:class:`~repro.core.pc.BlockSerialPC` per block size record by record,
and the fetch walker records every executed instruction.
The differential suite (``tests/test_trace_summary.py``) requires
JSON-identical payloads from both.
"""

from repro.core.compress import get_scheme
from repro.core.extension import SegmentedScheme
from repro.core.icompress import FetchStatistics
from repro.core.patterns import PatternCounter, pattern_of
from repro.core.pc import BlockSerialPC


class PatternWalker:
    """Table 1: significance-pattern counts over register operand values."""

    def __init__(self, include_writes=True):
        self.include_writes = include_writes
        self.scheme = PatternCounter().scheme
        self.counts = {}
        self.total = 0
        self.significant_blocks = 0
        self._memo = {}  # value -> (pattern, significant block count)

    def _record_value(self, value):
        entry = self._memo.get(value)
        if entry is None:
            entry = (
                pattern_of(value, self.scheme),
                self.scheme.significant_blocks(value),
            )
            self._memo[value] = entry
        pattern, blocks = entry
        self.counts[pattern] = self.counts.get(pattern, 0) + 1
        self.total += 1
        self.significant_blocks += blocks

    def feed(self, record):
        for value in record.read_values:
            self._record_value(value)
        if self.include_writes and record.write_value is not None:
            self._record_value(record.write_value)

    def finish(self):
        return {
            "scheme": self.scheme.name,
            "counts": [[pattern, count] for pattern, count in self.counts.items()],
            "total": self.total,
            "significant_blocks": self.significant_blocks,
        }


class PCWalker:
    """Table 2: one block-serial PC per block size, driven per record.

    The records before the first redirect only count increments, and
    the first redirect seeds the models at its target (see
    :func:`repro.pipeline.trace_summary.replay_pc_model`).
    """

    def __init__(self, block_sizes):
        self.block_sizes = tuple(block_sizes)
        self.prefix_increments = 0
        self.first_target = None
        self.models = None
        self.previous = None

    def feed(self, record):
        pc = record.pc
        previous = self.previous
        self.previous = pc
        if previous is not None and pc != previous + 4:
            if self.models is None:
                self.first_target = pc
                self.models = [
                    BlockSerialPC(block_bits=bits, initial_pc=pc)
                    for bits in self.block_sizes
                ]
            else:
                for model in self.models:
                    model.redirect(pc)
        elif self.models is None:
            self.prefix_increments += 1
        else:
            for model in self.models:
                model.increment()

    def finish(self):
        post = {}
        final_pc = None
        if self.models is not None:
            final_pc = self.models[0].pc
            for bits, model in zip(self.block_sizes, self.models):
                post[str(bits)] = {
                    "updates": model.updates,
                    "blocks_touched": model.blocks_touched,
                    "cycles": model.cycles,
                    "redirects": model.redirects,
                }
        return {
            "block_sizes": list(self.block_sizes),
            "prefix_increments": self.prefix_increments,
            "first_target": self.first_target,
            "final_pc": final_pc,
            "post": post,
        }


class _StoredBitsWalker:
    """Stored-bit totals per scheme over every operand value."""

    def __init__(self, schemes):
        self.schemes = list(schemes)
        self.totals = [0] * len(self.schemes)
        self.values = 0
        self._memo = {}  # value -> per-scheme stored-bit tuple

    def _record_value(self, value):
        entry = self._memo.get(value)
        if entry is None:
            entry = tuple(scheme.stored_bits(value) for scheme in self.schemes)
            self._memo[value] = entry
        for index, bits in enumerate(entry):
            self.totals[index] += bits
        self.values += 1

    def feed(self, record):
        for value in record.read_values:
            self._record_value(value)
        if record.write_value is not None:
            self._record_value(record.write_value)


class SchemeBitsWalker(_StoredBitsWalker):
    """Scheme ablation: stored-bit totals per named extension scheme."""

    def __init__(self, scheme_names):
        self.scheme_names = tuple(scheme_names)
        super().__init__(get_scheme(name) for name in self.scheme_names)

    def finish(self):
        return {
            "scheme_names": list(self.scheme_names),
            "values": self.values,
            "bits": list(self.totals),
        }


class SegmentBitsWalker(_StoredBitsWalker):
    """Segmentation ablation: stored-bit totals per segmentation."""

    def __init__(self, segmentations):
        self.segmentations = tuple(tuple(s) for s in segmentations)
        super().__init__(
            SegmentedScheme(segments) for segments in self.segmentations
        )

    def finish(self):
        return {
            "segmentations": [list(s) for s in self.segmentations],
            "values": self.values,
            "bits": list(self.totals),
        }


class PcExecWalker:
    """Per-PC execution counts."""

    def __init__(self):
        self.counts = {}

    def feed(self, record):
        self.counts[record.pc] = self.counts.get(record.pc, 0) + 1

    def finish(self):
        return {
            "execs": [[pc, count] for pc, count in sorted(self.counts.items())]
        }


class FetchWalker:
    """Table 3: fetch statistics, one ``record`` per executed instruction."""

    def __init__(self):
        self.stats = FetchStatistics()

    def feed(self, record):
        self.stats.record(record.instr)

    def finish(self):
        return self.stats.to_dict()


WALKERS = {
    "patterns": PatternWalker,
    "pc": PCWalker,
    "scheme_bits": SchemeBitsWalker,
    "segment_bits": SegmentBitsWalker,
    "pc_exec": PcExecWalker,
    "fetch": FetchWalker,
}


def walk(spec, records):
    """The payload of the walker ``spec`` fed every record in order."""
    walker = WALKERS[spec[0]](*spec[1:])
    for record in records:
        walker.feed(record)
    return walker.finish()
