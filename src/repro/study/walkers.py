"""Trace-walk reducers: per-trace payloads from the trace summary.

The trace-walking studies — Table 1's pattern counting, Table 2's
PC-stream measurement, Table 3's fetch statistics, the
scheme/granularity value-level ablations, the static scheme's execution
counts — each reduce one ``(workload, scale)`` trace to a JSON-able
payload with one :meth:`TraceWalker.reduce` over the trace's
:class:`~repro.pipeline.trace_summary.TraceSummary`, which the broker's
task for the trace builds once from its record list.  Payloads merge
per workload into the original suite-level numbers *exactly*
(byte-identical report text is the contract), persist in the result
store (kind ``walk``), and match the original per-record reducers kept
as the test oracle in ``tests/oracles/reference_walkers.py``.

Walkers are *declared* by spec tuples — ``("patterns", True)``,
``("pc", (1, 2, 4, 8, 16, 32))``, ``("scheme_bits", ("byte2", ...))``,
``("segment_bits", ((8, 8, 8, 8), ...))``, ``("fetch",)`` — which ride inside
:class:`~repro.study.scheduler.WalkUnit` keys and result-store
descriptors.  :func:`build_walker` turns a spec into a reducer;
:func:`wrap_payload`/:func:`unwrap_payload` add and check the version
envelope stored on disk.
"""

from repro.core.compress import get_scheme
from repro.core.extension import SegmentedScheme
from repro.core.icompress import FetchStatistics
from repro.core.patterns import PatternCounter

#: Bumped whenever any walker's payload layout changes; stored payloads
#: from other versions fail closed (the walk recomputes).
WALK_VERSION = 1


def spec_jsonable(spec):
    """A walker spec tuple as nested lists (JSON-able, order-preserving)."""
    if isinstance(spec, tuple):
        return [spec_jsonable(item) for item in spec]
    return spec


def walker_slug(spec):
    """Filename-safe short name of a walker spec (result-store paths)."""
    kind = spec[0]
    if kind == "patterns":
        return "patterns" if spec[1] else "patterns-reads"
    if kind == "pc":
        return "pc" + "-".join(str(bits) for bits in spec[1])
    if kind == "scheme_bits":
        return "schemebits-" + "-".join(spec[1])
    if kind == "segment_bits":
        return "segbits-" + "-".join(
            "x".join(str(s) for s in segments) for segments in spec[1]
        )
    if kind == "pc_exec":
        return "pcexec"
    if kind == "fetch":
        return "fetch"
    raise ValueError("unknown walker kind %r" % (kind,))


def wrap_payload(spec, data):
    """The on-disk envelope of one walker payload (versioned, self-naming)."""
    return {"version": WALK_VERSION, "walker": spec_jsonable(spec), "data": data}


def unwrap_payload(spec, payload):
    """Validate a stored envelope against ``spec``; returns the data dict.

    Raises ``ValueError`` on version skew, a different walker spec, or a
    malformed envelope — the caller treats all three as a cache miss.
    """
    if not isinstance(payload, dict):
        raise ValueError("walk payload is not an object")
    if payload.get("version") != WALK_VERSION:
        raise ValueError(
            "walk payload version %r != supported %d"
            % (payload.get("version"), WALK_VERSION)
        )
    if payload.get("walker") != spec_jsonable(spec):
        raise ValueError("walk payload belongs to a different walker")
    data = payload.get("data")
    if not isinstance(data, dict):
        raise ValueError("walk payload carries no data object")
    return data


class TraceWalker:
    """Protocol shared by every trace-walk reducer.

    Subclasses define :attr:`kind` and :meth:`reduce`.  A walker reduces
    exactly one ``(workload, scale)`` trace; suite-level numbers come
    from merging per-workload payloads (each walker class documents its
    merge), never from reducing one summary of two traces.
    """

    #: Spec-tuple head (also the ``walk:<kind>`` bucket in cache info).
    kind = None

    def reduce(self, summary):
        """The JSON-able per-workload payload of one
        :class:`~repro.pipeline.trace_summary.TraceSummary` (see
        :func:`wrap_payload`)."""
        raise NotImplementedError

    def __repr__(self):
        return "%s(%r)" % (type(self).__name__, self.kind)


class PatternWalker(TraceWalker):
    """Table 1: significance-pattern counts over register operand values.

    Payload merge: :func:`counter_from_payload` + ``PatternCounter.merge``
    in suite order reproduces the sequential single-counter walk exactly
    — including the first-seen insertion order that breaks ties in
    ``PatternCounter.table()``, which is why ``counts`` is an ordered
    list of pairs rather than an object (the result store re-serializes
    with sorted keys).  The summary's operand values are in first-seen
    order, so their patterns are too.
    """

    kind = "patterns"

    def __init__(self, include_writes=True):
        self.include_writes = include_writes

    def reduce(self, summary):
        """The JSON-able per-workload payload (see :func:`wrap_payload`)."""
        counter = PatternCounter()  # the study-standard scheme
        for value, count in summary.operand_counts(self.include_writes).items():
            counter.record(value, count)
        return {
            "scheme": counter.scheme.name,
            "counts": [[pattern, count] for pattern, count in counter.counts.items()],
            "total": counter.total,
            "significant_blocks": counter._significant_blocks,
        }


def counter_from_payload(data):
    """Rebuild a :class:`PatternCounter` from one walker payload."""
    counter = PatternCounter()
    if data.get("scheme") != counter.scheme.name:
        raise ValueError(
            "pattern payload was counted under scheme %r" % data.get("scheme")
        )
    for pattern, count in data["counts"]:
        counter.counts[pattern] = count
    counter.total = data["total"]
    counter._significant_blocks = data["significant_blocks"]
    return counter


class PCWalker(TraceWalker):
    """Table 2: block-serial PC activity, every block size at once.

    The original suite walk threads *one* :class:`BlockSerialPC` per
    block size through all workloads sequentially, so a workload's
    counters depend on the model PC it inherited from the previous
    workload — per-workload payloads cannot just be summed.  The
    dependence is confined to the records before the workload's first
    redirect (only increments happen, from an unknown model PC) plus the
    first redirect itself; after that the model PC equals the real
    branch target and everything is workload-local.

    So the payload (:meth:`TraceSummary.pc_payload
    <repro.pipeline.trace_summary.TraceSummary.pc_payload>`) splits each
    workload into a tiny *prefix* (an increment count plus the first
    redirect target, replayed live against the suite model at merge
    time) and *post* counters, summed over the distinct PC transition
    edges.  :func:`~repro.pipeline.trace_summary.replay_pc_model` threads
    the payloads through a fresh suite model in workload order — exactly
    the original walk.
    """

    kind = "pc"

    def __init__(self, block_sizes):
        self.block_sizes = tuple(block_sizes)
        if not self.block_sizes:
            raise ValueError("PCWalker needs at least one block size")

    def reduce(self, summary):
        """The JSON-able per-workload payload (see :func:`wrap_payload`)."""
        return summary.pc_payload(self.block_sizes)


class _StoredBitsWalker(TraceWalker):
    """Shared machinery of the value-level storage ablations.

    Accumulates, for every candidate scheme, the total stored bits over
    all register operand values (reads and writes) plus the value count,
    one ``stored_bits`` call per distinct value and scheme.  Suite merge
    is plain integer addition, so the final ``total_bits / (32 *
    count)`` ratio is bit-identical to the original concatenated-list
    computation.
    """

    def __init__(self, schemes):
        self.schemes = list(schemes)

    def reduce(self, summary):
        """The JSON-able per-workload payload (see :func:`wrap_payload`):
        the walker's parameters under :attr:`params_key`, the value count
        and the stored bits per scheme."""
        counts = summary.operand_counts()
        return {
            self.params_key: self.params,
            "values": sum(counts.values()),
            "bits": [
                sum(count * scheme.stored_bits(value)
                    for value, count in counts.items())
                for scheme in self.schemes
            ],
        }


class SchemeBitsWalker(_StoredBitsWalker):
    """Scheme ablation: stored-bit totals per named extension scheme."""

    kind = "scheme_bits"
    params_key = "scheme_names"

    def __init__(self, scheme_names):
        self.params = list(scheme_names)
        super().__init__(get_scheme(name) for name in scheme_names)


class SegmentBitsWalker(_StoredBitsWalker):
    """Segmentation ablation: stored-bit totals per segmentation."""

    kind = "segment_bits"
    params_key = "segmentations"

    def __init__(self, segmentations):
        self.params = [list(s) for s in segmentations]
        super().__init__(SegmentedScheme(s) for s in segmentations)


class PcExecWalker(TraceWalker):
    """Per-PC execution counts — the static scheme's dynamic weighting.

    The ``static-byte`` ablation row multiplies per-PC tag-table operand
    widths (:func:`repro.analysis.tag_table.static_scheme_totals`) by how
    often each instruction executed; this walker supplies the counts.
    Payload merge is per-PC integer addition, which the suite aggregation
    does by summing the per-workload totals it derives.
    """

    kind = "pc_exec"

    def reduce(self, summary):
        """The JSON-able per-workload payload (see :func:`wrap_payload`)."""
        return {
            "execs": [
                [pc, count] for pc, count in sorted(summary.execs.items())
            ]
        }


class FetchWalker(TraceWalker):
    """Table 3 + Section 2.3: instruction-fetch statistics.

    Counts the dynamic instruction stream under the default instruction
    compressor: each executed PC's instruction once, weighted by its
    execution count, in first-execution order (which keeps the funct
    table's insertion order).  The payload is
    :meth:`FetchStatistics.to_dict
    <repro.core.icompress.FetchStatistics.to_dict>`; suite totals come
    from ``FetchStatistics.from_dict`` + ``merge`` in suite order.
    """

    kind = "fetch"

    def reduce(self, summary):
        """The JSON-able per-workload payload (see :func:`wrap_payload`)."""
        stats = FetchStatistics()
        execs = summary.execs
        for pc, instr in summary.instrs.items():
            stats.record(instr, execs[pc])
        return stats.to_dict()


#: Walker kind -> class; specs are ``(kind, *params)`` tuples.
WALKERS = {
    walker.kind: walker
    for walker in (
        PatternWalker,
        PCWalker,
        SchemeBitsWalker,
        SegmentBitsWalker,
        PcExecWalker,
        FetchWalker,
    )
}


def validate_spec(spec):
    """Reject malformed walker specs before they reach unit keys."""
    if not isinstance(spec, tuple) or not spec or spec[0] not in WALKERS:
        raise ValueError(
            "unknown walker spec %r; kinds: %s"
            % (spec, ", ".join(sorted(WALKERS)))
        )
    return spec


def build_walker(spec):
    """The :class:`TraceWalker` for one spec tuple."""
    validate_spec(spec)
    return WALKERS[spec[0]](*spec[1:])
