"""Trace-walk reducers: single-pass, fusable, memoizable trace scans.

The trace-walking studies — Table 1's pattern counting, Table 2's
PC-stream measurement, Table 3's fetch statistics, the
scheme/granularity value-level ablations —
used to re-decode every trace and scan a full in-memory record list once
per study (Table 2 even once per block size).  A :class:`TraceWalker`
turns each of those scans into a *reducer* over a record stream:

* ``feed(record)`` folds one :class:`~repro.sim.trace.TraceRecord` into
  the walker's state;
* ``finish()`` returns a JSON-able payload — the per-``(workload,
  scale)`` summary the study needs, shaped so per-workload payloads
  merge into the original suite-level numbers *exactly* (byte-identical
  report text is the contract, and the round-trip tests enforce it).

Because walkers only ever see one record at a time, the scheduler can
**fuse** them: every pending walker for the same trace is fed from a
single streaming decode pass (:func:`repro.sim.tracefile.iter_records`),
so a cold ``repro all`` decodes each trace once for all walk studies
combined instead of ~10 times — and never materializes the record list
at all when the trace is already on disk.  Payloads persist in the
:class:`~repro.study.result_store.ResultStore` (kind ``walk``), so a
warm run walks nothing.

Walkers are *declared* by spec tuples — ``("patterns", True)``,
``("pc", (1, 2, 4, 8, 16, 32))``, ``("scheme_bits", ("byte2", ...))``,
``("segment_bits", ((8, 8, 8, 8), ...))``, ``("fetch",)`` — which ride inside
:class:`~repro.study.scheduler.WalkUnit` keys and result-store
descriptors.  :func:`build_walker` turns a spec into a fresh reducer;
:func:`wrap_payload`/:func:`unwrap_payload` add and check the version
envelope stored on disk.
"""

from repro.core.compress import get_scheme
from repro.core.extension import SegmentedScheme
from repro.core.icompress import FetchStatistics
from repro.core.patterns import PatternCounter, pattern_of
from repro.core.pc import BlockSerialPC
from repro.obs import tracing

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

    Subclasses define :attr:`kind`, :meth:`feed` and :meth:`finish`.
    A walker instance is single-use: it accumulates over exactly one
    ``(workload, scale)`` record stream and then finishes.  Suite-level
    numbers come from merging per-workload payloads (each walker class
    documents its merge), never from feeding one walker two traces.
    """

    #: Spec-tuple head (also the ``walk:<kind>`` bucket in cache info).
    kind = None

    def feed(self, record):
        """Fold one trace record into the walker state."""
        raise NotImplementedError

    def finish(self):
        """The JSON-able per-workload payload (see :func:`wrap_payload`)."""
        raise NotImplementedError

    def traced_finish(self, slug):
        """:meth:`finish` under a per-spec compute span.

        The fused walk group feeds every pending walker from one stream,
        so its ``walk.group`` span cannot attribute time per spec; the
        finish step — where reducers like :class:`PCWalker` do their
        per-spec aggregation — can, and this is where the scheduler
        collects payloads from.
        """
        with tracing.span(
            "walk.finish:%s" % slug, "compute", kind=self.kind
        ):
            return self.finish()

    def __repr__(self):
        return "%s(%r)" % (type(self).__name__, self.kind)


class PatternWalker(TraceWalker):
    """Table 1: significance-pattern counts over register operand values.

    Payload merge: :func:`counter_from_payload` + ``PatternCounter.merge``
    in suite order reproduces the sequential single-counter walk exactly
    — including the first-seen insertion order that breaks ties in
    ``PatternCounter.table()``, which is why ``counts`` is an ordered
    list of pairs rather than an object (the result store re-serializes
    with sorted keys).
    """

    kind = "patterns"

    def __init__(self, include_writes=True):
        self.include_writes = include_writes
        self.scheme = PatternCounter().scheme  # the study-standard scheme
        self.counts = {}
        self.total = 0
        self.significant_blocks = 0
        #: value -> (pattern, significant block count); operand values
        #: repeat heavily (the paper's own premise), so classify once.
        self._memo = {}

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
        """Fold one trace record into the walker state."""
        for value in record.read_values:
            self._record_value(value)
        if self.include_writes and record.write_value is not None:
            self._record_value(record.write_value)

    def finish(self):
        """The JSON-able per-workload payload (see :func:`wrap_payload`)."""
        return {
            "scheme": self.scheme.name,
            "counts": [[pattern, count] for pattern, count in self.counts.items()],
            "total": self.total,
            "significant_blocks": self.significant_blocks,
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
    """Table 2: block-serial PC activity, every block size in one pass.

    The original suite walk threads *one* :class:`BlockSerialPC` per
    block size through all workloads sequentially, so a workload's
    counters depend on the model PC it inherited from the previous
    workload — per-workload payloads cannot just be summed.  The
    dependence is confined to the records before the workload's first
    redirect (only increments happen, from an unknown model PC) plus the
    first redirect itself; after that the model PC equals the real
    branch target and everything is workload-local.

    So the payload splits each workload into a tiny *prefix* (an
    increment count plus the first redirect target, replayed live
    against the suite model at merge time) and precomputed *post*
    counters.  :func:`replay_pc_model` threads the payloads through a
    fresh suite model in workload order — exactly the original walk,
    at a cost of one cheap integer increment per prefix record.
    """

    kind = "pc"

    def __init__(self, block_sizes):
        self.block_sizes = tuple(block_sizes)
        if not self.block_sizes:
            raise ValueError("PCWalker needs at least one block size")
        self.prefix_increments = 0
        self.first_target = None
        self.models = None  # created at the first redirect, PC-synced
        self.previous = None

    def feed(self, record):
        """Fold one trace record into the walker state."""
        pc = record.pc
        previous = self.previous
        self.previous = pc
        models = self.models
        if previous is not None and pc != previous + 4:
            if models is None:
                # The first redirect: its own block count depends on the
                # inherited model PC, so it is replayed at merge time;
                # from here on the model PC equals the real target.
                self.first_target = pc
                self.models = [
                    BlockSerialPC(block_bits=bits, initial_pc=pc)
                    for bits in self.block_sizes
                ]
            else:
                for model in models:
                    model.redirect(pc)
        elif models is None:
            self.prefix_increments += 1
        else:
            for model in models:
                model.increment()

    def finish(self):
        """The JSON-able per-workload payload (see :func:`wrap_payload`)."""
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


def replay_pc_model(block_bits, payloads):
    """Thread per-workload PC payloads through one suite-level model.

    ``payloads`` come in suite (workload) order; the result is the same
    :class:`BlockSerialPC` state the original sequential walk produces.
    """
    model = BlockSerialPC(block_bits=block_bits)
    key = str(block_bits)
    for data in payloads:
        for _ in range(data["prefix_increments"]):
            model.increment()
        target = data["first_target"]
        if target is not None:
            model.redirect(target)
            post = data["post"][key]
            model.updates += post["updates"]
            model.blocks_touched += post["blocks_touched"]
            model.cycles += post["cycles"]
            model.redirects += post["redirects"]
            model.pc = data["final_pc"]
    return model


class _StoredBitsWalker(TraceWalker):
    """Shared machinery of the value-level storage ablations.

    One pass accumulates, for every candidate scheme, the total stored
    bits over all register operand values (reads then write — the
    ablations' value order) plus the value count, memoizing per value
    since operand values repeat heavily.  Suite merge is plain integer
    addition, so the final ``total_bits / (32 * count)`` ratio is
    bit-identical to the original concatenated-list computation.
    """

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
        totals = self.totals
        for index, bits in enumerate(entry):
            totals[index] += bits
        self.values += 1

    def feed(self, record):
        for value in record.read_values:
            self._record_value(value)
        if record.write_value is not None:
            self._record_value(record.write_value)


class SchemeBitsWalker(_StoredBitsWalker):
    """Scheme ablation: stored-bit totals per named extension scheme."""

    kind = "scheme_bits"

    def __init__(self, scheme_names):
        self.scheme_names = tuple(scheme_names)
        super().__init__(get_scheme(name) for name in self.scheme_names)

    def finish(self):
        """The JSON-able per-workload payload (see :func:`wrap_payload`)."""
        return {
            "scheme_names": list(self.scheme_names),
            "values": self.values,
            "bits": list(self.totals),
        }


class SegmentBitsWalker(_StoredBitsWalker):
    """Segmentation ablation: stored-bit totals per segmentation."""

    kind = "segment_bits"

    def __init__(self, segmentations):
        self.segmentations = tuple(tuple(s) for s in segmentations)
        super().__init__(
            SegmentedScheme(segments) for segments in self.segmentations
        )

    def finish(self):
        """The JSON-able per-workload payload (see :func:`wrap_payload`)."""
        return {
            "segmentations": [list(s) for s in self.segmentations],
            "values": self.values,
            "bits": list(self.totals),
        }


class PcExecWalker(TraceWalker):
    """Per-PC execution counts — the static scheme's dynamic weighting.

    The ``static-byte`` ablation row multiplies per-PC tag-table operand
    widths (:func:`repro.analysis.tag_table.static_scheme_totals`) by how
    often each instruction executed; this walker supplies the counts.
    Payload merge is per-PC integer addition, which the suite aggregation
    does by summing the per-workload totals it derives.
    """

    kind = "pc_exec"

    def __init__(self):
        self.counts = {}

    def feed(self, record):
        """Fold one trace record into the walker state."""
        counts = self.counts
        counts[record.pc] = counts.get(record.pc, 0) + 1

    def finish(self):
        """The JSON-able per-workload payload (see :func:`wrap_payload`)."""
        return {
            "execs": [
                [pc, count] for pc, count in sorted(self.counts.items())
            ]
        }


class FetchWalker(TraceWalker):
    """Table 3 + Section 2.3: instruction-fetch statistics.

    Counts the dynamic instruction stream under the default instruction
    compressor.  The payload is :meth:`FetchStatistics.to_dict
    <repro.core.icompress.FetchStatistics.to_dict>`; suite totals come
    from ``FetchStatistics.from_dict`` + ``merge`` in suite order.
    """

    kind = "fetch"

    def __init__(self):
        self.stats = FetchStatistics()

    def feed(self, record):
        """Fold one trace record into the walker state."""
        self.stats.record(record.instr)

    def finish(self):
        """The JSON-able per-workload payload (see :func:`wrap_payload`)."""
        return self.stats.to_dict()


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
    """A fresh single-use :class:`TraceWalker` for one spec tuple."""
    validate_spec(spec)
    return WALKERS[spec[0]](*spec[1:])
