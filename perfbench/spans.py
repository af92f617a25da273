"""Per-layer timing for the traced benchmark run, from outside the engine.

:class:`LayerProbe` wraps the public functions at each layer boundary
of the reproduction engine with a stopwatch, for the duration of a
``with`` block only; leaving the block restores every original.  The
program's own ``walk.group`` span (``repro.obs.tracing``) is read
instead of wrapped, so the probe also installs a tracer for the block.

Every timed call becomes a :class:`Span`.  :func:`self_times` nests the
spans by interval (one thread, so calls nest properly) and charges each
layer its duration minus the part its direct child spans cover;
:func:`layer_metrics` turns one reproduction's spans into the per-layer
metrics of ``BENCHMARK.json``.
"""

import functools
import sys
import time
from collections import namedtuple

from repro.analysis import tag_table
from repro.obs import tracing
from repro.pipeline.activity import ActivityModel
from repro.pipeline.kernel import get_kernel
from repro.sim import tracefile
from repro.study import trace_cache
from repro.study.result_store import ResultStore
from repro.study.scheduler import ResultBroker
from repro.study.session import ExperimentSession
from repro.workloads.base import Workload

#: One timed call: layer name, perf_counter interval, and what it did.
Span = namedtuple("Span", ("layer", "start", "end", "records", "nbytes", "keep"))

#: Slack for the program tracer's 0.1 microsecond timestamp rounding.
_NEST_SLACK = 1e-6

#: The program's own walk-group span (``walk.group:<workload>@<scale>``),
#: read from its tracer as the ``study.walkers`` layer.
WALK_SPAN = "walk.group:"

# Measures: ``(args, result) -> (records, bytes, kept arguments)``.


def _records_arg(args, result):
    return len(args[1]), 0, ()


def _records_result(args, result):
    return len(result), 0, ()


def _encoded(args, result):
    return result["records"], result["payload_bytes"], ()


def _decoded(args, result):
    return len(result[0]), 0, ()


def _nothing(args, result):
    return 0, 0, ()


def _load_hit(args, result):
    # Keep (workload, unit) of a hit, so the entry's on-disk size can be
    # summed after the timed region (computing its path re-hashes the
    # workload source).
    return 0, 0, (args[1:3] if result is not None else ())


def _targets(kernel_name):
    """``(layer, owner, attribute, measure)`` for every wrapped call.

    ``owner`` is a class (the method is patched on it) or a module (the
    function is patched on it and on every ``repro`` module that bound
    it by ``from ... import``).
    """
    kernel = type(get_kernel(kernel_name))
    return [
        ("pipeline.activity", ActivityModel, "process", _records_arg),
        ("pipeline.kernel.expand", kernel, "expand", _records_arg),
        ("pipeline.kernel.simulate", kernel, "simulate", _nothing),
        ("sim.interpreter", Workload, "trace", _records_result),
        ("workloads.compile", Workload, "program", _nothing),
        ("sim.tracefile.encode", tracefile, "dump_trace", _encoded),
        ("sim.tracefile.decode", tracefile, "load_trace", _decoded),
        ("study.trace_cache.source_hash", trace_cache, "source_hash", _nothing),
        ("study.result_store.load", ResultStore, "load", _load_hit),
        ("study.result_store.store", ResultStore, "store", _nothing),
        ("study.scheduler", ResultBroker, "run_units", _nothing),
        ("study.session.experiments", ExperimentSession, "run_one", _nothing),
        ("analysis.tag_table", tag_table, "build_tag_table", _nothing),
    ]


class LayerProbe:
    """Context manager: layer wrappers and a program tracer, then none.

    ``spans`` collects every timed call made inside the block, in
    completion order; :meth:`take` hands them over (with the program's
    ``walk.group`` spans merged in) and starts a fresh list, so one
    probe can time several reproductions in a row.
    """

    def __init__(self, kernel_name):
        self.kernel_name = kernel_name
        self.spans = []
        self._patches = []  # (owner, attribute, original, own)
        self._tracer = None
        self._previous_tracer = None
        self._mark = 0

    def __enter__(self):
        try:
            for layer, owner, attribute, measure in _targets(self.kernel_name):
                original = getattr(owner, attribute)
                wrapper = self._wrap(layer, original, measure)
                for target in self._owners(owner, attribute, original):
                    own = attribute in vars(target)
                    self._patches.append((target, attribute, original, own))
                    setattr(target, attribute, wrapper)
            self._previous_tracer = tracing.current_tracer()
            self._tracer = tracing.start_trace()
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        self._restore()
        return False

    def _restore(self):
        while self._patches:
            target, attribute, original, own = self._patches.pop()
            if own:
                setattr(target, attribute, original)
            else:  # inherited: drop the override instead of pinning a copy
                delattr(target, attribute)
        if self._tracer is not None and tracing.current_tracer() is self._tracer:
            tracing.set_tracer(self._previous_tracer)

    @staticmethod
    def _owners(owner, attribute, original):
        if isinstance(owner, type):
            return [owner]
        return [
            module
            for name, module in sorted(sys.modules.items())
            if (name == "repro" or name.startswith("repro."))
            and module is not None
            and getattr(module, attribute, None) is original
        ]

    def _wrap(self, layer, original, measure):
        spans = self.spans

        @functools.wraps(original)
        def timed(*args, **kwargs):
            start = time.perf_counter()
            result = original(*args, **kwargs)
            end = time.perf_counter()
            spans.append(Span(layer, start, end, *measure(args, result)))
            return result

        return timed

    def take(self):
        """The spans recorded since the last call, program spans included."""
        spans = list(self.spans)
        del self.spans[:]
        events = self._tracer.events_since(self._mark)
        self._mark = self._tracer.event_count()
        origin = self._tracer.origin
        for event in events:
            if event["name"].startswith(WALK_SPAN):
                start = origin + event["ts"] / 1e6
                end = start + event["dur"] / 1e6
                spans.append(Span("study.walkers", start, end, 0, 0, ()))
        return spans


def self_times(spans):
    """``[(span, self seconds)]``: duration minus direct children's time.

    Spans nest by interval; a span counts as the child of the innermost
    open span that contains it.
    """
    ordered = sorted(spans, key=lambda span: (span.start, -span.end))
    children = [0.0] * len(ordered)
    stack = []
    for index, span in enumerate(ordered):
        while stack and (
            ordered[stack[-1]].end <= span.start
            or ordered[stack[-1]].end + _NEST_SLACK < span.end
        ):
            stack.pop()
        if stack:
            children[stack[-1]] += span.end - span.start
        stack.append(index)
    return [
        (span, max(0.0, span.end - span.start - covered))
        for span, covered in zip(ordered, children)
    ]


def layer_totals(spans):
    """Layer -> ``{"s", "calls", "records", "bytes"}`` summed self times."""
    totals = {}
    for span, seconds in self_times(spans):
        entry = totals.setdefault(
            span.layer, {"s": 0.0, "calls": 0, "records": 0, "bytes": 0}
        )
        entry["s"] += seconds
        entry["calls"] += 1
        entry["records"] += span.records
        entry["bytes"] += span.nbytes
    return totals


def loaded_entries(spans):
    """``(workload, unit)`` of every result-store load that hit."""
    return [span.keep for span in spans if span.keep]


def session_counts(session):
    """The cache and unit counters of one finished reproduction."""
    broker = session.results
    cache = session.store.cache
    return {
        "study.trace_cache.hits": sum(cache.hits.values()),
        "study.trace_cache.misses": sum(cache.misses.values()),
        "study.scheduler.units_computed": (
            sum(broker.sim_misses.values()) + sum(broker.walk_misses.values())
        ),
        "study.scheduler.units_memo_hits": (
            sum(broker.sim_hits.values()) + sum(broker.walk_hits.values())
        ),
        "study.scheduler.units_disk_hits": sum(broker.disk_hits.values()),
    }


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(totals, counts, bytes_read, run_seconds):
    """The per-layer metrics of one traced reproduction.

    ``totals`` is :func:`layer_totals` of its spans, ``counts``
    :func:`session_counts` of its session, ``bytes_read`` the on-disk
    size of the result entries its loads were served from and
    ``run_seconds`` its wall time.
    """
    empty = {"s": 0.0, "calls": 0, "records": 0, "bytes": 0}

    def get(layer):
        return totals.get(layer, empty)

    activity = get("pipeline.activity")
    expand = get("pipeline.kernel.expand")
    interpreter = get("sim.interpreter")
    encode = get("sim.tracefile.encode")
    attributed = sum(entry["s"] for entry in totals.values())
    metrics = {
        "pipeline.activity.s": activity["s"],
        "pipeline.activity.records_per_s": _rate(activity["records"], activity["s"]),
        "pipeline.activity.passes": activity["calls"],
        "pipeline.kernel.expand_s": expand["s"],
        "pipeline.kernel.expand_records_per_s": _rate(expand["records"], expand["s"]),
        "pipeline.kernel.simulate_s": get("pipeline.kernel.simulate")["s"],
        "pipeline.kernel.sims": get("pipeline.kernel.simulate")["calls"],
        "sim.interpreter.s": interpreter["s"],
        "sim.interpreter.records_per_s": _rate(
            interpreter["records"], interpreter["s"]
        ),
        "sim.tracefile.encode_s": encode["s"],
        "sim.tracefile.bytes_per_record": (
            encode["bytes"] / encode["records"] if encode["records"] else 0.0
        ),
        "sim.tracefile.decode_s": get("sim.tracefile.decode")["s"],
        "study.walkers.s": get("study.walkers")["s"],
        "study.walkers.groups": get("study.walkers")["calls"],
        "study.trace_cache.source_hash_s": get("study.trace_cache.source_hash")["s"],
        "study.trace_cache.source_hash_calls": (
            get("study.trace_cache.source_hash")["calls"]
        ),
        "study.result_store.load_s": get("study.result_store.load")["s"],
        "study.result_store.store_s": get("study.result_store.store")["s"],
        "study.result_store.loads": get("study.result_store.load")["calls"],
        "study.result_store.stores": get("study.result_store.store")["calls"],
        "study.result_store.bytes_read": bytes_read,
        "study.scheduler.self_s": get("study.scheduler")["s"],
        "study.session.experiments_s": get("study.session.experiments")["s"],
        "analysis.tag_table_s": get("analysis.tag_table")["s"],
        "workloads.compile_s": get("workloads.compile")["s"],
        "trace.unattributed_frac": (
            (run_seconds - attributed) / run_seconds if run_seconds > 0 else 0.0
        ),
    }
    metrics.update(counts)
    return metrics


def metric_unit(name):
    """The unit of one per-layer metric, read off its name."""
    if name.endswith("records_per_s"):
        return "1/s"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_frac"):
        return "fraction"
    if name.endswith("bytes_per_record"):
        return "B/record"
    if name.endswith("bytes_read"):
        return "B"
    return "count"
