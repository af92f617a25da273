"""Unit-sharded analysis scheduler.

The experiments decompose into fine-grained *units* — one pipeline
simulation, activity-model pass, trace walk or static analysis over one
``(workload, scale)``.  Units are the scheduler's currency:

* :class:`SimUnit` — ``simulate(organization, trace)``, optionally with
  a bimodal predictor attached (the Section 3 future-work variant);
* :class:`ActivityUnit` — an :class:`~repro.pipeline.activity.ActivityModel`
  pass under a declarative configuration key;
* :class:`WalkUnit` — one :class:`~repro.study.walkers.TraceWalker`
  reduction (pattern counts, PC-stream activity, fetch statistics,
  value-level ablation scans) over the trace's summary;
* :class:`AnalysisUnit` / :class:`TagTableUnit` — static analysis of
  the assembled program, which needs no trace at all.

Every unit class carries the same small protocol (see :class:`_Unit`):
how it computes, how its stored payload encodes and decodes, and which
hit/miss counter family counts it.  The broker dispatches through those
methods, never on the unit's type.

:class:`ResultBroker` executes units with a three-level fallthrough —
in-memory memo → persistent :class:`~repro.study.result_store.ResultStore`
→ compute — so a unit shared by several experiments (``baseline32``
appears in every figure; ``byte_serial`` in fig4, fig6 and the
bottleneck analysis) runs **at most once per session**, and not at all
when a warm result store holds it.  It is the only way a study gets a
result: :func:`broker_for` hands a study called outside a session an
in-memory broker.

The scheduling unit is one *trace*: every pending unit over one
``(workload, scale)`` forms one :class:`TraceTask`, which gets its trace
at most once, computes every unit — simulations and activity passes on
the record list, then all walkers from the one summary of that list
(:meth:`~repro.pipeline.kernel.TraceColumns.summary`) — and releases
the trace before the next task starts.  Serial runs, ``--jobs N``
workers and the supervisor's quarantine path all execute the same task,
so a batch holds at most one trace per process, and a fully warm run
touches no trace at all — zero decodes, zero walks.  Because every
unit is deterministic, study reports reassemble byte-identically
regardless of scheduling.
"""

import multiprocessing
import sys
from collections import namedtuple

from repro.obs import tracing
from repro.obs.metrics import MetricsRegistry

from repro.analysis.driver import (
    ANALYSIS_VERSION,
    analyze_workload,
    unwrap_analysis_payload,
    wrap_analysis_payload,
)
from repro.analysis.tag_table import (
    build_tag_table,
    unwrap_tag_payload,
    wrap_tag_payload,
)
from repro.core.compress import get_scheme
from repro.core.extension import BYTE_SCHEME
from repro.pipeline.activity import ActivityModel, ActivityReport
from repro.pipeline.base import PipelineResult
from repro.pipeline.kernel import default_kernel_name, get_kernel
from repro.pipeline.organizations import get_organization
from repro.study.session import TraceStore
from repro.study.supervisor import SupervisedExecutor
from repro.study.walkers import (
    build_walker,
    unwrap_payload,
    validate_spec,
    spec_jsonable,
    walker_slug,
    wrap_payload,
)

#: The only recognised SimUnit variant besides None: a bimodal direction
#: predictor with an ideal BTB attached to the pipeline.
BIMODAL_VARIANT = "bimodal"


class _Unit:
    """The protocol every unit kind implements.

    Subclasses are namedtuples with ``workload`` and ``scale`` fields;
    they set :attr:`kind`, define :meth:`slug` and :meth:`unwrap`, and
    override the defaults below where they differ.

    Unit identity includes the unit *type*, not just the field tuple:
    namedtuple equality is plain tuple equality, so two unit kinds with
    the same field shape — ``AnalysisUnit`` and ``TagTableUnit`` are
    both ``(workload, scale)`` — would otherwise collide as broker memo
    keys and serve each other's results.
    """

    __slots__ = ()

    #: Hit/miss counter family: ``"sim"`` counts into ``sim_hits`` /
    #: ``sim_misses``, ``"walk"`` into ``walk_hits`` / ``walk_misses``.
    #: Walk-family units are also the fused ones: every pending walk
    #: unit of one trace reduces the same trace summary.
    family = "sim"

    def __hash__(self):
        """Hash over ``(kind, *fields)`` so distinct kinds never collide."""
        return hash((self.kind,) + tuple(self))

    def __eq__(self, other):
        """Equal only to the same unit type with the same fields."""
        return self.__class__ is other.__class__ and tuple(self) == tuple(other)

    def __ne__(self, other):
        """The negation of :meth:`__eq__` (namedtuple would say tuple ne)."""
        return not self.__eq__(other)

    def descriptor(self):
        """JSON-able identity for the persistent result store."""
        return {"kind": self.kind}

    def label(self):
        """Human-readable counter key: ``workload@scale/slug``."""
        return "%s@%d/%s" % (self.workload, self.scale, self.slug())

    def compute(self, workload, traces):
        """``(result, simulation seconds or None)``, counter-free.

        ``traces`` is the broker's
        :class:`~repro.study.session.TraceStore`.  The timing travels
        with the result so forked workers can report it back to the
        parent (their own counters die with the worker).
        """
        raise NotImplementedError

    def wrap(self, result):
        """The payload :meth:`unwrap` reads back from the result store."""
        return result.to_dict()


class SimUnit(
    _Unit,
    namedtuple("SimUnit", ("workload", "scale", "organization", "variant")),
):
    """One pipeline simulation: (workload, scale, organization, variant)."""

    __slots__ = ()
    kind = "pipeline"

    def __new__(cls, workload, scale, organization, variant=None):
        if variant not in (None, BIMODAL_VARIANT):
            raise ValueError("unknown simulation variant %r" % (variant,))
        return super().__new__(cls, workload, scale, organization, variant)

    def descriptor(self):
        """JSON-able identity for the persistent result store."""
        return {
            "kind": self.kind,
            "organization": self.organization,
            "variant": self.variant,
        }

    def slug(self):
        """Filename-safe unit name."""
        if self.variant is None:
            return self.organization
        return "%s+%s" % (self.organization, self.variant)

    def compute(self, workload, traces):
        """Simulate the organization over the trace's shared columns; timed."""
        columns = traces.columns(workload, scale=self.scale)
        with tracing.span(
            "pipeline.run:%s" % self.label(), "compute",
            organization=self.organization, workload=self.workload,
        ) as handle:
            result = get_kernel(default_kernel_name()).run_columns(
                columns, get_organization(self.organization),
                predicted=self.variant == BIMODAL_VARIANT,
            )
        return result, handle.seconds

    def unwrap(self, payload):
        """A :class:`~repro.pipeline.base.PipelineResult` from its payload."""
        return PipelineResult.from_dict(payload)


class ActivityUnit(
    _Unit, namedtuple("ActivityUnit", ("workload", "scale", "config"))
):
    """One activity-model pass under ``config``, the model's
    ``config_key()``: ``(scheme_name, ext_bits_in_memory)``."""

    __slots__ = ()
    kind = "activity"

    def descriptor(self):
        """JSON-able identity for the persistent result store."""
        return {"kind": self.kind, "config": list(self.config)}

    def slug(self):
        """Filename-safe unit name."""
        scheme_name, ext_in_memory = self.config
        return "activity-%s%s" % (scheme_name, "-mem" if ext_in_memory else "")

    def compute(self, workload, traces):
        """Run the configured activity model over the trace's shared
        columns (its significance column is the simulations' one)."""
        columns = traces.columns(workload, scale=self.scale)
        return model_from_config(self.config).process(
            columns, name=workload.name
        ), None

    def unwrap(self, payload):
        """An :class:`~repro.pipeline.activity.ActivityReport` from its payload."""
        return ActivityReport.from_dict(payload)


class WalkUnit(
    _Unit, namedtuple("WalkUnit", ("workload", "scale", "walker"))
):
    """One trace-walk reduction; ``walker`` is a spec tuple.

    See :mod:`repro.study.walkers` for the spec vocabulary.  The spec
    rides into the result-store descriptor, so payloads from different
    walkers (or differently parameterized ones) never mix; the stored
    payload itself carries a version + spec envelope as a second check.
    Walk units never compute alone: a :class:`TraceTask` reduces every
    pending walk unit of its trace from the one trace summary.
    """

    __slots__ = ()
    kind = "walk"
    family = "walk"

    def __new__(cls, workload, scale, walker):
        validate_spec(walker)  # unknown specs fail here, not at compute
        return super().__new__(cls, workload, scale, walker)

    def descriptor(self):
        """JSON-able identity for the persistent result store."""
        return {"kind": self.kind, "walker": spec_jsonable(self.walker)}

    def slug(self):
        """Filename-safe unit name."""
        return "walk-%s" % walker_slug(self.walker)

    def wrap(self, result):
        """The versioned, spec-tagged envelope of a walker payload."""
        return wrap_payload(self.walker, result)

    def unwrap(self, payload):
        """The walker payload inside a stored envelope."""
        return unwrap_payload(self.walker, payload)


class _StaticUnit(_Unit):
    """A unit over the *assembled program*: it touches no trace.

    The analysis version rides in the descriptor (and in the stored
    envelope), so results from an older analyzer fail closed and
    recompute.
    """

    __slots__ = ()

    def descriptor(self):
        """JSON-able identity for the persistent result store."""
        return {"kind": self.kind, "version": ANALYSIS_VERSION}

    def slug(self):
        """Filename-safe unit name."""
        return self.kind


class AnalysisUnit(
    _StaticUnit, namedtuple("AnalysisUnit", ("workload", "scale"))
):
    """One static-analysis summary (CFG + significance bounds + lints)."""

    __slots__ = ()
    kind = "analyze"

    def compute(self, workload, traces):
        """Analyze the workload's program."""
        return analyze_workload(workload, scale=self.scale), None

    def wrap(self, result):
        """The versioned envelope of an analysis summary."""
        return wrap_analysis_payload(result)

    def unwrap(self, payload):
        """The analysis summary inside a stored envelope."""
        return unwrap_analysis_payload(payload)


class TagTableUnit(
    _StaticUnit, namedtuple("TagTableUnit", ("workload", "scale"))
):
    """One static tag table (per-PC operand widths for ``static-byte``).

    The table comes from the interprocedural analysis of the assembled
    program.
    """

    __slots__ = ()
    kind = "tags"

    def compute(self, workload, traces):
        """Build the tag table of the workload's program."""
        return build_tag_table(workload.program(self.scale)), None

    def wrap(self, result):
        """The versioned envelope of a tag table."""
        return wrap_tag_payload(result)

    def unwrap(self, payload):
        """The tag table inside a stored envelope."""
        return unwrap_tag_payload(payload)


class TraceTask(namedtuple("TraceTask", ("workload", "scale", "units"))):
    """One scheduling task: every pending unit over one ``(workload, scale)``.

    The broker's only task shape — serial, forked and quarantined
    execution all compute it through ``ResultBroker._compute``.
    """

    __slots__ = ()

    def label(self):
        """Counter, span and fault-key label: ``workload@scale``."""
        return "%s@%d" % (self.workload, self.scale)


def activity_config(scheme=BYTE_SCHEME, ext_bits_in_memory=False):
    """The config key of a study-standard ActivityModel over ``scheme``.

    Built through a throwaway model so declarative unit requests and the
    runtime model can never disagree about the key.
    """
    return ActivityModel(scheme, ext_bits_in_memory).config_key()


def model_from_config(config):
    """Reconstruct the ActivityModel an :class:`ActivityUnit` describes."""
    scheme_name, ext_bits_in_memory = config
    return ActivityModel(get_scheme(scheme_name), ext_bits_in_memory)


def broker_for(store):
    """The :class:`ResultBroker` a study requests its units through.

    A session's trace store already carries one (``store.results``).
    A study called outside a session (``store=None``) gets a fresh
    in-memory :class:`~repro.study.session.TraceStore`; a store without
    a broker gets one with no persistent result store.  Either way the
    study runs on the same execution path as a session.
    """
    if store is None:
        store = TraceStore()
    if store.results is None:
        store.results = ResultBroker(store)
    return store.results


class ResultBroker:
    """Memoizing executor for analysis units.

    Sits on top of a :class:`~repro.study.session.TraceStore` (traces)
    and an optional :class:`~repro.study.result_store.ResultStore`
    (persistence).  Every request falls through memory → disk → compute;
    the counters prove the discipline:

    * :attr:`sim_misses` — units actually computed in this process (the
      acceptance criterion: a warm run reports an empty dict);
    * :attr:`sim_hits` — requests served from the in-memory memo;
    * :attr:`walk_misses` / :attr:`walk_hits` — the same discipline for
      trace-walk units (a warm run walks nothing);
    * :attr:`disk_hits` — units loaded from the persistent store.
    """

    def __init__(self, trace_store, result_store=None, max_retries=None,
                 unit_timeout=None):
        self.traces = trace_store
        self.store = result_store
        #: Supervision knobs for the parallel path (``--max-retries`` /
        #: ``--unit-timeout``); ``None`` means the supervisor defaults.
        self.max_retries = max_retries
        self.unit_timeout = unit_timeout
        self._memo = {}
        self._workloads = {}
        #: The metrics registry every broker instrument lives in —
        #: shared with the trace store's, so one snapshot/merge covers
        #: trace and unit counters alike.
        self.registry = getattr(trace_store, "registry", None)
        if self.registry is None:
            self.registry = MetricsRegistry()
        counter = self.registry.counter
        #: unit label -> count, mirroring TraceStore's counter style.
        self.sim_hits = counter(
            "sim_hits", "unit requests served from the in-memory memo"
        )
        self.sim_misses = counter(
            "sim_misses", "units actually computed in this session"
        )
        self.walk_hits = counter(
            "walk_hits", "walk-unit requests served from the memo"
        )
        self.walk_misses = counter(
            "walk_misses", "walk units actually computed in this session"
        )
        self.disk_hits = counter(
            "result_disk_hits", "units loaded from the persistent store"
        )
        # Counter family (a unit's ``family``) -> its hit/miss counters.
        self._hits = {"sim": self.sim_hits, "walk": self.walk_hits}
        self._misses = {"sim": self.sim_misses, "walk": self.walk_misses}
        #: The computed simulations' ``units``, wall ``seconds`` and
        #: ``instructions`` (the JSON report's ``sim_timings``),
        #: including measurements merged back from forked workers.
        self.sim_timing = counter(
            "sim_timing",
            "computed pipeline simulations: units, wall seconds, instructions",
        )
        #: Parallel runs that degraded to serial execution (and why) —
        #: the headless-visible form of the fork-unavailable warning.
        self.parallel_fallbacks = counter(
            "parallel_fallbacks", "parallel runs degraded to serial execution"
        )
        # The persistent result store reports its hits, misses, stores,
        # write failures and degraded-mode flips through the same registry (the trace
        # cache is bound by the TraceStore that owns it).
        if self.store is not None:
            self.store.bind_registry(self.registry)

    def reset(self):
        """Zero every counter in the shared registry; the memo is kept.

        Two sessions reusing one store (hence one broker) would
        otherwise bleed the first session's counts into the second's
        report.  Memoized results stay valid — they are keyed by unit
        identity, not by session — so only the instruments reset.
        """
        self.registry.reset()

    # ------------------------------------------------------------- requests

    def pipeline_result(self, workload, organization, scale=1, variant=None):
        """Memoized ``simulate(organization, trace)`` for one workload."""
        unit = SimUnit(workload.name, scale, organization, variant)
        return self._request([unit], workload)[0]

    def activity_report(self, model, workload, scale=1):
        """Memoized ``model.process(trace)``."""
        unit = ActivityUnit(workload.name, scale, model.config_key())
        return self._request([unit], workload)[0]

    def analysis_summary(self, workload, scale=1):
        """Memoized static-analysis summary of one workload's program."""
        return self._request([AnalysisUnit(workload.name, scale)], workload)[0]

    def tag_table(self, workload, scale=1):
        """Memoized static tag table of one workload's program."""
        return self._request([TagTableUnit(workload.name, scale)], workload)[0]

    def walk_payload(self, workload, spec, scale=1):
        """Memoized payload of one trace walker over one workload."""
        return self._request([WalkUnit(workload.name, scale, spec)], workload)[0]

    # ------------------------------------------------------------ scheduling

    def run_units(self, units, workloads_by_name, jobs=1):
        """Execute requested units (deduping them) serially or across
        forked workers.

        Duplicate requests — the same unit declared by several
        experiments, or already memoized — count as :attr:`sim_hits`
        (:attr:`walk_hits` for walk units), so the dedupe is visible in
        the JSON report.  Disk-warm units load in the parent; only
        genuinely pending units reach a :class:`TraceTask`, one per
        ``(workload, scale)`` in first-request order, and only tasks
        reach the workers.  Results land in the in-memory memo, so the
        experiment runners that follow recompute nothing.
        """
        with tracing.span(
            "broker.run_units", "broker", requested=len(units), jobs=jobs
        ) as handle:
            computed = self._resolve(units, workloads_by_name, jobs)
            handle.note(computed=computed)
        return computed

    def _request(self, units, workload):
        """Results of ``units`` (all over ``workload``), in unit order.

        The single-request path of the study-facing methods: the same
        memory → disk → compute resolution as :meth:`run_units`, in
        this process.
        """
        self._resolve(units, {workload.name: workload}, jobs=1)
        return [self._memo[unit] for unit in units]

    def _resolve(self, units, workloads_by_name, jobs):
        """Memoize every unit in ``units``; returns how many it computed."""
        tasks = {}
        seen = set()
        for unit in units:
            if unit in self._memo or unit in seen:
                # Served by the memo (or by the pending compute below).
                self._count(self._hits[unit.family], unit)
                with tracing.span(
                    "unit:%s" % unit.label(), "unit", kind=unit.kind,
                    path="memory",
                ):
                    pass
                continue
            seen.add(unit)
            workload = workloads_by_name[unit.workload]
            self._register(workload)
            with tracing.span(
                "unit:%s" % unit.label(), "unit", kind=unit.kind,
                path="disk",
            ) as probe:
                loaded = self._load_from_disk(unit, workload)
                if loaded is None:
                    probe.cancel()  # re-observed as a compute-path span
            if loaded is None:
                key = (unit.workload, unit.scale)
                if key not in tasks:
                    tasks[key] = TraceTask(unit.workload, unit.scale, [])
                tasks[key].units.append(unit)
        tasks = list(tasks.values())
        if jobs > 1 and len(tasks) > 1:
            timed = self._compute_parallel(tasks, jobs)
        else:
            timed = [self._compute(task) for task in tasks]
        computed = 0
        for task, results in zip(tasks, timed):
            workload = workloads_by_name[task.workload]
            for unit, (result, seconds) in zip(task.units, results):
                self._install(unit, workload, result, seconds)
            computed += len(task.units)
        return computed

    def _compute(self, task):
        """Compute one :class:`TraceTask`, then release its trace.

        Returns ``[(result, sim seconds or None), ...]`` in unit order.
        The non-walk units compute first; every unit, walkers included,
        reads the one record list the task resolves.  Counter-free, so
        forked workers run exactly this.
        """
        workload = self._workloads[task.workload]
        timed = {}
        walks = []
        with tracing.span(
            "unit:%s" % task.label(), "unit", kind="trace", path="compute",
            units=len(task.units),
        ):
            try:
                for unit in task.units:
                    if unit.family == "walk":
                        walks.append(unit)
                        continue
                    with tracing.span(
                        "unit:%s" % unit.label(), "unit", kind=unit.kind,
                        path="compute",
                    ):
                        timed[unit] = unit.compute(workload, self.traces)
                if walks:
                    payloads = self._walk_group(workload, task.scale, walks)
                    for unit, payload in zip(walks, payloads):
                        timed[unit] = (payload, None)
            finally:
                self.traces.release(workload, task.scale)
        return [timed[unit] for unit in task.units]

    def _shipped_compute(self, task):
        # Runs in a forked worker.  The task resolves its own trace there
        # (simulating or decoding it), and the worker's counters and
        # spans die with it: ship the registry delta (snapshot → diff)
        # and the recorded events back alongside the results so the
        # parent's report stays truthful.
        before = self.registry.snapshot()
        tracer = tracing.current_tracer()
        mark = tracer.event_count() if tracer is not None else 0
        timed = self._compute(task)
        events = tracer.events_since(mark) if tracer is not None else []
        return timed, self.registry.snapshot().diff(before), events

    def _inline_compute(self, task):
        # The supervisor's quarantine / last-resort path: same payload
        # shape as _shipped_compute, but computed in the parent, where
        # counters and spans record directly (hence no delta to merge).
        return self._compute(task), None, None

    def _compute_parallel(self, tasks, jobs):
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # no fork on this platform: stay correct, serial
            self.parallel_fallbacks.inc("fork-unavailable")
            print(
                "repro: fork start method unavailable on this platform; "
                "computing %d trace tasks serially despite --jobs %d"
                % (len(tasks), jobs),
                file=sys.stderr,
            )
            return [self._compute(task) for task in tasks]
        executor = SupervisedExecutor(
            context=context,
            worker=self._shipped_compute,
            inline=self._inline_compute,
            registry=self.registry,
            jobs=min(jobs, len(tasks)),
            label_for=TraceTask.label,
            max_retries=self.max_retries,
            unit_timeout=self.unit_timeout,
        )
        shipped = executor.run(tasks)
        tracer = tracing.current_tracer()
        timed = []
        for results, delta, events in shipped:
            if delta is not None:
                self.registry.merge(delta)
            if events and tracer is not None:
                tracer.extend(events)
            timed.append(results)
        return timed

    # -------------------------------------------------------------- internal

    def _register(self, workload):
        self._workloads[workload.name] = workload

    def _count(self, counters, unit):
        label = unit.label()
        counters[label] = counters.get(label, 0) + 1

    def _load_from_disk(self, unit, workload):
        """Memoize a persisted result; None when absent or unusable."""
        if self.store is None:
            return None
        payload = self.store.load(workload, unit)
        if payload is None:
            return None
        try:
            result = unit.unwrap(payload)
        except (ValueError, TypeError):
            return None
        self._memo[unit] = result
        self._count(self.disk_hits, unit)
        return result

    def _walk_group(self, workload, scale, units):
        """Reduce the trace's summary with every walker in ``units``.

        The summary is the one the trace's columns build (or already
        hold, when the task's other units resolved the trace).  Returns
        payload data dicts in unit order.
        """
        with tracing.span(
            "walk.group:%s@%d" % (workload.name, scale), "compute",
            workload=workload.name, scale=scale, walkers=len(units),
            specs=[unit.slug() for unit in units],
        ) as handle:
            summary = self.traces.columns(workload, scale=scale).summary()
            handle.note(records=summary.records)
            payloads = []
            for unit in units:
                with tracing.span(
                    "walk.finish:%s" % unit.slug(), "compute",
                    kind=unit.walker[0],
                ):
                    payloads.append(build_walker(unit.walker).reduce(summary))
            return payloads

    def _install(self, unit, workload, result, seconds=None):
        """Memoize a freshly computed result and write it back to disk.

        ``seconds`` is a simulation's compute time, booked into
        :attr:`sim_timing` (``None`` for the other unit kinds).
        """
        if seconds is not None:
            self.sim_timing.inc("units")
            self.sim_timing.inc("seconds", seconds)
            self.sim_timing.inc("instructions", result.instructions)
        self._memo[unit] = result
        self._count(self._misses[unit.family], unit)
        if self.store is not None:
            self.store.store(workload, unit, unit.wrap(result))

    def __repr__(self):
        return "ResultBroker(%d memoized, %d computed)" % (
            len(self._memo),
            sum(self.sim_misses.values()) + sum(self.walk_misses.values()),
        )

