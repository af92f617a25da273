"""Cached experiment engine.

The studies are trace-driven: every experiment walks the dynamic trace
of each workload, and materializing those traces (compile + simulate)
dwarfs the analysis itself.  :class:`TraceStore` materializes each
``(workload, scale)`` trace exactly once and shares it across every
experiment in a session; :class:`ExperimentSession` schedules the
declarative specs from :mod:`repro.study.experiments` over the store,
with deterministic ordered output and an optional machine-readable JSON
report.  Backed by a persistent
:class:`~repro.study.trace_cache.TraceCache` (``cache_dir=...`` /
``repro all --cache-dir``), the store also amortizes materialization
across processes and CI runs: a warm run simulates nothing.

On top of the trace layer sits the unit scheduler
(:mod:`repro.study.scheduler`): before any runner starts, the session
collects each experiment's declared analysis units — one pipeline
simulation, activity pass, trace walk or static analysis per
``(workload, scale)`` — dedupes them across experiments, and executes
the pending ones through the session's
:class:`~repro.study.scheduler.ResultBroker` (fanned out across
supervised forked workers under ``--jobs N``).  Shared units like the
``baseline32`` simulation therefore run at most once per session, and
with a warm persistent :class:`~repro.study.result_store.ResultStore`
(same ``cache_dir``) not at all.

Traces are resolved lazily, by the units that actually compute: the
scheduler warms (in the parent, pre-fork) exactly the traces its
pending units need, walk units stream records straight from the
compressed cache files (:meth:`TraceStore.stream`), and a fully warm
run touches no trace at all — zero decodes, zero simulations, zero
walks.  The experiment runners then execute one after another in
request order: each only reads the results its spec declared, which
the broker already memoized, so the experiment phase computes nothing
and ``--jobs N`` output is byte-identical to a serial run.

This module deliberately imports :mod:`repro.study.experiments` and
:mod:`repro.study.scheduler` lazily: the scheduler imports
:class:`TraceStore` from here, and the experiment registry imports the
scheduler.
"""

import json
from collections import namedtuple

from repro.obs import tracing
from repro.obs.metrics import MetricsRegistry, format_workload_scale
from repro.workloads import mediabench_suite


class TraceStore:
    """Materializes each ``(workload, scale)`` trace exactly once.

    The store keeps its own cache keyed by ``(workload.name, scale)`` and
    counts every miss in :attr:`materializations`, so a session can
    assert that no trace was produced twice no matter how many
    experiments consumed it.  A session calls :meth:`release` to drop
    the record lists when a batch of experiments finishes.

    With a persistent ``cache`` (a
    :class:`~repro.study.trace_cache.TraceCache`), lookups fall through
    memory → disk → materialize: a disk hit decodes the
    significance-compressed trace file instead of simulating (counted in
    :attr:`disk_hits`), and a materialized trace is written back so the
    next process — or the next CI run — skips simulation entirely.
    """

    def __init__(self, cache=None, registry=None):
        self._traces = {}
        self._owners = {}
        #: Optional persistent TraceCache backing this store.
        self.cache = cache
        #: The :class:`~repro.study.scheduler.ResultBroker` riding on
        #: this store (set by ExperimentSession, or on first use by
        #: :func:`~repro.study.scheduler.broker_for`): the studies reach
        #: every memoized per-unit result through it.
        self.results = None
        #: The session-scoped :class:`~repro.obs.metrics.MetricsRegistry`
        #: every counter below is registered in; the broker and the
        #: persistent cache bind their instruments to the same registry,
        #: so one snapshot/merge covers the whole stack.
        self.registry = registry if registry is not None else MetricsRegistry()
        if cache is not None:
            cache.bind_registry(self.registry)
        #: (workload name, scale) -> number of times the trace was built.
        self.materializations = self.registry.counter(
            "trace_materializations",
            "traces built by compile + simulate",
            key=format_workload_scale,
        )
        #: (workload name, scale) -> number of persistent-cache loads.
        self.disk_hits = self.registry.counter(
            "trace_disk_hits",
            "traces fully decoded from the persistent cache",
            key=format_workload_scale,
        )
        #: (workload name, scale) -> number of disk streaming passes.
        self.stream_hits = self.registry.counter(
            "trace_stream_hits",
            "single-pass streams served from the persistent cache",
            key=format_workload_scale,
        )
        #: (workload name, scale) -> number of record-production events:
        #: every simulation, full decode or streaming pass counts one;
        #: serving the already in-memory list counts nothing.  A fully
        #: warm ``repro all`` reports an empty dict — zero decodes.
        self.decode_misses = self.registry.counter(
            "trace_decode_misses",
            "record-production events (simulate, decode or stream)",
            key=format_workload_scale,
        )

    def _claim(self, workload):
        owner = self._owners.get(workload.name)
        if owner is not None and owner is not workload:
            # Names are the cache identity; a second Workload object
            # reusing one would silently receive the first one's trace.
            raise ValueError(
                "TraceStore already holds a different workload named %r"
                % workload.name
            )
        self._owners[workload.name] = workload

    def trace(self, workload, scale=1):
        """Trace records for ``workload`` at ``scale`` (materialized once)."""
        key = (workload.name, scale)
        self._claim(workload)
        if key not in self._traces:
            self.decode_misses.inc(key)
            records = None
            if self.cache is not None:
                records = self.cache.load(workload, scale=scale)
                if records is not None:
                    self.disk_hits.inc(key)
            if records is None:
                self.materializations.inc(key)
                with tracing.span(
                    "trace.materialize:%s@%d" % key, "compute",
                    workload=workload.name, scale=scale,
                ) as handle:
                    records = workload.trace(scale=scale)
                    handle.note(records=len(records))
                if self.cache is not None:
                    self.cache.store(workload, scale, records)
            self._traces[key] = records
        return self._traces[key]

    def stream(self, workload, scale=1):
        """A single-pass record iterator, preferring disk streaming.

        Fallthrough: an already materialized in-memory list is iterated
        for free; otherwise a persistent-cache entry is streamed straight
        from the compressed file — one decode pass, no list — and only
        when neither exists does the store materialize the full trace
        (via :meth:`trace`, so the usual counters and write-back apply).

        A streamed pass can raise
        :class:`~repro.sim.tracefile.TraceCodecError` mid-iteration on a
        damaged cache entry (the entry is removed first); consumers
        discard any partial state and retry via :meth:`trace`.
        """
        key = (workload.name, scale)
        self._claim(workload)
        records = self._traces.get(key)
        if records is not None:
            return iter(records)
        if self.cache is not None:
            stream = self.cache.stream(workload, scale=scale)
            if stream is not None:
                self.stream_hits.inc(key)
                self.decode_misses.inc(key)
                return stream
        return iter(self.trace(workload, scale=scale))

    def streamable(self, workload, scale=1):
        """Whether :meth:`stream` can serve without materializing."""
        if (workload.name, scale) in self._traces:
            return True
        return self.cache is not None and self.cache.has(workload, scale=scale)

    def times_materialized(self, name, scale=1):
        """How often the named trace was actually built (0 if never)."""
        return self.materializations.get((name, scale), 0)

    def keys(self):
        """The ``(name, scale)`` pairs currently held."""
        return list(self._traces)

    def release(self):
        """Drop the in-memory record lists, keeping every counter.

        A later request re-resolves its trace (memory → disk →
        materialize) and is counted like any other.
        """
        self._traces.clear()

    def clear(self):
        """Drop all cached in-memory traces and counters.

        The persistent cache directory (if any) is left untouched; use
        :meth:`~repro.study.trace_cache.TraceCache.clear` for that.
        """
        self._traces.clear()
        self._owners.clear()
        self.materializations.clear()
        self.disk_hits.clear()
        self.stream_hits.clear()
        self.decode_misses.clear()

    def __len__(self):
        return len(self._traces)

    def __repr__(self):
        return "TraceStore(%d traces)" % len(self._traces)


#: One finished experiment: id, human description, report text, wall time.
ExperimentResult = namedtuple(
    "ExperimentResult", ("id", "description", "text", "seconds")
)


class ExperimentSession:
    """Schedules experiments over a shared :class:`TraceStore`.

    ``run()`` resolves the requested experiment ids against the registry,
    executes their deduped analysis units through the broker (which
    warms exactly the traces its pending units need — each at most once;
    a fully warm run touches none), then runs the specs in request
    order.  Only the unit phase forks, under ``jobs > 1``.
    """

    def __init__(self, workloads=None, scale=1, store=None, cache_dir=None,
                 max_retries=None, unit_timeout=None):
        from repro.study.scheduler import ResultBroker

        self.workloads = (
            list(workloads) if workloads is not None else mediabench_suite()
        )
        self.scale = scale
        result_store = None
        if store is None:
            cache = None
            if cache_dir is not None:
                from repro.study.result_store import ResultStore
                from repro.study.trace_cache import TraceCache

                cache = TraceCache(cache_dir)
                # The result store shares the trace cache's directory:
                # *.trace files next to *.result files.
                result_store = ResultStore(cache_dir)
            store = TraceStore(cache=cache)
        elif cache_dir is not None:
            raise ValueError("pass cache_dir or a store, not both")
        self.store = store
        #: Session-scoped :class:`~repro.obs.metrics.MetricsRegistry`:
        #: the trace store, the persistent caches and the broker all
        #: register their instruments here, so one snapshot covers the
        #: whole stack.
        self.registry = self.store.registry
        #: Per-phase wall-time histogram behind the JSON report's
        #: ``timings`` key.
        self.phases = self.registry.histogram(
            "session_phase_seconds", "wall seconds per session phase"
        )
        if self.store.results is None:
            self.store.results = ResultBroker(
                self.store,
                result_store,
                max_retries=max_retries,
                unit_timeout=unit_timeout,
            )
        #: The unit scheduler: memoizes per-(workload, organization)
        #: simulation/analysis results over this session's trace store.
        self.results = self.store.results
        # Supervision knobs apply to a pre-built broker too (they carry
        # no cached-result identity, so adopting the caller's values
        # cannot mix anything).
        if max_retries is not None:
            self.results.max_retries = max_retries
        if unit_timeout is not None:
            self.results.unit_timeout = unit_timeout

    # ------------------------------------------------------------ scheduling

    def experiment_ids(self):
        """Canonical ids in sorted order: aliases and duplicate runners out."""
        from repro.study.experiments import canonical_experiment_ids

        return canonical_experiment_ids()

    def required_traces(self, names):
        """The ``(workload, scale)`` pairs the named experiments consume."""
        from repro.study.experiments import EXPERIMENTS

        required = []
        seen = set()
        for name in names:
            for workload, scale in EXPERIMENTS[name].required_traces(
                self.workloads, self.scale
            ):
                key = (workload.name, scale)
                if key not in seen:
                    seen.add(key)
                    required.append((workload, scale))
        return required

    def prepare(self, names=None):
        """Materialize every trace the named experiments need, exactly once."""
        names = list(names) if names is not None else self.experiment_ids()
        for workload, scale in self.required_traces(names):
            self.store.trace(workload, scale=scale)
        return self.store

    def required_units(self, names):
        """The deduped analysis units the named experiments consume.

        Units shared across experiments (``baseline32`` appears in every
        CPI figure) occur once, in first-use order.
        """
        from repro.study.experiments import EXPERIMENTS

        units = []
        seen = set()
        for name in names:
            for unit in EXPERIMENTS[name].required_units(
                self.workloads, self.scale
            ):
                if unit not in seen:
                    seen.add(unit)
                    units.append(unit)
        return units

    def prepare_units(self, names=None, jobs=1):
        """Execute every unit the named experiments need, at most once.

        With ``jobs > 1`` pending units fan out across supervised forked
        workers — sharding *within* an experiment (per workload and
        organization), not just across experiments.  The raw
        (pre-dedupe) request list goes to the broker so cross-experiment
        sharing registers as ``sim_hits``.
        Returns the number of units actually computed (0 on a fully
        warm result store).
        """
        from repro.study.experiments import EXPERIMENTS

        names = list(names) if names is not None else self.experiment_ids()
        by_name = {workload.name: workload for workload in self.workloads}
        requests = []
        for name in names:
            requests.extend(
                EXPERIMENTS[name].required_units(self.workloads, self.scale)
            )
        return self.results.run_units(requests, by_name, jobs=jobs)

    # -------------------------------------------------------------- execution

    def run_one(self, name):
        """Execute one experiment; returns an :class:`ExperimentResult`."""
        from repro.study.experiments import EXPERIMENTS, run_experiment

        with tracing.span(
            "experiment:%s" % name, "experiment", experiment=name
        ) as handle:
            text = run_experiment(
                name, workloads=self.workloads, scale=self.scale,
                store=self.store,
            )
        return ExperimentResult(
            id=name,
            description=EXPERIMENTS[name].description,
            text=text,
            seconds=handle.seconds,
        )

    def run(self, names=None, jobs=1):
        """Run experiments (default: every canonical one) in order.

        ``jobs > 1`` computes the pending analysis units across
        supervised forked workers; the output is byte-identical to a
        serial run.
        """
        return list(self.run_iter(names, jobs))

    def run_iter(self, names=None, jobs=1):
        """Generator form of :meth:`run`: results as they finish.

        Lets a consumer stream each report the moment it completes (the
        CLI does, for text ``repro all``) instead of waiting for the
        whole batch.
        """
        names = self._validate(names)
        # No eager trace warm-up: prepare_units resolves exactly the
        # traces its pending units need (in this process, pre-fork), so
        # a fully warm run touches no trace at all — zero decodes.
        with tracing.span(
            "session.prepare_units", "session", experiments=len(names),
            jobs=jobs,
        ) as prepare:
            self.prepare_units(names, jobs=jobs)
        self.phases.observe("prepare_units", prepare.seconds)
        with tracing.span(
            "session.experiments", "session", experiments=len(names),
            jobs=jobs,
        ) as phase:
            for name in names:
                yield self.run_one(name)
        self.phases.observe("experiments", phase.seconds)
        # Every result the batch needed is memoized by now, and the
        # record lists are the session's largest objects: a finished
        # batch does not keep them alive for as long as the session is.
        self.store.release()

    def _validate(self, names):
        """Resolve the id list, failing before any trace materializes."""
        from repro.study.experiments import EXPERIMENTS

        names = list(names) if names is not None else self.experiment_ids()
        for name in names:
            if name not in EXPERIMENTS:
                raise KeyError(
                    "unknown experiment %r; available: %s"
                    % (name, ", ".join(sorted(EXPERIMENTS)))
                )
        return names

    # -------------------------------------------------------------- reporting

    @staticmethod
    def format_result_block(result):
        """One experiment's block of the ``repro all`` stream.

        Both the buffered report and the CLI's streaming path go through
        this, keeping the two byte-identical by construction.
        """
        return "%s\n%s\n" % ("=" * 72, result.text)

    def report_text(self, results):
        """The classic ``repro all`` text stream, in result order."""
        return "\n".join(
            self.format_result_block(result) for result in results
        )

    def report_json(self, results, indent=2):
        """Machine-readable report: ids, texts, timings, trace counters."""
        timing = self.results.sim_timing
        seconds = timing.get("seconds", 0.0)
        instructions = timing.get("instructions", 0)
        payload = {
            "scale": self.scale,
            "workloads": [workload.name for workload in self.workloads],
            "experiments": [
                {
                    "id": result.id,
                    "description": result.description,
                    "seconds": round(result.seconds, 6),
                    "text": result.text,
                }
                for result in results
            ],
            "trace_materializations": {
                "%s@%d" % key: count
                for key, count in sorted(self.store.materializations.items())
            },
            "trace_disk_hits": {
                "%s@%d" % key: count
                for key, count in sorted(self.store.disk_hits.items())
            },
            "trace_stream_hits": {
                "%s@%d" % key: count
                for key, count in sorted(self.store.stream_hits.items())
            },
            "decode_misses": {
                "%s@%d" % key: count
                for key, count in sorted(self.store.decode_misses.items())
            },
            "trace_cache_dir": (
                self.store.cache.root if self.store.cache is not None else None
            ),
            "sim_hits": dict(sorted(self.results.sim_hits.items())),
            "sim_misses": dict(sorted(self.results.sim_misses.items())),
            "walk_hits": dict(sorted(self.results.walk_hits.items())),
            "walk_misses": dict(sorted(self.results.walk_misses.items())),
            "sim_timings": {
                "units": timing.get("units", 0),
                "seconds": round(seconds, 6),
                "instructions": instructions,
                "instructions_per_second": (
                    round(instructions / seconds, 1) if seconds else None
                ),
            },
            "result_disk_hits": dict(sorted(self.results.disk_hits.items())),
            "result_store_dir": (
                self.results.store.root
                if self.results.store is not None
                else None
            ),
            # Additive key (the counter schema above is frozen — CI
            # asserts on it): wall seconds per session phase.
            "timings": {
                phase: {
                    "count": stats["count"],
                    "seconds": round(stats["sum"], 6),
                }
                for phase, stats in sorted(self.phases.items())
            },
            # Additive keys: the fault-tolerance instruments (see
            # docs/ROBUSTNESS.md).  Empty dicts on a clean run; the
            # supervisor/store/injector registrations may not exist at
            # all on serial fault-free runs, hence the registry lookup.
            "unit_retries": self._instrument_values("unit_retries"),
            "worker_crashes": self._instrument_values("worker_crashes"),
            "unit_quarantines": self._instrument_values("unit_quarantines"),
            "parallel_fallbacks": self._instrument_values(
                "parallel_fallbacks"
            ),
            "store_write_failures": self._instrument_values(
                "store_write_failures"
            ),
            "store_degraded": self._instrument_values("store_degraded"),
            "faults_injected": self._instrument_values("faults_injected"),
        }
        return json.dumps(payload, indent=indent)

    def _instrument_values(self, name):
        """A registry instrument's label → value map (empty when absent)."""
        instrument = self.registry.get(name)
        if not instrument:
            return {}
        return {str(label): value for label, value in sorted(instrument.items())}
