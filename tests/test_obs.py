"""Tests for the shared observability layer (repro.obs).

Covers the three modules — the typed metrics registry with
snapshot/diff/merge, the tracing spans and their Chrome trace-event
export, the run manifests — plus the properties the rest of the stack
leans on: worker counter deltas merge so ``--jobs N`` totals match
serial, a fully warm cached run records zero compute-path spans, the
frozen ``--format json`` counter schema stays intact, and a broker
``reset()`` gives a second session clean counters.
"""

import json
import pickle

import pytest

from repro.cli import main
from repro.obs import runlog, tracing
from repro.obs.metrics import (
    METRICS_SCHEMA_VERSION,
    MetricsRegistry,
    format_workload_scale,
)
from repro.study.session import ExperimentSession, TraceStore
from repro.workloads import get_workload

#: Tiny synthetic workloads keep these sessions fast.
FAST_NAMES = ("synth_small", "synth_stride")

#: Trace-analysis experiments (walk units, no pipeline simulation).
CHEAP_IDS = ("table1", "table2")


def fast_workloads():
    return [get_workload(name) for name in FAST_NAMES]


@pytest.fixture(autouse=True)
def no_tracer_leak():
    """Never let a test leave a process-global tracer installed."""
    yield
    tracing.set_tracer(None)


class TestMetrics:
    def test_counter_is_a_dict(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits", key=format_workload_scale)
        counter.inc(("counted", 1))
        assert counter == {("counted", 1): 1}
        counter.inc(("counted", 1), 2)
        counter[("other", 2)] = 5  # direct item writes still work
        assert dict(sorted(counter.items())) == {
            ("counted", 1): 3,
            ("other", 2): 5,
        }
        assert counter.jsonable_values() == {"counted@1": 3, "other@2": 5}

    def test_gauge_and_histogram(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("size")
        gauge.set("a", 1)
        gauge.set("a", 7)
        assert gauge == {"a": 7}
        histogram = registry.histogram("phase")
        histogram.observe("x", 2.0)
        histogram.observe("x", 4.0)
        assert histogram["x"] == {"count": 2, "sum": 6.0, "min": 2.0, "max": 4.0}

    def test_registration_is_idempotent_but_kind_checked(self):
        registry = MetricsRegistry()
        first = registry.counter("hits")
        assert registry.counter("hits") is first
        with pytest.raises(ValueError):
            registry.gauge("hits")

    def test_snapshot_diff_merge_roundtrip(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits")
        histogram = registry.histogram("phase")
        counter.inc("a")
        histogram.observe("x", 3.0)
        before = registry.snapshot()
        counter.inc("a", 2)
        counter.inc("b")
        histogram.observe("x", 1.0)
        delta = registry.snapshot().diff(before)
        # The delta is minimal: only changed labels, as differences.
        kind, _key, values = delta.metrics["hits"]
        assert values == {"a": 2, "b": 1}
        other = MetricsRegistry()
        other.counter("hits").inc("a", 10)
        other.merge(delta)
        assert other.get("hits") == {"a": 12, "b": 1}
        # Merge created the histogram it did not know about.
        assert other.get("phase")["x"]["count"] == 1
        assert other.get("phase")["x"]["min"] == 1.0

    def test_snapshot_is_picklable(self):
        registry = MetricsRegistry()
        registry.counter("hits", key=format_workload_scale).inc(("w", 1))
        snapshot = pickle.loads(pickle.dumps(registry.snapshot()))
        fresh = MetricsRegistry()
        fresh.merge(snapshot)
        assert fresh.get("hits") == {("w", 1): 1}

    def test_histogram_merge_is_extrema_idempotent(self):
        # Re-shipping an inherited min/max must not distort extrema.
        registry = MetricsRegistry()
        registry.histogram("phase").observe("x", 5.0)
        delta = registry.snapshot().diff(MetricsRegistry().snapshot())
        target = MetricsRegistry()
        target.histogram("phase").observe("x", 1.0)
        target.merge(delta)
        stats = target.get("phase")["x"]
        assert stats == {"count": 2, "sum": 6.0, "min": 1.0, "max": 5.0}

    def test_reset_keeps_registrations(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits")
        counter.inc("a")
        registry.reset()
        assert counter == {}
        assert registry.counter("hits") is counter

    def test_jsonable_schema(self):
        registry = MetricsRegistry()
        registry.counter("hits", key=format_workload_scale).inc(("w", 2), 3)
        payload = registry.jsonable()
        assert payload["version"] == METRICS_SCHEMA_VERSION
        assert payload["metrics"]["hits"] == {
            "kind": "counter",
            "values": {"w@2": 3},
        }
        json.dumps(payload)  # the whole shape is JSON-serializable


class TestSpans:
    def test_span_measures_without_tracer(self):
        assert tracing.current_tracer() is None
        with tracing.span("op", "compute") as handle:
            pass
        assert handle.seconds >= 0.0

    def test_span_records_with_tracer(self):
        tracer = tracing.start_trace()
        with tracing.span("op", "unit", kind="walk") as handle:
            handle.note(path="memory")
        assert len(tracer.events) == 1
        event = tracer.events[0]
        assert event["name"] == "op"
        assert event["cat"] == "unit"
        assert event["ph"] == "X"
        assert event["args"] == {"kind": "walk", "path": "memory"}

    def test_cancel_suppresses_the_event(self):
        tracer = tracing.start_trace()
        with tracing.span("probe", "unit") as handle:
            handle.cancel()
        assert tracer.events == []
        assert handle.seconds is not None  # the stopwatch still ran

    def test_traced_iteration_counts_records(self):
        tracer = tracing.start_trace()
        assert list(tracing.traced_iteration("s", "compute", iter(range(4)))) == [
            0, 1, 2, 3,
        ]
        assert tracer.events[0]["args"]["records"] == 4

    def test_export_is_valid_chrome_trace(self, tmp_path):
        tracer = tracing.start_trace()
        with tracing.span("a", "session"):
            with tracing.span("b", "compute"):
                pass
        path = tmp_path / "trace.json"
        tracer.export(str(path))
        trace = json.loads(path.read_text())
        assert trace["displayTimeUnit"] == "ms"
        events = trace["traceEvents"]
        metadata = [e for e in events if e["ph"] == "M"]
        assert metadata and metadata[0]["name"] == "process_name"
        complete = [e for e in events if e["ph"] == "X"]
        # The nested span completed first but sorts after by start time.
        assert [e["name"] for e in complete] == ["a", "b"]
        assert all(e["dur"] >= 0 for e in complete)
        assert tracer.summary()["compute"]["events"] == 1
        assert tracer.categories() == {"compute": 1, "session": 1}

    def test_events_since_ships_worker_deltas(self):
        tracer = tracing.start_trace()
        with tracing.span("before", "session"):
            pass
        mark = tracer.event_count()
        with tracing.span("after", "compute"):
            pass
        shipped = tracer.events_since(mark)
        assert [e["name"] for e in shipped] == ["after"]
        fresh = tracing.Tracer()
        fresh.extend(shipped)
        assert fresh.categories() == {"compute": 1}


class TestSessionObservability:
    def test_parallel_counters_match_serial(self):
        serial = ExperimentSession(workloads=fast_workloads())
        serial.run(CHEAP_IDS, jobs=1)
        parallel = ExperimentSession(workloads=fast_workloads())
        parallel.run(CHEAP_IDS, jobs=2)
        # Worker deltas merged back: every count-valued instrument agrees
        # with the serial run (seconds-valued ones measure wall time and
        # legitimately differ).
        for name in (
            "trace_materializations", "trace_decode_misses",
            "sim_hits", "sim_misses", "walk_hits", "walk_misses",
            "result_disk_hits",
        ):
            assert serial.registry.get(name) == parallel.registry.get(name), name

    def test_parallel_trace_is_coherent(self):
        tracer = tracing.start_trace()
        session = ExperimentSession(workloads=fast_workloads())
        session.run(CHEAP_IDS, jobs=2)
        tracing.set_tracer(None)
        categories = tracer.categories()
        for expected in ("session", "experiment", "broker", "unit", "compute"):
            assert expected in categories, categories
        # Worker events were stitched in, and every pid gets a
        # process_name metadata record in the export.
        pids = {event["pid"] for event in tracer.events}
        assert len(pids) >= 2
        chrome = tracer.to_chrome()
        named = {
            event["pid"]
            for event in chrome["traceEvents"]
            if event["ph"] == "M" and event["name"] == "process_name"
        }
        assert named == pids

    def test_warm_cached_run_has_zero_compute_spans(self, tmp_path):
        cache_dir = str(tmp_path)
        ExperimentSession(
            workloads=fast_workloads(), cache_dir=cache_dir
        ).run(CHEAP_IDS)
        for workload in fast_workloads():
            workload.clear_cache()
        tracer = tracing.start_trace()
        warm = ExperimentSession(workloads=fast_workloads(), cache_dir=cache_dir)
        results = warm.run(CHEAP_IDS)
        tracing.set_tracer(None)
        assert len(results) == len(CHEAP_IDS)
        compute = [e for e in tracer.events if e["cat"] == "compute"]
        assert compute == []
        unit_paths = {
            e["args"].get("path")
            for e in tracer.events
            if e["cat"] == "unit"
        }
        assert "compute" not in unit_paths
        assert unit_paths & {"memory", "disk"}

    def test_report_json_schema_and_timings(self):
        session = ExperimentSession(workloads=fast_workloads())
        results = session.run(["table1"])
        report = json.loads(session.report_json(results))
        # The frozen counter schema...
        for key in (
            "scale", "workloads", "experiments", "trace_materializations",
            "trace_disk_hits", "trace_stream_hits", "decode_misses",
            "trace_cache_dir", "sim_hits", "sim_misses", "walk_hits",
            "walk_misses", "sim_timings", "result_disk_hits",
            "result_store_dir",
        ):
            assert key in report, key
        # ...without the backend names and the per-hierarchy seconds,
        # which went with backend selection...
        for key in ("kernel", "hierarchy", "hierarchy_seconds"):
            assert key not in report, key
        # ...and sim_timings is one object (table1 simulates nothing).
        assert report["sim_timings"] == {
            "units": 0, "seconds": 0.0, "instructions": 0,
            "instructions_per_second": None,
        }
        # ...plus the additive per-phase timings.
        timings = report["timings"]
        assert set(timings) == {"prepare_units", "experiments"}
        for stats in timings.values():
            assert stats["count"] == 1
            assert stats["seconds"] >= 0.0

    def test_broker_reset_gives_second_session_clean_counters(self):
        store = TraceStore()
        first = ExperimentSession(workloads=fast_workloads(), store=store)
        first.run(["table1"])
        assert sum(first.results.walk_misses.values()) > 0
        # Same store, same broker: without a reset the second session's
        # report would carry the first one's counts.
        store.results.reset()
        second = ExperimentSession(workloads=fast_workloads(), store=store)
        assert second.results is first.results
        assert second.results.walk_misses == {}
        second.run(["table1"])
        # The memo survives the reset: the rerun is pure hits.
        assert second.results.walk_misses == {}
        assert sum(second.results.walk_hits.values()) > 0

    def test_trace_cache_rebinds_into_session_registry(self, tmp_path):
        from repro.study.trace_cache import TraceCache

        cache = TraceCache(str(tmp_path))
        workload = fast_workloads()[0]
        assert cache.load(workload) is None  # one private-registry miss
        store = TraceStore(cache=cache)
        assert cache.registry is store.registry
        # The pre-bind miss carried over into the adopted registry.
        assert store.registry.get("trace_cache_misses") == {
            (workload.name, 1): 1,
        }


class TestRunlog:
    def _registry(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc("a")
        return registry

    def test_write_and_read_roundtrip(self, tmp_path):
        tracer = tracing.Tracer()
        tracer.record("op", "session", 0.0, 1.5, {})
        path = runlog.write_runlog(
            str(tmp_path), ["all", "--jobs", "2"], {"scale": 1},
            self._registry(), tracer=tracer,
        )
        manifest = runlog.read_runlog(path)
        assert manifest["version"] == runlog.RUNLOG_VERSION
        assert manifest["command"] == ["all", "--jobs", "2"]
        assert manifest["config"] == {"scale": 1}
        assert manifest["metrics"]["metrics"]["hits"]["values"] == {"a": 1}
        assert manifest["spans"]["session"]["events"] == 1
        for key in ("toolchain", "engine", "codec_version", "store_version"):
            assert key in manifest["fingerprints"]

    def test_read_fails_closed_on_version_skew(self, tmp_path):
        path = tmp_path / "run-bad.json"
        path.write_text(json.dumps({"version": 99}))
        with pytest.raises(ValueError):
            runlog.read_runlog(str(path))

    def test_list_runs(self, tmp_path):
        cache_dir = str(tmp_path)
        assert runlog.list_runs(cache_dir)["entries"] == 0
        runlog.write_runlog(cache_dir, ["x"], {}, self._registry())
        listed = runlog.list_runs(cache_dir)
        assert listed["entries"] == 1
        assert listed["latest"].startswith("run-")


class TestCliObservability:
    def test_trace_out_end_to_end(self, tmp_path, capsys):
        trace_path = tmp_path / "run.json"
        code = main([
            "table1", "--workloads", "synth_small",
            "--trace-out", str(trace_path),
        ])
        assert code == 0
        assert capsys.readouterr().out  # the report still printed
        assert tracing.current_tracer() is None  # uninstalled afterwards
        trace = json.loads(trace_path.read_text())
        categories = {
            e["cat"] for e in trace["traceEvents"] if e["ph"] == "X"
        }
        for expected in ("session", "experiment", "broker", "unit"):
            assert expected in categories, categories

    def test_cached_run_writes_manifest_and_cache_info_reports_it(
        self, tmp_path, capsys
    ):
        cache_dir = str(tmp_path)
        assert main([
            "table1", "--workloads", "synth_small", "--cache-dir", cache_dir,
        ]) == 0
        listed = runlog.list_runs(cache_dir)
        assert listed["entries"] == 1
        manifest = runlog.read_runlog(
            str(tmp_path / runlog.RUNS_SUBDIR / listed["latest"])
        )
        assert manifest["command"][0] == "table1"
        assert manifest["config"]["cache_dir"] == cache_dir
        assert manifest["spans"] is None  # no tracer was installed
        capsys.readouterr()
        assert main([
            "cache", "info", "--cache-dir", cache_dir, "--format", "json",
        ]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["runs"]["entries"] == 1
        assert info["runs"]["latest"] == listed["latest"]

    def test_analyze_trace_out_and_manifest(self, tmp_path, capsys):
        trace_path = tmp_path / "analyze.json"
        cache_dir = str(tmp_path / "cache")
        code = main([
            "analyze", "synth_small",
            "--cache-dir", cache_dir, "--trace-out", str(trace_path),
        ])
        assert code == 0
        trace = json.loads(trace_path.read_text())
        assert any(
            e["ph"] == "X" and e["cat"] == "unit"
            for e in trace["traceEvents"]
        )
        listed = runlog.list_runs(cache_dir)
        assert listed["entries"] == 1
        manifest = runlog.read_runlog(
            str(tmp_path / "cache" / runlog.RUNS_SUBDIR / listed["latest"])
        )
        assert manifest["command"] == ["analyze", "synth_small"]
        assert manifest["spans"] is not None
