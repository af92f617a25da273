"""Tests for the cached experiment engine (study.session)."""

import json

import pytest

from repro.study import (
    EXPERIMENTS,
    ExperimentSession,
    TraceStore,
    canonical_experiment_ids,
    run_experiment,
)
from repro.workloads import get_workload
from repro.workloads.base import Workload

#: Tiny synthetic workloads keep session tests fast; traces are cached.
FAST = [get_workload("synth_small"), get_workload("synth_stride")]

#: Trace-analysis experiments (no pipeline simulation): cheap to run.
CHEAP_IDS = ("table1", "table2", "table3", "table5", "table6")


def make_counting_workload(name="counted"):
    """A workload whose trace materializations are observable."""
    runs = {"count": 0}

    def source(scale):
        runs["count"] += 1
        return "int main() { print_int(%d); return 0; }" % (scale * 7)

    workload = Workload(name, source, lambda scale: str(scale * 7), "counting")
    return workload, runs


class TestTraceStore:
    def test_materializes_once(self):
        workload, runs = make_counting_workload()
        store = TraceStore()
        first = store.trace(workload)
        second = store.trace(workload)
        assert first is second
        assert runs["count"] == 1
        assert store.times_materialized("counted") == 1

    def test_scales_are_distinct(self):
        workload, _runs = make_counting_workload()
        store = TraceStore()
        store.trace(workload, scale=1)
        store.trace(workload, scale=2)
        assert len(store) == 2
        assert store.times_materialized("counted", scale=2) == 1

    def test_clear(self):
        workload, _runs = make_counting_workload()
        store = TraceStore()
        store.trace(workload)
        store.clear()
        assert len(store) == 0
        assert store.times_materialized("counted") == 0

    def test_name_collision_rejected(self):
        # Two distinct Workload objects sharing a name must not silently
        # receive each other's cached trace.
        first, _runs = make_counting_workload("same")
        second, _runs2 = make_counting_workload("same")
        store = TraceStore()
        store.trace(first)
        with pytest.raises(ValueError):
            store.trace(second)
        assert store.trace(first) is not None  # the owner still works


class TestCanonicalIds:
    def test_sorted_and_alias_free(self):
        names = canonical_experiment_ids()
        assert names == sorted(names)
        assert "fetchstats" not in names
        assert "table3" in names

    def test_no_duplicate_runners(self):
        runners = [EXPERIMENTS[name].runner for name in canonical_experiment_ids()]
        assert len(runners) == len(set(runners))


class TestExperimentSession:
    def test_each_trace_materialized_exactly_once(self):
        session = ExperimentSession(workloads=FAST)
        results = session.run(CHEAP_IDS)
        assert [result.id for result in results] == list(CHEAP_IDS)
        counts = session.store.materializations
        assert set(counts) == {(workload.name, 1) for workload in FAST}
        assert all(count == 1 for count in counts.values())

    def test_parallel_output_byte_identical_to_serial(self):
        serial = ExperimentSession(workloads=FAST)
        parallel = ExperimentSession(workloads=FAST)
        serial_text = serial.report_text(serial.run(CHEAP_IDS, jobs=1))
        parallel_text = parallel.report_text(parallel.run(CHEAP_IDS, jobs=4))
        assert parallel_text == serial_text
        assert all(
            count == 1 for count in parallel.store.materializations.values()
        )

    def test_run_iter_streams_same_results_as_run(self):
        session = ExperimentSession(workloads=FAST)
        batched = session.run(["table1", "table2"])
        streamed = list(
            ExperimentSession(workloads=FAST).run_iter(["table1", "table2"])
        )
        assert [result.text for result in streamed] == [
            result.text for result in batched
        ]

    def test_run_iter_unknown_experiment_rejected(self):
        session = ExperimentSession(workloads=FAST)
        with pytest.raises(KeyError):
            next(session.run_iter(["tableX"]))

    def test_unknown_experiment_rejected_before_any_work(self):
        workload, runs = make_counting_workload()
        session = ExperimentSession(workloads=[workload])
        with pytest.raises(KeyError):
            session.run(["table1", "tableX"])
        assert runs["count"] == 0

    def test_results_carry_descriptions_and_timings(self):
        session = ExperimentSession(workloads=FAST)
        (result,) = session.run(["table1"])
        assert result.description == EXPERIMENTS["table1"].description
        assert result.seconds >= 0
        assert "Table 1" in result.text

    def test_report_json_roundtrip(self):
        session = ExperimentSession(workloads=FAST)
        results = session.run(["table1", "table2"])
        payload = json.loads(session.report_json(results))
        assert payload["scale"] == 1
        assert payload["workloads"] == [workload.name for workload in FAST]
        assert [entry["id"] for entry in payload["experiments"]] == [
            "table1",
            "table2",
        ]
        assert all(
            count == 1 for count in payload["trace_materializations"].values()
        )

    def test_default_ids_are_canonical(self):
        session = ExperimentSession(workloads=FAST)
        assert session.experiment_ids() == canonical_experiment_ids()

    @pytest.mark.parametrize("name", canonical_experiment_ids())
    def test_runner_requests_only_declared_units(self, name):
        # The property that makes the serial experiment phase free:
        # after prepare_units, a runner computes nothing — every unit it
        # requests was declared by its spec and is already memoized.
        session = ExperimentSession(workloads=FAST)
        session.prepare_units([name])
        computed = (
            dict(session.results.sim_misses),
            dict(session.results.walk_misses),
        )
        assert any(computed), "%s declares no units" % name
        session.run_one(name)
        assert (
            dict(session.results.sim_misses),
            dict(session.results.walk_misses),
        ) == computed

    def test_finished_batch_releases_traces(self):
        session = ExperimentSession(workloads=FAST)
        session.run(["table5"])
        assert session.store.keys() == []
        assert all(
            count == 1 for count in session.store.materializations.values()
        )
        # Results stay memoized: a repeat batch needs no trace at all.
        session.run(["table5"])
        assert session.store.keys() == []
        assert all(
            count == 1 for count in session.store.materializations.values()
        )

    def test_prepare_is_idempotent(self):
        session = ExperimentSession(workloads=FAST)
        session.prepare(["table1"])
        session.prepare(["table1", "table2"])
        assert all(
            count == 1 for count in session.store.materializations.values()
        )


class TestParallelFallback:
    def test_no_fork_platform_warns_and_runs_serially(self, capsys, monkeypatch):
        # On platforms without the fork start method, --jobs N silently
        # degrading to serial would mislead users; a stderr warning
        # must accompany the (still correct) serial results.
        import multiprocessing

        def no_fork(method):
            raise ValueError("cannot find context for %r" % method)

        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        session = ExperimentSession(workloads=FAST)
        results = session.run(["table1", "table2"], jobs=4)
        assert [result.id for result in results] == ["table1", "table2"]
        err = capsys.readouterr().err
        assert "fork start method unavailable" in err
        assert "--jobs 4" in err


class TestStoreThreading:
    def test_run_experiment_populates_store(self):
        store = TraceStore()
        text = run_experiment("table1", workloads=FAST, store=store)
        assert "Table 1" in text
        assert len(store) == len(FAST)

    def test_store_output_matches_storeless(self):
        store = TraceStore()
        with_store = run_experiment("table2", workloads=FAST, store=store)
        without = run_experiment("table2", workloads=FAST)
        assert with_store == without
