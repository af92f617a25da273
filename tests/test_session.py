"""Tests for the cached experiment engine (study.session)."""

import gc
import json
import weakref

import pytest

from repro.core.extension import HALFWORD_SCHEME
from repro.obs import tracing
from repro.pipeline import ALL_ORGANIZATIONS, ActivityModel
from repro.pipeline.kernel import TraceColumns
from repro.study import (
    ActivityUnit,
    ResultBroker,
    SimUnit,
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
        session.prepare()
        session.prepare()
        assert all(
            count == 1 for count in session.store.materializations.values()
        )


class TestTraceTasks:
    NAMES = ("fig4", "table1", "table5", "ablation-schemes")

    def test_serial_batch_holds_at_most_one_trace(self, monkeypatch):
        held = []
        built = []
        original = TraceStore.trace
        original_columns = TraceColumns.__init__

        def trace(store, workload, scale=1):
            held.append(len(store))
            records = original(store, workload, scale=scale)
            held.append(len(store))
            return records

        def columns(self, *args, **kwargs):
            original_columns(self, *args, **kwargs)
            built.append(weakref.ref(self))

        monkeypatch.setattr(TraceStore, "trace", trace)
        monkeypatch.setattr(TraceColumns, "__init__", columns)
        session = ExperimentSession(workloads=FAST)
        by_name = {workload.name: workload for workload in FAST}
        computed = session.results.run_units(
            session.required_units(self.NAMES), by_name
        )
        assert computed > 0
        assert held and max(held) <= 1, held
        assert len(session.store) == 0
        # Every trace's columns were built, and none outlived its task.
        assert len(built) == len(FAST)
        gc.collect()
        assert [ref() for ref in built] == [None] * len(built)

    def test_parallel_run_hands_one_task_per_trace(self, monkeypatch):
        from repro.study.supervisor import SupervisedExecutor

        handed = []
        original = SupervisedExecutor.run

        def run(executor, tasks):
            handed.extend(
                (executor.label_for(task), task) for task in tasks
            )
            return original(executor, tasks)

        monkeypatch.setattr(SupervisedExecutor, "run", run)
        session = ExperimentSession(workloads=FAST)
        computed = session.prepare_units(self.NAMES, jobs=2)
        labels = [label for label, _task in handed]
        assert labels == ["%s@1" % workload.name for workload in FAST]
        for label, task in handed:
            assert {"%s@%d" % (unit.workload, unit.scale)
                    for unit in task.units} == {label}
        assert sum(len(task.units) for _label, task in handed) == computed
        assert len(session.store) == 0


    def test_simulations_and_activity_share_one_pass_per_scheme(self):
        # Every organization and the three study activity configurations
        # over one trace: one significance pass per scheme in all.
        workload = get_workload("synth_small")
        models = (
            ActivityModel(),
            ActivityModel(HALFWORD_SCHEME),
            ActivityModel(ext_bits_in_memory=True),
        )
        units = [
            SimUnit(workload.name, 1, org.name) for org in ALL_ORGANIZATIONS
        ] + [
            ActivityUnit(workload.name, 1, model.config_key())
            for model in models
        ]
        broker = ResultBroker(TraceStore())
        previous = tracing.current_tracer()
        tracer = tracing.start_trace()
        try:
            assert broker.run_units(units, {workload.name: workload}) == len(units)
        finally:
            tracing.set_tracer(previous)
        events = tracer.events_since(0)
        schemes = sorted(
            event["args"]["scheme"] for event in events
            if event["name"] == "columns.significance"
        )
        assert schemes == ["block16", "block32", "byte3"]
        assert sum(event["name"] == "activity.process" for event in events) == 3
        records = workload.trace()
        for model in models:
            assert broker.activity_report(model, workload) == model.process(
                records, name=workload.name
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
        # Each trace is materialized once, and no task keeps it afterwards.
        store = TraceStore()
        text = run_experiment("table1", workloads=FAST, store=store)
        assert "Table 1" in text
        assert store.materializations == {
            (workload.name, 1): 1 for workload in FAST
        }
        assert len(store) == 0

    def test_session_less_run_experiment_resolves_each_trace_once(self):
        # fig4's runner requests its simulations one at a time; the
        # batch run_experiment sends first makes them memo hits, so no
        # released trace is ever materialized again.
        store = TraceStore()
        run_experiment("fig4", workloads=FAST, store=store)
        assert store.materializations == {
            (workload.name, 1): 1 for workload in FAST
        }
        assert len(store) == 0

    def test_store_output_matches_storeless(self):
        store = TraceStore()
        with_store = run_experiment("table2", workloads=FAST, store=store)
        without = run_experiment("table2", workloads=FAST)
        assert with_store == without
