"""Tests for the persistent result store and the unit scheduler.

Covers the versioned result serialization (field-wise round-trip
equality across all seven organizations), the store's robustness
(truncation, bit rot, version skew, stale workload source and stale
engine source all fail closed into recomputation), the broker's
at-most-once execution discipline (shared ``baseline32``/``byte_serial``
units simulated once per session, even cold and serial), and the warm
contract: a result-store-warm ``repro all`` performs zero pipeline
simulations and reports byte-identical text.
"""

import json
import os

import pytest

from repro.cli import main
from repro.core.icompress import FetchStatistics
from repro.pipeline.activity import ActivityModel, ActivityReport
from repro.pipeline.base import InOrderPipeline, PipelineResult
from repro.pipeline.kernel import TabularKernel
from repro.pipeline.organizations import ALL_ORGANIZATIONS
from repro.study import result_store as result_store_module
from repro.study.result_store import ResultStore
from repro.study.scheduler import (
    BIMODAL_VARIANT,
    ActivityUnit,
    AnalysisUnit,
    ResultBroker,
    SimUnit,
    activity_config,
)
from repro.study.session import ExperimentSession, TraceStore
from repro.workloads import get_workload
from repro.workloads.base import Workload

ORGANIZATION_NAMES = tuple(org.name for org in ALL_ORGANIZATIONS)


def make_counting_workload(name="counted", body=None):
    """A workload whose source builds (hence trace builds) are countable."""
    state = {"count": 0, "body": body or "print_int(%d)" % 7}

    def source(scale):
        state["count"] += 1
        return "int main() { %s; return 0; }" % state["body"]

    workload = Workload(name, source, lambda scale: "7", "counting")
    return workload, state


@pytest.fixture(scope="module")
def synth():
    return get_workload("synth_small")


@pytest.fixture(scope="module")
def trace_records(synth):
    return synth.trace()


# ------------------------------------------------------------- serialization


class TestResultSerde:
    def test_round_trip_equality_all_seven_organizations(self, trace_records):
        # The acceptance contract: a cached result is field-wise equal
        # to a fresh simulation for every organization the paper runs.
        assert len(ORGANIZATION_NAMES) == 7
        for name in ORGANIZATION_NAMES:
            fresh = InOrderPipeline(
                next(o for o in ALL_ORGANIZATIONS if o.name == name)
            ).run(trace_records)
            payload = json.loads(json.dumps(fresh.to_dict()))
            cached = PipelineResult.from_dict(payload)
            assert cached == fresh, name
            assert cached.cpi == fresh.cpi
            assert cached.stage_excess == fresh.stage_excess
            assert cached.hierarchy_stats == fresh.hierarchy_stats

    def test_equality_is_field_wise(self, trace_records):
        result = InOrderPipeline(ALL_ORGANIZATIONS[0]).run(trace_records)
        twin = PipelineResult.from_dict(result.to_dict())
        assert twin == result
        twin.cycles += 1
        assert twin != result

    def test_pipeline_version_skew_rejected(self, trace_records):
        result = InOrderPipeline(ALL_ORGANIZATIONS[0]).run(trace_records)
        payload = result.to_dict()
        payload["version"] += 1
        with pytest.raises(ValueError):
            PipelineResult.from_dict(payload)

    def test_predictor_accuracy_survives_round_trip(self, trace_records):
        from repro.pipeline.predictor import BimodalPredictor

        result = InOrderPipeline(
            ALL_ORGANIZATIONS[0], predictor=BimodalPredictor()
        ).run(trace_records)
        assert result.predictor_accuracy is not None
        twin = PipelineResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert twin.predictor_accuracy == result.predictor_accuracy

    def test_activity_report_round_trip(self, trace_records, synth):
        report = ActivityModel().process(trace_records, name=synth.name)
        twin = ActivityReport.from_dict(json.loads(json.dumps(report.to_dict())))
        assert twin == report
        assert twin.row() == report.row()
        payload = report.to_dict()
        payload["version"] += 1
        with pytest.raises(ValueError):
            ActivityReport.from_dict(payload)

    def test_fetch_statistics_round_trip_restores_int_functs(self, trace_records):
        stats = FetchStatistics()
        for record in trace_records:
            stats.record(record.instr)
        twin = FetchStatistics.from_dict(json.loads(json.dumps(stats.to_dict())))
        assert twin == stats
        assert all(isinstance(k, int) for k in twin.funct_counts)
        assert twin.funct_table() == stats.funct_table()

    def test_funct_table_ties_ignore_insertion_order(self):
        # A stats object rebuilt from the store carries its funct
        # counts in JSON (string-sorted) order; tied counts must still
        # render the identical Table 3 (caught live: MULT vs MFLO).
        first, second = FetchStatistics(), FetchStatistics()
        first.funct_counts = {24: 5, 18: 5, 32: 9}
        second.funct_counts = {18: 5, 32: 9, 24: 5}
        assert first.funct_table() == second.funct_table()
        assert [int(f) for f, _p, _c in first.funct_table()] == [32, 18, 24]

    def test_custom_compressor_stats_refuse_to_serialize(self):
        from repro.core.icompress import InstructionCompressor

        stats = FetchStatistics(compressor=InstructionCompressor())
        with pytest.raises(ValueError):
            stats.to_dict()


# ------------------------------------------------------------------ the store


class TestResultStore:
    def _unit(self):
        return SimUnit("counted", 1, "baseline32", None)

    def test_miss_then_store_then_hit(self, tmp_path):
        workload, _state = make_counting_workload()
        store = ResultStore(tmp_path)
        unit = self._unit()
        assert store.load(workload, unit) is None
        store.store(workload, unit, {"hello": 7})
        assert store.load(workload, unit) == {"hello": 7}
        label = unit.label()
        assert store.hits == {label: 1}
        assert store.misses == {label: 1}
        assert store.stores == {label: 1}

    def test_truncated_entry_fails_closed_and_is_removed(self, tmp_path):
        workload, _state = make_counting_workload()
        store = ResultStore(tmp_path)
        unit = self._unit()
        path = store.store(workload, unit, {"hello": 7})
        blob = open(path, "r").read()
        open(path, "w").write(blob[: len(blob) // 2])
        assert store.load(workload, unit) is None
        assert not os.path.exists(path)

    def test_bit_rot_in_payload_rejected_by_checksum(self, tmp_path):
        workload, _state = make_counting_workload()
        store = ResultStore(tmp_path)
        unit = self._unit()
        path = store.store(workload, unit, {"hello": 7})
        blob = open(path, "r").read()
        rotted = blob.replace('"hello": 7', '"hello": 8')
        assert rotted != blob  # the flip actually landed
        open(path, "w").write(rotted)
        assert store.load(workload, unit) is None  # checksum mismatch
        assert not os.path.exists(path)

    def test_non_object_json_fails_closed(self, tmp_path):
        workload, _state = make_counting_workload()
        store = ResultStore(tmp_path)
        unit = self._unit()
        path = store.store(workload, unit, {"hello": 7})
        open(path, "w").write("[1, 2, 3]")  # valid JSON, wrong shape
        assert store.load(workload, unit) is None
        assert not os.path.exists(path)

    def test_store_version_skew_invalidates(self, tmp_path, monkeypatch):
        workload, _state = make_counting_workload()
        store = ResultStore(tmp_path)
        unit = self._unit()
        store.store(workload, unit, {"hello": 7})
        old_path = store.path_for(workload, unit)
        monkeypatch.setattr(
            result_store_module,
            "STORE_VERSION",
            result_store_module.STORE_VERSION + 1,
        )
        assert store.path_for(workload, unit) != old_path  # key includes it
        assert store.load(workload, unit) is None

    def test_stale_engine_source_invalidates(self, tmp_path, monkeypatch):
        workload, _state = make_counting_workload()
        store = ResultStore(tmp_path)
        unit = self._unit()
        store.store(workload, unit, {"hello": 7})
        assert store.load(workload, unit) is not None
        monkeypatch.setattr(
            result_store_module, "_engine_fingerprint", "0" * 64
        )
        assert store.load(workload, unit) is None  # stale key never matches

    def test_stale_workload_source_invalidates(self, tmp_path):
        workload, state = make_counting_workload()
        store = ResultStore(tmp_path)
        unit = self._unit()
        store.store(workload, unit, {"hello": 7})
        assert store.load(workload, unit) is not None
        state["body"] = "print_int(3 + 4)"  # new kernel text, same output
        workload.clear_cache()
        assert store.load(workload, unit) is None

    def test_units_have_distinct_entries(self, tmp_path):
        workload, _state = make_counting_workload()
        store = ResultStore(tmp_path)
        store.store(workload, self._unit(), {"a": 1})
        assert store.load(workload, SimUnit("counted", 1, "byte_serial", None)) is None
        assert (
            store.load(workload, SimUnit("counted", 1, "baseline32", BIMODAL_VARIANT))
            is None
        )
        assert store.load(workload, AnalysisUnit("counted", 1)) is None

    def test_read_paths_do_not_create_the_directory(self, tmp_path):
        missing = tmp_path / "nope"
        store = ResultStore(missing)
        workload, _state = make_counting_workload()
        assert store.load(workload, self._unit()) is None
        assert store.info()["entries"] == 0
        assert store.clear() == 0
        assert not missing.exists()  # only store() creates it
        store.store(workload, self._unit(), {"a": 1})
        assert missing.exists()

    def test_info_and_clear(self, tmp_path):
        workload, _state = make_counting_workload()
        store = ResultStore(tmp_path)
        store.store(workload, self._unit(), {"a": 1})
        store.store(workload, AnalysisUnit("counted", 1), {"b": 2})
        info = store.info()
        assert info["entries"] == 2
        assert info["bytes"] > 0
        assert info["kinds"] == {"pipeline": 1, "analyze": 1}
        assert store.clear() == 2
        assert store.info()["entries"] == 0


# --------------------------------------------------------------- the broker


class TestBrokerDedupe:
    def test_each_unit_simulated_at_most_once_per_repro_all(
        self, synth, monkeypatch
    ):
        # The satellite contract: across every CPI-consuming experiment
        # of one serial session — fig4/fig6 share baseline32 and
        # byte_serial with the bottleneck analysis, the energy estimate
        # and the predictor ablation — each (workload, organization)
        # pair reaches the raw engine (one kernel simulation over the
        # trace's shared columns) at most once.
        calls = []
        original = TabularKernel.simulate

        def counting_simulate(self, table, columns, predicted=False):
            calls.append((table.organization.name, predicted))
            return original(self, table, columns, predicted)

        monkeypatch.setattr(TabularKernel, "simulate", counting_simulate)
        session = ExperimentSession(workloads=[synth])
        results = session.run(
            ["fig4", "fig6", "bottleneck", "energy", "future-branch-prediction"]
        )
        assert len(results) == 5
        assert len(calls) == len(set(calls)), calls  # no pair ran twice
        # 7 plain organizations + 3 predictor variants, each exactly once.
        assert len(calls) == 10
        assert all(count == 1 for count in session.results.sim_misses.values())

    def test_cold_serial_session_memoizes_in_memory(self, synth):
        session = ExperimentSession(workloads=[synth])
        session.run(["fig4", "fig6"])
        label = "%s@1/baseline32" % synth.name
        assert session.results.sim_misses[label] == 1
        assert session.results.sim_hits[label] >= 1  # fig6 reused fig4's

    def test_activity_units_shared_across_experiments(self, synth):
        # table5, the energy estimate and the memory-extension ablation
        # all consume the byte-granularity activity report.
        session = ExperimentSession(workloads=[synth])
        session.run(["table5", "ablation-memory-extension"])
        byte_label = "%s@1/activity-byte3" % synth.name
        assert session.results.sim_misses[byte_label] == 1
        assert session.results.sim_hits[byte_label] >= 1

    def test_broker_results_match_direct_engine_output(self, synth, tmp_path):
        # Cached-vs-fresh equality through the full store path, for
        # every organization.
        store_root = tmp_path / "results"
        cold = ResultBroker(TraceStore(), ResultStore(store_root))
        fresh = {
            name: cold.pipeline_result(synth, name) for name in ORGANIZATION_NAMES
        }
        warm = ResultBroker(TraceStore(), ResultStore(store_root))
        for name in ORGANIZATION_NAMES:
            cached = warm.pipeline_result(synth, name)
            assert cached is not fresh[name]
            assert cached == fresh[name], name
        assert warm.sim_misses == {}
        assert len(warm.disk_hits) == 7

    def test_unit_rejects_unknown_variant(self):
        with pytest.raises(ValueError):
            SimUnit("w", 1, "baseline32", "oracle")

    def test_activity_config_round_trips_through_model(self):
        from repro.study.scheduler import model_from_config

        config = activity_config()
        model = model_from_config(config)
        assert model.config_key() == config
        unit = ActivityUnit("w", 1, config)
        assert unit.descriptor()["config"] == list(config)


# ------------------------------------------------------------ CLI and session


class TestWarmSession:
    ARGS = ["fig4", "--workloads", "synth_small", "--format", "json"]

    def _run(self, tmp_path, capsys, extra=()):
        args = self.ARGS + ["--cache-dir", str(tmp_path)] + list(extra)
        assert main(args) == 0
        return json.loads(capsys.readouterr().out)

    def test_warm_run_performs_zero_simulations(self, tmp_path, capsys):
        cold = self._run(tmp_path, capsys)
        warm = self._run(tmp_path, capsys)
        assert sum(cold["sim_misses"].values()) == 3  # baseline + 2 orgs
        assert warm["sim_misses"] == {}
        assert sum(warm["trace_materializations"].values()) == 0
        assert len(warm["result_disk_hits"]) == 3
        assert warm["result_store_dir"] == str(tmp_path)
        # The reports themselves are byte-identical cold vs warm.
        assert [e["text"] for e in warm["experiments"]] == [
            e["text"] for e in cold["experiments"]
        ]

    def test_jobs_shard_units_within_one_experiment(self, synth, monkeypatch):
        # One experiment over two traces: the sims must run in the forked
        # workers, one task per trace, not in the parent — per-trace
        # sharding, not per-experiment.
        workloads = [synth, get_workload("synth_stride")]
        parent_calls = []
        original = InOrderPipeline.run

        def counting_run(self, records):
            parent_calls.append(self.organization.name)
            return original(self, records)

        serial = ExperimentSession(workloads=workloads)
        serial_text = serial.report_text(serial.run(["fig4"]))

        monkeypatch.setattr(InOrderPipeline, "run", counting_run)
        parallel = ExperimentSession(workloads=workloads)
        parallel_text = parallel.report_text(parallel.run(["fig4"], jobs=2))
        assert parallel_text == serial_text
        assert parent_calls == []  # all six sims ran in workers
        assert sum(parallel.results.sim_misses.values()) == 6


class TestCacheCli:
    def _populate(self, cache_dir, capsys):
        args = [
            "fig4",
            "--workloads",
            "synth_small",
            "--cache-dir",
            str(cache_dir),
        ]
        assert main(args) == 0
        capsys.readouterr()

    def test_info_reports_result_store(self, tmp_path, capsys):
        self._populate(tmp_path, capsys)
        assert main(["cache", "info", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "result store: 3 entries" in out
        assert "result kinds: pipeline=3" in out

    def test_info_json_includes_results(self, tmp_path, capsys):
        self._populate(tmp_path, capsys)
        args = ["cache", "info", "--cache-dir", str(tmp_path), "--format", "json"]
        assert main(args) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["entries"] == 1  # trace entries stay top-level
        assert info["results"]["entries"] == 3
        assert info["results"]["kinds"] == {"pipeline": 3}

    def test_clear_results_only(self, tmp_path, capsys):
        self._populate(tmp_path, capsys)
        args = ["cache", "clear", "--cache-dir", str(tmp_path), "--results"]
        assert main(args) == 0
        assert "(0 traces, 3 results)" in capsys.readouterr().out
        assert ResultStore(tmp_path).info()["entries"] == 0
        from repro.study.trace_cache import TraceCache

        assert TraceCache(tmp_path).info()["entries"] == 1  # traces kept

    def test_clear_traces_only(self, tmp_path, capsys):
        self._populate(tmp_path, capsys)
        args = ["cache", "clear", "--cache-dir", str(tmp_path), "--traces"]
        assert main(args) == 0
        assert "(1 traces, 0 results)" in capsys.readouterr().out
        assert ResultStore(tmp_path).info()["entries"] == 3  # results kept

    def test_clear_default_removes_both(self, tmp_path, capsys):
        self._populate(tmp_path, capsys)
        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 4 cache entries (1 traces, 3 results)" in (
            capsys.readouterr().out
        )
        assert ResultStore(tmp_path).info()["entries"] == 0
