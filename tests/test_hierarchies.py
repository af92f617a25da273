"""Tests for the memoized memory hierarchy the pipeline kernel consults.

The heart is the differential-equivalence suite: for every organization
crossed with a synthetic and a real workload, the kernel over the
production ``MemoHierarchy`` and over the reference ``MemoryHierarchy``
oracle must produce field-wise equal ``PipelineResult``s — stalls,
stage_excess and the full per-structure hierarchy statistics (float hit
rates included).  Around it: the narrow timing protocol
(``ifetch_stall``/``data_stall``/``classify_block``) both implement,
custom geometries, and the per-run state every pipeline builds.

Tests named after the deleted hierarchy selection (registry, environment
variable, set-default, ``--hierarchy``, unit keying, broker argument)
now pin that each of those selection points is gone.
"""

import json

import pytest

import repro.sim
from repro.cli import main
from repro.pipeline import (
    ALL_ORGANIZATIONS,
    InOrderPipeline,
    get_organization,
    simulate,
)
from repro.pipeline.kernel import default_kernel_name, get_kernel
from repro.sim import hierarchy_model
from repro.sim.hierarchy import PAPER_HIERARCHY, HierarchyConfig, MemoryHierarchy
from repro.sim.hierarchy_model import MemoHierarchy
from repro.study.scheduler import ResultBroker, SimUnit
from repro.study.session import ExperimentSession, TraceStore
from repro.workloads import get_workload

from oracles import reference_kernel
from test_kernels import (
    SMALL_HIERARCHY,
    STALE_HIERARCHY_ENV,
    assert_store_ignores_env,
    fig4_output,
    src_mentions,
)

#: Names the deleted hierarchy registry exported.
REGISTRY_NAMES = (
    "ENV_HIERARCHY", "REFERENCE_HIERARCHY", "MEMO_HIERARCHY",
    "HierarchyModel", "ReferenceHierarchyModel", "MemoHierarchyModel",
    "register_hierarchy", "hierarchy_names", "get_hierarchy",
    "default_hierarchy_name", "set_default_hierarchy", "resolve_hierarchy",
)

#: The narrow timing protocol the kernels consume.
TIMING_PROTOCOL = ("ifetch_stall", "data_stall", "classify_block", "stats")

ORGANIZATION_NAMES = tuple(org.name for org in ALL_ORGANIZATIONS)

#: The differential corpus: one synthetic and one real workload.
DIFF_WORKLOADS = ("synth_small", "rawcaudio")


@pytest.fixture(scope="module")
def diff_traces():
    return {name: get_workload(name).trace() for name in DIFF_WORKLOADS}


def _production(records, organization):
    """The kernel over the pipeline's own MemoHierarchy."""
    return InOrderPipeline(organization).run(records)


def _over_reference_hierarchy(records, organization):
    """The same kernel over the MemoryHierarchy oracle."""
    return get_kernel(default_kernel_name()).run(
        records, organization, MemoryHierarchy()
    )


@pytest.fixture(scope="module")
def paper_results(diff_traces):
    """``(workload, organization) -> (memo, reference)`` results, each
    pair computed once per module."""
    cache = {}

    def results(workload_name, org_name):
        key = (workload_name, org_name)
        if key not in cache:
            records = diff_traces[workload_name]
            organization = get_organization(org_name)
            cache[key] = (
                _production(records, organization),
                _over_reference_hierarchy(records, organization),
            )
        return cache[key]

    return results


# ------------------------------------------------- differential equivalence


class TestDifferentialEquivalence:
    @pytest.mark.parametrize("workload_name", DIFF_WORKLOADS)
    @pytest.mark.parametrize("org_name", ORGANIZATION_NAMES)
    def test_memo_equals_reference(self, paper_results, workload_name, org_name):
        memo, reference = paper_results(workload_name, org_name)
        # PipelineResult.__eq__ is field-wise: stalls, stage_excess and
        # hierarchy_stats (counters and float hit rates) participate.
        assert memo == reference

    @pytest.mark.parametrize("org_name", ORGANIZATION_NAMES)
    def test_memo_equals_reference_under_reference_kernel(
        self, diff_traces, paper_results, org_name
    ):
        # The hierarchy is orthogonal to the kernel: the reference
        # kernel consumes the same narrow protocol.
        records = diff_traces["synth_small"]
        organization = get_organization(org_name)
        assert reference_kernel.simulate(
            records, organization, MemoHierarchy()
        ) == paper_results("synth_small", org_name)[1]

    def test_hierarchy_stats_identical_per_structure(self, paper_results):
        memo, reference = paper_results("rawcaudio", "byte_serial")
        for structure in ("l1i", "l1d", "l2", "itlb", "dtlb"):
            assert memo.hierarchy_stats[structure] == (
                reference.hierarchy_stats[structure]
            ), structure

    def test_classify_block_matches_reference(self, diff_traces):
        records = diff_traces["synth_small"]
        reference = MemoryHierarchy()
        memo = MemoHierarchy()
        assert memo.classify_block(records) == reference.classify_block(
            records
        )
        assert memo.stats() == reference.stats()

    def test_classify_block_matches_per_record_calls(self, diff_traces):
        records = diff_traces["synth_small"]
        batched = MemoHierarchy()
        stepped = MemoHierarchy()
        expected = []
        for record in records:
            istall = stepped.ifetch_stall(record.pc)
            dstall = (
                stepped.data_stall(record.mem_addr, record.mem_is_store)
                if record.mem_addr is not None
                else 0
            )
            expected.append((istall, dstall))
        assert batched.classify_block(records) == expected
        assert batched.stats() == stepped.stats()

    def test_memo_respects_custom_configs(self, diff_traces):
        records = diff_traces["synth_small"]
        reference = MemoryHierarchy(SMALL_HIERARCHY)
        memo = MemoHierarchy(SMALL_HIERARCHY)
        assert memo.classify_block(records) == reference.classify_block(
            records
        )
        assert memo.stats() == reference.stats()


# ------------------------------------------------------ the one hierarchy


class TestHierarchyRegistry:
    def test_builtin_hierarchies_registered(self):
        # No registry: the module holds the memo hierarchy and nothing
        # that names or selects a backend.
        for name in REGISTRY_NAMES:
            assert not hasattr(hierarchy_model, name), name

    def test_get_hierarchy_unknown_name(self):
        # A hierarchy cannot be asked for by name anywhere.
        organization = get_organization("baseline32")
        with pytest.raises(TypeError):
            InOrderPipeline(organization, hierarchy="mystery")
        with pytest.raises(TypeError):
            simulate(organization, [], hierarchy="mystery")

    def test_default_is_memo(self):
        hierarchy = InOrderPipeline(get_organization("baseline32")).hierarchy
        assert type(hierarchy) is MemoHierarchy
        assert hierarchy.config is PAPER_HIERARCHY

    def test_env_variable_selects_default(self, monkeypatch):
        # The old selection variable is inert.
        monkeypatch.setenv(STALE_HIERARCHY_ENV, "reference")
        hierarchy = InOrderPipeline(get_organization("baseline32")).hierarchy
        assert type(hierarchy) is MemoHierarchy

    def test_unknown_env_hierarchy_raises(self, diff_traces, monkeypatch):
        records = diff_traces["synth_small"]
        organization = get_organization("baseline32")
        expected = _production(records, organization)
        monkeypatch.setenv(STALE_HIERARCHY_ENV, "mystery")
        assert _production(records, organization) == expected

    def test_set_default_hierarchy_beats_env(self):
        # No source file names a hierarchy-selection mechanism or the
        # per-hierarchy timing it used to report.
        for needle in (
            STALE_HIERARCHY_ENV, "register_hierarchy", "set_default_",
            "hierarchy_seconds",
        ):
            assert src_mentions(needle) == [], needle

    def test_set_default_hierarchy_rejects_unknown(self):
        for name in REGISTRY_NAMES:
            assert not hasattr(repro.sim, name), name
            assert name not in repro.sim.__all__, name

    def test_resolve_hierarchy_accepts_instances(self):
        # The pipeline hands its config instance straight to the memo
        # hierarchy it builds.
        config = HierarchyConfig(l2_hit_cycles=9)
        hierarchy = InOrderPipeline(get_organization("baseline32"), config).hierarchy
        assert hierarchy.config is config

    def test_register_hierarchy_rejects_duplicate_names(self):
        # Production and oracle share one protocol, not a registry.
        for name in TIMING_PROTOCOL:
            assert callable(getattr(MemoHierarchy, name)), name
            assert callable(getattr(MemoryHierarchy, name)), name

    def test_models_create_fresh_state(self):
        organization = get_organization("baseline32")
        one = InOrderPipeline(organization).hierarchy
        two = InOrderPipeline(organization).hierarchy
        assert one is not two
        one.ifetch_stall(0x00400000)
        assert two.stats()["l1i"]["accesses"] == 0

    def test_reference_model_creates_memory_hierarchy(self):
        # The oracle is built directly and starts from the same state.
        oracle = MemoryHierarchy(SMALL_HIERARCHY)
        assert not isinstance(oracle, MemoHierarchy)
        assert oracle.stats() == MemoHierarchy(SMALL_HIERARCHY).stats()

    def test_memo_model_creates_memo_hierarchy(self):
        assert MemoHierarchy(SMALL_HIERARCHY).config is SMALL_HIERARCHY
        assert MemoHierarchy().config is PAPER_HIERARCHY


class TestPipelineHierarchy:
    def test_pipeline_builds_memo_hierarchy(self):
        organization = get_organization("baseline32")
        assert isinstance(InOrderPipeline(organization).hierarchy, MemoHierarchy)
        config = HierarchyConfig(l2_hit_cycles=9)
        hierarchy = InOrderPipeline(organization, config).hierarchy
        assert hierarchy.config is config


# -------------------------------------------------------- store identity


class TestHierarchyKeying:
    def test_simunit_defaults_to_process_hierarchy(self):
        # A unit has no hierarchy field to default.
        assert "hierarchy" not in SimUnit._fields
        assert not hasattr(SimUnit("w", 1, "baseline32"), "hierarchy")

    def test_simunit_rejects_unknown_hierarchy(self):
        with pytest.raises(TypeError):
            SimUnit("w", 1, "baseline32", None, None, "mystery")
        with pytest.raises(TypeError):
            SimUnit("w", 1, "baseline32", hierarchy="memo")

    def test_descriptor_carries_the_hierarchy(self, monkeypatch):
        descriptor = SimUnit("w", 1, "baseline32").descriptor()
        monkeypatch.setenv(STALE_HIERARCHY_ENV, "reference")
        assert SimUnit("w", 1, "baseline32").descriptor() == descriptor
        assert "hierarchy" not in descriptor

    def test_store_entries_do_not_mix_hierarchies(self, tmp_path, monkeypatch):
        assert_store_ignores_env(
            tmp_path, monkeypatch, STALE_HIERARCHY_ENV, "reference"
        )


# ------------------------------------------------------------ CLI surface


class TestHierarchyCli:
    def test_list_enumerates_hierarchies(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "hierarchies:" not in out
        assert "memo (default)" not in out

    def test_list_json_reports_hierarchies(self, capsys):
        assert main(["list", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "hierarchies" not in payload
        assert "default_hierarchy" not in payload

    def test_unknown_hierarchy_flag_exits_2(self, capsys):
        # No option selects a hierarchy: argparse rejects --hierarchy.
        with pytest.raises(SystemExit) as excinfo:
            main(["fig4", "--hierarchy", "memo"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --hierarchy" in capsys.readouterr().err

    def test_unknown_env_hierarchy_exits_2(self, capsys, monkeypatch):
        # Startup no longer validates the old selection variable.
        monkeypatch.setenv(STALE_HIERARCHY_ENV, "mystery")
        assert main(["fig4", "--workloads", "synth_small"]) == 0
        assert STALE_HIERARCHY_ENV not in capsys.readouterr().err

    def test_hierarchy_flag_output_is_byte_identical(self, monkeypatch):
        default_out = fig4_output()
        monkeypatch.setenv(STALE_HIERARCHY_ENV, "reference")
        assert fig4_output() == default_out

    def test_json_reports_hierarchy_and_seconds(self, capsys):
        args = ["fig4", "--workloads", "synth_small", "--format", "json"]
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "hierarchy" not in payload
        assert "hierarchy_seconds" not in payload
        # Simulation time is reported once, in sim_timings.
        assert payload["sim_timings"]["seconds"] > 0

    def test_jobs_run_still_reports_hierarchy_seconds(self, capsys):
        # Forked unit workers report no per-hierarchy seconds either.
        args = [
            "fig4", "--workloads", "synth_small", "--jobs", "2",
            "--format", "json",
        ]
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "hierarchy_seconds" not in payload
        assert payload["sim_timings"]["units"] == 3

    def test_session_hierarchy_conflicts_with_prebuilt_broker(self):
        store = TraceStore()
        with pytest.raises(TypeError):
            ResultBroker(store, hierarchy="memo")
        broker = store.results = ResultBroker(store)
        assert not hasattr(broker, "hierarchy")
        with pytest.raises(TypeError):
            ExperimentSession(workloads=[], store=store, hierarchy="memo")
