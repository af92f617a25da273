"""Tests for the pipeline kernel.

The heart is the differential-equivalence suite: for every organization
crossed with two synthetic workloads and a real one, the production path
— ``InOrderPipeline(org).run``, the tabular kernel over the memoized
hierarchy — must produce ``PipelineResult``s field-wise equal to both
oracles together: the reference kernel (``tests/oracles``) running over
the reference ``MemoryHierarchy``.  That covers predictor runs for every
organization, ``stage_excess``, the hierarchy statistics and a
non-paper hierarchy geometry.  Around it: the one-kernel lookup, the
simulation unit's store identity, the hardened
``PipelineResult.from_dict`` payload validation, the ``repro list``
enumeration and the report's ``sim_timings``.

Tests named after the deleted backend selection (registry, environment
variable, set-default, ``--kernel``, unit keying, broker argument) now
pin that each of those selection points is gone: nothing in production
can reach the oracle or choose another kernel.
"""

import json
import pathlib

import pytest

import repro.pipeline
from repro.cli import main
from repro.pipeline import (
    ALL_ORGANIZATIONS,
    InOrderPipeline,
    PipelineResult,
    get_organization,
    simulate,
)
from repro.pipeline import kernel as kernel_module
from repro.pipeline.base import RESULT_SCHEMA_VERSION
from repro.pipeline.kernel import (
    TABULAR_KERNEL,
    ExpandedTrace,
    TabularKernel,
    default_kernel_name,
    get_kernel,
)
from repro.pipeline.organizations import ByteSerialOrg, Organization
from repro.pipeline.predictor import BimodalPredictor
from repro.sim.hierarchy import CacheConfig, HierarchyConfig
from repro.sim.hierarchy_model import MemoHierarchy
from repro.study.result_store import ResultStore
from repro.study.scheduler import BIMODAL_VARIANT, ResultBroker, SimUnit
from repro.study.session import ExperimentSession, TraceStore
from repro.workloads import get_workload
from repro.workloads.base import Workload

from oracles import reference_kernel
from oracles.reference_hierarchy import MemoryHierarchy

ORGANIZATION_NAMES = tuple(org.name for org in ALL_ORGANIZATIONS)

#: Environment variables that used to select the kernel and the
#: hierarchy; nothing reads them any more.
STALE_KERNEL_ENV = "REPRO_KERNEL"
STALE_HIERARCHY_ENV = "REPRO_HIERARCHY"

SRC_ROOT = pathlib.Path(repro.pipeline.__file__).resolve().parents[1]

#: The differential corpus: two synthetic workloads and a real one.
DIFF_WORKLOADS = ("synth_small", "rawcaudio", "synth_stride")

#: A geometry unlike the paper's: associative L1s, a tiny L2 and tiny
#: TLBs force the eviction and write-back paths the direct-mapped paper
#: L1s never exercise.
SMALL_HIERARCHY = HierarchyConfig(
    l1i=CacheConfig("L1I", 1024, 2, 32),
    l1d=CacheConfig("L1D", 1024, 2, 32),
    l2=CacheConfig("L2", 4096, 4, 64),
    itlb_entries=4,
    itlb_assoc=2,
    dtlb_entries=4,
    dtlb_assoc=2,
)


def src_mentions(needle):
    """Paths of the ``src/repro`` files whose text contains ``needle``."""
    return sorted(
        str(path.relative_to(SRC_ROOT))
        for path in SRC_ROOT.rglob("*.py")
        if needle in path.read_text()
    )


def tiny_workload():
    return Workload(
        "w", lambda scale: "int main() { return 0; }", lambda scale: "", "t"
    )


def assert_store_ignores_env(tmp_path, monkeypatch, variable, value):
    """A unit's store entry is the same with and without ``variable``."""
    workload = tiny_workload()
    store = ResultStore(tmp_path)
    unit = SimUnit("w", 1, "baseline32")
    path = store.path_for(workload, unit)
    monkeypatch.setenv(variable, value)
    assert store.path_for(workload, SimUnit("w", 1, "baseline32")) == path
    store.store(workload, unit, {"cycles": 1})
    monkeypatch.delenv(variable)
    assert store.load(workload, SimUnit("w", 1, "baseline32")) == {"cycles": 1}


def fig4_output(args=()):
    """``repro fig4`` text on synth_small (exit code asserted 0)."""
    import contextlib
    import io

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["fig4", "--workloads", "synth_small", *args]) == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def diff_traces():
    return {name: get_workload(name).trace() for name in DIFF_WORKLOADS}


def _production(records, organization, predictor=None, config=None):
    return InOrderPipeline(organization, config, predictor).run(records)


def _oracle(records, organization, predictor=None, config=None):
    return reference_kernel.simulate(
        records, organization, MemoryHierarchy(config), predictor
    )


@pytest.fixture(scope="module")
def paper_results(diff_traces):
    """``(workload, organization) -> (production, oracle)`` results on the
    paper hierarchy, each pair computed once per module."""
    cache = {}

    def results(workload_name, org_name):
        key = (workload_name, org_name)
        if key not in cache:
            records = diff_traces[workload_name]
            organization = get_organization(org_name)
            cache[key] = (
                _production(records, organization),
                _oracle(records, organization),
            )
        return cache[key]

    return results


# ------------------------------------------------- differential equivalence


class TestDifferentialEquivalence:
    @pytest.mark.parametrize("workload_name", DIFF_WORKLOADS)
    @pytest.mark.parametrize("org_name", ORGANIZATION_NAMES)
    def test_tabular_equals_reference(self, paper_results, workload_name, org_name):
        production, oracle = paper_results(workload_name, org_name)
        # PipelineResult.__eq__ is field-wise: stalls, stage_excess,
        # hierarchy_stats and predictor_accuracy all participate.
        assert production == oracle

    @pytest.mark.parametrize("org_name", ORGANIZATION_NAMES)
    def test_tabular_equals_reference_with_predictor(self, diff_traces, org_name):
        records = diff_traces["synth_small"]
        organization = get_organization(org_name)
        production = _production(records, organization, BimodalPredictor())
        oracle = _oracle(records, organization, BimodalPredictor())
        assert production == oracle
        assert production.predictor_accuracy is not None

    @pytest.mark.parametrize("org_name", ORGANIZATION_NAMES)
    def test_tabular_equals_reference_on_small_hierarchy(
        self, diff_traces, paper_results, org_name
    ):
        records = diff_traces["synth_small"]
        organization = get_organization(org_name)
        production = _production(records, organization, config=SMALL_HIERARCHY)
        assert production == _oracle(
            records, organization, config=SMALL_HIERARCHY
        )
        # The geometry really changed the run.
        assert production != paper_results("synth_small", org_name)[0]

    def test_stage_excess_and_bottleneck_agree(self, paper_results):
        production, oracle = paper_results("rawcaudio", "byte_serial")
        assert production.stage_excess == oracle.stage_excess
        assert production.bottleneck() == oracle.bottleneck()

    def test_simulate_accepts_organization_names(self, diff_traces):
        records = diff_traces["synth_small"]
        assert simulate("baseline32", records) == simulate(
            get_organization("baseline32"), records
        )

    def test_simulate_accepts_kernel_names(self, diff_traces):
        # simulate() runs the kernel its name looks up, over a fresh
        # MemoHierarchy; it takes no kernel argument of its own.
        records = diff_traces["synth_small"]
        organization = get_organization("baseline32")
        assert simulate(organization, records) == get_kernel(
            TABULAR_KERNEL
        ).run(records, organization, MemoHierarchy())
        with pytest.raises(TypeError):
            simulate(organization, records, kernel=TABULAR_KERNEL)


# ------------------------------------------------------------------ lookup


class TestKernelRegistry:
    def test_builtin_kernels_registered(self):
        # One kernel; the oracle is not reachable from production.
        assert isinstance(get_kernel(TABULAR_KERNEL), TabularKernel)
        with pytest.raises(KeyError):
            get_kernel("reference")

    def test_get_kernel_unknown_name(self):
        with pytest.raises(KeyError):
            get_kernel("systolic")

    def test_default_is_tabular(self):
        assert default_kernel_name() == TABULAR_KERNEL
        assert get_kernel(TABULAR_KERNEL).name == TABULAR_KERNEL

    def test_env_variable_selects_default(self, monkeypatch):
        # The old selection variable is inert.
        monkeypatch.setenv(STALE_KERNEL_ENV, "reference")
        assert default_kernel_name() == TABULAR_KERNEL
        assert isinstance(get_kernel(default_kernel_name()), TabularKernel)

    def test_unknown_env_kernel_raises(self, diff_traces, monkeypatch):
        # A bogus value is not validated either: nothing reads it.
        records = diff_traces["synth_small"]
        expected = simulate("baseline32", records)
        monkeypatch.setenv(STALE_KERNEL_ENV, "systolic")
        assert simulate("baseline32", records) == expected

    def test_set_default_kernel_beats_env(self):
        # No source file names a kernel-selection mechanism.
        for needle in (
            STALE_KERNEL_ENV, "register_kernel", "set_default_",
            "ReferenceKernel",
        ):
            assert src_mentions(needle) == [], needle

    def test_set_default_kernel_rejects_unknown(self):
        for name in (
            "ENV_KERNEL", "REFERENCE_KERNEL", "PipelineKernel",
            "register_kernel", "kernel_names", "set_default_kernel",
            "resolve_kernel", "ReferenceKernel",
        ):
            assert not hasattr(kernel_module, name), name

    def test_resolve_kernel_accepts_instances(self):
        # The one kernel is a shared, stateless instance.
        kernel = get_kernel(TABULAR_KERNEL)
        assert get_kernel(default_kernel_name()) is kernel
        assert not hasattr(InOrderPipeline(get_organization("baseline32")),
                           "kernel")

    def test_register_kernel_rejects_duplicate_names(self):
        for name in (
            "register_kernel", "kernel_names", "set_default_kernel",
            "resolve_kernel", "REFERENCE_KERNEL",
        ):
            assert not hasattr(repro.pipeline, name), name
            assert name not in repro.pipeline.__all__, name

    def test_tabular_rejects_foreign_expansion(self, diff_traces):
        # Every expansion carries its row table (there is no pass-through
        # expansion left), and expand + simulate is exactly run.
        records = diff_traces["synth_small"]
        organization = get_organization("byte_serial")
        kernel = get_kernel(TABULAR_KERNEL)
        expanded = kernel.expand(records, organization)
        assert len(expanded.rows) == len(records)
        assert expanded.organization is organization
        assert kernel.simulate(expanded, MemoHierarchy()) == (
            _production(records, organization)
        )

    def test_tabular_rejects_imperative_timing_overrides(self, diff_traces):
        # Timing plans are the only timing API: the imperative hooks are
        # gone, and an overridden plan reaches kernel and oracle alike.
        for hook in ("address_ready", "resolution_time"):
            assert not hasattr(Organization, hook), hook

        class DecodeResolvedOrg(ByteSerialOrg):
            name = "decode_resolved"

            def resolution_plan(self, record, info):
                return ("rd_end", 0)

        records = diff_traces["synth_small"]
        organization = DecodeResolvedOrg()
        production = _production(records, organization)
        assert production == _oracle(records, organization)
        assert production.stalls["branch"] < _production(
            records, get_organization("byte_serial")
        ).stalls["branch"]

    def test_expanded_trace_repr(self, diff_traces):
        records = diff_traces["synth_small"]
        organization = get_organization("baseline32")
        expanded = get_kernel(TABULAR_KERNEL).expand(records, organization)
        assert isinstance(expanded, ExpandedTrace)
        assert expanded.count == len(records)
        assert "baseline32" in repr(expanded)


# ------------------------------------------------------- simulation units


class TestKernelKeying:
    def test_simunit_defaults_to_process_kernel(self):
        # A unit has no kernel field to default.
        assert SimUnit._fields == (
            "workload", "scale", "organization", "variant",
        )
        assert SimUnit("w", 1, "baseline32").variant is None

    def test_simunit_rejects_unknown_kernel(self):
        with pytest.raises(TypeError):
            SimUnit("w", 1, "baseline32", None, "systolic")
        with pytest.raises(TypeError):
            SimUnit("w", 1, "baseline32", kernel=TABULAR_KERNEL)

    def test_descriptor_carries_the_kernel(self, monkeypatch):
        # The store identity no longer names a kernel, so the stale
        # environment variable cannot change it.
        descriptor = SimUnit("w", 1, "baseline32").descriptor()
        monkeypatch.setenv(STALE_KERNEL_ENV, "reference")
        assert SimUnit("w", 1, "baseline32").descriptor() == descriptor
        assert "kernel" not in descriptor

    def test_store_entries_do_not_mix_kernels(self, tmp_path, monkeypatch):
        assert_store_ignores_env(
            tmp_path, monkeypatch, STALE_KERNEL_ENV, "reference"
        )


class TestSimUnitIdentity:
    def test_descriptor_is_organization_and_variant(self):
        unit = SimUnit("w", 1, "baseline32", BIMODAL_VARIANT)
        assert unit == SimUnit("w", 1, "baseline32", variant=BIMODAL_VARIANT)
        assert unit.descriptor() == {
            "kind": "pipeline",
            "organization": "baseline32",
            "variant": BIMODAL_VARIANT,
        }


# ---------------------------------------------------- from_dict validation


class TestResultPayloadValidation:
    def _payload(self, **overrides):
        payload = {
            "version": RESULT_SCHEMA_VERSION,
            "name": "baseline32",
            "instructions": 10,
            "cycles": 12,
            "stalls": {"branch": 2},
            "hierarchy_stats": {},
            "stage_excess": {"if": 0},
            "predictor_accuracy": None,
        }
        payload.update(overrides)
        return payload

    def test_valid_payload_round_trips(self):
        result = PipelineResult.from_dict(self._payload())
        assert result.stall_fraction("branch") == 1.0

    @pytest.mark.parametrize("field", ["stalls", "stage_excess"])
    @pytest.mark.parametrize("bogus", [[1, 2], "stalls", 7, None])
    def test_non_dict_payloads_rejected(self, field, bogus):
        # A corrupted-but-checksummed entry must fail closed as a
        # ValueError, not surface as a TypeError inside stall_fraction.
        with pytest.raises(ValueError) as excinfo:
            PipelineResult.from_dict(self._payload(**{field: bogus}))
        assert field in str(excinfo.value)


# ------------------------------------------------------------ CLI surface


class TestKernelCli:
    def test_list_enumerates_everything(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "organizations:" in out
        assert "parallel_skewed_bypass" in out
        assert "workloads:" in out
        assert "rawcaudio" in out
        # One production path: there is no backend to choose.
        assert "kernels:" not in out

    def test_list_json_is_machine_readable(self, capsys):
        assert main(["list", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "fig10" in payload["experiments"]
        assert payload["organizations"] == list(ORGANIZATION_NAMES)
        assert "synth_small" in payload["workloads"]
        assert set(payload) == {
            "experiments", "organizations", "schemes", "workloads",
        }

    def test_unknown_kernel_flag_exits_2(self, capsys):
        # No option selects a kernel: argparse rejects --kernel.
        with pytest.raises(SystemExit) as excinfo:
            main(["fig4", "--kernel", "tabular"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --kernel" in capsys.readouterr().err

    def test_unknown_env_kernel_exits_2(self, capsys, monkeypatch):
        # Startup no longer validates the old selection variable.
        monkeypatch.setenv(STALE_KERNEL_ENV, "systolic")
        assert main(["fig4", "--workloads", "synth_small"]) == 0
        assert STALE_KERNEL_ENV not in capsys.readouterr().err

    def test_kernel_flag_output_is_byte_identical(self, monkeypatch):
        default_out = fig4_output()
        monkeypatch.setenv(STALE_KERNEL_ENV, "reference")
        assert fig4_output() == default_out

    def test_kernel_flag_is_session_scoped(self):
        # Sessions carry no kernel at all.
        assert not hasattr(ExperimentSession(workloads=[]), "kernel")
        with pytest.raises(TypeError):
            ExperimentSession(workloads=[], kernel=TABULAR_KERNEL)

    def test_session_kernel_conflicts_with_prebuilt_broker(self):
        store = TraceStore()
        with pytest.raises(TypeError):
            ResultBroker(store, kernel=TABULAR_KERNEL)
        broker = store.results = ResultBroker(store)
        # Nothing can conflict: the session adopts the broker as is.
        assert ExperimentSession(workloads=[], store=store).results is broker

    def test_jobs_run_still_reports_sim_timings(self, capsys):
        # Simulations run inside forked unit workers; their measured
        # times must ride back to the parent's sim_timings counters.
        args = [
            "fig4", "--workloads", "synth_small", "--jobs", "2",
            "--format", "json",
        ]
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert sum(payload["sim_misses"].values()) == 3
        assert payload["sim_timings"]["units"] == 3
        assert payload["sim_timings"]["seconds"] > 0

    def test_json_reports_sim_timings(self, capsys):
        args = ["fig4", "--workloads", "synth_small", "--format", "json"]
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        timing = payload["sim_timings"]
        assert set(timing) == {
            "units", "seconds", "instructions", "instructions_per_second",
        }
        assert timing["units"] == 3  # baseline + two serial organizations
        assert timing["instructions"] > 0
        assert timing["seconds"] > 0
        assert timing["instructions_per_second"] > 0

    def test_json_reports_kernel_and_timings(self, capsys):
        args = ["fig4", "--workloads", "synth_small", "--format", "json"]
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "kernel" not in payload
        # sim_timings has no per-kernel level.
        assert TABULAR_KERNEL not in payload["sim_timings"]
        assert payload["sim_timings"]["units"] == 3
