"""Tests for the pipeline kernel.

The heart is the differential-equivalence suite: for every organization
crossed with two synthetic workloads and a real one, the production path
— ``InOrderPipeline(org).run``, the tabular kernel over the memoized
hierarchy — must produce ``PipelineResult``s field-wise equal to both
oracles together: the reference kernel (``tests/oracles``) running over
the reference ``MemoryHierarchy``.  That covers predictor runs for every
organization, ``stage_excess``, the hierarchy statistics and a
non-paper hierarchy geometry, on suite workloads and on generated
MiniC programs.  Around it: the per-trace columns every simulation of
a trace shares (built once per trace task, released with it), the
one-kernel lookup with no way to select another, the simulation unit's
store identity, the hardened ``PipelineResult.from_dict`` payload
validation, the ``repro list`` enumeration and the report's
``sim_timings``.
"""

import json
import pathlib

import pytest
from hypothesis import given, seed, settings

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
    TabularKernel,
    TraceColumns,
    default_kernel_name,
    get_kernel,
)
from repro.minic import compile_program
from repro.obs import tracing
from repro.pipeline.organizations import ByteSerialOrg, Organization
from repro.pipeline.predictor import BimodalPredictor
from repro.isa.encoding import decode, i_type
from repro.isa.opcodes import Opcode
from repro.pipeline.siginfo import _SHORT_IDS as SHORT_IDS
from repro.pipeline.siginfo import significance_column
from repro.sim import Interpreter, TraceRecord, load_program
from repro.sim.hierarchy import CacheConfig, HierarchyConfig
from repro.sim.hierarchy_model import MemoHierarchy
from repro.study.result_store import ResultStore
from repro.study.scheduler import BIMODAL_VARIANT, ResultBroker, SimUnit
from repro.study.session import ExperimentSession, TraceStore
from repro.workloads import get_workload
from repro.workloads.base import Workload

from oracles import reference_kernel
from oracles.reference_hierarchy import MemoryHierarchy
from test_minic_properties import expr_trees

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


#: A loop over generated expression trees: a data-dependent branch the
#: predictor has to learn, a multiply, and two arrays that conflict in
#: the direct-mapped L1D so misses and write-backs recur.
MINIC_LOOP = """
int small[64];
int big[4096];
int main() {
    int acc = %s;
    for (int i = 0; i < 24; i += 1) {
        small[(i * 5) & 63] = acc;
        big[(i * 520) & 4095] = acc ^ i;
        if ((acc & 3) == 1) {
            acc = acc - (%s);
        } else {
            acc = (acc + small[(i * 3) & 63] * 7) ^ (big[(i * 8) & 4095] >> 2);
        }
    }
    print_int(acc);
    return 0;
}
"""


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


def trace_minic(source):
    """The trace of one compiled MiniC program."""
    memory, machine = load_program(compile_program(source))
    interpreter = Interpreter(memory, machine, trace=True)
    interpreter.run(200_000)
    return interpreter.trace_records


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

    @seed(20001)
    @settings(max_examples=3, deadline=None)
    @given(expr_trees(depth=3), expr_trees(depth=3))
    def test_generated_minic_equals_reference(self, start, step):
        # Every organization, with and without the predictor, over one
        # set of shared columns per hierarchy geometry -- the way a
        # trace task's simulations share them.
        records = trace_minic(MINIC_LOOP % (start[0], step[0]))
        kernel = get_kernel(TABULAR_KERNEL)
        for config in (None, SMALL_HIERARCHY):
            columns = TraceColumns(records, MemoHierarchy(config))
            for organization in ALL_ORGANIZATIONS:
                for predictor in (None, BimodalPredictor()):
                    production = kernel.run_columns(
                        columns, organization, predictor is not None
                    )
                    assert production == _oracle(
                        records, organization, predictor, config
                    )

    def test_simulate_accepts_organization_names(self, diff_traces):
        records = diff_traces["synth_small"]
        assert simulate("baseline32", records) == simulate(
            get_organization("baseline32"), records
        )

    def test_simulate_takes_no_kernel_argument(self, diff_traces):
        # simulate() runs the kernel its name looks up, over a fresh
        # MemoHierarchy; it takes no kernel argument of its own.
        records = diff_traces["synth_small"]
        organization = get_organization("baseline32")
        assert simulate(organization, records) == get_kernel(
            TABULAR_KERNEL
        ).run(records, organization, MemoHierarchy())
        with pytest.raises(TypeError):
            simulate(organization, records, kernel=TABULAR_KERNEL)


# ------------------------------------------------------ per-trace columns


class TestTraceColumns:
    def test_expand_then_simulate_equals_oracle(self, diff_traces):
        # The table has one row per distinct signature, is built once per
        # organization, and expand + simulate is exactly the oracle run.
        records = diff_traces["synth_small"]
        organization = get_organization("byte_serial")
        kernel = get_kernel(TABULAR_KERNEL)
        columns = TraceColumns(records)
        table = kernel.expand(columns, organization)
        column = columns.significance(organization.scheme)
        assert len(columns) == len(records)
        assert len(table.rows) == len(column.signatures) < len(records)
        assert table.organization is organization
        assert kernel.expand(columns, organization) is table
        oracle = _oracle(records, organization)
        assert kernel.simulate(table, columns) == oracle
        assert table.stage_excess == oracle.stage_excess

    def test_significance_column_matches_oracle_signatures(self, diff_traces):
        records = diff_traces["synth_small"]
        for name in ("baseline32", "byte_serial", "halfword_serial"):
            scheme = get_organization(name).scheme
            column = significance_column(records, scheme)
            assert len(column.ids) == len(records)
            assert sum(column.histogram) == len(records)
            assert len(set(column.signatures)) == len(column.signatures)
            for sid, record in zip(column.ids, records):
                info = reference_kernel.compute_siginfo(record, scheme=scheme)
                expected = reference_kernel.signature_of(record, info)
                assert column.signatures[sid] == expected
                assert column.signatures[sid].instr == record.instr

    def test_column_widens_past_short_signature_ids(self):
        # One distinct addiu word per record: more signatures than an
        # array('H') can number, so the column switches to array('I')
        # and keeps every id it already assigned.
        records = []
        for index in range(SHORT_IDS + 8):
            imm = index & 0x7FFF
            word = i_type(Opcode.ADDIU, rt=8 + (index >> 15), imm=imm)
            record = TraceRecord(0x00400000 + 4 * index, decode(word))
            record.read_values = (0,)
            record.write_value = imm
            record.alu_kind = "add"
            record.alu_b = imm
            records.append(record)
        column = significance_column(records)
        assert column.ids.typecode == "I"
        assert len(column.signatures) == len(records)
        assert [column.signatures[sid].word for sid in column.ids] == [
            record.instr.word for record in records
        ]

    def test_prediction_column_matches_per_record_predictor(self, diff_traces):
        records = diff_traces["synth_small"]
        hits, accuracy = TraceColumns(records).prediction()
        predictor = BimodalPredictor()
        expected = [
            1 if record.instr.is_control and predictor.predict(record) else 0
            for record in records
        ]
        assert list(hits) == expected
        assert accuracy == predictor.accuracy


class TestSharedColumns:
    BIMODAL = ("baseline32", "byte_serial", "parallel_skewed_bypass")

    def test_trace_task_runs_each_pass_once(self):
        workload = get_workload("synth_small")
        units = [
            SimUnit(workload.name, 1, name) for name in ORGANIZATION_NAMES
        ] + [
            SimUnit(workload.name, 1, name, BIMODAL_VARIANT)
            for name in self.BIMODAL
        ]
        store = TraceStore()
        broker = ResultBroker(store)
        previous = tracing.current_tracer()
        tracer = tracing.start_trace()
        try:
            assert broker.run_units(units, {workload.name: workload}) == 10
        finally:
            tracing.set_tracer(previous)
        passes = [
            event for event in tracer.events_since(0)
            if event["name"].startswith("columns.")
        ]
        assert sorted(
            (event["name"], event["args"].get("scheme")) for event in passes
        ) == [
            ("columns.memory", None),
            ("columns.prediction", None),
            ("columns.significance", "block16"),
            ("columns.significance", "block32"),
            ("columns.significance", "byte3"),
        ]
        records = workload.trace()
        for event in passes:
            assert event["cat"] == "compute"
            assert event["args"]["trace"] == "synth_small@1"
            assert event["args"]["records"] == len(records)
        sims = [
            event for event in tracer.events_since(0)
            if event["name"] == "kernel.simulate"
        ]
        assert len(sims) == 10
        for unit in units:
            predictor = BimodalPredictor() if unit.variant else None
            fresh = InOrderPipeline(
                get_organization(unit.organization), predictor=predictor
            ).run(records)
            assert broker.pipeline_result(
                workload, unit.organization, variant=unit.variant
            ) == fresh
        assert len(store) == 0


# ------------------------------------------------------------------ lookup


class TestOneKernel:
    def test_only_tabular_kernel_is_reachable(self):
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

    def test_stale_kernel_env_is_inert(self, monkeypatch):
        # The old selection variable is inert.
        monkeypatch.setenv(STALE_KERNEL_ENV, "reference")
        assert default_kernel_name() == TABULAR_KERNEL
        assert isinstance(get_kernel(default_kernel_name()), TabularKernel)

    def test_bogus_stale_kernel_env_is_ignored(self, diff_traces, monkeypatch):
        # A bogus value is not validated either: nothing reads it.
        records = diff_traces["synth_small"]
        expected = simulate("baseline32", records)
        monkeypatch.setenv(STALE_KERNEL_ENV, "systolic")
        assert simulate("baseline32", records) == expected

    def test_src_names_no_kernel_selection(self):
        # No source file names a kernel-selection mechanism.
        for needle in (
            STALE_KERNEL_ENV, "register_kernel", "set_default_",
            "ReferenceKernel",
        ):
            assert src_mentions(needle) == [], needle

    def test_kernel_module_has_no_selection_api(self):
        for name in (
            "ENV_KERNEL", "REFERENCE_KERNEL", "PipelineKernel",
            "register_kernel", "kernel_names", "set_default_kernel",
            "resolve_kernel", "ReferenceKernel",
        ):
            assert not hasattr(kernel_module, name), name

    def test_kernel_is_one_shared_instance(self):
        # The one kernel is a shared, stateless instance.
        kernel = get_kernel(TABULAR_KERNEL)
        assert get_kernel(default_kernel_name()) is kernel
        assert not hasattr(InOrderPipeline(get_organization("baseline32")),
                           "kernel")

    def test_pipeline_package_exports_no_selection_api(self):
        for name in (
            "register_kernel", "kernel_names", "set_default_kernel",
            "resolve_kernel", "REFERENCE_KERNEL",
        ):
            assert not hasattr(repro.pipeline, name), name
            assert name not in repro.pipeline.__all__, name

    def test_timing_plans_are_the_only_timing_api(self, diff_traces):
        # Timing plans are the only timing API: the imperative hooks are
        # gone, and an overridden plan reaches kernel and oracle alike.
        for hook in ("address_ready", "resolution_time"):
            assert not hasattr(Organization, hook), hook

        class DecodeResolvedOrg(ByteSerialOrg):
            name = "decode_resolved"

            def resolution_plan(self, sig):
                return ("rd_end", 0)

        records = diff_traces["synth_small"]
        organization = DecodeResolvedOrg()
        production = _production(records, organization)
        assert production == _oracle(records, organization)
        assert production.stalls["branch"] < _production(
            records, get_organization("byte_serial")
        ).stalls["branch"]


# ------------------------------------------------------- simulation units


class TestSimUnitNamesNoKernel:
    def test_simunit_has_no_kernel_field(self):
        # A unit has no kernel field to default.
        assert SimUnit._fields == (
            "workload", "scale", "organization", "variant",
        )
        assert SimUnit("w", 1, "baseline32").variant is None

    def test_simunit_rejects_kernel_argument(self):
        with pytest.raises(TypeError):
            SimUnit("w", 1, "baseline32", None, "systolic")
        with pytest.raises(TypeError):
            SimUnit("w", 1, "baseline32", kernel=TABULAR_KERNEL)

    def test_descriptor_names_no_kernel(self, monkeypatch):
        # The store identity no longer names a kernel, so the stale
        # environment variable cannot change it.
        descriptor = SimUnit("w", 1, "baseline32").descriptor()
        monkeypatch.setenv(STALE_KERNEL_ENV, "reference")
        assert SimUnit("w", 1, "baseline32").descriptor() == descriptor
        assert "kernel" not in descriptor

    def test_store_path_ignores_stale_kernel_env(self, tmp_path, monkeypatch):
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


class TestCliSurface:
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

    def test_kernel_flag_is_unrecognized(self, capsys):
        # No option selects a kernel: argparse rejects --kernel.
        with pytest.raises(SystemExit) as excinfo:
            main(["fig4", "--kernel", "tabular"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --kernel" in capsys.readouterr().err

    def test_stale_kernel_env_does_not_fail_startup(self, capsys, monkeypatch):
        # Startup no longer validates the old selection variable.
        monkeypatch.setenv(STALE_KERNEL_ENV, "systolic")
        assert main(["fig4", "--workloads", "synth_small"]) == 0
        assert STALE_KERNEL_ENV not in capsys.readouterr().err

    def test_stale_kernel_env_leaves_output_identical(self, monkeypatch):
        default_out = fig4_output()
        monkeypatch.setenv(STALE_KERNEL_ENV, "reference")
        assert fig4_output() == default_out

    def test_session_takes_no_kernel(self):
        # Sessions carry no kernel at all.
        assert not hasattr(ExperimentSession(workloads=[]), "kernel")
        with pytest.raises(TypeError):
            ExperimentSession(workloads=[], kernel=TABULAR_KERNEL)

    def test_broker_takes_no_kernel_and_session_adopts_it(self):
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

    def test_json_reports_no_kernel(self, capsys):
        args = ["fig4", "--workloads", "synth_small", "--format", "json"]
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "kernel" not in payload
        # sim_timings has no per-kernel level.
        assert TABULAR_KERNEL not in payload["sim_timings"]
        assert payload["sim_timings"]["units"] == 3
