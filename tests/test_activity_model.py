"""Tests for the Section 2.9 activity accounting.

The heart is the differential suite: the production
:class:`~repro.pipeline.activity.ActivityModel` (memoized per value,
ALU operation and instruction word; line fills counted on the memoized
L1D) must produce an :class:`~repro.pipeline.activity.ActivityReport`
equal, field for field, to the reference model in
``tests/oracles/reference_activity.py`` (the original per-record loop
over the full reference ``MemoryHierarchy``) — over fixed workloads and
over generated MiniC programs, under every configuration the studies
use.
"""

import inspect

import pytest
from hypothesis import given, seed, settings

from repro.asm import assemble
from repro.core.compress import get_scheme
from repro.core.extension import BYTE_SCHEME, HALFWORD_SCHEME
from repro.minic import compile_program
from repro.obs import tracing
from repro.pipeline.activity import STAGES, ActivityModel, ActivityReport, _average_report
from repro.sim import Interpreter, load_program
from repro.workloads import get_workload

from oracles import reference_activity
from test_kernels import src_mentions
from test_minic_properties import expr_trees


def trace_of(source, max_instructions=200_000):
    return trace_program(assemble(source), max_instructions)


def trace_program(program, max_instructions=200_000):
    memory, machine = load_program(program)
    interpreter = Interpreter(memory, machine, trace=True)
    interpreter.run(max_instructions)
    return interpreter.trace_records


class TestReportMechanics:
    def test_savings_math(self):
        report = ActivityReport(
            "x",
            {stage: 100 for stage in STAGES},
            {stage: 60 for stage in STAGES},
            10,
        )
        assert report.savings("fetch") == pytest.approx(0.4)
        assert report.savings_percent("alu") == pytest.approx(40.0)
        assert len(report.row()) == len(STAGES)

    def test_zero_baseline_yields_zero_savings(self):
        report = ActivityReport("x", {stage: 0 for stage in STAGES},
                                {stage: 0 for stage in STAGES}, 0)
        assert report.savings("fetch") == 0.0

    def test_average_report_weights_by_bits(self):
        a = ActivityReport("a", {s: 100 for s in STAGES}, {s: 50 for s in STAGES}, 1)
        b = ActivityReport("b", {s: 300 for s in STAGES}, {s: 300 for s in STAGES}, 1)
        avg = _average_report("AVG", [a, b])
        assert avg.savings("alu") == pytest.approx((100 - 50) / 400 + 0.0 * 300 / 400)


class TestActivityOnSyntheticCode:
    def test_narrow_values_save_everywhere(self):
        source = "main:\n" + "\n".join(
            "addiu $t0, $zero, %d\naddu $t1, $t0, $t0" % (i % 100)
            for i in range(200)
        ) + "\njr $ra\n"
        report = ActivityModel().process(trace_of(source))
        assert report.savings("rf_read") > 0.5
        assert report.savings("rf_write") > 0.5
        assert report.savings("alu") > 0.5
        assert report.savings("pc") > 0.6

    def test_wide_values_save_little_in_datapath(self):
        # Destinations avoid $t1 so the wide source value never decays.
        source = "main:\n li $t1, 0x12345678\n" + "\n".join(
            "addu $t%d, $t1, $t1" % (2 + i % 4) for i in range(300)
        ) + "\njr $ra\n"
        report = ActivityModel().process(trace_of(source))
        # Wide operands: RF and ALU savings collapse toward the
        # extension-bit overhead (slightly negative is possible).
        assert report.savings("rf_read") < 0.15
        assert report.savings("alu") < 0.15
        # Fetch savings persist (they depend on code, not data).
        assert report.savings("fetch") > 0.05

    def test_extension_overhead_can_go_negative(self):
        # A stream of full-width register writes costs 32+3 bits vs 32.
        source = "main:\n" + "\n".join(
            "li $t%d, 0x7bcdef%02d" % (i % 4, i % 100) for i in range(100)
        ) + "\njr $ra\n"
        report = ActivityModel().process(trace_of(source))
        assert report.savings("rf_write") < 0.05

    def test_memory_activity_counted(self):
        source = """
        .data
        buf: .space 256
        .text
        main:
            la $t8, buf
            li $t9, 50
        loop:
            sw $t9, 0($t8)
            lw $t0, 0($t8)
            addiu $t9, $t9, -1
            bgtz $t9, loop
            jr $ra
        """
        report = ActivityModel().process(trace_of(source))
        assert report.baseline["dcache_data"] > 0
        assert report.savings("dcache_data") > 0.3  # small stored values

    def test_tag_savings_negligible(self):
        source = """
        .data
        buf: .space 64
        .text
        main:
            la $t8, buf
            li $t9, 30
        loop:
            lw $t0, 0($t8)
            addiu $t9, $t9, -1
            bgtz $t9, loop
            jr $ra
        """
        report = ActivityModel().process(trace_of(source))
        assert -0.05 <= report.savings("dcache_tag") < 0.35

    def test_halfword_scheme_saves_less(self):
        source = "main:\n" + "\n".join(
            "addiu $t0, $zero, %d\naddu $t1, $t0, $t0" % (i % 90)
            for i in range(150)
        ) + "\njr $ra\n"
        records = trace_of(source)
        byte_report = ActivityModel(scheme=BYTE_SCHEME).process(records)
        half_report = ActivityModel(scheme=HALFWORD_SCHEME).process(records)
        for stage in ("rf_read", "rf_write", "alu"):
            assert byte_report.savings(stage) >= half_report.savings(stage) - 0.02

    def test_instruction_count_recorded(self):
        records = trace_of("main:\n li $t0, 1\n jr $ra\n")
        report = ActivityModel().process(records)
        assert report.instructions == len(records)

    def test_compressed_never_negative_bits(self):
        records = trace_of("main:\n li $t0, 1\n jr $ra\n")
        report = ActivityModel().process(records)
        for stage in STAGES:
            assert report.compressed[stage] >= 0
            assert report.baseline[stage] >= 0


# ------------------------------------------------------- differential suite

DIFF_WORKLOADS = ("synth_small", "rawcaudio", "synth_stride", "synth_wide", "pegwit")

#: (scheme, ext_bits_in_memory): the Table 5, Table 6 and Section 1
#: memory-extension configurations.
DIFF_CONFIGS = (("byte3", False), ("block16", False), ("byte3", True))

#: A loop whose operands come from generated expression trees, with two
#: arrays that conflict in the direct-mapped L1D so line fills recur.
MINIC_TEMPLATE = """
int small[64];
int big[4096];
int main() {
    int acc = %s;
    for (int i = 0; i < 64; i += 1) {
        small[(i * 5) & 63] = acc;
        big[(i * 520) & 4095] = acc ^ i;
        acc = (acc + small[(i * 3) & 63] * (%s)) ^ (big[(i * 8) & 4095] >> 2);
    }
    print_int(acc);
    return 0;
}
"""


@pytest.fixture(scope="module")
def diff_traces():
    return {name: get_workload(name).trace() for name in DIFF_WORKLOADS}


def assert_matches_oracle(records, name, scheme_name, ext_bits_in_memory):
    scheme = get_scheme(scheme_name)
    production = ActivityModel(scheme, ext_bits_in_memory).process(records, name)
    oracle = reference_activity.process(records, name, scheme, ext_bits_in_memory)
    assert production.to_dict() == oracle.to_dict()
    assert production == oracle


class TestDifferentialAgainstOracle:
    @pytest.mark.parametrize("scheme_name,ext_bits_in_memory", DIFF_CONFIGS)
    @pytest.mark.parametrize("workload", DIFF_WORKLOADS)
    def test_workload_matches_oracle(
        self, diff_traces, workload, scheme_name, ext_bits_in_memory
    ):
        assert_matches_oracle(
            diff_traces[workload], workload, scheme_name, ext_bits_in_memory
        )

    @seed(20001)
    @settings(max_examples=6, deadline=None)
    @given(expr_trees(depth=3), expr_trees(depth=3))
    def test_generated_minic_matches_oracle(self, start, factor):
        source = MINIC_TEMPLATE % (start[0], factor[0])
        records = trace_program(compile_program(source))
        for scheme_name, ext_bits_in_memory in DIFF_CONFIGS:
            assert_matches_oracle(records, "minic", scheme_name, ext_bits_in_memory)


class TestOneActivityModel:
    def test_constructor_takes_scheme_and_memory_flag_only(self):
        parameters = list(inspect.signature(ActivityModel).parameters)
        assert parameters == ["scheme", "ext_bits_in_memory"]

    def test_config_key_is_scheme_and_memory_flag(self):
        assert ActivityModel().config_key() == ("byte3", False)
        assert ActivityModel(HALFWORD_SCHEME, True).config_key() == ("block16", True)

    def test_reference_paths_left_src(self):
        for needle in (
            "MemoryHierarchy", "AccessResult", "static_tags",
            "_standard_config", "model.latch_boundaries",
        ):
            assert src_mentions(needle) == [], needle

    def test_process_runs_under_a_compute_span(self):
        records = trace_of("main:\n li $t0, 1\n jr $ra\n")
        previous = tracing.current_tracer()
        tracer = tracing.start_trace()
        try:
            ActivityModel().process(records)
        finally:
            tracing.set_tracer(previous)
        spans = [
            event for event in tracer.events_since(0)
            if event.get("name") == "activity.process"
        ]
        assert len(spans) == 1
        assert spans[0]["cat"] == "compute"
        assert spans[0]["args"] == {"scheme": "byte3", "records": len(records)}
