"""Tests for the trace summary and the walkers that reduce it.

The heart is the differential suite: every production walker
(:mod:`repro.study.walkers`), reducing one
:class:`~repro.pipeline.trace_summary.TraceSummary`, must give a payload
JSON-identical to the original per-record walker kept in
``tests/oracles/reference_walkers.py`` — on every suite workload, on
generated MiniC programs and on hand-built edge traces of the PC
stream.  Around it: the summary pass runs once per trace under its own
span, and the block-serial PC work scales with distinct PC edges, not
with records.
"""

import json

import pytest
from hypothesis import given, seed, settings

from repro.core.pc import BlockSerialPC
from repro.minic import compile_program
from repro.obs import tracing
from repro.pipeline.activity import ActivityModel
from repro.pipeline.kernel import TraceColumns
from repro.pipeline.trace_summary import replay_pc_model, summarize
from repro.study.experiments import (
    FETCH_WALK,
    PC_EXEC_WALK,
    PC_WALK,
    SCHEME_BITS_WALK,
    SEGMENT_BITS_WALK,
)
from repro.study.patterns_study import pattern_walk_spec
from repro.study.result_store import ResultStore
from repro.study.scheduler import WalkUnit
from repro.study.session import ExperimentSession, TraceStore
from repro.study.trace_cache import TraceCache
from repro.study.walkers import WALKERS, build_walker
from repro.workloads import get_workload, mediabench_suite

from oracles import reference_walkers
from test_activity_model import (
    MINIC_TEMPLATE,
    PC_EDGE_SOURCES,
    trace_of,
    trace_program,
)
from test_minic_properties import expr_trees
from test_walkers import _write_structurally_truncated

#: Every walker kind, with the parameters the experiments use, plus the
#: reads-only pattern count.
SPECS = (
    pattern_walk_spec(True),
    pattern_walk_spec(False),
    PC_WALK,
    SCHEME_BITS_WALK,
    SEGMENT_BITS_WALK,
    PC_EXEC_WALK,
    FETCH_WALK,
)

#: Hand-built PC-stream edge cases, as assembly: the activity suite's
#: two, plus these.
EDGE_SOURCES = dict(
    PC_EDGE_SOURCES,
    # A single record: the return that ends the run.
    one_record="main:\n jr $ra\n",
    # A taken branch to pc + 4 is an increment, not a redirect.
    taken_to_next="main:\n li $t0, 2\nloop:\n beq $zero, $zero, next\n"
                  "next:\n addiu $t0, $t0, -1\n bgtz $t0, loop\n jr $ra\n",
)


def assert_payloads_match(records):
    summary = summarize(records)
    for spec in SPECS:
        production = build_walker(spec).reduce(summary)
        oracle = reference_walkers.walk(spec, records)
        assert json.dumps(production) == json.dumps(oracle), spec
    return summary


def count_pc_calls(monkeypatch):
    """Count every ``BlockSerialPC.increment``/``redirect`` call."""
    calls = {"increment": 0, "redirect": 0}
    for name in calls:
        original = getattr(BlockSerialPC, name)

        def counted(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(BlockSerialPC, name, counted)
    return calls


@pytest.fixture(scope="module")
def edge_traces():
    traces = {name: trace_of(source) for name, source in EDGE_SOURCES.items()}
    traces["empty"] = []
    return traces


class TestDifferentialAgainstOracle:
    @pytest.mark.parametrize(
        "workload", [workload.name for workload in mediabench_suite()]
    )
    def test_suite_workload_matches_oracle(self, workload):
        assert_payloads_match(get_workload(workload).trace())

    @pytest.mark.parametrize(
        "name", ["empty"] + sorted(EDGE_SOURCES)
    )
    def test_edge_trace_matches_oracle(self, edge_traces, name):
        assert_payloads_match(edge_traces[name])

    @seed(20019)
    @settings(max_examples=6, deadline=None)
    @given(expr_trees(depth=3), expr_trees(depth=3))
    def test_generated_minic_matches_oracle(self, start, factor):
        source = MINIC_TEMPLATE % (start[0], factor[0])
        assert_payloads_match(trace_program(compile_program(source)))


class TestEdgeTraces:
    def test_the_edge_traces_have_their_shape(self, edge_traces):
        # Guards the differential cases above: each trace really is
        # the PC-stream case it is named after.
        shapes = {
            name: summarize(records) for name, records in edge_traces.items()
        }
        assert shapes["empty"].records == 0
        assert shapes["empty"].final_pc is None
        assert shapes["one_record"].records == 1
        assert shapes["one_record"].prefix_increments == 1
        for name in ("empty", "one_record", "no_redirect"):
            assert shapes[name].first_target is None, name
            assert shapes[name].edges == {}, name
        assert shapes["no_redirect"].records > 1
        early = shapes["early_redirect"]
        assert early.prefix_increments == 1
        assert early.first_target == edge_traces["early_redirect"][1].pc
        # The taken branch to pc + 4 runs again after the loop's first
        # redirect, so it is an edge of the histogram: an increment.
        (branch,) = {
            record.pc for record in edge_traces["taken_to_next"]
            if record.instr.is_control and record.taken
            and record.next_pc == record.pc + 4
        }
        assert shapes["taken_to_next"].first_target == branch
        assert (branch, branch + 4) in shapes["taken_to_next"].edges

    def test_operand_histogram_keeps_first_seen_order(self):
        # A value written before it is read counts first among all
        # operands, but after every earlier read among the reads.
        records = trace_of(
            "main:\n li $t0, 7\n li $t1, 9\n addu $t2, $t1, $t0\n jr $ra\n"
        )
        summary = summarize(records)
        # li reads $zero; addu reads 9, then 7; jr reads $ra, here 0.
        assert list(summary.operand_counts().items()) == [
            (0, 3), (7, 2), (9, 2), (16, 1),
        ]
        assert list(summary.operand_counts(False).items()) == [
            (0, 3), (9, 1), (7, 1),
        ]


class TestSummaryPass:
    def test_columns_build_the_summary_once_under_a_span(self):
        records = get_workload("synth_small").trace()
        columns = TraceColumns(records, label="synth_small@1")
        previous = tracing.current_tracer()
        tracer = tracing.start_trace()
        try:
            first = columns.summary()
            assert columns.summary() is first
            for model in (ActivityModel(), ActivityModel(ext_bits_in_memory=True)):
                model.process(columns, "x")
        finally:
            tracing.set_tracer(previous)
        spans = [
            event for event in tracer.events_since(0)
            if event["name"] == "columns.summary"
        ]
        assert len(spans) == 1
        assert spans[0]["cat"] == "compute"
        assert spans[0]["args"] == {
            "trace": "synth_small@1", "records": len(records),
        }

    def test_damaged_entry_falls_back_with_one_summary_span(self, tmp_path):
        # A CRC-valid but truncated cache entry fails its decode: the
        # store materializes the trace once, and the timeline shows one
        # summary pass, over every record.
        workload = get_workload("synth_small")
        records = workload.trace()
        cache = TraceCache(str(tmp_path))
        _write_structurally_truncated(cache.store(workload, 1, records), records)
        workload.clear_cache()
        store = TraceStore(cache=cache)
        previous = tracing.current_tracer()
        tracer = tracing.start_trace()
        try:
            summary = store.columns(workload).summary()
        finally:
            tracing.set_tracer(previous)
        spans = [
            event for event in tracer.events_since(0)
            if event["name"] == "columns.summary"
        ]
        assert [span["args"]["records"] for span in spans] == [len(records)]
        assert store.materializations == {(workload.name, 1): 1}
        assert summary.execs == summarize(records).execs

    def test_registered_walkers_reduce_summaries_only(self):
        for walker in WALKERS.values():
            assert not hasattr(walker, "feed"), walker
            assert not hasattr(walker, "finish"), walker


class TestPCWorkScalesWithEdges:
    def test_pc_walker_evaluates_each_edge_once_per_block_size(
        self, monkeypatch
    ):
        records = get_workload("rawcaudio").trace()
        summary = summarize(records)
        calls = count_pc_calls(monkeypatch)
        build_walker(PC_WALK).reduce(summary)
        block_sizes = PC_WALK[1]
        assert sum(calls.values()) == len(summary.edges) * len(block_sizes)
        # A record-by-record walk calls one per record and block size.
        assert sum(calls.values()) * 100 < len(records) * len(block_sizes)

    def test_activity_pc_replays_the_prefix_and_the_edges(self, monkeypatch):
        records = get_workload("rawcaudio").trace()
        columns = TraceColumns(records)
        summary = columns.summary()
        columns.significance(ActivityModel().scheme)
        calls = count_pc_calls(monkeypatch)
        ActivityModel().process(columns, "rawcaudio")
        assert sum(calls.values()) == (
            len(summary.edges) + summary.prefix_increments + 1
        )
        assert sum(calls.values()) * 100 < len(records)

    def test_replay_from_pc_zero_is_the_record_walk(self, edge_traces):
        # The activity model's PC count: one model from PC 0, driven
        # through every record, equals the replayed summary payload.
        for name, records in edge_traces.items():
            for bits in (8, 16):
                model = BlockSerialPC(block_bits=bits)
                previous = None
                for record in records:
                    if previous is not None and record.pc != previous + 4:
                        model.redirect(record.pc)
                    else:
                        model.increment()
                    previous = record.pc
                payload = summarize(records).pc_payload((bits,))
                replayed = replay_pc_model(bits, [payload])
                assert replayed.bits_operated == model.bits_operated, name


class TestStoredPayloads:
    def test_oracle_payloads_in_the_store_load_as_disk_hits(self, tmp_path):
        # Payload layouts are unchanged: envelopes holding the
        # record-by-record walkers' payloads serve a fresh session.
        workload = get_workload("synth_small")
        records = workload.trace()
        store = ResultStore(str(tmp_path))
        units = [WalkUnit(workload.name, 1, spec) for spec in SPECS]
        for unit in units:
            store.store(
                workload, unit, unit.wrap(reference_walkers.walk(unit.walker, records))
            )
        session = ExperimentSession(workloads=[workload], cache_dir=str(tmp_path))
        for unit in units:
            payload = session.results.walk_payload(workload, unit.walker)
            assert payload == reference_walkers.walk(unit.walker, records)
        assert session.results.walk_misses == {}
        assert sum(session.results.disk_hits.values()) == len(units)
