"""Tests for the trace decode and the fused walk-unit layer.

Three contracts from the subsystem's design:

* the codec round-trips: ``load_trace`` of a dumped trace gives back
  the records, field for field, on every suite workload and on
  generated MiniC programs, and fails closed on damage;
* the walk studies are exact: walker payloads merged per workload
  reproduce the original sequential suite walks byte-identically, cold,
  disk-warm and fused;
* the scheduler's fusion invariant: a cold ``repro all`` decodes each
  trace at most once for every walk study combined, a walk-only run on
  a trace-warm cache decodes each trace once from disk, and a fully
  warm run performs zero decodes and zero walks.
"""

import json
import os

import pytest
from hypothesis import given, seed, settings

from repro.cli import main
from repro.minic import compile_program
from repro.obs import tracing
from repro.sim import tracefile
from repro.study import pc_study
from repro.study.scheduler import WalkUnit
from repro.study.session import ExperimentSession, TraceStore
from repro.study.trace_cache import TraceCache
from repro.study.walkers import (
    WALK_VERSION,
    build_walker,
    unwrap_payload,
    wrap_payload,
)
from repro.workloads import get_workload, mediabench_suite

from test_activity_model import MINIC_TEMPLATE, trace_program
from test_minic_properties import expr_trees

FAST = ("synth_small", "synth_stride")

#: Every experiment backed by walk units.
WALK_IDS = ("table1", "table2", "ablation-schemes", "future-segmentation")


def _fast_workloads():
    return [get_workload(name) for name in FAST]


def _write_structurally_truncated(path, records):
    """A trace file whose CRC is valid but whose payload lies: half the
    record stream, re-checksummed.  Only the record-level validation can
    catch it."""
    import struct
    import zlib

    payload, _naive = tracefile.encode_records(records)
    half = payload[: len(payload) // 2]
    meta_blob = json.dumps(
        {"codec_version": tracefile.CODEC_VERSION, "records": len(records)}
    ).encode()
    with open(path, "wb") as handle:
        handle.write(tracefile.MAGIC)
        handle.write(struct.pack("<HI", tracefile.CODEC_VERSION, len(meta_blob)))
        handle.write(meta_blob)
        handle.write(struct.pack("<I", zlib.crc32(half)))
        handle.write(half)


def _round_trip(directory, records):
    """``load_trace`` of ``records`` dumped into ``directory``."""
    path = str(directory / "round.trace")
    tracefile.dump_trace(path, records)
    loaded, meta = tracefile.load_trace(path)
    assert meta["records"] == len(records)
    return loaded


@pytest.fixture()
def trace_file(tmp_path):
    records = get_workload("synth_small").trace()
    path = str(tmp_path / "decode.trace")
    tracefile.dump_trace(path, records)
    return path, records


class TestTraceDecode:
    @pytest.mark.parametrize(
        "workload_name", [workload.name for workload in mediabench_suite()]
    )
    def test_round_trip_on_every_suite_workload(self, tmp_path, workload_name):
        records = get_workload(workload_name).trace()
        # Record by record, field-wise.
        assert _round_trip(tmp_path, records) == records

    @seed(20021)
    @settings(max_examples=6, deadline=None)
    @given(expr_trees(depth=3), expr_trees(depth=3))
    def test_round_trip_on_generated_programs(
        self, tmp_path_factory, start, factor
    ):
        source = MINIC_TEMPLATE % (start[0], factor[0])
        records = trace_program(compile_program(source))
        directory = tmp_path_factory.mktemp("generated")
        assert _round_trip(directory, records) == records

    def test_bit_rot_fails_closed(self, trace_file):
        # The payload CRC is verified before decoding, so corruption
        # anywhere — even in the last record — is caught.
        path, _records = trace_file
        blob = bytearray(open(path, "rb").read())
        blob[-1] ^= 0x40
        open(path, "wb").write(bytes(blob))
        with pytest.raises(tracefile.TraceCodecError, match="checksum"):
            tracefile.load_trace(path)

    def test_structural_damage_fails_closed(self, trace_file):
        # A payload that passes its CRC but lies structurally must still
        # fail, not decode to a shorter trace.
        path, records = trace_file
        _write_structurally_truncated(path, records)
        with pytest.raises(tracefile.TraceCodecError):
            tracefile.load_trace(path)

    def test_cache_drops_a_structurally_damaged_entry(self, tmp_path):
        workload = get_workload("synth_small")
        cache = TraceCache(str(tmp_path))
        records = workload.trace()
        path = cache.store(workload, 1, records)
        _write_structurally_truncated(path, records)
        assert cache.load(workload, 1) is None
        assert cache.misses == {(workload.name, 1): 1}
        assert cache.hits == {}
        assert not os.path.isfile(path)


class TestWalkerEnvelope:
    def test_round_trip(self):
        spec = ("patterns", True)
        data = {"x": 1}
        assert unwrap_payload(spec, wrap_payload(spec, data)) == data

    def test_version_skew_rejected(self):
        spec = ("patterns", True)
        payload = wrap_payload(spec, {})
        payload["version"] = WALK_VERSION + 1
        with pytest.raises(ValueError):
            unwrap_payload(spec, payload)

    def test_foreign_walker_rejected(self):
        payload = wrap_payload(("patterns", True), {})
        with pytest.raises(ValueError):
            unwrap_payload(("patterns", False), payload)

    def test_unknown_spec_rejected(self):
        with pytest.raises(ValueError):
            build_walker(("voltage",))
        with pytest.raises(ValueError):
            WalkUnit("w", 1, ("voltage",))


class TestWalkStudyExactness:
    def test_pc_walker_replay_matches_sequential_walk(self):
        # The Table 2 contract: one shared model threaded through the
        # suite sequentially vs per-workload payloads replayed in order.
        workloads = _fast_workloads()
        models = pc_study.measure_pc_streams(workloads=workloads)
        for block_bits, model in models.items():
            direct = pc_study.measure_pc_stream(
                block_bits, workloads=workloads
            )
            for attr in ("updates", "blocks_touched", "cycles", "redirects",
                         "pc"):
                assert getattr(model, attr) == getattr(direct, attr)

    def test_measure_pc_streams_resolves_each_trace_once(self):
        # The satellite fix: all block sizes from a single record
        # stream, instead of one trace resolution per block size.
        store = TraceStore()
        workloads = _fast_workloads()
        pc_study.measure_pc_streams(workloads=workloads, store=store)
        assert all(
            count == 1 for count in store.decode_misses.values()
        ), store.decode_misses
        assert len(store.decode_misses) == len(workloads)

    def test_walk_experiments_match_pre_walker_output(self, tmp_path):
        # Byte-identical report text: storeless (direct),
        # broker-fused cold, and result-store warm must all agree.
        from repro.study.experiments import run_experiment

        direct = {
            name: run_experiment(name, workloads=_fast_workloads())
            for name in WALK_IDS
        }
        cold = ExperimentSession(
            workloads=_fast_workloads(), cache_dir=str(tmp_path)
        )
        cold_texts = {r.id: r.text for r in cold.run(WALK_IDS)}
        warm = ExperimentSession(
            workloads=_fast_workloads(), cache_dir=str(tmp_path)
        )
        warm_texts = {r.id: r.text for r in warm.run(WALK_IDS)}
        assert cold_texts == direct
        assert warm_texts == direct
        assert warm.results.walk_misses == {}


class TestFusedScheduling:
    def test_cold_run_decodes_each_trace_at_most_once(self):
        # The acceptance criterion: across every walk-based study of one
        # session, each (workload, scale) trace is produced exactly once.
        session = ExperimentSession(workloads=_fast_workloads())
        session.run(WALK_IDS)
        assert all(
            count == 1 for count in session.store.decode_misses.values()
        ), session.store.decode_misses
        assert len(session.store.decode_misses) == len(FAST)
        # 5 specs per workload (patterns, pc, scheme_bits, segment_bits,
        # pc_exec) computed, every re-request memo-served.
        assert sum(session.results.walk_misses.values()) == 5 * len(FAST)

    def test_walk_only_run_decodes_each_trace_once(self, tmp_path):
        # Warm trace cache + cold result store: a walk-only run decodes
        # each trace once from disk, summarizes it once, simulates
        # nothing and releases every record list.
        warmup = ExperimentSession(
            workloads=_fast_workloads(), cache_dir=str(tmp_path)
        )
        warmup.prepare()
        session = ExperimentSession(
            workloads=[get_workload(name) for name in FAST],
            store=TraceStore(cache=TraceCache(str(tmp_path))),
        )
        for workload in session.workloads:
            workload.clear_cache()
        previous = tracing.current_tracer()
        tracer = tracing.start_trace()
        try:
            session.run(WALK_IDS)
        finally:
            tracing.set_tracer(previous)
        assert len(session.store) == 0  # released at the end of each task
        assert session.store.materializations == {}
        expected = {(name, 1): 1 for name in FAST}
        assert session.store.disk_hits == expected, session.store.disk_hits
        assert session.store.decode_misses == expected
        summaries = sorted(
            event["args"]["trace"] for event in tracer.events
            if event["name"] == "columns.summary"
        )
        assert summaries == ["%s@1" % name for name in sorted(FAST)]

    def test_damaged_cache_entry_falls_back(self, tmp_path):
        # CRC-valid but structurally truncated entry: the decode fails
        # closed, the trace is re-simulated, and the study output still
        # matches a clean run.
        workload = get_workload("synth_small")
        cache = TraceCache(str(tmp_path))
        records = workload.trace()
        path = cache.store(workload, 1, records)
        _write_structurally_truncated(path, records)
        workload.clear_cache()
        session = ExperimentSession(
            workloads=[workload], store=TraceStore(cache=cache)
        )
        (result,) = session.run(["table1"])
        clean = ExperimentSession(workloads=[workload]).run(["table1"])[0]
        assert result.text == clean.text
        # The damaged entry was removed and the trace re-simulated.
        assert session.store.materializations == {(workload.name, 1): 1}

    def test_walk_group_span_notes_records_fed(self):
        workloads = _fast_workloads()
        tracer = tracing.start_trace()
        try:
            ExperimentSession(workloads=workloads).run(["table1"])
        finally:
            tracing.set_tracer(None)
        fed = {
            event["name"]: event["args"]["records"]
            for event in tracer.events
            if event["name"].startswith("walk.group:")
        }
        assert fed == {
            "walk.group:%s@1" % workload.name: len(workload.trace())
            for workload in workloads
        }

    def test_parallel_walk_groups_match_serial(self, tmp_path):
        serial = ExperimentSession(workloads=_fast_workloads())
        serial_text = serial.report_text(serial.run(WALK_IDS, jobs=1))
        parallel = ExperimentSession(workloads=_fast_workloads())
        parallel_text = parallel.report_text(parallel.run(WALK_IDS, jobs=4))
        assert parallel_text == serial_text

    def test_forked_walk_groups_ship_decode_counters_back(self, tmp_path):
        # A walk group decoding inside a forked worker performs real
        # work; the worker's TraceStore counters die with the pool, so
        # the deltas must ride back with the results or a parallel
        # walk-only run would falsely report zero decodes.
        warmup = ExperimentSession(
            workloads=_fast_workloads(), cache_dir=str(tmp_path)
        )
        warmup.prepare()
        session = ExperimentSession(
            workloads=[get_workload(name) for name in FAST],
            store=TraceStore(cache=TraceCache(str(tmp_path))),
        )
        for workload in session.workloads:
            workload.clear_cache()
        session.run(WALK_IDS, jobs=4)
        assert session.store.disk_hits == {
            (name, 1): 1 for name in FAST
        }, session.store.disk_hits
        assert all(
            count == 1 for count in session.store.decode_misses.values()
        )
        assert len(session.store) == 0  # decoded in workers, not here

    def test_walk_units_persist_and_report_by_kind(self, tmp_path, capsys):
        args = [
            "table1",
            "--workloads",
            "synth_small",
            "--cache-dir",
            str(tmp_path),
        ]
        assert main(args) == 0
        capsys.readouterr()
        assert main(["cache", "info", "--cache-dir", str(tmp_path),
                     "--format", "json"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["results"]["kinds"].get("walk:patterns", 0) >= 1

    def test_warm_cli_reports_zero_walks_and_decodes(self, tmp_path, capsys):
        args = [
            "all",
            "--workloads",
            "synth_small",
            "--cache-dir",
            str(tmp_path),
            "--format",
            "json",
        ]
        assert main(args) == 0
        cold = json.loads(capsys.readouterr().out)
        assert main(args) == 0
        warm = json.loads(capsys.readouterr().out)
        assert sum(cold["walk_misses"].values()) > 0
        assert warm["walk_misses"] == {}
        assert warm["decode_misses"] == {}
        assert [e["text"] for e in warm["experiments"]] == [
            e["text"] for e in cold["experiments"]
        ]
