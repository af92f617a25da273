"""Tests for the streaming trace decode and the fused walk-unit layer.

Three contracts from the subsystem's design:

* the streaming decoder yields records byte-for-byte equal to the full
  list decoder, on every suite workload, and fails closed mid-stream on
  damage;
* the walk studies are exact: walker payloads merged per workload
  reproduce the original sequential suite walks byte-identically, cold,
  disk-warm and fused;
* the scheduler's fusion invariant: a cold ``repro all`` decodes each
  trace at most once for every walk study combined, the fused path
  never materializes a record list when it can stream, and a fully warm
  run performs zero decodes and zero walks.
"""

import itertools
import json

import pytest

from repro.cli import main
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

FAST = ("synth_small", "synth_stride")

#: Every experiment backed by walk units.
WALK_IDS = ("table1", "table2", "ablation-schemes", "future-segmentation")


def _fast_workloads():
    return [get_workload(name) for name in FAST]


def _write_structurally_truncated(path, records):
    """A trace file whose CRC is valid but whose payload lies: half the
    record stream, re-checksummed.  Only the record-level validation can
    catch it — mid-stream."""
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


@pytest.fixture()
def trace_file(tmp_path):
    records = get_workload("synth_small").trace()
    path = str(tmp_path / "stream.trace")
    tracefile.dump_trace(path, records)
    return path, records


class TestStreamingDecoder:
    @pytest.mark.parametrize(
        "workload_name", [workload.name for workload in mediabench_suite()]
    )
    def test_stream_equals_list_on_every_suite_workload(
        self, tmp_path, workload_name
    ):
        records = get_workload(workload_name).trace()
        path = str(tmp_path / ("%s.trace" % workload_name))
        tracefile.dump_trace(path, records)
        loaded, _meta = tracefile.load_trace(path)
        streamed = list(tracefile.iter_records(path))
        assert streamed == loaded
        assert streamed == records  # record-by-record, field-wise

    def test_stream_is_lazy_not_a_list(self, trace_file):
        path, records = trace_file
        stream = tracefile.iter_records(path)
        head = list(itertools.islice(stream, 5))
        assert head == records[:5]
        stream.close()  # abandoning mid-iteration releases the mmap

    def test_truncated_file_fails_closed(self, trace_file):
        path, _records = trace_file
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[: len(blob) - 7])
        with pytest.raises(tracefile.TraceCodecError):
            list(tracefile.iter_records(path))

    def test_bit_rot_fails_closed_before_first_record(self, trace_file):
        # Payload CRC is verified up front, so corruption anywhere —
        # even in the last record — raises before a record is yielded.
        path, _records = trace_file
        blob = bytearray(open(path, "rb").read())
        blob[-1] ^= 0x40
        open(path, "wb").write(bytes(blob))
        stream = tracefile.iter_records(path)
        with pytest.raises(tracefile.TraceCodecError):
            next(stream)

    def test_structural_damage_raises_mid_stream(self, trace_file):
        # A payload that passes its CRC but lies structurally must still
        # fail — at the damaged record, not by silently under-yielding.
        path, records = trace_file
        _write_structurally_truncated(path, records)
        consumed = 0
        with pytest.raises(tracefile.TraceCodecError):
            for _record in tracefile.iter_records(path):
                consumed += 1
        assert 0 < consumed < len(records)

    def test_map_payload_closes_cleanly(self, trace_file):
        path, _records = trace_file
        payload, meta, close = tracefile.map_payload(path)
        assert int(meta["records"]) > 0
        assert len(payload) == int(meta["payload_bytes"])
        close()


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
        # Byte-identical report text: storeless (direct streaming),
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

    def test_fused_path_streams_without_materializing(self, tmp_path):
        # Warm trace cache + cold result store: the fused pass must
        # stream from the compressed files and never build a record
        # list in the TraceStore.
        seed = ExperimentSession(
            workloads=_fast_workloads(), cache_dir=str(tmp_path)
        )
        seed.prepare()
        session = ExperimentSession(
            workloads=[get_workload(name) for name in FAST],
            store=TraceStore(cache=TraceCache(str(tmp_path))),
        )
        for workload in session.workloads:
            workload.clear_cache()
        session.run(WALK_IDS)
        assert len(session.store) == 0  # no full list, ever
        assert session.store.materializations == {}
        assert all(
            count == 1 for count in session.store.stream_hits.values()
        ), session.store.stream_hits
        assert all(
            count == 1 for count in session.store.decode_misses.values()
        )

    def test_damaged_cache_entry_mid_stream_falls_back(self, tmp_path):
        # CRC-valid but structurally truncated entry: the stream raises
        # mid-pass, the poisoned walkers are rebuilt, and the study
        # output still matches a clean run.
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
        # A walk group streaming inside a forked worker performs real
        # decode work; the worker's TraceStore counters die with the
        # pool, so the deltas must ride back with the results or a
        # parallel walk-only run would falsely report zero decodes.
        seed = ExperimentSession(
            workloads=_fast_workloads(), cache_dir=str(tmp_path)
        )
        seed.prepare()
        session = ExperimentSession(
            workloads=[get_workload(name) for name in FAST],
            store=TraceStore(cache=TraceCache(str(tmp_path))),
        )
        for workload in session.workloads:
            workload.clear_cache()
        session.run(WALK_IDS, jobs=4)
        assert session.store.stream_hits == {
            (name, 1): 1 for name in FAST
        }, session.store.stream_hits
        assert all(
            count == 1 for count in session.store.decode_misses.values()
        )
        assert len(session.store) == 0  # streamed in workers, no lists

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
        assert warm["trace_stream_hits"] == {}
        assert [e["text"] for e in warm["experiments"]] == [
            e["text"] for e in cold["experiments"]
        ]
