"""Tests for the persistent trace cache and its binary codec.

Covers the significance-compressed encoding (round-trip equality with
live simulation, size-pattern equivalence with the paper's 2-bit count
scheme, compactness vs a fixed-width dump), the cache's robustness
(corrupt/truncated files fall back to re-simulation, codec version and
source-hash changes invalidate), and the cross-process contract: a warm
``repro all`` performs zero trace materializations.
"""

import errno
import json
import os

import pytest

from repro.cli import main
from repro.core.extension import TWO_BIT_SCHEME
from repro.sim import tracefile
from repro.sim.tracefile import (
    TraceCodecError,
    decode_records,
    dump_trace,
    encode_records,
    load_trace,
    significant_byte_count,
)
from repro.study.session import ExperimentSession, TraceStore
from repro.study.trace_cache import ENV_CACHE_DIR, TraceCache, source_hash
from repro.workloads import get_workload
from repro.workloads.base import Workload


def make_counting_workload(name="counted", body=None):
    """A workload whose trace materializations (simulations) are countable."""
    state = {"count": 0, "body": body or "print_int(%d)" % 7}

    def source(scale):
        state["count"] += 1
        return "int main() { %s; return 0; }" % state["body"]

    workload = Workload(name, source, lambda scale: "7", "counting")
    return workload, state


@pytest.fixture
def trace_records():
    return get_workload("synth_small").trace()


# ---------------------------------------------------------------- the codec


class TestCodec:
    def test_round_trip_equals_live_records(self, trace_records):
        payload, _naive = encode_records(trace_records)
        decoded = decode_records(payload, len(trace_records))
        assert decoded == trace_records

    def test_round_trip_covers_memory_and_control(self, trace_records):
        payload, _naive = encode_records(trace_records)
        decoded = decode_records(payload, len(trace_records))
        live_mem = [r for r in trace_records if r.mem_addr is not None]
        decoded_mem = [r for r in decoded if r.mem_addr is not None]
        assert live_mem and decoded_mem == live_mem
        assert any(r.taken for r in decoded)
        assert any(r.mem_is_store for r in decoded_mem)

    def test_encoding_smaller_than_fixed_width_dump(self, trace_records):
        payload, naive = encode_records(trace_records)
        assert len(payload) < naive

    def test_size_tags_mirror_papers_two_bit_scheme(self):
        # The per-value byte width is the 2-bit count scheme's stored
        # width: 4 bytes minus the contiguous sign-extension run.
        samples = [
            0x00000000, 0x00000001, 0x0000007F, 0x00000080, 0x000000FF,
            0x00007FFF, 0x00008000, 0x007FFFFF, 0x00800000, 0x10000009,
            0x7FFFFFFF, 0x80000000, 0xFF800000, 0xFFFF8000, 0xFFFFFF80,
            0xFFFFFFFF, 0x00400120, 0xDEADBEEF,
        ]
        for value in samples:
            expected = 4 - TWO_BIT_SCHEME.trailing_extension_count(value)
            assert significant_byte_count(value) == expected, hex(value)

    def test_empty_record_list(self):
        payload, naive = encode_records([])
        assert payload == b"" and naive == 0
        assert decode_records(payload, 0) == []

    def test_truncated_payload_rejected(self, trace_records):
        payload, _naive = encode_records(trace_records)
        with pytest.raises(TraceCodecError):
            decode_records(payload[: len(payload) // 2], len(trace_records))

    def test_trailing_garbage_rejected(self, trace_records):
        payload, _naive = encode_records(trace_records)
        with pytest.raises(TraceCodecError):
            decode_records(payload + b"\x00\x00", len(trace_records))


class TestTraceFile:
    def test_dump_load_round_trip(self, tmp_path, trace_records):
        path = tmp_path / "t.trace"
        meta = dump_trace(path, trace_records, meta={"workload": "synth_small"})
        records, loaded_meta = load_trace(path)
        assert records == trace_records
        assert loaded_meta["workload"] == "synth_small"
        assert loaded_meta["records"] == len(trace_records) == meta["records"]
        assert loaded_meta["payload_bytes"] < loaded_meta["naive_bytes"]

    def test_truncated_file_rejected(self, tmp_path, trace_records):
        path = tmp_path / "t.trace"
        dump_trace(path, trace_records)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 7])
        with pytest.raises(TraceCodecError):
            load_trace(path)

    def test_bit_rot_rejected_by_checksum(self, tmp_path, trace_records):
        path = tmp_path / "t.trace"
        dump_trace(path, trace_records)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0x40  # flip one payload bit
        path.write_bytes(bytes(blob))
        with pytest.raises(TraceCodecError):
            load_trace(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(TraceCodecError):
            load_trace(path)

    def test_read_meta_agrees_with_load_trace(self, tmp_path, trace_records):
        path = tmp_path / "t.trace"
        stored = dump_trace(path, trace_records, meta={"workload": "synth_small"})
        _records, loaded = load_trace(path)
        assert tracefile.read_meta(path) == loaded == stored
        # The header alone is enough for read_meta: a file cut inside
        # the payload still reports its meta, but never decodes.
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - stored["payload_bytes"] // 2])
        assert tracefile.read_meta(path) == stored
        with pytest.raises(TraceCodecError):
            load_trace(path)

    def test_every_container_cut_fails_closed(self, tmp_path, trace_records):
        path = tmp_path / "t.trace"
        stored = dump_trace(path, trace_records)
        blob = path.read_bytes()
        header = len(tracefile.MAGIC) + 6  # magic, u16 version, u32 length
        crc_at = len(blob) - stored["payload_bytes"] - 4
        cuts = {
            "magic": 2,
            "header": header - 1,
            "meta": (header + crc_at) // 2,
            "crc": crc_at + 2,
            "payload": crc_at + 4 + stored["payload_bytes"] // 2,
        }
        for part, cut in cuts.items():
            path.write_bytes(blob[:cut])
            with pytest.raises(TraceCodecError):
                load_trace(path)
            if part != "payload":  # the payload is not read_meta's to check
                with pytest.raises(TraceCodecError):
                    tracefile.read_meta(path)

    def test_meta_without_record_count_rejected(self, tmp_path, trace_records):
        path = tmp_path / "t.trace"
        dump_trace(path, trace_records)
        blob = path.read_bytes()
        header = len(tracefile.MAGIC) + 6
        meta_length = int.from_bytes(blob[header - 4 : header], "little")
        meta = json.loads(blob[header : header + meta_length])
        del meta["records"]
        # Pad to the original length so only the missing key is wrong.
        forged = json.dumps(meta).encode("utf-8").ljust(meta_length)
        path.write_bytes(blob[:header] + forged + blob[header + meta_length :])
        for reader in (load_trace, tracefile.read_meta):
            with pytest.raises(TraceCodecError, match="record count"):
                reader(path)

    def test_version_skew_rejected(self, tmp_path, trace_records, monkeypatch):
        path = tmp_path / "t.trace"
        dump_trace(path, trace_records)
        monkeypatch.setattr(tracefile, "CODEC_VERSION", tracefile.CODEC_VERSION + 1)
        with pytest.raises(TraceCodecError):
            load_trace(path)


# ---------------------------------------------------------------- the cache


class TestTraceCache:
    def test_miss_then_store_then_hit(self, tmp_path):
        workload, state = make_counting_workload()
        cache = TraceCache(tmp_path)
        assert cache.load(workload) is None
        records = workload.trace()
        cache.store(workload, 1, records)
        loaded = cache.load(workload)
        assert loaded == records
        assert cache.hits == {("counted", 1): 1}
        assert cache.stores == {("counted", 1): 1}

    def test_corrupt_entry_falls_back_and_is_removed(self, tmp_path):
        workload, _state = make_counting_workload()
        cache = TraceCache(tmp_path)
        cache.store(workload, 1, workload.trace())
        path = cache.path_for(workload)
        blob = bytearray(open(path, "rb").read())
        blob[-3] ^= 0xFF
        open(path, "wb").write(bytes(blob))
        assert cache.load(workload) is None  # damaged -> miss
        assert not os.path.exists(path)  # and the bad file is gone

    def test_unreadable_entry_is_a_miss_and_kept(self, tmp_path, monkeypatch):
        # An I/O error is not evidence of damage: the read is a plain
        # miss and the entry stays for the next, healthy read.
        workload, _state = make_counting_workload()
        cache = TraceCache(tmp_path)
        records = workload.trace()
        cache.store(workload, 1, records)
        path = cache.path_for(workload)

        def eio(path):
            raise OSError(errno.EIO, "injected read error", path)

        monkeypatch.setattr(tracefile, "load_trace", eio)
        assert cache.load(workload) is None
        assert os.path.isfile(path)
        monkeypatch.undo()
        assert cache.load(workload) == records
        assert cache.misses == {("counted", 1): 1}
        assert cache.hits == {("counted", 1): 1}

    def test_truncated_entry_falls_back_to_resimulation(self, tmp_path):
        workload, _state = make_counting_workload()
        cache = TraceCache(tmp_path)
        store = TraceStore(cache=cache)
        store.trace(workload)
        path = cache.path_for(workload)
        open(path, "wb").write(open(path, "rb").read()[:40])
        # Drop the workload's in-memory run: only a re-simulation can
        # serve the trace now.
        workload.clear_cache()
        fresh = TraceStore(cache=cache)
        records = fresh.trace(workload)
        assert workload.run()[1] is not None  # re-simulated: an interpreter ran
        assert fresh.materializations == {("counted", 1): 1}
        assert fresh.disk_hits == {}
        assert records == workload.trace()

    def test_codec_version_bump_invalidates(self, tmp_path, monkeypatch):
        workload, _state = make_counting_workload()
        cache = TraceCache(tmp_path)
        cache.store(workload, 1, workload.trace())
        old_path = cache.path_for(workload)
        monkeypatch.setattr(tracefile, "CODEC_VERSION", tracefile.CODEC_VERSION + 1)
        assert cache.path_for(workload) != old_path  # key includes version
        assert cache.load(workload) is None

    def test_source_built_once_per_scale(self):
        # The hash and the compiled program read one cached source text.
        workload, state = make_counting_workload()
        first = source_hash(workload)
        workload.program(1)
        assert source_hash(workload) == first
        workload.program(1)
        assert state["count"] == 1
        source_hash(workload, scale=2)
        assert state["count"] == 2
        workload.clear_cache()
        assert source_hash(workload) == first
        assert state["count"] == 3

    def test_stale_source_hash_invalidates(self, tmp_path):
        workload, state = make_counting_workload()
        cache = TraceCache(tmp_path)
        cache.store(workload, 1, workload.trace())
        assert cache.load(workload) is not None
        state["body"] = "print_int(3 + 4)"  # new kernel text, same output
        workload.clear_cache()
        assert cache.load(workload) is None  # stale entry never matches

    def test_scales_are_distinct_entries(self, tmp_path):
        workload, _state = make_counting_workload()
        cache = TraceCache(tmp_path)
        cache.store(workload, 1, workload.trace(scale=1))
        assert cache.load(workload, scale=2) is None

    def test_records_stay_identity_hashable(self, trace_records):
        # __eq__ must not cost TraceRecord its (identity) hashability.
        assert len({id(r) for r in trace_records}) == len(set(trace_records))

    def test_info_counts_header_truncated_file_as_unreadable(self, tmp_path):
        workload, _state = make_counting_workload()
        cache = TraceCache(tmp_path)
        cache.store(workload, 1, workload.trace())
        # Valid magic, header cut off mid-struct: info must not crash.
        (tmp_path / "broken@1-0000000000000000.trace").write_bytes(b"SCTC\x01")
        info = cache.info()
        assert info["entries"] == 1
        assert info["unreadable"] == 1

    def test_read_paths_do_not_create_the_directory(self, tmp_path):
        missing = tmp_path / "nope"
        cache = TraceCache(missing)
        workload, _state = make_counting_workload()
        assert cache.load(workload) is None
        assert cache.info()["entries"] == 0
        assert cache.clear() == 0
        assert not missing.exists()  # only store() creates it
        cache.store(workload, 1, workload.trace())
        assert missing.exists()

    def test_info_and_clear(self, tmp_path):
        workload, _state = make_counting_workload()
        cache = TraceCache(tmp_path)
        cache.store(workload, 1, workload.trace())
        info = cache.info()
        assert info["entries"] == 1
        assert info["records"] == len(workload.trace())
        assert 0.0 < info["ratio"] < 1.0
        assert cache.clear() == 1
        assert cache.info()["entries"] == 0


class TestTraceStoreFallthrough:
    def test_memory_disk_materialize_fallthrough(self, tmp_path):
        cache = TraceCache(tmp_path)
        workload, _state = make_counting_workload()
        cold = TraceStore(cache=cache)
        records = cold.trace(workload)
        assert cold.materializations == {("counted", 1): 1}
        assert cold.disk_hits == {}
        # Same store again: memory hit, no new counters.
        assert cold.trace(workload) is records
        assert cold.materializations == {("counted", 1): 1}
        # Fresh store, same cache dir: disk hit, zero materializations.
        warm = TraceStore(cache=cache)
        warm_records = warm.trace(workload)
        assert warm.materializations == {}
        assert warm.disk_hits == {("counted", 1): 1}
        assert warm_records == records

    def test_workload_run_threads_the_cache(self, tmp_path):
        cache = TraceCache(tmp_path)
        workload, state = make_counting_workload()
        records, interpreter = workload.run(trace_cache=cache)
        assert interpreter is not None  # simulated, then written back
        simulated = state["count"]
        fresh, _state2 = make_counting_workload()
        cached_records, cached_interpreter = fresh.run(trace_cache=cache)
        assert cached_interpreter is None  # disk hit: nothing simulated
        assert cached_records == records
        # A stricter limit than the cached record count must re-execute.
        with pytest.raises(Exception):
            fresh.run(trace_cache=cache, max_instructions=1)
        assert simulated == state["count"]  # original workload untouched

    def test_untraced_run_ignores_cache(self, tmp_path):
        cache = TraceCache(tmp_path)
        workload, _state = make_counting_workload()
        records, interpreter = workload.run(trace=False, trace_cache=cache)
        assert interpreter is not None
        assert cache.stores == {}


# ------------------------------------------------------------ CLI and session


class TestWarmSession:
    def test_warm_repro_all_materializes_nothing(self, tmp_path, capsys):
        args = [
            "table1",
            "--workloads",
            "synth_small,synth_stride",
            "--cache-dir",
            str(tmp_path),
            "--format",
            "json",
        ]
        assert main(args) == 0
        cold = json.loads(capsys.readouterr().out)
        assert main(args) == 0
        warm = json.loads(capsys.readouterr().out)
        assert sum(cold["trace_materializations"].values()) > 0
        assert sum(warm["trace_materializations"].values()) == 0
        # The warm run serves table1 from the persistent result store:
        # the walk payloads are all it needs, so no trace is decoded —
        # not even from the (warm) trace cache.
        assert warm["trace_disk_hits"] == {}
        assert warm["decode_misses"] == {}
        assert warm["walk_misses"] == {}
        assert sum(cold["walk_misses"].values()) > 0
        assert warm["trace_cache_dir"] == str(tmp_path)
        # The reports themselves are byte-identical cold vs warm.
        assert [e["text"] for e in warm["experiments"]] == [
            e["text"] for e in cold["experiments"]
        ]

    def test_session_rejects_store_plus_cache_dir(self, tmp_path):
        with pytest.raises(ValueError):
            ExperimentSession(store=TraceStore(), cache_dir=str(tmp_path))

    def test_env_var_supplies_default_cache_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path))
        assert main(["table1", "--workloads", "synth_small"]) == 0
        capsys.readouterr()
        assert TraceCache(tmp_path).info()["entries"] == 1

    def test_cache_dir_flag_overrides_env(self, tmp_path, monkeypatch, capsys):
        env_dir = tmp_path / "env"
        flag_dir = tmp_path / "flag"
        monkeypatch.setenv(ENV_CACHE_DIR, str(env_dir))
        args = [
            "table1", "--workloads", "synth_small", "--cache-dir", str(flag_dir),
        ]
        assert main(args) == 0
        capsys.readouterr()
        assert TraceCache(flag_dir).info()["entries"] == 1
        assert not env_dir.exists() or TraceCache(env_dir).info()["entries"] == 0


class TestCacheCli:
    def _populate(self, cache_dir, capsys):
        args = [
            "table1",
            "--workloads",
            "synth_small",
            "--cache-dir",
            str(cache_dir),
        ]
        assert main(args) == 0
        capsys.readouterr()

    def test_info_reports_compression_ratio(self, tmp_path, capsys):
        self._populate(tmp_path, capsys)
        assert main(["cache", "info", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries: 1" in out
        assert "compression ratio: 0." in out
        assert "smaller than a fixed-width dump" in out

    def test_info_json(self, tmp_path, capsys):
        self._populate(tmp_path, capsys)
        args = ["cache", "info", "--cache-dir", str(tmp_path), "--format", "json"]
        assert main(args) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["entries"] == 1
        assert 0.0 < info["ratio"] < 1.0
        assert info["encoded_bytes"] < info["naive_bytes"]

    def test_clear_empties_the_cache(self, tmp_path, capsys):
        # table1 persists one trace plus its pattern-walk result entry.
        self._populate(tmp_path, capsys)
        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 2 cache entries (1 traces, 1 results)" in (
            capsys.readouterr().out
        )
        assert TraceCache(tmp_path).info()["entries"] == 0

    def test_cache_without_directory_exits_2(self, capsys, monkeypatch):
        monkeypatch.delenv(ENV_CACHE_DIR, raising=False)
        assert main(["cache", "info"]) == 2
        assert ENV_CACHE_DIR in capsys.readouterr().err
