"""Tests for the fault-tolerance stack: injection, supervision, degradation.

Covers the deterministic fault injector (`repro.obs.faults`), the
supervised worker pool (`repro.study.supervisor`), the degraded-mode
behaviour of the persistent stores, temp-file hygiene under interrupts,
and the session-level guarantee the chaos CI job holds: a parallel run
with crashing workers finishes byte-identical to a clean serial run.
"""

import errno
import json
import os
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.cli import main
from repro.obs import faults
from repro.obs.faults import (
    FaultInjector,
    FaultSpecError,
    InjectedWorkerError,
    POINTS,
)
from repro.obs.metrics import MetricsRegistry
from repro.sim import tracefile
from repro.study.disk_store import WRITE_ATTEMPTS, stray_temp_files
from repro.study.result_store import ResultStore
from repro.study.scheduler import AnalysisUnit
from repro.study.session import ExperimentSession
from repro.study.supervisor import SupervisedExecutor, UnitExecutionError
from repro.study.trace_cache import TraceCache
from repro.workloads import get_workload

# Workloads cheap enough to trace in-process per test.
FAST_NAMES = ("synth_small", "synth_stride")

# Experiments that only need the fast synthetic traces.
CHEAP_IDS = ("table1", "table2")


def fast_workloads():
    return [get_workload(name) for name in FAST_NAMES]


@pytest.fixture(autouse=True)
def _no_injector_leak():
    """No test may leak a process-global injector into the next."""
    yield
    faults.install(None)


# --------------------------------------------------------------- fault specs


class TestFaultSpec:
    def test_parse_clauses_and_seed(self):
        injector = FaultInjector.parse(
            "store.write:eio@0.2, worker.task:kill@0.1 ,seed=7"
        )
        assert injector.rules == {
            "store.write": ("eio", 0.2),
            "worker.task": ("kill", 0.1),
        }
        assert injector.seed == 7

    @pytest.mark.parametrize(
        "spec, fragment",
        [
            ("nosuch.point:eio@0.5", "unknown fault point"),
            ("store.write:kill@0.5", "does not support mode"),
            ("store.write:eio@0.0", "must be in (0, 1]"),
            ("store.write:eio@1.5", "must be in (0, 1]"),
            ("store.write:eio", "not point:mode@rate"),
            ("store.write@0.5", "not point:mode@rate"),
            ("store.write:eio@half", "not point:mode@rate"),
            ("store.write:eio@0.5,store.write:eio@0.2", "named twice"),
            ("store.write:eio@0.5,seed=x", "seed must be an integer"),
            ("", "names no point:mode@rate clauses"),
            ("seed=3", "names no point:mode@rate clauses"),
        ],
    )
    def test_bad_specs_rejected(self, spec, fragment):
        with pytest.raises(FaultSpecError) as excinfo:
            FaultInjector.parse(spec)
        assert fragment in str(excinfo.value)

    def test_install_spec_rejects_before_installing(self):
        assert faults.current_injector() is None
        with pytest.raises(FaultSpecError):
            faults.install_spec("bogus")
        assert faults.current_injector() is None

    def test_default_spec_reads_environment(self, monkeypatch):
        monkeypatch.delenv(faults.ENV_FAULTS, raising=False)
        assert faults.default_spec() is None
        monkeypatch.setenv(faults.ENV_FAULTS, "")
        assert faults.default_spec() is None
        monkeypatch.setenv(faults.ENV_FAULTS, "worker.task:exc@0.5")
        assert faults.default_spec() == "worker.task:exc@0.5"

    def test_fire_rejects_unregistered_point(self):
        injector = FaultInjector.parse("store.write:eio@1.0")
        with pytest.raises(FaultSpecError):
            injector.fire("nosuch.point")

    def test_module_fire_without_injector_is_noop(self):
        assert faults.current_injector() is None
        assert faults.fire("store.write", key="anything") is None
        assert faults.describe_active() is None


class TestFaultDeterminism:
    @staticmethod
    def _outcomes(injector, keys):
        outcomes = []
        for key in keys:
            try:
                injector.fire("store.write", key=key)
                outcomes.append("pass")
            except OSError:
                outcomes.append("eio")
        return outcomes

    def test_same_spec_replays_same_failures(self):
        keys = ["a", "b", "a", "c", "a", "b"] * 4
        first = self._outcomes(FaultInjector.parse("store.write:eio@0.5,seed=9"), keys)
        second = self._outcomes(FaultInjector.parse("store.write:eio@0.5,seed=9"), keys)
        assert first == second
        assert "eio" in first and "pass" in first  # the rate actually bites

    def test_decisions_independent_of_key_interleaving(self):
        # Draws are counted per (point, key): the nth evaluation of one
        # key decides identically no matter how other keys interleave —
        # the property that makes chaos runs scheduling-independent.
        interleaved = FaultInjector.parse("store.write:eio@0.5,seed=9")
        grouped = FaultInjector.parse("store.write:eio@0.5,seed=9")
        keys = ["a", "b", "a", "b", "a", "b"]
        by_key = {"a": [], "b": []}
        for key, outcome in zip(keys, self._outcomes(interleaved, keys)):
            by_key[key].append(outcome)
        grouped_a = self._outcomes(grouped, ["a"] * 3)
        grouped_b = self._outcomes(grouped, ["b"] * 3)
        assert by_key["a"] == grouped_a
        assert by_key["b"] == grouped_b

    def test_seed_changes_decisions(self):
        keys = [str(n) for n in range(64)]
        first = self._outcomes(FaultInjector.parse("store.write:eio@0.5,seed=1"), keys)
        second = self._outcomes(FaultInjector.parse("store.write:eio@0.5,seed=2"), keys)
        assert first != second


class TestFaultModes:
    def test_eio_raises_oserror_with_eio_errno(self):
        injector = FaultInjector.parse("store.write:eio@1.0")
        with pytest.raises(OSError) as excinfo:
            injector.fire("store.write", key="entry")
        assert excinfo.value.errno == errno.EIO

    def test_exc_raises_injected_worker_error(self):
        injector = FaultInjector.parse("worker.task:exc@1.0")
        with pytest.raises(InjectedWorkerError):
            injector.fire("worker.task", key="unit#1")

    def test_corrupt_returns_mode_for_the_call_site(self):
        injector = FaultInjector.parse("trace.decode:corrupt@1.0")
        assert injector.fire("trace.decode", key="entry") == "corrupt"

    def test_unarmed_point_passes(self):
        injector = FaultInjector.parse("store.write:eio@1.0")
        assert injector.fire("store.read", key="entry") is None

    def test_fired_faults_counted_and_described(self):
        injector = FaultInjector.parse("store.write:eio@1.0,seed=4")
        for n in range(3):
            with pytest.raises(OSError):
                injector.fire("store.write", key="entry-%d" % n)
        assert injector.injected == {"store.write:eio": 3}
        summary = injector.describe()
        assert summary["spec"] == "store.write:eio@1.0,seed=4"
        assert summary["seed"] == 4
        assert summary["rules"] == {
            "store.write": {"mode": "eio", "rate": 1.0}
        }
        assert summary["injected"] == {"store.write:eio": 3}
        assert [event["key"] for event in summary["events"]] == [
            "entry-0", "entry-1", "entry-2"
        ]
        assert all(event["pid"] == os.getpid() for event in summary["events"])

    def test_bind_registry_carries_counts_over(self):
        injector = FaultInjector.parse("store.write:eio@1.0")
        with pytest.raises(OSError):
            injector.fire("store.write", key="early")
        registry = MetricsRegistry()
        injector.bind_registry(registry)
        with pytest.raises(OSError):
            injector.fire("store.write", key="late")
        values = registry.jsonable()["metrics"]["faults_injected"]["values"]
        assert values == {"store.write:eio": 2}

    def test_every_cataloged_point_names_valid_modes(self):
        # The catalog itself must parse: every (point, mode) pair is a
        # legal single-clause spec.
        for point, modes in POINTS.items():
            for mode in modes:
                FaultInjector.parse("%s:%s@1.0" % (point, mode))


# ---------------------------------------------------------------- supervisor


def _double(task):
    return task * 2


def _fail(task):
    raise ValueError("worker failure for %r" % (task,))


def _executor(worker, inline, registry, jobs=2, **kwargs):
    import multiprocessing

    kwargs.setdefault("backoff", 0.001)
    return SupervisedExecutor(
        context=multiprocessing.get_context("fork"),
        worker=worker,
        inline=inline,
        registry=registry,
        jobs=jobs,
        label_for=lambda task: "task-%d" % task,
        **kwargs,
    )


def _counter_values(registry, name):
    return registry.jsonable()["metrics"].get(name, {}).get("values", {})


class TestSupervisedExecutor:
    def test_results_in_task_order(self):
        registry = MetricsRegistry()
        executor = _executor(_double, _double, registry, jobs=3)
        tasks = list(range(10))
        assert executor.run(tasks) == [task * 2 for task in tasks]
        assert _counter_values(registry, "worker_crashes") == {}
        assert _counter_values(registry, "unit_retries") == {}

    def test_killed_workers_retry_then_quarantine(self):
        # kill@1.0 murders every forked attempt; after QUARANTINE_CRASHES
        # deaths the task runs inline, so the run still completes with
        # correct results — the core chaos guarantee.
        faults.install_spec("worker.task:kill@1.0")
        registry = MetricsRegistry()
        executor = _executor(_double, _double, registry, jobs=2)
        assert executor.run([1, 2]) == [2, 4]
        crashes = _counter_values(registry, "worker_crashes")
        assert crashes == {"task-1": 2, "task-2": 2}
        assert _counter_values(registry, "unit_quarantines") == {
            "task-1": 1, "task-2": 1
        }
        assert _counter_values(registry, "unit_retries") == {
            "task-1": 1, "task-2": 1
        }

    def test_raising_worker_falls_back_inline(self):
        # exc@1.0 makes every worker attempt raise; past max_retries the
        # task gets its guaranteed in-process attempt (no injection
        # point on the inline path) and the run completes.
        faults.install_spec("worker.task:exc@1.0")
        registry = MetricsRegistry()
        executor = _executor(_double, _double, registry, jobs=2, max_retries=1)
        assert executor.run([3]) == [6]
        assert _counter_values(registry, "unit_retries") == {"task-3": 1}
        assert _counter_values(registry, "worker_crashes") == {}

    def test_error_in_worker_and_inline_raises_unit_execution_error(self):
        registry = MetricsRegistry()
        executor = _executor(_fail, _fail, registry, jobs=1, max_retries=0)
        with pytest.raises(UnitExecutionError) as excinfo:
            executor.run([5])
        assert "task-5" in str(excinfo.value)
        assert "ValueError" in str(excinfo.value)  # worker traceback carried

    def test_hung_worker_killed_at_deadline(self):
        # hang@1.0 sleeps far past any deadline; --unit-timeout machinery
        # must kill the worker, count a crash, and quarantine after two.
        faults.install_spec("worker.task:hang@1.0")
        registry = MetricsRegistry()
        executor = _executor(
            _double, _double, registry, jobs=2, unit_timeout=0.2
        )
        started = time.monotonic()
        assert executor.run([4]) == [8]
        assert time.monotonic() - started < 30.0  # not the 3600 s hang
        assert _counter_values(registry, "worker_crashes") == {"task-4": 2}
        assert _counter_values(registry, "unit_quarantines") == {"task-4": 1}


    def test_stopped_worker_unwinds_its_trace_cache_write(
        self, tmp_path, monkeypatch
    ):
        # A worker stopped mid trace-cache write (here at --unit-timeout)
        # gets SIGTERM first, so the writer's finally removes its temp
        # file; a bare SIGKILL would leave the .tmp behind.
        cache = TraceCache(str(tmp_path))
        workload = get_workload("synth_small")
        records = workload.trace(scale=1)
        parent = os.getpid()
        dump_trace = tracefile.dump_trace

        def blocked_in_child(path, records, meta=None):
            if os.getpid() != parent:
                time.sleep(60)
            return dump_trace(path, records, meta=meta)

        monkeypatch.setattr(tracefile, "dump_trace", blocked_in_child)

        def store(task):
            return cache.store(workload, 1, records) is not None

        registry = MetricsRegistry()
        executor = _executor(store, store, registry, jobs=1, unit_timeout=1.0)
        started = time.monotonic()
        assert executor.run([1]) == [True]
        assert time.monotonic() - started < 30.0
        assert _counter_values(registry, "worker_crashes") == {"task-1": 2}
        assert stray_temp_files(str(tmp_path)) == []
        assert cache.info()["entries"] == 1


# --------------------------------------------------------- degraded stores


class TestDegradedResultStore:
    @staticmethod
    def _store_one(store):
        workload = get_workload("synth_small")
        unit = AnalysisUnit("synth_small", 1)
        return workload, unit, store.store(workload, unit, {"value": 1})

    def test_write_eio_degrades_to_in_memory(self, tmp_path, capsys):
        faults.install_spec("store.write:eio@1.0")
        store = ResultStore(str(tmp_path))
        workload, unit, path = self._store_one(store)
        assert path is None
        assert store.degraded
        assert dict(store.write_failures) == {"result_store": WRITE_ATTEMPTS}
        assert "degraded to in-memory-only" in capsys.readouterr().err
        # Degraded writes return None immediately: no further attempts.
        assert store.store(workload, unit, {"value": 2}) is None
        assert dict(store.write_failures) == {"result_store": WRITE_ATTEMPTS}
        assert list(tmp_path.iterdir()) == []  # nothing half-written

    def test_degraded_flag_lands_in_bound_registry(self, tmp_path, capsys):
        faults.install_spec("store.write:eio@1.0")
        store = ResultStore(str(tmp_path))
        self._store_one(store)
        capsys.readouterr()
        registry = MetricsRegistry()
        store.bind_registry(registry)
        metrics = registry.jsonable()["metrics"]
        assert metrics["store_degraded"]["values"] == {"result_store": 1}
        assert metrics["store_write_failures"]["values"] == {
            "result_store": WRITE_ATTEMPTS
        }

    def test_read_eio_counts_as_miss(self, tmp_path):
        store = ResultStore(str(tmp_path))
        workload, unit, path = self._store_one(store)
        assert path is not None
        assert store.load(workload, unit) == {"value": 1}
        faults.install_spec("store.read:eio@1.0")
        assert store.load(workload, unit) is None  # miss, not a crash
        faults.install(None)
        assert store.load(workload, unit) == {"value": 1}  # entry intact

    def test_transient_write_error_retried_without_degrading(self, tmp_path):
        # rate 0.34 with seed 8 fails the first attempt of this entry
        # and passes a retry within the budget: the write lands, three
        # attempts were never needed, and the store stays healthy.
        faults.install_spec("store.write:eio@0.34,seed=8")
        store = ResultStore(str(tmp_path))
        found = False
        for scale in range(1, 30):
            unit = AnalysisUnit("synth_small", scale)
            workload = get_workload("synth_small")
            path = store.store(workload, unit, {"scale": scale})
            if store.degraded:
                break
            if path is not None and dict(store.write_failures):
                found = True
                break
        assert found and not store.degraded


class TestDegradedTraceCache:
    @staticmethod
    def _records():
        return get_workload("synth_small").trace(scale=1)

    def test_write_eio_degrades_to_in_memory(self, tmp_path, capsys):
        faults.install_spec("cache.write:eio@1.0")
        cache = TraceCache(str(tmp_path))
        workload = get_workload("synth_small")
        assert cache.store(workload, 1, self._records()) is None
        assert cache.degraded
        assert dict(cache.write_failures) == {"trace_cache": WRITE_ATTEMPTS}
        assert "degraded to in-memory-only" in capsys.readouterr().err
        assert cache.store(workload, 1, self._records()) is None
        assert dict(cache.write_failures) == {"trace_cache": WRITE_ATTEMPTS}
        assert list(tmp_path.iterdir()) == []

    def test_decode_corruption_counts_as_miss(self, tmp_path):
        cache = TraceCache(str(tmp_path))
        workload = get_workload("synth_small")
        assert cache.store(workload, 1, self._records()) is not None
        faults.install_spec("trace.decode:corrupt@1.0")
        assert cache.load(workload, 1) is None
        assert not os.path.isfile(cache.path_for(workload, 1))


class TestFaultKeys:
    """Fault decisions are keyed by stable labels, not file names.

    Entry file names carry fingerprint digests; keying a decision by
    one would let a compiler or engine edit move which seeded faults
    fire (and could make a CI chaos spec pass vacuously).
    """

    @staticmethod
    def _fired_keys(cache_dir, monkeypatch):
        calls = []
        fire = faults.fire

        def recording(point, key=None):
            calls.append((point, key))
            return fire(point, key)

        monkeypatch.setattr(faults, "fire", recording)
        workload = get_workload("synth_small")
        cache = TraceCache(str(cache_dir))
        cache.store(workload, 1, workload.trace(scale=1))
        cache.load(workload, 1)
        store = ResultStore(str(cache_dir))
        unit = AnalysisUnit("synth_small", 1)
        store.store(workload, unit, {"value": 1})
        store.load(workload, unit)
        monkeypatch.setattr(faults, "fire", fire)
        return calls

    def test_keys_do_not_move_with_fingerprints(self, tmp_path, monkeypatch):
        from repro.study import result_store, trace_cache

        before = self._fired_keys(tmp_path / "a", monkeypatch)
        monkeypatch.setattr(trace_cache, "_toolchain_fingerprint", "1" * 64)
        monkeypatch.setattr(result_store, "_engine_fingerprint", "2" * 64)
        after = self._fired_keys(tmp_path / "b", monkeypatch)
        # Different fingerprints, so different entry files ...
        assert sorted(os.listdir(tmp_path / "a")) != sorted(
            os.listdir(tmp_path / "b")
        )
        # ... but the very same fault keys.
        assert before == after == [
            ("cache.write", "synth_small@1#0"),
            ("trace.decode", "synth_small@1"),
            ("store.write", "synth_small@1/analyze#0"),
            ("store.read", "synth_small@1/analyze"),
        ]

    def test_seeded_decode_decisions_are_pinned(self):
        # The CI chaos spec trace.decode:corrupt@0.5,seed=3 over its
        # four workloads: it fires on two, whatever the fingerprints.
        draws = {
            name: faults._decision(3, "trace.decode", "%s@1" % name, 0)
            for name in ("rawcaudio", "rawdaudio", "synth_small", "synth_stride")
        }
        fired = sorted(name for name, draw in draws.items() if draw < 0.5)
        assert fired == ["rawcaudio", "synth_small"]


# ------------------------------------------------------------- temp hygiene


class TestTempFileHygiene:
    def test_interrupted_cache_write_leaves_no_temp(self, tmp_path, monkeypatch):
        cache = TraceCache(str(tmp_path))
        workload = get_workload("synth_small")
        records = workload.trace(scale=1)

        def interrupted(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "replace", interrupted)
        with pytest.raises(KeyboardInterrupt):
            cache.store(workload, 1, records)
        monkeypatch.undo()
        assert stray_temp_files(str(tmp_path)) == []
        assert cache.info()["temp_files"] == 0

    def test_interrupted_result_write_leaves_no_temp(self, tmp_path, monkeypatch):
        store = ResultStore(str(tmp_path))
        workload = get_workload("synth_small")
        unit = AnalysisUnit("synth_small", 1)

        def interrupted(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "replace", interrupted)
        with pytest.raises(KeyboardInterrupt):
            store.store(workload, unit, {"value": 1})
        monkeypatch.undo()
        assert stray_temp_files(str(tmp_path)) == []
        assert store.info()["temp_files"] == 0

    def test_info_reports_and_clear_removes_strays(self, tmp_path):
        stray = tmp_path / ".synth_small@1-dead1234.tmp"
        stray.write_bytes(b"half-written")
        cache = TraceCache(str(tmp_path))
        assert cache.info()["temp_files"] == 1
        store = ResultStore(str(tmp_path))
        assert store.info()["temp_files"] == 1
        assert cache.clear() == 1
        assert not stray.exists()
        assert cache.info()["temp_files"] == 0

    def test_run_log_strays_are_reported_and_cleared(self, tmp_path, capsys):
        runs = tmp_path / "runs"
        runs.mkdir()
        stray = runs / ".run-x.tmp"
        stray.write_bytes(b"half-written manifest")
        args = ["cache", "info", "--cache-dir", str(tmp_path)]
        assert main(args + ["--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["temp_files"] == 1
        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert not stray.exists()
        assert main(args + ["--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["temp_files"] == 0

    def test_run_log_writes_through_the_shared_writer(
        self, tmp_path, monkeypatch
    ):
        from repro.obs import runlog

        def interrupted(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "replace", interrupted)
        with pytest.raises(KeyboardInterrupt):
            runlog.write_runlog(
                str(tmp_path), ["table1"], {}, MetricsRegistry()
            )
        monkeypatch.undo()
        assert stray_temp_files(runlog.runs_dir(str(tmp_path))) == []

    def test_regular_files_are_not_strays(self, tmp_path):
        (tmp_path / "entry.trace").write_bytes(b"not a temp")
        (tmp_path / "visible.tmp").write_bytes(b"no dot prefix")
        (tmp_path / ".hidden").write_bytes(b"no tmp suffix")
        assert stray_temp_files(str(tmp_path)) == []


# ------------------------------------------------------ session-level chaos


class TestSessionChaos:
    def test_chaos_parallel_run_matches_clean_serial(self):
        # The tentpole guarantee: injected worker kills must not change
        # a single output byte relative to a clean serial run.
        serial = ExperimentSession(workloads=fast_workloads())
        clean = serial.report_text(serial.run(CHEAP_IDS, jobs=1))

        faults.install_spec("worker.task:kill@0.5,seed=3")
        chaos = ExperimentSession(workloads=fast_workloads())
        faults.bind_registry(chaos.registry)
        chaotic = chaos.report_text(chaos.run(CHEAP_IDS, jobs=2))

        assert chaotic == clean
        crashes = _counter_values(chaos.registry, "worker_crashes")
        assert sum(crashes.values()) > 0  # the chaos actually happened
        retries = _counter_values(chaos.registry, "unit_retries")
        assert sum(retries.values()) >= sum(crashes.values()) - sum(
            _counter_values(chaos.registry, "unit_quarantines").values()
        )

    def test_fork_unavailable_falls_back_to_serial(self, monkeypatch, capsys):
        from repro.study import scheduler

        def no_fork(method=None):
            raise ValueError("fork start method unavailable (test)")

        monkeypatch.setattr(
            scheduler.multiprocessing, "get_context", no_fork
        )
        session = ExperimentSession(workloads=fast_workloads())
        results = session.run(CHEAP_IDS, jobs=2)
        assert len(results) == len(CHEAP_IDS)
        # Only the unit scheduler forks, so it alone degrades.
        assert _counter_values(session.registry, "parallel_fallbacks") == {
            "fork-unavailable": 1
        }
        assert "fork start method unavailable" in capsys.readouterr().err


# ------------------------------------------------------------ CLI and SIGTERM


class TestRobustnessCLI:
    def test_invalid_fault_spec_exits_2(self, capsys):
        assert main(["table1", "--inject-faults", "bogus"]) == 2
        assert "invalid --inject-faults spec" in capsys.readouterr().err

    def test_unknown_point_exits_2_with_catalog(self, capsys):
        assert main(["table1", "--inject-faults", "nosuch:eio@0.5"]) == 2
        err = capsys.readouterr().err
        assert "unknown fault point" in err
        assert "store.write" in err  # the catalog is listed

    def test_cache_and_analyze_paths_validate_spec_too(self, capsys):
        assert main(["cache", "info", "--inject-faults", "bogus"]) == 2
        assert main(["analyze", "synth_small", "--inject-faults", "bogus"]) == 2

    def test_injector_disarmed_after_run(self, capsys):
        assert (
            main(
                [
                    "table1",
                    "--workloads",
                    "synth_small",
                    "--inject-faults",
                    "worker.task:kill@0.1,seed=1",
                ]
            )
            == 0
        )
        assert faults.current_injector() is None

    def test_chaos_json_report_carries_robustness_counters(self, capsys):
        assert (
            main(
                [
                    "table1",
                    "--workloads",
                    "synth_small",
                    "--format",
                    "json",
                    "--inject-faults",
                    "trace.decode:corrupt@1.0",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        for key in (
            "unit_retries",
            "worker_crashes",
            "unit_quarantines",
            "parallel_fallbacks",
            "store_write_failures",
            "store_degraded",
            "faults_injected",
        ):
            assert key in payload, key

    def test_max_retries_and_unit_timeout_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["all", "--max-retries", "0", "--unit-timeout", "1.5"]
        )
        assert args.max_retries == 0
        assert args.unit_timeout == 1.5

    @pytest.mark.parametrize("value", ["-1", "x"])
    def test_bad_max_retries_rejected(self, value):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["all", "--max-retries", value])


class TestSigtermSafety:
    def test_sigterm_mid_parallel_run_leaves_stores_loadable(self, tmp_path):
        # A real `repro` process killed mid `--jobs 2` cold run must
        # leave the cache directory free of temp litter and loadable —
        # the next run just resumes from whatever landed.
        cache_dir = tmp_path / "cache"
        src_root = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [
                sys.executable,
                "-c",
                "import sys; from repro.cli import main; "
                "sys.exit(main(sys.argv[1:]))",
                "table2",
                "--workloads",
                "synth_small,synth_stride",
                "--jobs",
                "2",
                "--cache-dir",
                str(cache_dir),
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        time.sleep(0.6)
        process.send_signal(signal.SIGTERM)
        returncode = process.wait(timeout=60)
        # Either it finished first (0) or the SIGTERM handler converted
        # the signal into the conventional exit status.
        assert returncode in (0, 128 + signal.SIGTERM)
        if cache_dir.is_dir():
            assert stray_temp_files(str(cache_dir)) == []
            assert TraceCache(str(cache_dir)).info()["unreadable"] == 0
            assert ResultStore(str(cache_dir)).info()["unreadable"] == 0
        # The survivor state warm-starts a clean follow-up run.
        assert (
            main(
                [
                    "table2",
                    "--workloads",
                    "synth_small,synth_stride",
                    "--jobs",
                    "2",
                    "--cache-dir",
                    str(cache_dir),
                ]
            )
            == 0
        )
