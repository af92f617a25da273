"""Benchmark: the experiment session engine.

Not a paper artifact — tracks the cost structure the engine exists to
improve: cold-cache runs (trace materialization dominates) vs warm-cache
runs (analysis only), disk-warm runs (traces decoded from the
significance-compressed persistent cache instead of simulated),
analysis-warm runs (pipeline/activity results served from the
persistent result store instead of recomputed), decode throughput of
the trace codec (full-list vs record-at-a-time streaming), the fused
trace-walk studies cold vs warm, serial vs parallel scheduling of
independent experiments over a shared, pre-materialized TraceStore,
raw simulation throughput of the production pipeline,
classification throughput of the memoized memory hierarchy, and static
tag-table build throughput with the static-byte vs byte2 stored-bits
ratio tracked alongside (compile-time tags vs dynamic 2-bit tags).
"""

import multiprocessing
import time

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.pipeline import InOrderPipeline, get_organization
from repro.sim import tracefile
from repro.sim.hierarchy_model import MemoHierarchy
from repro.study.session import ExperimentSession, TraceStore
from repro.study.supervisor import SupervisedExecutor
from repro.study.trace_cache import TraceCache
from repro.workloads import get_workload

#: Trace-analysis experiments only, so the engine overhead is visible.
RUNNER_IDS = ("table1", "table2", "table3")

#: Cheap synthetic workloads: cold-cache rounds stay affordable.
RUNNER_WORKLOADS = ("synth_small", "synth_stride")

#: Organizations timed by the simulation throughput case — the cheap
#: baseline and the occupancy-heavy serial machine bracket the range.
KERNEL_BENCH_ORGANIZATIONS = ("baseline32", "byte_serial")

_KERNEL_BENCH_TRACES = None


def _workloads():
    return [get_workload(name) for name in RUNNER_WORKLOADS]


def _metrics_extra_info(benchmark, **facts):
    """Attach a case's facts both flat and in the shared metrics schema.

    The flat ``extra_info`` keys stay (the rate comments below compute
    from them); ``extra_info["metrics"]`` carries the same facts as a
    versioned :meth:`~repro.obs.metrics.MetricsRegistry.jsonable`
    snapshot, so the benchmark JSON artifact and the run manifests under
    ``<cache_dir>/runs/`` share one machine-readable schema.
    """
    registry = MetricsRegistry()
    for name, value in sorted(facts.items()):
        benchmark.extra_info[name] = value
        registry.gauge("bench_" + name, "benchmark case fact").set(
            benchmark.name, value
        )
    benchmark.extra_info["metrics"] = registry.jsonable()


def _kernel_bench_traces():
    """The throughput workload traces, materialized once per session."""
    global _KERNEL_BENCH_TRACES
    if _KERNEL_BENCH_TRACES is None:
        _KERNEL_BENCH_TRACES = [
            workload.trace() for workload in _workloads()
        ]
    return _KERNEL_BENCH_TRACES


def test_runner_cold_cache(benchmark):
    def run_cold():
        workloads = _workloads()
        for workload in workloads:
            workload.clear_cache()
        session = ExperimentSession(workloads=workloads)
        return session.run(RUNNER_IDS)

    results = benchmark.pedantic(run_cold, rounds=1, iterations=1)
    assert [result.id for result in results] == list(RUNNER_IDS)


def test_runner_warm_cache(benchmark):
    session = ExperimentSession(workloads=_workloads())
    session.prepare(RUNNER_IDS)

    results = benchmark.pedantic(
        lambda: session.run(RUNNER_IDS), rounds=3, iterations=1
    )
    assert all(count == 1 for count in session.store.materializations.values())
    assert len(results) == len(RUNNER_IDS)


def test_runner_disk_warm(benchmark, tmp_path):
    # Populate the persistent cache once, then measure runs whose traces
    # come from decoding cache files rather than simulation.
    cache = TraceCache(tmp_path)
    ExperimentSession(
        workloads=_workloads(), store=TraceStore(cache=cache)
    ).prepare(RUNNER_IDS)

    def run_disk_warm():
        workloads = _workloads()
        for workload in workloads:
            workload.clear_cache()
        session = ExperimentSession(
            workloads=workloads, store=TraceStore(cache=cache)
        )
        return session.run(RUNNER_IDS)

    results = benchmark.pedantic(run_disk_warm, rounds=3, iterations=1)
    assert len(results) == len(RUNNER_IDS)


def test_runner_analysis_warm(benchmark, tmp_path):
    # Populate the shared cache directory (traces + results) once, then
    # measure sessions whose CPI study performs zero simulations: every
    # PipelineResult comes from the persistent result store.
    ExperimentSession(workloads=_workloads(), cache_dir=str(tmp_path)).run(
        ["fig4"]
    )

    def run_analysis_warm():
        workloads = _workloads()
        for workload in workloads:
            workload.clear_cache()
        session = ExperimentSession(workloads=workloads, cache_dir=str(tmp_path))
        results = session.run(["fig4"])
        assert session.results.sim_misses == {}  # zero simulations
        return results

    results = benchmark.pedantic(run_analysis_warm, rounds=3, iterations=1)
    assert len(results) == 1


def test_kernel_sim_throughput(benchmark):
    # Sims-per-second of the production pipeline (instructions simulated
    # per round lands in extra_info, so rate = instructions / mean).
    traces = _kernel_bench_traces()
    organizations = [get_organization(name) for name in KERNEL_BENCH_ORGANIZATIONS]

    def run():
        instructions = 0
        for organization in organizations:
            for records in traces:
                result = InOrderPipeline(organization).run(records)
                instructions += result.instructions
        return instructions

    instructions = benchmark.pedantic(run, rounds=3, iterations=1)
    _metrics_extra_info(benchmark, instructions_per_round=instructions)
    assert instructions > 0


def test_hierarchy_sim_throughput(benchmark):
    # Trace-classifications-per-second of the memoized hierarchy: each
    # round drives every trace through a fresh hierarchy state via the
    # batch classify_block API (exactly one simulation's worth of
    # hierarchy work per trace; rate = accesses_per_round / mean).
    traces = _kernel_bench_traces()

    def run():
        accesses = 0
        for records in traces:
            MemoHierarchy().classify_block(records)
            accesses += len(records)
        return accesses

    accesses = benchmark.pedantic(run, rounds=3, iterations=1)
    _metrics_extra_info(benchmark, accesses_per_round=accesses)
    assert accesses > 0


#: Workloads timed by the static-analyzer throughput case: the smallest
#: and largest compiled programs bracket the CFG-size range.
ANALYZER_BENCH_WORKLOADS = ("rawcaudio", "cjpeg")


@pytest.mark.parametrize("workload_name", ANALYZER_BENCH_WORKLOADS)
def test_analyzer_throughput(benchmark, workload_name):
    # Instructions statically analyzed per second: one full pass (CFG +
    # significance fixpoint + all lints) over the assembled program.
    # rate = instructions / mean, from extra_info in the JSON artifact.
    from repro.analysis import analyze_program

    program = get_workload(workload_name).program()

    def run():
        return analyze_program(program)

    summary = benchmark.pedantic(run, rounds=3, iterations=1)
    instructions = summary["cfg"]["instructions"]
    _metrics_extra_info(
        benchmark, workload=workload_name, instructions_per_round=instructions
    )
    assert summary["lints"]["total"] == 0
    assert instructions > 0


@pytest.mark.parametrize("workload_name", ANALYZER_BENCH_WORKLOADS)
def test_static_tagging_throughput(benchmark, workload_name):
    # Tag-table build throughput (the interprocedural analysis plus the
    # per-PC reshape), with the static-byte vs byte2 stored-bits ratio
    # tracked in extra_info: static charges every executed operand its
    # proven compile-time width with zero tag bits, byte2 charges the
    # dynamic minimal width plus 2 tag bits.  Ratio drifting up means
    # the analysis got looser; drifting down means tighter bounds.
    from repro.analysis.tag_table import build_tag_table, static_scheme_totals
    from repro.core.extension import TWO_BIT_SCHEME

    workload = get_workload(workload_name)
    program = workload.program()
    records = workload.trace()
    exec_counts = {}
    byte2_bits = 0
    dynamic_values = 0
    for record in records:
        exec_counts[record.pc] = exec_counts.get(record.pc, 0) + 1
        for value in record.read_values:
            byte2_bits += TWO_BIT_SCHEME.stored_bits(value)
            dynamic_values += 1
        if record.write_value is not None:
            byte2_bits += TWO_BIT_SCHEME.stored_bits(record.write_value)
            dynamic_values += 1

    def run():
        return build_tag_table(program)

    table = benchmark.pedantic(run, rounds=3, iterations=1)
    totals = static_scheme_totals(table, sorted(exec_counts.items()))
    assert totals["missing"] == 0  # every executed pc is statically tagged
    ratio = totals["bits"] / float(byte2_bits)
    _metrics_extra_info(
        benchmark,
        workload=workload_name,
        static_bits_per_round=totals["bits"],
        byte2_bits_per_round=byte2_bits,
        static_vs_byte2_ratio=round(ratio, 4),
    )
    assert totals["values"] > 0
    assert byte2_bits > 0


#: Experiments backed by walk units: the fused-streaming studies.
WALK_IDS = ("table1", "table2", "ablation-schemes", "future-segmentation")


def _trace_file(tmp_path):
    """One persisted trace file (and its record count) for decode cases."""
    records = get_workload(RUNNER_WORKLOADS[0]).trace()
    path = str(tmp_path / "bench.trace")
    tracefile.dump_trace(path, records)
    return path, len(records)


def test_decode_throughput_list(benchmark, tmp_path):
    # Full-list decode: what every multi-pass consumer (the pipeline
    # kernels) pays.  records/s = records_per_round / mean.
    path, count = _trace_file(tmp_path)

    def run():
        records, _meta = tracefile.load_trace(path)
        return len(records)

    decoded = benchmark.pedantic(run, rounds=3, iterations=1)
    _metrics_extra_info(benchmark, records_per_round=decoded)
    assert decoded == count


def test_decode_throughput_stream(benchmark, tmp_path):
    # Streaming decode: what the fused walk path pays — same records,
    # no list, mmap-backed payload view.
    path, count = _trace_file(tmp_path)

    def run():
        decoded = 0
        for _record in tracefile.iter_records(path):
            decoded += 1
        return decoded

    decoded = benchmark.pedantic(run, rounds=3, iterations=1)
    _metrics_extra_info(benchmark, records_per_round=decoded)
    assert decoded == count


def test_walk_studies_cold(benchmark, tmp_path):
    # The fused cold path: traces persisted, walk results not — every
    # round streams each trace once for all four walk studies combined.
    ExperimentSession(
        workloads=_workloads(), cache_dir=str(tmp_path / "seed")
    ).prepare()

    def run_cold():
        workloads = _workloads()
        for workload in workloads:
            workload.clear_cache()
        session = ExperimentSession(workloads=workloads, cache_dir=str(tmp_path / "seed"))
        results = session.run(WALK_IDS)
        assert session.store.materializations == {}
        session.results.store.clear()  # next round walks cold again
        return results

    results = benchmark.pedantic(run_cold, rounds=3, iterations=1)
    assert len(results) == len(WALK_IDS)


def test_walk_studies_warm(benchmark, tmp_path):
    # The fully warm path: walk payloads come from the result store;
    # zero decodes, zero walks.
    ExperimentSession(workloads=_workloads(), cache_dir=str(tmp_path)).run(
        WALK_IDS
    )

    def run_warm():
        workloads = _workloads()
        for workload in workloads:
            workload.clear_cache()
        session = ExperimentSession(workloads=workloads, cache_dir=str(tmp_path))
        results = session.run(WALK_IDS)
        assert session.results.walk_misses == {}
        assert session.store.decode_misses == {}
        return results

    results = benchmark.pedantic(run_warm, rounds=3, iterations=1)
    assert len(results) == len(WALK_IDS)


# The old parallel path, reconstructed for comparison: one Pool whose
# forked workers inherit the broker through an initializer global, and a
# bare map with no supervision.  (These lived in repro.study.scheduler
# until the supervised executor replaced them.)
_POOL_BROKER = None


def _pool_worker_init(broker):
    global _POOL_BROKER
    _POOL_BROKER = broker


def _pool_worker_run(task):
    return _POOL_BROKER._shipped_compute(task)


def _best_of(run, rounds=3):
    """Minimum wall seconds over ``rounds`` executions of ``run``."""
    best = None
    for _ in range(rounds):
        start = time.perf_counter()
        run()
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best


def test_supervised_executor_overhead(benchmark):
    # The supervised executor (per-task forks, crash detection, retry
    # bookkeeping) vs the old bare pool.map it replaced, over the same
    # pending sim tasks on a warm trace store.  Fault-free supervision
    # must cost < 5% wall clock — the price of crash recovery is paid
    # only when something crashes.
    from repro.pipeline.organizations import ALL_ORGANIZATIONS
    from repro.study.scheduler import SimUnit

    jobs = 2
    session = ExperimentSession(workloads=_workloads())
    session.prepare()  # warm traces in the parent; workers inherit them
    broker = session.results
    for workload in _workloads():
        broker._register(workload)
    tasks = [
        SimUnit(workload.name, 1, organization.name)
        for workload in _workloads()
        for organization in ALL_ORGANIZATIONS
    ]

    def run_pool():
        context = multiprocessing.get_context("fork")
        with context.Pool(
            processes=jobs,
            initializer=_pool_worker_init,
            initargs=(broker,),
        ) as pool:
            return pool.map(_pool_worker_run, tasks)

    def run_supervised():
        executor = SupervisedExecutor(
            context=multiprocessing.get_context("fork"),
            worker=broker._shipped_compute,
            inline=broker._inline_compute,
            registry=broker.registry,
            jobs=jobs,
            label_for=broker._task_label,
        )
        return executor.run(tasks)

    pool_best = _best_of(run_pool)
    supervised_best = _best_of(run_supervised)
    shipped = benchmark.pedantic(run_supervised, rounds=3, iterations=1)
    supervised_best = min(
        supervised_best, min(benchmark.stats.stats.data)
    )
    ratio = supervised_best / pool_best
    _metrics_extra_info(
        benchmark,
        tasks_per_round=len(tasks),
        pool_map_best_seconds=round(pool_best, 4),
        supervised_best_seconds=round(supervised_best, 4),
        supervised_vs_pool_ratio=round(ratio, 4),
    )
    assert len(shipped) == len(tasks)
    assert all(payload is not None for payload in shipped)
    assert ratio < 1.05, (
        "supervised executor regressed %.1f%% over bare pool.map"
        % ((ratio - 1.0) * 100.0)
    )


def test_runner_serial(benchmark):
    session = ExperimentSession(workloads=_workloads())
    session.prepare(RUNNER_IDS)

    results = benchmark.pedantic(
        lambda: session.run(RUNNER_IDS, jobs=1), rounds=1, iterations=1
    )
    assert len(results) == len(RUNNER_IDS)


def test_runner_parallel(benchmark):
    session = ExperimentSession(workloads=_workloads())
    session.prepare(RUNNER_IDS)
    serial_text = session.report_text(session.run(RUNNER_IDS, jobs=1))

    results = benchmark.pedantic(
        lambda: session.run(RUNNER_IDS, jobs=4), rounds=1, iterations=1
    )
    assert session.report_text(results) == serial_text
