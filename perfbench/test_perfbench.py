"""Tests of the benchmark's own parts: kernels, self times, wrappers.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

import pytest

import seeded
import spans
from repro.obs import tracing
from repro.pipeline.kernel import default_kernel_name
from repro.study import result_store, trace_cache

KERNELS = (seeded.narrow_kernel, seeded.wide_kernel)
SEEDS = (seeded.DEFAULT_SEED, seeded.HELD_OUT_SEED)


@pytest.mark.parametrize("make_kernel", KERNELS)
def test_kernels_are_deterministic_per_seed(make_kernel):
    for seed in SEEDS:
        assert make_kernel(seed).source(1) == make_kernel(seed).source(1)
        assert make_kernel(seed).expected_output(1) == make_kernel(seed).expected_output(1)
    assert make_kernel(SEEDS[0]).source(1) != make_kernel(SEEDS[1]).source(1)


@pytest.mark.parametrize("make_kernel", KERNELS)
@pytest.mark.parametrize("seed", SEEDS)
def test_kernel_reference_matches_simulator(make_kernel, seed):
    workload = make_kernel(seed)
    assert workload.verify(1)
    # "A few tens of thousands" of dynamic instructions.
    assert 10_000 <= len(workload.trace(1)) <= 60_000


def _span(layer, start, end):
    return spans.Span(layer, start, end, 0, 0, ())


def test_self_times_subtract_direct_children_only():
    tree = [
        _span("study.scheduler", 0.0, 10.0),
        _span("pipeline.activity", 1.0, 4.0),
        _span("sim.interpreter", 2.0, 3.0),       # nested in activity
        _span("pipeline.kernel.expand", 5.0, 9.0),
        _span("workloads.compile", 11.0, 12.0),   # a second root
        _span("sim.tracefile.decode", 12.0, 12.0000005),  # starts as it ends
    ]
    got = {span.layer: seconds for span, seconds in spans.self_times(tree)}
    assert got == pytest.approx({
        "study.scheduler": 10.0 - 3.0 - 4.0,
        "pipeline.activity": 3.0 - 1.0,
        "sim.interpreter": 1.0,
        "pipeline.kernel.expand": 4.0,
        "workloads.compile": 1.0,
        "sim.tracefile.decode": 0.0000005,
    })
    totals = spans.layer_totals(tree + [_span("sim.interpreter", 6.0, 6.5)])
    assert totals["sim.interpreter"]["calls"] == 2
    assert totals["sim.interpreter"]["s"] == pytest.approx(1.5)
    assert totals["pipeline.kernel.expand"]["s"] == pytest.approx(3.5)
    assert sum(entry["s"] for entry in totals.values()) == pytest.approx(11.0)


def test_self_times_tolerate_timestamp_rounding():
    # A child whose end reads a rounding step past its parent's end is
    # still its child, not a sibling.
    tree = [_span("study.walkers", 1.0, 2.0), _span("sim.tracefile.decode", 1.5, 2.0000001)]
    got = {span.layer: seconds for span, seconds in spans.self_times(tree)}
    assert got["study.walkers"] == pytest.approx(0.5, abs=1e-6)


def _originals():
    return {
        (owner, attribute): getattr(owner, attribute)
        for _layer, owner, attribute, _measure in spans._targets(default_kernel_name())
    }


def test_wrappers_are_removed_after_the_traced_run():
    before = _originals()
    previous = tracing.current_tracer()
    bound = result_store.source_hash
    workload = seeded.narrow_kernel(seeded.DEFAULT_SEED)
    with spans.LayerProbe(default_kernel_name()) as probe:
        assert trace_cache.source_hash is not before[(trace_cache, "source_hash")]
        assert result_store.source_hash is trace_cache.source_hash
        assert tracing.current_tracer() is not None
        trace_cache.source_hash(workload)
        workload.program(1)
        recorded = probe.take()
    assert sorted(span.layer for span in recorded) == [
        "study.trace_cache.source_hash", "workloads.compile",
    ]
    assert _originals() == before
    assert result_store.source_hash is bound
    assert tracing.current_tracer() is previous
    # Untraced calls now run the unpatched code and record nothing.
    trace_cache.source_hash(workload)
    workload.clear_cache()
    workload.program(1)
    assert probe.spans == []


def test_wrappers_are_removed_when_the_run_raises():
    before = _originals()
    previous = tracing.current_tracer()
    with pytest.raises(RuntimeError):
        with spans.LayerProbe(default_kernel_name()):
            raise RuntimeError("reproduction failed")
    assert _originals() == before
    assert tracing.current_tracer() is previous


def test_program_walk_group_span_is_read_as_the_walkers_layer():
    with spans.LayerProbe(default_kernel_name()) as probe:
        with tracing.span("walk.group:demo@1", "compute") as handle:
            pass
        with tracing.span("trace.stream", "compute"):
            pass
        recorded = probe.take()
        assert probe.take() == []
    assert [span.layer for span in recorded] == ["study.walkers"]
    assert recorded[0].end - recorded[0].start == pytest.approx(handle.seconds, abs=1e-6)
