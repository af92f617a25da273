"""Benchmark: regenerate the Section 5 byte-serial bottleneck analysis.

Paper: the EX stage is the dominant bottleneck (72% of stalls), which
motivates the 3/2/2/1 semi-parallel widths.  The per-stage bandwidth
numbers (fetch ~3.2 bytes, ALU ~2.7, memory ~2.8) are asserted in
``tests/test_paper_results.py``.
"""

from repro.pipeline import simulate


def test_bottleneck_analysis(benchmark, traces):
    def run():
        totals = {}
        instructions = 0
        for records in traces.values():
            result = simulate("byte_serial", records)
            for stage, value in result.stage_excess.items():
                totals[stage] = totals.get(stage, 0) + value
            instructions += result.instructions
        return totals, instructions

    totals, instructions = benchmark.pedantic(run, rounds=1, iterations=1)
    assert max(totals, key=totals.get) == "ex"
