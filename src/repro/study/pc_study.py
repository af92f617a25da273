"""Table 2 reproduction: PC-update activity and latency vs block size.

Two parts: the analytic model (exactly the numbers printed in the paper)
and a measured column from running the block-serial PC over the real PC
streams of the workload suite — showing how taken branches erode the
sequential-only savings (Table 5's 73.3% vs the analytic 87%).
"""

from repro.core.pc import expected_activity_bits, expected_latency_cycles
from repro.study.report import format_table, percent
from repro.study.scheduler import broker_for
from repro.pipeline.trace_summary import replay_pc_model
from repro.workloads import mediabench_suite

#: The paper's Table 2 rows for the block sizes that divide 32.
PAPER_TABLE2 = {
    1: (2.0000, 2.0000),
    2: (2.6667, 1.3333),
    4: (4.2667, 1.0667),
    8: (8.0314, 1.0039),
}

#: Block sizes the study sweeps (and the shared walk-unit parameter).
DEFAULT_BLOCK_SIZES = (1, 2, 4, 8, 16, 32)


def pc_walk_spec(block_sizes=DEFAULT_BLOCK_SIZES):
    """The walker spec this study's per-workload measurement runs as."""
    return ("pc", tuple(block_sizes))


def measure_pc_streams(block_sizes=DEFAULT_BLOCK_SIZES, workloads=None,
                       scale=1, store=None):
    """Drive BlockSerialPC models of every block size with the suite's
    real PC streams; returns ``{block_bits: model}``.

    Each workload's records are resolved **once** and feed all block
    sizes simultaneously (the pre-walker implementation re-resolved the
    trace per block size, six decodes per workload); per-workload
    walker payloads then replay through one suite-level model per block
    size, reproducing the sequential walk exactly.
    """
    block_sizes = tuple(block_sizes)
    spec = pc_walk_spec(block_sizes)
    broker = broker_for(store)
    payloads = [
        broker.walk_payload(workload, spec, scale=scale)
        for workload in workloads or mediabench_suite()
    ]
    return {
        block_bits: replay_pc_model(block_bits, payloads)
        for block_bits in block_sizes
    }


def measure_pc_stream(block_bits, workloads=None, scale=1, store=None):
    """Drive a BlockSerialPC with the suite's real PC streams."""
    return measure_pc_streams((block_bits,), workloads, scale, store=store)[
        block_bits
    ]


def run(workloads=None, scale=1, block_sizes=DEFAULT_BLOCK_SIZES, store=None):
    """Run the Table 2 study; returns (rows, report text)."""
    measured_models = measure_pc_streams(block_sizes, workloads, scale,
                                         store=store)
    rows = []
    for block_bits in block_sizes:
        activity = expected_activity_bits(block_bits)
        latency = expected_latency_cycles(block_bits)
        paper = PAPER_TABLE2.get(block_bits)
        measured = measured_models[block_bits]
        rows.append(
            (
                block_bits,
                "%.4f" % activity,
                "-" if paper is None else "%.4f" % paper[0],
                "%.4f" % latency,
                "-" if paper is None else "%.4f" % paper[1],
                "%.2f" % measured.average_bits_per_update(),
                percent(measured.activity_savings()),
            )
        )
    text = format_table(
        (
            "block bits",
            "activity (analytic)",
            "paper",
            "latency (analytic)",
            "paper",
            "bits/update (real PC stream)",
            "savings vs 32b",
        ),
        rows,
        title="Table 2 — PC update activity/latency vs block size",
    )
    return rows, text
