"""Tables 5 and 6 reproduction: per-benchmark activity savings.

The Section 2.9 trace-driven study: for every workload, the percent
reduction in switching activity at each pipeline stage under byte
(Table 5) or halfword (Table 6) granularity significance compression.
"""

from repro.core.extension import BYTE_SCHEME, HALFWORD_SCHEME
from repro.pipeline.activity import STAGES, ActivityModel, _average_report
from repro.study.report import format_table
from repro.study.scheduler import broker_for
from repro.workloads import mediabench_suite

#: The paper's Table 5 AVG row (byte granularity), in STAGES order.
PAPER_TABLE5_AVG = {
    "fetch": 18.2,
    "rf_read": 46.5,
    "rf_write": 42.1,
    "alu": 33.2,
    "dcache_data": 30.1,
    "dcache_tag": 0.9,
    "pc": 73.3,
    "latches": 42.2,
}

#: The paper's Table 6 AVG row (halfword granularity).
PAPER_TABLE6_AVG = {
    "fetch": 18.2,
    "rf_read": 35.9,
    "rf_write": 30.3,
    "alu": 22.1,
    "dcache_data": 23.4,
    "dcache_tag": 0.0,
    "pc": 46.7,
    "latches": 34.9,
}

_HEADERS = (
    "benchmark",
    "fetch",
    "RF read",
    "RF write",
    "ALU",
    "D$ data",
    "D$ tag",
    "PC",
    "latches",
)


def suite_reports(model, workloads, scale=1, store=None):
    """Per-workload reports of ``model`` and their AVG row (Tables 5, 6).

    Each per-workload report comes from the result broker: memoized
    within a session and, with a persistent result store, on disk
    across processes.
    """
    broker = broker_for(store)
    reports = [
        broker.activity_report(model, workload, scale=scale)
        for workload in workloads
    ]
    return reports, _average_report("AVG", reports)


def run(scheme=BYTE_SCHEME, workloads=None, scale=1, store=None):
    """Run the activity study; returns (reports, average, text)."""
    workloads = workloads or mediabench_suite()
    reports, average = suite_reports(
        ActivityModel(scheme=scheme), workloads, scale=scale, store=store
    )
    paper_avg = PAPER_TABLE5_AVG if scheme is BYTE_SCHEME else (
        PAPER_TABLE6_AVG if scheme is HALFWORD_SCHEME else None
    )
    rows = []
    for report in reports:
        rows.append([report.name] + ["%.1f" % value for value in report.row()])
    rows.append(["AVG"] + ["%.1f" % value for value in average.row()])
    if paper_avg is not None:
        rows.append(
            ["paper AVG"] + ["%.1f" % paper_avg[stage] for stage in STAGES]
        )
    table_number = "5" if scheme.block_bits == 8 else "6"
    text = format_table(
        _HEADERS,
        rows,
        title="Table %s — activity reduction %% per stage (%s granularity)"
        % (table_number, "byte" if scheme.block_bits == 8 else "halfword"),
    )
    return reports, average, text
