"""Figures 4, 6, 8, 10 and the Section 5 bottleneck analysis.

Each figure in the paper is a per-benchmark CPI bar chart comparing one
or more compressed organizations against the 32-bit baseline; here each
becomes a table of CPI values plus the suite average overhead, side by
side with the paper's quoted average.
"""

from repro.study.report import format_bar_chart, format_table, percent
from repro.study.scheduler import broker_for
from repro.workloads import mediabench_suite

#: Figure id -> (organizations shown, paper's average CPI overhead).
FIGURES = {
    "fig4": (("byte_serial", "halfword_serial"), {"byte_serial": 0.79, "halfword_serial": 0.31}),
    "fig6": (
        ("byte_serial", "byte_semi_parallel"),
        {"byte_serial": 0.79, "byte_semi_parallel": 0.24},
    ),
    "fig8": (("parallel_skewed",), {"parallel_skewed": 0.04}),
    "fig10": (
        ("parallel_compressed", "parallel_skewed_bypass"),
        {"parallel_compressed": 0.06, "parallel_skewed_bypass": 0.02},
    ),
}


def collect_cpis(organizations, workloads=None, scale=1, store=None):
    """CPI per (workload, organization), baseline included.

    Returns (names, table) where table maps organization -> list of CPI
    values aligned with names.
    """
    workloads = workloads or mediabench_suite()
    broker = broker_for(store)
    names = [workload.name for workload in workloads]
    table = {"baseline32": []}
    for organization in organizations:
        table[organization] = []
    for workload in workloads:
        for organization in table:
            table[organization].append(
                broker.pipeline_result(workload, organization, scale=scale).cpi
            )
    return names, table


def run_figure(figure, workloads=None, scale=1, store=None):
    """Reproduce one figure; returns (names, table, text)."""
    if figure not in FIGURES:
        raise KeyError("unknown figure %r (have %s)" % (figure, sorted(FIGURES)))
    organizations, paper_overheads = FIGURES[figure]
    names, table = collect_cpis(organizations, workloads, scale, store=store)
    rows = []
    for index, name in enumerate(names):
        row = [name, "%.3f" % table["baseline32"][index]]
        for organization in organizations:
            row.append("%.3f" % table[organization][index])
        rows.append(row)
    baseline_avg = sum(table["baseline32"]) / len(names)
    avg_row = ["AVG", "%.3f" % baseline_avg]
    overhead_rows = []
    for organization in organizations:
        avg = sum(table[organization]) / len(names)
        avg_row.append("%.3f" % avg)
        overhead = avg / baseline_avg - 1
        overhead_rows.append(
            (
                organization,
                percent(overhead),
                percent(paper_overheads.get(organization, 0.0)),
            )
        )
    rows.append(avg_row)
    headers = ["benchmark", "baseline32"] + list(organizations)
    text = format_table(headers, rows, title="Figure %s — CPI per benchmark" % figure[3:])
    text += "\n\n" + format_table(
        ("organization", "avg CPI overhead", "paper"),
        overhead_rows,
    )
    # Per-benchmark bars for the headline organization, mirroring the
    # paper's figure layout.
    headline = organizations[-1]
    bars = [(name, table[headline][index]) for index, name in enumerate(names)]
    bars.append(("AVG", sum(table[headline]) / len(names)))
    text += "\n\n" + format_bar_chart(
        "%s CPI per benchmark (baseline avg %.3f)" % (headline, baseline_avg),
        bars,
    )
    return names, table, text


def run_bottleneck(workloads=None, scale=1, store=None):
    """Section 5: stage bandwidth demand of the byte-serial pipeline."""
    workloads = workloads or mediabench_suite()
    broker = broker_for(store)
    totals = {}
    instructions = 0
    for workload in workloads:
        result = broker.pipeline_result(workload, "byte_serial", scale=scale)
        for stage, value in result.stage_excess.items():
            totals[stage] = totals.get(stage, 0) + value
        instructions += result.instructions
    total_excess = sum(totals.values())
    rows = []
    for stage in ("if", "rd", "ex", "mem", "wb"):
        share = totals.get(stage, 0) / total_excess if total_excess else 0.0
        demand = totals.get(stage, 0) / instructions + 1.0
        rows.append((stage.upper(), "%.2f" % demand, percent(share)))
    text = format_table(
        ("stage", "avg cycles (bytes) / instr", "share of excess demand"),
        rows,
        title=(
            "Section 5 — byte-serial bandwidth demand per stage\n"
            "(paper: EX is the bottleneck, 72%% of stalls; ~3.2B fetch, "
            "2.7B ALU, ~2.8B per memory access)"
        ),
    )
    return totals, text
