"""Table 3 and Section 2.3 reproduction: instruction-stream statistics.

Table 3 lists the dynamic frequency of R-format function codes; the
eight most frequent get the short (3-byte) recoding.  Section 2.3
additionally quotes: 3.17 bytes fetched per instruction (3.29 with the
extension bit), ~20% fetch savings, the R/I/J format mix, 59.1% of
instructions carrying immediates with 80% of those fitting 8 bits, and
86.7% of R-format instructions needing only three bytes.
"""

from repro.core.icompress import FetchStatistics, build_recode_table
from repro.study.report import format_comparison, format_table
from repro.study.scheduler import broker_for
from repro.workloads import mediabench_suite

#: The walker spec of the per-workload fetch statistics.
FETCH_WALK = ("fetch",)

#: Section 2.3 headline numbers from the paper.
PAPER_FETCH_STATS = {
    "bytes_per_instruction": 3.17,
    "bytes_with_ext_bit": 3.29,
    "fetch_savings": 0.20,
    "r_format_share": 0.41,       # 36.9% using funct + 4.1% not
    "i_format_share": 0.569,
    "j_format_share": 0.022,
    "immediate_byte_fraction": 0.80,
    "short_r_fraction": 0.867,
}


def collect_fetch_statistics(workloads=None, scale=1, store=None):
    """Accumulate FetchStatistics over the suite's dynamic instructions.

    Each workload's statistics are one ``fetch`` walk unit (memoized,
    fused with the other pending walks, persistable), merged into the
    suite total in suite order.
    """
    broker = broker_for(store)
    stats = FetchStatistics()
    for workload in workloads or mediabench_suite():
        stats.merge(FetchStatistics.from_dict(
            broker.walk_payload(workload, FETCH_WALK, scale=scale)
        ))
    return stats


def run(workloads=None, scale=1, store=None):
    """Run the Table 3 + fetch statistics study; returns (stats, text)."""
    stats = collect_fetch_statistics(workloads, scale, store=store)
    funct_rows = []
    for funct, pct, cumulative in stats.funct_table()[:12]:
        funct_rows.append((funct.name, "%.1f" % pct, "%.1f" % cumulative))
    table3 = format_table(
        ("funct", "% of R-format", "cumulative %"),
        funct_rows,
        title="Table 3 — dynamic function-code frequency (top entries)",
    )
    recode = build_recode_table(stats.funct_counts)
    mix = stats.format_mix()
    comparison = format_comparison(
        "Section 2.3 — instruction fetch statistics (paper vs measured)",
        [
            ("bytes fetched / instruction", stats.average_bytes_per_instruction(),
             PAPER_FETCH_STATS["bytes_per_instruction"]),
            ("bytes incl. extension bit", stats.average_bytes_with_ext_bit(),
             PAPER_FETCH_STATS["bytes_with_ext_bit"]),
            ("fetch activity savings", stats.fetch_savings(),
             PAPER_FETCH_STATS["fetch_savings"]),
            ("R-format share", mix["r"], PAPER_FETCH_STATS["r_format_share"]),
            ("I-format share", mix["i"], PAPER_FETCH_STATS["i_format_share"]),
            ("J-format share", mix["j"], PAPER_FETCH_STATS["j_format_share"]),
            ("immediates fitting 8 bits", stats.immediate_byte_fraction(),
             PAPER_FETCH_STATS["immediate_byte_fraction"]),
            ("R-format needing 3 bytes", stats.short_r_fraction(),
             PAPER_FETCH_STATS["short_r_fraction"]),
        ],
    )
    profile_note = (
        "\nprofile-derived short-funct set: %s"
        % ", ".join(funct.name for funct in recode)
    )
    return stats, table3 + "\n\n" + comparison + profile_note


def profile_recode_table(workloads=None, scale=1, slots=8, store=None):
    """Derive a fresh top-N funct recode table from suite traces."""
    stats = collect_fetch_statistics(workloads, scale, store=store)
    return build_recode_table(stats.funct_counts, slots=slots)
