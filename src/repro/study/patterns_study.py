"""Table 1 reproduction: dynamic significant-byte pattern frequencies.

The paper records, over Mediabench operand values, how often each of the
eight significance patterns occurs, and notes that the top four (the
ones the cheaper 2-bit scheme can express) cover ~94% of values.
"""

from repro.core.patterns import PatternCounter
from repro.study.report import format_table, percent
from repro.study.scheduler import broker_for
from repro.study.walkers import counter_from_payload
from repro.workloads import mediabench_suite

#: Paper Table 1 — (pattern, percent of operand values, cumulative).
PAPER_TABLE1 = (
    ("eees", 61.3, 61.3),
    ("eess", 13.3, 74.6),
    ("ssss", 12.3, 87.2),
    ("esss", 7.1, 94.6),
    ("sses", 1.8, 96.4),
    ("sess", 1.6, 97.9),
    ("eses", 1.4, 99.2),
    ("sees", 0.8, 100.0),
)


def pattern_walk_spec(include_writes=True):
    """The walker spec this study's per-workload counting runs as."""
    return ("patterns", bool(include_writes))


def collect_pattern_counter(workloads=None, scale=1, include_writes=True, store=None):
    """Count patterns over all register operand values of the suite.

    Each workload's counts come from a :mod:`~repro.study.walkers`
    pattern walker — memoized and fused with the other pending walks —
    and merge in suite order, which reproduces the original sequential
    walk exactly.
    """
    broker = broker_for(store)
    counter = PatternCounter()
    spec = pattern_walk_spec(include_writes)
    for workload in workloads or mediabench_suite():
        payload = broker.walk_payload(workload, spec, scale=scale)
        counter.merge(counter_from_payload(payload))
    return counter


def run(workloads=None, scale=1, store=None):
    """Run the Table 1 study; returns (counter, report text)."""
    counter = collect_pattern_counter(workloads, scale, store=store)
    paper_by_pattern = {row[0]: row[1] for row in PAPER_TABLE1}
    rows = []
    for pattern, measured_pct, cumulative in counter.table():
        paper_pct = paper_by_pattern.get(pattern)
        rows.append(
            (
                pattern,
                "%.1f" % measured_pct,
                "%.1f" % cumulative,
                "-" if paper_pct is None else "%.1f" % paper_pct,
            )
        )
    text = format_table(
        ("pattern", "measured %", "cumulative %", "paper %"),
        rows,
        title="Table 1 — significant-byte pattern frequency (dynamic operands)",
    )
    summary = (
        "\n2-bit-representable fraction: %s (paper ~94%%)"
        "\naverage significant bytes/operand: %.2f"
        % (
            percent(counter.two_bit_representable_fraction()),
            counter.average_significant_bytes(),
        )
    )
    return counter, text + summary
