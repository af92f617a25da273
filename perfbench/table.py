"""The per-layer table of a traced benchmark run.

``run.py`` prints it at the end of every ``--trace 1`` run and keeps
the run's full result in ``.perfbench/last-<workload>.json``; this
module re-renders such a file, for quoting in a change description::

    python3 perfbench/table.py .perfbench/last-cold_narrow.json

Each layer row gives its self time per reproduction (the time inside
the layer's calls minus the time inside nested layer calls), its share
of the traced ``run_s``, its call count, its records per second where
the layer handles records, and the end-to-end metric and workloads the
layer is expected to move.  The unattributed remainder and the tracing
overhead follow.
"""

import json
import sys

#: Layer -> (end-to-end metric it should move, workloads it moves it on).
MOVES = {
    "pipeline.activity": ("run_s", ("cold_narrow", "edit_wide")),
    "pipeline.kernel.expand": ("run_s", ("cold_narrow", "edit_wide")),
    "pipeline.kernel.simulate": ("run_s", ("cold_narrow", "edit_wide")),
    "sim.interpreter": ("run_s", ("cold_narrow",)),
    "sim.tracefile.encode": ("run_s", ("cold_narrow",)),
    "sim.tracefile.decode": ("run_s", ("edit_wide",)),
    "study.walkers": ("run_s", ("edit_wide",)),
    "study.trace_cache.source_hash": ("run_s, run_tail_s", ("warm_replay",)),
    "study.result_store.load": ("run_s, run_tail_s", ("warm_replay",)),
    "study.result_store.store": ("run_s", ("cold_narrow", "edit_wide")),
    "study.scheduler": ("run_s", ("warm_replay",)),
    "study.session.experiments": ("run_s", ("warm_replay",)),
    "analysis.tag_table": ("run_s", ("cold_narrow", "edit_wide")),
    "workloads.compile": ("run_s", ("cold_narrow", "edit_wide")),
}


def summary_lines(detail):
    """Every end-to-end figure of a result, by name and with its unit."""
    lines = [
        "workload %s: %s" % (detail["workload"], detail["programs"]),
        "provenance %s" % json.dumps(detail["provenance"], sort_keys=True),
        "setup_s %.6f s (median of %d set-ups)"
        % (detail["setup_s"], detail["setups"]),
        "run_s %.6f s (median of %d reproductions)"
        % (detail["run_s"], detail["reproductions"]),
    ]
    if "run_tail_s" in detail:
        lines.append(
            "run_tail_s %.6f s (p%.1f of %d replays)"
            % (detail["run_tail_s"], detail["run_tail_percentile"],
               detail["reproductions"])
        )
    if "records_per_s" in detail:
        lines.append(
            "records_per_s %.1f 1/s (%d dynamic trace records)"
            % (detail["records_per_s"], detail["records"])
        )
    lines.append("peak_rss_mb %.1f MB" % detail["peak_rss_mb"])
    lines.append(
        "error_rate %.6f (%d failed of %d operations)"
        % (detail["error_rate"], detail["failed"], detail["attempted"])
    )
    lines.extend("failure: %s" % failure for failure in detail["failures"])
    lines.append("digests %s" % json.dumps(detail["digests"], sort_keys=True))
    lines.append(
        "model accuracy: unvalidated (the repository holds only shape ranges "
        "of the paper's results), so no error figure is given"
    )
    return lines


def layer_lines(detail):
    """The per-layer table of a traced result, as text lines."""
    run_s = detail["traced_run_s"]
    header = ("layer", "self s", "share", "calls", "records/s", "moves")
    rows = []
    for layer, entry in sorted(
        detail["layer_totals"].items(), key=lambda item: -item[1]["s"]
    ):
        metric, workloads = MOVES.get(layer, ("", ()))
        rows.append((
            layer,
            "%.4f" % entry["s"],
            "%.1f%%" % (100.0 * entry["s"] / run_s),
            "%g" % entry["calls"],
            "%.0f" % (entry["records"] / entry["s"])
            if entry["records"] and entry["s"] else "-",
            "%s on %s" % (metric, ", ".join(workloads)) if metric else "",
        ))
    widths = [max(len(row[i]) for row in rows + [header]) for i in range(len(header))]
    lines = [
        "per-layer, per reproduction (%g traced, run_s %.4f s):"
        % (detail["traced_reproductions"], run_s),
        "  ".join(cell.ljust(width) for cell, width in zip(header, widths)),
    ]
    lines.extend(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in rows
    )
    layers = detail["layers"]
    lines.append(
        "unattributed %.2f%% of traced run_s; tracing overhead %+.2f%% "
        "of untraced run_s"
        % (100.0 * layers["trace.unattributed_frac"],
           100.0 * layers["trace.overhead_frac"])
    )
    return lines


def main(argv=None):
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 1:
        print("usage: table.py <result json>", file=sys.stderr)
        return 2
    with open(paths[0], encoding="utf-8") as handle:
        detail = json.load(handle)
    lines = summary_lines(detail)
    if "layers" in detail:
        lines.extend(layer_lines(detail))
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
