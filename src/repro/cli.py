"""Command-line interface: ``repro <experiment> [options]``.

Examples::

    repro list                      # experiments, organizations, workloads, kernels
    repro list --format json        # the same enumeration for scripts
    repro table5                    # reproduce Table 5 on the full suite
    repro fig4 --scale 2            # larger inputs
    repro table1 --workloads rawcaudio,cjpeg
    repro all                       # every table and figure in sequence
    repro all --jobs 4              # same output, analysis units in parallel
    repro all --format json         # machine-readable report
    repro all --kernel reference    # same output, oracle simulation backend
    repro all --hierarchy reference # same output, oracle memory hierarchy
    repro all --cache-dir .cache    # persist traces + results across processes
    repro all --trace-out run.json  # Chrome trace-event timeline (Perfetto)
    repro all --jobs 4 --inject-faults 'worker.task:kill@0.1,seed=7'
                                    # chaos run: same output, injected crashes
    repro cache info                # trace-cache and result-store statistics
    repro cache clear               # drop every cached trace and result
    repro cache clear --results     # drop cached results, keep traces
    repro analyze rawcaudio         # static CFG/significance/lint summary
    repro analyze --format json     # the whole suite, machine-readable
    repro analyze --crosscheck      # also validate bounds against traces

The persistent cache directory (shared by the trace cache and the
result store) defaults to the ``REPRO_CACHE_DIR`` environment variable;
``--cache-dir`` overrides it.  The simulation backend defaults to the
``REPRO_KERNEL`` environment variable; ``--kernel`` overrides it.  The
memory-hierarchy backend defaults to ``REPRO_HIERARCHY``;
``--hierarchy`` overrides it.

``--trace-out FILE`` (every subcommand) records a Chrome trace-event
timeline of the run — session phases, broker batches, per-unit cache
resolution and raw compute spans — viewable in Perfetto or
``chrome://tracing``.  Cache-backed runs additionally write a manifest
(config, engine fingerprints, final metrics snapshot) under
``<cache_dir>/runs/``; ``repro cache info`` reports them.

``--inject-faults SPEC`` (every subcommand; default ``$REPRO_FAULTS``)
arms the deterministic fault-injection harness of
:mod:`repro.obs.faults` for the run — worker kills, store ``EIO``,
cache bit rot — exercising the supervision and degraded-mode machinery
documented in ``docs/ROBUSTNESS.md``.  ``--max-retries`` and
``--unit-timeout`` tune the supervised unit executor under ``--jobs``.
"""

import argparse
import json
import signal
import sys

from repro.obs import faults, runlog, tracing
from repro.pipeline.kernel import (
    ENV_KERNEL,
    default_kernel_name,
    get_kernel,
    kernel_names,
)
from repro.sim.hierarchy_model import (
    ENV_HIERARCHY,
    default_hierarchy_name,
    get_hierarchy,
    hierarchy_names,
)
from repro.study.experiments import EXPERIMENTS
from repro.study.result_store import ResultStore
from repro.study.session import ExperimentSession
from repro.study.trace_cache import ENV_CACHE_DIR, TraceCache, default_cache_dir
from repro.workloads import all_workloads


def positive_int(text):
    """argparse type: a strictly positive integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("%r is not an integer" % text)
    if value <= 0:
        raise argparse.ArgumentTypeError(
            "must be a positive integer, got %s" % text
        )
    return value


def nonnegative_int(text):
    """argparse type: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("%r is not an integer" % text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            "must be a non-negative integer, got %s" % text
        )
    return value


def positive_float(text):
    """argparse type: a strictly positive float."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError("%r is not a number" % text)
    if value <= 0:
        raise argparse.ArgumentTypeError(
            "must be a positive number, got %s" % text
        )
    return value


def build_parser():
    """Construct the argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce the tables and figures of 'Very Low Power Pipelines "
            "using Significance Compression' (MICRO-33, 2000)."
        ),
    )
    parser.add_argument(
        "experiment",
        help=(
            "experiment id (see 'repro list'), 'all', 'list', 'cache', "
            "or 'analyze'"
        ),
    )
    parser.add_argument(
        "--scale",
        type=positive_int,
        default=1,
        help="workload input scale factor (default 1)",
    )
    parser.add_argument(
        "--workloads",
        default=None,
        help="comma-separated workload names (default: full Mediabench-like suite)",
    )
    parser.add_argument(
        "--jobs",
        type=positive_int,
        default=1,
        help="worker processes for pending analysis units (default 1: serial)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default text)",
    )
    parser.add_argument(
        "--kernel",
        default=None,
        help=(
            "pipeline simulation backend (default: $%s when set, else "
            "'tabular'); see 'repro list' for registered kernels" % ENV_KERNEL
        ),
    )
    parser.add_argument(
        "--hierarchy",
        default=None,
        help=(
            "memory-hierarchy backend (default: $%s when set, else 'memo'); "
            "see 'repro list' for registered hierarchies" % ENV_HIERARCHY
        ),
    )
    parser.add_argument(
        "--max-retries",
        type=nonnegative_int,
        default=None,
        help=(
            "worker failures tolerated per unit under --jobs before the "
            "guaranteed in-process fallback (default 2)"
        ),
    )
    parser.add_argument(
        "--unit-timeout",
        type=positive_float,
        default=None,
        metavar="SECONDS",
        help=(
            "deadline per unit attempt under --jobs; an overrunning "
            "worker is killed and its unit retried (default: no deadline)"
        ),
    )
    _add_cache_dir_option(parser)
    _add_trace_out_option(parser)
    _add_fault_option(parser)
    return parser


def _add_fault_option(parser):
    parser.add_argument(
        "--inject-faults",
        default=None,
        metavar="SPEC",
        help=(
            "deterministically inject faults, e.g. 'store.write:eio@0.2,"
            "worker.task:kill@0.1,seed=7' (default: $%s when set; "
            "see docs/ROBUSTNESS.md for the point catalog)"
            % faults.ENV_FAULTS
        ),
    )


def _add_cache_dir_option(parser):
    parser.add_argument(
        "--cache-dir",
        default=None,
        help=(
            "persistent trace-cache directory (default: $%s when set); "
            "warm runs skip simulation entirely" % ENV_CACHE_DIR
        ),
    )


def _add_trace_out_option(parser):
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help=(
            "write a Chrome trace-event JSON timeline of this run to FILE "
            "(open in Perfetto or chrome://tracing)"
        ),
    )


def build_cache_parser():
    """Parser for the ``repro cache`` maintenance subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro cache",
        description="Inspect or clear the persistent trace cache.",
    )
    parser.add_argument(
        "action",
        choices=("info", "clear"),
        help="'info' reports sizes and compression; 'clear' deletes entries",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format for 'info' (default text)",
    )
    parser.add_argument(
        "--traces",
        action="store_true",
        help="for 'clear': delete cached traces (default: traces and results)",
    )
    parser.add_argument(
        "--results",
        action="store_true",
        help="for 'clear': delete cached results (default: traces and results)",
    )
    _add_cache_dir_option(parser)
    _add_trace_out_option(parser)
    _add_fault_option(parser)
    return parser


def build_analyze_parser():
    """Parser for the ``repro analyze`` static-analysis subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro analyze",
        description=(
            "Static significance analysis over assembled workload programs: "
            "CFG shape, per-operand byte-width bounds, and dataflow lints "
            "(dead writes, unreachable blocks, use-before-def)."
        ),
    )
    parser.add_argument(
        "workloads",
        nargs="*",
        help="workload names (default: the full Mediabench-like suite)",
    )
    parser.add_argument(
        "--scale",
        type=positive_int,
        default=1,
        help="workload input scale factor (default 1)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default text)",
    )
    parser.add_argument(
        "--crosscheck",
        action="store_true",
        help=(
            "validate the static bounds against each workload's dynamic "
            "trace (simulates, or loads from the trace cache); exits "
            "non-zero on any soundness violation"
        ),
    )
    parser.add_argument(
        "--tags",
        action="store_true",
        help=(
            "include the static tag table summary (per-PC operand byte "
            "widths the 'static-byte' scheme reads at run time)"
        ),
    )
    _add_cache_dir_option(parser)
    _add_trace_out_option(parser)
    _add_fault_option(parser)
    return parser


def _sigterm_to_exit(signum, frame):
    """Convert SIGTERM into SystemExit so ``finally`` blocks run.

    An in-flight store write then unlinks its temp file (both stores
    write inside try/finally), and the process still exits with the
    conventional ``128 + SIGTERM`` status.
    """
    raise SystemExit(128 + signum)


def _arm_run(args):
    """Arm fault injection and graceful SIGTERM for one CLI run.

    Returns a ``disarm()`` callable restoring both, or ``None`` when
    the ``--inject-faults`` / ``$REPRO_FAULTS`` spec does not parse
    (the error was printed; callers exit 2).  Installing the injector
    here — never ambiently at import time — keeps library consumers
    and the test suite fault-free unless they opt in.
    """
    spec = (
        args.inject_faults if args.inject_faults is not None
        else faults.default_spec()
    )
    try:
        injector = faults.install_spec(spec) if spec is not None else None
    except faults.FaultSpecError as error:
        print("repro: invalid --inject-faults spec: %s" % error,
              file=sys.stderr)
        return None
    installed_handler = False
    try:
        if signal.getsignal(signal.SIGTERM) == signal.SIG_DFL:
            signal.signal(signal.SIGTERM, _sigterm_to_exit)
            installed_handler = True
    except ValueError:  # not the main thread: keep the default behaviour
        pass

    def disarm():
        if injector is not None:
            faults.install(None)
        if installed_handler:
            signal.signal(signal.SIGTERM, signal.SIG_DFL)

    return disarm


def _install_tracer(args):
    """Install a fresh tracer when ``--trace-out`` was given, else None."""
    if args.trace_out is None:
        return None
    return tracing.start_trace()


def _finish_tracer(tracer, args):
    """Uninstall ``tracer`` and export it to the ``--trace-out`` file."""
    if tracer is None:
        return
    tracing.set_tracer(None)
    tracer.export(args.trace_out)


def _write_runlog(cache_dir, command, args, registry):
    """Persist a run manifest when a cache directory is configured."""
    if cache_dir is None:
        return
    runlog.write_runlog(
        cache_dir,
        command=command,
        config=dict(sorted(vars(args).items())),
        registry=registry,
        tracer=tracing.current_tracer(),
    )


def _analyze_main(argv):
    """Run ``repro analyze [workloads...]``."""
    args = build_analyze_parser().parse_args(argv)
    disarm = _arm_run(args)
    if disarm is None:
        return 2
    tracer = _install_tracer(args)
    try:
        return _analyze_run(args)
    finally:
        _finish_tracer(tracer, args)
        disarm()


def _analyze_run(args):
    from repro.analysis import crosscheck_records
    from repro.analysis.significance import operand_bounds
    from repro.study.scheduler import ResultBroker
    from repro.study.session import TraceStore
    from repro.workloads import mediabench_suite

    if args.workloads:
        try:
            workloads = _resolve_workloads(",".join(args.workloads))
        except KeyError as error:
            print("unknown workload(s): %s" % error.args[0], file=sys.stderr)
            print(
                "available: %s" % ", ".join(sorted(all_workloads())),
                file=sys.stderr,
            )
            return 2
    else:
        workloads = mediabench_suite()

    cache_dir = _resolve_cache_dir(args)
    cache = TraceCache(cache_dir) if cache_dir is not None else None
    store = ResultStore(cache_dir) if cache_dir is not None else None
    traces = TraceStore(cache=cache)
    broker = ResultBroker(traces, store)
    traces.results = broker
    faults.bind_registry(broker.registry)

    reports = []
    violations = 0
    for workload in workloads:
        summary = broker.analysis_summary(workload, scale=args.scale)
        if args.crosscheck or args.tags:
            summary = dict(summary)
        if args.crosscheck:
            bounds = operand_bounds(workload.program(args.scale))
            records = traces.trace(workload, scale=args.scale)
            check = crosscheck_records(bounds, records)
            summary["crosscheck"] = check
            # Per-workload slack summary: how much static headroom each
            # scheme leaves over the executed values, with the
            # static-vs-dynamic bound histograms behind the number.
            summary["slack_summary"] = {
                name: {
                    "slack_percent": round(100.0 * slack, 2),
                    "static_histogram": check["histograms"][name]["static"],
                    "dynamic_histogram": check["histograms"][name]["dynamic"],
                }
                for name, slack in zip(check["schemes"], check["slack"])
            }
            violations += check["violations"]
        if args.tags:
            from repro.analysis.tag_table import tag_table_stats

            table = broker.tag_table(workload, scale=args.scale)
            summary["tag_table"] = tag_table_stats(table)
        reports.append(summary)

    _write_runlog(
        cache_dir, ["analyze"] + list(args.workloads), args, broker.registry
    )
    if args.format == "json":
        print(json.dumps(reports, indent=2, sort_keys=True))
    else:
        for summary in reports:
            print(_format_analysis_text(summary))
    return 1 if violations else 0


def _format_analysis_text(summary):
    """Human-readable block for one workload's analysis summary."""
    cfg = summary["cfg"]
    sig = summary["significance"]
    lints = summary["lints"]
    lines = [
        "%s @ scale %d" % (summary["workload"], summary["scale"]),
        "  cfg: %d blocks, %d edges, %d instructions (%d reachable)"
        % (
            cfg["blocks"],
            cfg["edges"],
            cfg["instructions"],
            cfg["reachable_instructions"],
        ),
        "  significance: mean %.2f bytes/operand "
        "(reads %.2f over %d, writes %.2f over %d)"
        % (
            sig["mean_operand_bytes"],
            sig["mean_read_bytes"],
            sig["read_operands"],
            sig["mean_write_bytes"],
            sig["write_operands"],
        ),
        "  read bound histogram: %s"
        % " ".join(
            "%sB=%s" % (k, sig["read_histogram"][k]) for k in ("1", "2", "3", "4")
        ),
    ]
    if lints["total"]:
        lines.append(
            "  lints: %s"
            % ", ".join(
                "%s=%d" % (kind, count)
                for kind, count in sorted(lints["by_kind"].items())
            )
        )
        for finding in lints["findings"]:
            lines.append(
                "    %s %s %s: %s"
                % (
                    finding["severity"],
                    finding["kind"],
                    finding["pc"],
                    finding["message"],
                )
            )
    else:
        lines.append("  lints: clean")
    tags = summary.get("tag_table")
    if tags is not None:
        lines.append(
            "  tag table: %d instructions, %d read + %d write operands, "
            "mean %.2f bytes/operand"
            % (
                tags["instructions"],
                tags["read_operands"],
                tags["write_operands"],
                tags["mean_operand_bytes"],
            )
        )
        lines.append(
            "  tag read histogram: %s"
            % " ".join(
                "%sB=%s" % (k, tags["read_histogram"][k])
                for k in ("1", "2", "3", "4")
            )
        )
    check = summary.get("crosscheck")
    if check is not None:
        lines.append(
            "  crosscheck: %s — %d records, %d values, %d violations "
            "(static slack %s)"
            % (
                "ok" if check["ok"] else "VIOLATED",
                check["records"],
                check["values_checked"],
                check["violations"],
                ", ".join(
                    "%s=+%.0f%%" % (name, 100.0 * slack)
                    for name, slack in zip(check["schemes"], check["slack"])
                ),
            )
        )
    return "\n".join(lines)


def _resolve_workloads(spec):
    """Parse a ``--workloads`` value; KeyError carries the unknown names."""
    names = [name.strip() for name in spec.split(",") if name.strip()]
    registry = all_workloads()
    unknown = sorted(set(names) - set(registry))
    if unknown:
        raise KeyError(", ".join(unknown))
    return [registry[name] for name in names]


def _resolve_cache_dir(args):
    """The effective cache directory: ``--cache-dir`` beats the env var."""
    return args.cache_dir if args.cache_dir is not None else default_cache_dir()


def _cache_main(argv):
    """Run ``repro cache info|clear``."""
    args = build_cache_parser().parse_args(argv)
    disarm = _arm_run(args)
    if disarm is None:
        return 2
    tracer = _install_tracer(args)
    try:
        return _cache_run(args)
    finally:
        _finish_tracer(tracer, args)
        disarm()


def _cache_run(args):
    cache_dir = _resolve_cache_dir(args)
    if cache_dir is None:
        print(
            "no trace cache configured: pass --cache-dir or set $%s"
            % ENV_CACHE_DIR,
            file=sys.stderr,
        )
        return 2
    cache = TraceCache(cache_dir)
    results = ResultStore(cache_dir)
    if args.action == "clear":
        # No selector means both; either flag narrows the clear to it.
        clear_traces = args.traces or not args.results
        clear_results = args.results or not args.traces
        removed_traces = cache.clear() if clear_traces else 0
        removed_results = results.clear() if clear_results else 0
        print(
            "removed %d cache entries (%d traces, %d results) from %s"
            % (
                removed_traces + removed_results,
                removed_traces,
                removed_results,
                cache.root,
            )
        )
        return 0
    with tracing.span("cache.info", "session", dir=cache_dir):
        info = cache.info()
        result_info = results.info()
        runs_info = runlog.list_runs(cache_dir)
    if args.format == "json":
        # Trace fields stay top-level (the stable, scripted-against
        # shape); the result store and run manifests report under their
        # own keys.
        info = dict(info)
        info["results"] = result_info
        info["runs"] = runs_info
        print(json.dumps(info, indent=2, sort_keys=True))
        return 0
    print("trace cache: %s (codec v%d)" % (info["dir"], info["codec_version"]))
    print("entries: %d" % info["entries"])
    print("records: %d" % info["records"])
    print("encoded bytes: %d" % info["encoded_bytes"])
    print("fixed-width bytes: %d" % info["naive_bytes"])
    if info["naive_bytes"]:
        print(
            "compression ratio: %.3f (%.1f%% smaller than a fixed-width dump)"
            % (info["ratio"], 100.0 * (1.0 - info["ratio"]))
        )
    print(
        "result store: %d entries, %d bytes (store v%d)"
        % (
            result_info["entries"],
            result_info["bytes"],
            result_info["store_version"],
        )
    )
    if result_info["kinds"]:
        print(
            "result kinds: %s"
            % ", ".join(
                "%s=%d" % (kind, count)
                for kind, count in sorted(result_info["kinds"].items())
            )
        )
    if runs_info["entries"]:
        print(
            "run manifests: %d under %s (latest %s)"
            % (runs_info["entries"], runs_info["dir"], runs_info["latest"])
        )
    unreadable = info["unreadable"] + result_info["unreadable"]
    if unreadable:
        print("unreadable entries: %d" % unreadable, file=sys.stderr)
    return 0


def _list_main(args):
    """Run ``repro list``: enumerate every name a script might need."""
    from repro.core.compress import scheme_names
    from repro.pipeline.organizations import ALL_ORGANIZATIONS

    organizations = [org.name for org in ALL_ORGANIZATIONS]
    schemes = list(scheme_names())
    workload_names = sorted(all_workloads())
    kernels = kernel_names()
    default_kernel = (
        args.kernel if args.kernel is not None else default_kernel_name()
    )
    hierarchies = hierarchy_names()
    default_hierarchy = (
        args.hierarchy if args.hierarchy is not None
        else default_hierarchy_name()
    )
    if args.format == "json":
        payload = {
            "experiments": {
                name: EXPERIMENTS[name].description
                for name in sorted(EXPERIMENTS)
            },
            "organizations": organizations,
            "schemes": schemes,
            "workloads": workload_names,
            "kernels": kernels,
            "default_kernel": default_kernel,
            "hierarchies": hierarchies,
            "default_hierarchy": default_hierarchy,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print("experiments:")
    for name in sorted(EXPERIMENTS):
        print("  %-22s %s" % (name, EXPERIMENTS[name].description))
    print("organizations: %s" % ", ".join(organizations))
    print("schemes: %s" % ", ".join(schemes))
    print("workloads: %s" % ", ".join(workload_names))
    print(
        "kernels: %s"
        % ", ".join(
            "%s (default)" % name if name == default_kernel else name
            for name in kernels
        )
    )
    print(
        "hierarchies: %s"
        % ", ".join(
            "%s (default)" % name if name == default_hierarchy else name
            for name in hierarchies
        )
    )
    return 0


def main(argv=None):
    """CLI entry point."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv[:1] == ["cache"]:
        return _cache_main(argv[1:])
    if argv[:1] == ["analyze"]:
        return _analyze_main(argv[1:])
    args = build_parser().parse_args(argv)
    try:
        if args.kernel is not None:
            get_kernel(args.kernel)  # unknown names exit before any work
        else:
            default_kernel_name()  # validates $REPRO_KERNEL
        if args.hierarchy is not None:
            get_hierarchy(args.hierarchy)
        else:
            default_hierarchy_name()  # validates $REPRO_HIERARCHY
    except (KeyError, ValueError) as error:
        print(error.args[0] if error.args else str(error), file=sys.stderr)
        return 2
    if args.experiment == "list":
        return _list_main(args)
    disarm = _arm_run(args)
    if disarm is None:
        return 2
    tracer = _install_tracer(args)
    try:
        return _experiment_run(args, argv)
    finally:
        _finish_tracer(tracer, args)
        disarm()


def _experiment_run(args, argv):
    """Run one experiment (or ``all``) and report it."""
    workloads = None
    if args.workloads is not None:
        try:
            workloads = _resolve_workloads(args.workloads)
        except KeyError as error:
            print("unknown workload(s): %s" % error.args[0], file=sys.stderr)
            print(
                "available: %s" % ", ".join(sorted(all_workloads())),
                file=sys.stderr,
            )
            return 2
        if not workloads:
            print("--workloads names no workloads", file=sys.stderr)
            print(
                "available: %s" % ", ".join(sorted(all_workloads())),
                file=sys.stderr,
            )
            return 2
    cache_dir = _resolve_cache_dir(args)
    session = ExperimentSession(
        workloads=workloads,
        scale=args.scale,
        cache_dir=cache_dir,
        kernel=args.kernel,
        hierarchy=args.hierarchy,
        max_retries=args.max_retries,
        unit_timeout=args.unit_timeout,
    )
    faults.bind_registry(session.registry)
    names = None if args.experiment == "all" else [args.experiment]
    try:
        if args.experiment == "all" and args.format == "text":
            # Stream each report as it completes.
            for result in session.run_iter(names, jobs=args.jobs):
                print(session.format_result_block(result))
            _write_runlog(cache_dir, argv, args, session.registry)
            return 0
        results = session.run(names, jobs=args.jobs)
    except KeyError as error:
        print(str(error), file=sys.stderr)
        return 2
    _write_runlog(cache_dir, argv, args, session.registry)
    if args.format == "json":
        print(session.report_json(results))
    elif args.experiment == "all":
        print(session.report_text(results))
    else:
        print(results[0].text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
