"""Benchmark of the reproduction engine: cold, model-edit and warm runs.

Each workload drives the serial ``ExperimentSession`` path that
``repro all`` takes (``--jobs 1``), over every canonical experiment, on
a few suite programs plus one MiniC kernel generated from ``--seed``
(see ``seeded.py``)::

    python3 perfbench/run.py --workload cold_narrow --seed 1 \\
        --seconds 10 --trace 0

* ``cold_narrow`` — empty cache directory; a full cold reproduction of
  ``djpeg`` and the seeded narrow FIR kernel.
* ``edit_wide`` — the model-edit loop: set-up fills the trace cache,
  the result store starts empty, so every analysis is recomputed from
  decoded traces.  ``pegwit``, ``gsm_untoast`` and the seeded wide
  xor/shift kernel.
* ``warm_replay`` — set-up runs ``edit_wide``'s computation; the run
  replays fresh sessions against the warm store, computing nothing.

A run sets up as often as ``WORKLOADS`` says (``setup_s`` is the
median), then repeats reproductions for ``--seconds`` (at least one;
``run_s`` is the median) with tracing off.  ``--trace 1`` adds a second, traced pass through
``spans.LayerProbe`` that gives the per-layer metrics and the tracing
overhead.  Every experiment text, program output and replay is checked
(see :class:`Checks`).  The last stdout line is the JSON result; the
lines above it name every metric with its unit, the provenance and, in
a traced run, the per-layer table of ``table.py``.

The model's accuracy is not measured: the repository holds only shape
ranges of the paper's results, so the model is unvalidated and the
benchmark states no error figure for it.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space inside the checkout (cache directories, last results).
WORK = os.path.join(ROOT, ".perfbench")
GOLDEN = os.path.join(HERE, "golden.json")

#: Settings that would move the engine off its defaults.
ENGINE_ENV = ("REPRO_KERNEL", "REPRO_HIERARCHY", "REPRO_FAULTS", "REPRO_CACHE_DIR")

#: name -> (suite programs, seeded kernel, mode, set-ups per run).
#: The warm set-up is all of edit_wide's computation, so it runs once.
WORKLOADS = {
    "cold_narrow": (("djpeg",), "narrow_kernel", "cold", 3),
    "edit_wide": (("pegwit", "gsm_untoast"), "wide_kernel", "edit", 2),
    "warm_replay": (("pegwit", "gsm_untoast"), "wide_kernel", "warm", 1),
}

#: What a fresh interpreter imports before it can reproduce anything.
ENGINE_IMPORT = (
    "import repro.study.session, repro.study.experiments, repro.study.scheduler"
)


def digest(text):
    """SHA-256 hex digest of one experiment's report text."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def tail(samples):
    """``(percentile, value)``: the highest with ten samples beyond it.

    ``None`` when there are ten samples or fewer.
    """
    ordered = sorted(samples)
    kept = len(ordered) - 10
    if kept < 1:
        return None
    return 100.0 * kept / len(ordered), ordered[kept - 1]


class Checks:
    """Counts correctness operations; each one passes or fails.

    An operation fails when an experiment raises or its text differs
    from the golden digest (default seed only), when a program's
    simulated output differs from its Python reference, when a replay's
    text differs from the cold text, or when a replay computes anything.
    """

    def __init__(self, golden):
        self.golden = golden
        self.attempted = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def experiments(self, names, texts, error, reference=None):
        """One operation per requested experiment of a reproduction."""
        for name in names:
            text = texts.get(name)
            if text is None:
                self.check(False, "%s raised: %s" % (name, error))
            elif self.golden is not None and digest(text) != self.golden.get(name):
                self.check(False, "%s differs from its golden digest" % name)
            elif reference is not None and text != reference.get(name):
                self.check(False, "%s replay differs from the cold text" % name)
            else:
                self.check(True, name)

    def programs(self, workloads, outputs):
        """One operation per program: simulated output vs its reference."""
        for workload in workloads:
            self.check(
                outputs[workload.name] == workload.expected_output(1),
                "%s output differs from its Python reference" % workload.name,
            )

    def zero_compute(self, session):
        """One operation per replay: no unit, walk or decode ran."""
        misses = {
            "sim_misses": dict(session.results.sim_misses),
            "walk_misses": dict(session.results.walk_misses),
            "decode_misses": dict(session.store.decode_misses),
        }
        self.check(
            not any(misses.values()), "replay computed something: %r" % misses
        )

    @property
    def failed(self):
        return len(self.failures)


def simulated(workloads):
    """name -> ``(output text, trace records)`` of each program's run.

    Reads the run each workload keeps in memory after interpreting its
    program, so it costs nothing once the trace exists.
    """
    runs = {}
    for workload in workloads:
        records, interpreter = workload.run(scale=1)
        output = (
            interpreter.output_text if interpreter is not None
            else workload.output(1)
        )
        runs[workload.name] = (output, len(records))
    return runs


class Bench:
    """One workload at one seed: set-up, reproductions and checks."""

    def __init__(self, name, seed, work):
        from repro.study.experiments import canonical_experiment_ids
        from repro.workloads import get_workload

        import seeded

        suite, kernel, self.mode, self.setups = WORKLOADS[name]
        self.name = name
        self.seed = seed
        self.work = work
        self._suite = [get_workload(program) for program in suite]
        self._make_kernel = getattr(seeded, kernel)
        self.programs = ",".join(list(suite) + [self._make_kernel(seed).name])
        golden = None
        if seed == seeded.DEFAULT_SEED:
            with open(GOLDEN, encoding="utf-8") as handle:
                golden = json.load(handle)[self.programs]
        self.checks = Checks(golden)
        self.names = canonical_experiment_ids()
        #: Texts of the first reproduction (the cold texts replays match).
        self.texts = None
        #: Dynamic trace records of all programs together.
        self.records = None

    # ----------------------------------------------------------- set-up

    def setup(self):
        """One set-up: a fresh interpreter imports the engine, then the
        workload's cache directory is prepared.  Returns the context."""
        # No timeout: waiting with one makes subprocess poll in 50 ms steps.
        env = dict(os.environ, PYTHONPATH=SRC)
        subprocess.run(
            [sys.executable, "-c", ENGINE_IMPORT], cwd=ROOT, env=env, check=True
        )
        from repro.study.session import ExperimentSession

        directory = tempfile.mkdtemp(prefix="%s-" % self.name, dir=self.work)
        for workload in self._suite:
            workload.clear_cache()
        workloads = self._suite + [self._make_kernel(self.seed)]
        context = {"dir": directory, "workloads": workloads}
        if self.mode in ("edit", "warm"):
            ExperimentSession(workloads=workloads, cache_dir=directory).prepare()
            context["runs"] = simulated(workloads)
        if self.mode == "warm":
            self._clear(workloads)
            texts, _session, _seconds, error = self.reproduce(context)
            context["texts"], context["error"] = texts, error
        return context

    def timed_setups(self):
        """``(samples, context)``: every set-up timed, the last one kept."""
        samples = []
        context = None
        for _ in range(self.setups):
            if context is not None:
                shutil.rmtree(context["dir"], ignore_errors=True)
            start = time.perf_counter()
            context = self.setup()
            samples.append(time.perf_counter() - start)
            if "runs" in context:
                self._check_programs(context["workloads"], context["runs"])
            if self.mode == "warm":
                self._check_texts(context["texts"], context["error"])
        return samples, context

    # --------------------------------------------------- reproductions

    def reset(self, context):
        """Make the next reproduction start from the workload's state."""
        self._clear(context["workloads"])
        if self.mode == "cold":
            shutil.rmtree(context["dir"], ignore_errors=True)
            os.makedirs(context["dir"])
        elif self.mode == "edit":
            from repro.study.result_store import ResultStore

            ResultStore(context["dir"]).clear()
        gc.collect()

    def reproduce(self, context):
        """One timed reproduction: ``(texts, session, seconds, error)``.

        ``texts`` maps experiment id to report text for every experiment
        that finished before an error (if any).
        """
        from repro.study.session import ExperimentSession

        texts = {}
        error = None
        session = None
        start = time.perf_counter()
        try:
            session = ExperimentSession(
                workloads=context["workloads"], cache_dir=context["dir"]
            )
            results = []
            for result in session.run_iter():
                results.append(result)
                texts[result.id] = result.text
            session.report_text(results)
        except Exception as exc:  # counted as failed experiments
            error = "%s: %s" % (type(exc).__name__, exc)
        return texts, session, time.perf_counter() - start, error

    def measure(self, context, seconds, probe=None):
        """Reproductions for ``seconds`` (at least one), each checked.

        Returns ``(samples, traced)`` where ``traced`` holds, per
        reproduction, ``(spans, session counts, bytes read)`` when a
        :class:`~spans.LayerProbe` is given.
        """
        import spans

        samples = []
        traced = []
        deadline = time.perf_counter() + seconds
        while True:
            self.reset(context)
            if probe is not None:
                probe.take()  # drop what the reset did
            texts, session, elapsed, error = self.reproduce(context)
            recorded = probe.take() if probe is not None else None
            samples.append(elapsed)
            if self.mode == "cold" and self.records is None:
                self._check_programs(
                    context["workloads"], simulated(context["workloads"])
                )
            self._check_texts(texts, error)
            if self.mode == "warm" and session is not None:
                self.checks.zero_compute(session)
            if probe is not None and session is not None:
                store = session.results.store
                bytes_read = sum(
                    os.path.getsize(store.path_for(workload, unit))
                    for workload, unit in spans.loaded_entries(recorded)
                )
                probe.take()  # drop the source hashing of path_for
                traced.append(
                    (recorded, spans.session_counts(session), bytes_read)
                )
            if time.perf_counter() >= deadline:
                return samples, traced

    # -------------------------------------------------------- helpers

    def _check_programs(self, workloads, runs):
        if self.records is None:
            self.checks.programs(workloads, {
                name: output for name, (output, _records) in runs.items()
            })
            self.records = sum(records for _output, records in runs.values())

    def _check_texts(self, texts, error):
        """Check one reproduction; the first one's texts become the
        reference the later ones (the warm replays) must match."""
        reference = self.texts if self.mode == "warm" else None
        self.checks.experiments(self.names, texts, error, reference)
        if self.texts is None and error is None:
            self.texts = texts

    @staticmethod
    def _clear(workloads):
        for workload in workloads:
            workload.clear_cache()


def provenance(seed):
    """Where a result comes from: sources, seed, host and versions."""
    from repro.study.result_store import engine_fingerprint
    from repro.study.trace_cache import toolchain_fingerprint

    try:
        numpy_version = __import__("numpy").__version__
    except ImportError:
        numpy_version = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "git_commit": commit,
        "engine_fingerprint": engine_fingerprint(),
        "toolchain_fingerprint": toolchain_fingerprint(),
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def aggregate_layers(traced):
    """Per-reproduction per-layer metrics and totals of a traced pass.

    Spans and counts are pooled over the traced reproductions and
    divided by their number (counts repeat exactly between them).
    """
    import spans

    count = len(traced)
    totals = {}
    counts = {}
    bytes_read = 0
    for recorded, session_counts, read in traced:
        for layer, entry in spans.layer_totals(recorded).items():
            into = totals.setdefault(layer, dict.fromkeys(entry, 0))
            for key, value in entry.items():
                into[key] += value
        for key, value in session_counts.items():
            counts[key] = counts.get(key, 0) + value
        bytes_read += read

    def per_run(value):
        value = value / count
        return int(value) if value == int(value) else value

    totals = {
        layer: {key: per_run(value) for key, value in entry.items()}
        for layer, entry in totals.items()
    }
    counts = {key: per_run(value) for key, value in counts.items()}
    return totals, counts, per_run(bytes_read)


def run(args):
    from repro.pipeline.kernel import default_kernel_name

    import spans
    import table

    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        bench = Bench(args.workload, args.seed, work)
        setup_samples, context = bench.timed_setups()
        samples, _ = bench.measure(context, args.seconds)
        detail = {
            "workload": args.workload,
            "programs": bench.programs,
            "provenance": provenance(args.seed),
            "setup_s": statistics.median(setup_samples),
            "setups": len(setup_samples),
            "run_s": statistics.median(samples),
            "reproductions": len(samples),
        }
        if bench.mode != "warm":
            detail["records"] = bench.records
            detail["records_per_s"] = bench.records / detail["run_s"]
        else:
            spread = tail(samples)
            if spread is not None:
                detail["run_tail_s"] = spread[1]
                detail["run_tail_percentile"] = spread[0]
        if args.trace:
            with spans.LayerProbe(default_kernel_name()) as probe:
                traced_samples, traced = bench.measure(
                    context, args.seconds, probe
                )
            totals, counts, bytes_read = aggregate_layers(traced)
            traced_run_s = statistics.fmean(traced_samples)
            layers = spans.layer_metrics(totals, counts, bytes_read, traced_run_s)
            layers["trace.overhead_frac"] = (
                statistics.median(traced_samples) / detail["run_s"] - 1.0
            )
            detail.update(
                traced_run_s=traced_run_s,
                traced_reproductions=len(traced_samples),
                layer_totals=totals,
                layers=layers,
            )
        detail["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        detail["attempted"] = bench.checks.attempted
        detail["failed"] = bench.checks.failed
        detail["failures"] = bench.checks.failures[:20]
        detail["error_rate"] = bench.checks.failed / bench.checks.attempted
        detail["digests"] = {
            name: digest(text) for name, text in sorted((bench.texts or {}).items())
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(
        os.path.join(WORK, "last-%s.json" % args.workload), "w", encoding="utf-8"
    ) as handle:
        json.dump(detail, handle, indent=1, sort_keys=True)
    for line in table.summary_lines(detail):
        print(line)
    if args.trace:
        for line in table.layer_lines(detail):
            print(line)
        metrics = {
            name: {"value": value, "unit": spans.metric_unit(name)}
            for name, value in sorted(detail["layers"].items())
        }
    else:
        metrics = {
            "run_s": {"value": detail["run_s"], "unit": "s"},
            "setup_s": {"value": detail["setup_s"], "unit": "s"},
            "peak_rss_mb": {"value": detail["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": metrics,
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: no engine sources under %s" % SRC, file=sys.stderr)
        return 2
    for name in ENGINE_ENV:
        os.environ.pop(name, None)
    sys.path.insert(0, SRC)
    run(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
