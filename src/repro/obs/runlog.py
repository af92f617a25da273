"""Per-session run manifests under the persistent cache directory.

Every cache-backed CLI run writes one JSON manifest to
``<cache_dir>/runs/``: the command and resolved configuration, the
engine fingerprints its cached artifacts were keyed by (toolchain,
engine, codec and store versions), the final metrics snapshot in the
shared :mod:`repro.obs.metrics` schema, and — when a tracer was
installed — the span summary.  Manifests make warm-vs-cold behaviour
diffable after the fact: two runs over the same cache can be compared
metric by metric with nothing but ``diff``/``jq``.

Writes are atomic (temp file + ``os.replace``) and the directory is
created lazily, mirroring the cache stores' discipline; read paths
(:func:`list_runs`) never create directories.
"""

import json
import os
import tempfile
import time

from repro.obs import faults

#: Version stamped into every manifest; bumped on layout changes.
RUNLOG_VERSION = 1

#: Subdirectory of the cache dir holding run manifests.
RUNS_SUBDIR = "runs"


def runs_dir(cache_dir):
    """The manifests directory under ``cache_dir`` (not created)."""
    return os.path.join(str(cache_dir), RUNS_SUBDIR)


def engine_fingerprints():
    """The fingerprints/versions cached artifacts are keyed by."""
    from repro.sim.tracefile import CODEC_VERSION
    from repro.study.result_store import STORE_VERSION, engine_fingerprint
    from repro.study.trace_cache import toolchain_fingerprint

    return {
        "toolchain": toolchain_fingerprint(),
        "engine": engine_fingerprint(),
        "codec_version": CODEC_VERSION,
        "store_version": STORE_VERSION,
    }


def write_runlog(cache_dir, command, config, registry, tracer=None):
    """Write one manifest; returns its path.

    ``command`` is the argv-style invocation, ``config`` the resolved
    run configuration (the parsed CLI options: scale, workloads, jobs, ...),
    ``registry`` the session's :class:`~repro.obs.metrics.MetricsRegistry`
    and ``tracer`` the optional :class:`~repro.obs.tracing.Tracer` whose
    span summary should ride along.
    """
    directory = runs_dir(cache_dir)
    os.makedirs(directory, exist_ok=True)
    now = time.time()
    manifest = {
        "version": RUNLOG_VERSION,
        "written_at": time.strftime(
            "%Y-%m-%dT%H:%M:%S", time.gmtime(now)
        ) + "Z",
        "pid": os.getpid(),
        "command": list(command),
        "config": dict(config),
        "fingerprints": engine_fingerprints(),
        "metrics": registry.jsonable(),
        "spans": tracer.summary() if tracer is not None else None,
        # The active fault-injection spec and what it actually fired
        # (None on clean runs) — a chaos run's manifest is self-
        # describing, replayable from its own "spec" field.
        "faults": faults.describe_active(),
    }
    name = "run-%s-%d.json" % (
        time.strftime("%Y%m%dT%H%M%S", time.gmtime(now)), os.getpid(),
    )
    path = os.path.join(directory, name)
    fd, temp_path = tempfile.mkstemp(prefix=".run-", dir=directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.remove(temp_path)
        except OSError:
            pass
        raise
    return path


def list_runs(cache_dir):
    """Manifest statistics for ``repro cache info``.

    Returns ``{"dir", "entries", "latest"}`` — ``latest`` is the newest
    manifest's file name, or ``None`` when there are no manifests (or
    no ``runs/`` directory at all).
    """
    directory = runs_dir(cache_dir)
    try:
        names = sorted(
            name for name in os.listdir(directory)
            if name.startswith("run-") and name.endswith(".json")
        )
    except OSError:
        names = []
    return {
        "dir": directory,
        "entries": len(names),
        "latest": names[-1] if names else None,
    }


def read_runlog(path):
    """Load one manifest, failing closed on version skew.

    Raises ``ValueError`` when the file is not a supported manifest so
    callers can treat damaged or future-versioned files as absent.
    """
    with open(path, "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    if not isinstance(manifest, dict) or manifest.get("version") != RUNLOG_VERSION:
        raise ValueError(
            "run manifest %s: version %r, expected %d"
            % (path, manifest.get("version"), RUNLOG_VERSION)
        )
    return manifest
