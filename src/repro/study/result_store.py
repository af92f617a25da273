"""Persistent on-disk store for per-(workload, organization) results.

PR 2's trace cache made trace materialization free on warm runs, which
left ``repro all`` dominated by the CPI pipeline studies re-running
``simulate()`` — often on the same (workload, organization) pair across
figures.  :class:`ResultStore` extends the same cache-hierarchy
discipline one layer up: every pipeline simulation, activity-model pass
and fetch-statistics walk is written to disk as a small keyed JSON
entry, and later sessions read the result back instead of recomputing.

Entries are keyed by the full provenance of a result:

* the *workload source hash* (reused from
  :mod:`repro.study.trace_cache`) covers the generated MiniC text, so
  any kernel or input change invalidates;
* the *unit descriptor* names what was computed — the organization (and
  predictor variant) of a pipeline simulation, or the activity-model /
  fetch-statistics configuration;
* the *toolchain fingerprint* (also reused from the trace cache)
  covers the compiler, assembler/ISA and simulator sources — the code
  that decides what the underlying trace contains — so results computed
  from traces that would no longer be produced never match;
* the *engine fingerprint* covers every Python source whose behaviour
  shapes the analysis itself: the whole :mod:`repro.pipeline` and
  :mod:`repro.core` packages (significance schemes, instruction
  compression, ALU/PC models and their helpers);
* the *store version* invalidates when the entry layout changes.

A stale key simply never matches — old files sit inert until
``repro cache clear``.  Damaged files (truncation, bit rot, tampering)
fail closed: :meth:`ResultStore.load` returns ``None`` and deletes the
file, and the caller recomputes.  Writes go through a temp file and
``os.replace`` so concurrent processes never observe a partial entry;
the temp file is removed in a ``finally``, so an interrupted write
cannot leak it.

Writes degrade instead of raising, exactly like the trace cache's (the
policy, constants and the ``store_write_failures`` /
``store_degraded`` instruments are shared with
:mod:`repro.study.trace_cache`): transient ``OSError``s retry with
backoff, and exhausted retries flip the store into in-memory-only
degraded mode — the broker's memo keeps the session correct, and the
run completes compute-only.  See ``docs/ROBUSTNESS.md``.

The store shares its directory with the trace cache (``--cache-dir`` /
``$REPRO_CACHE_DIR``): trace entries are ``*.trace`` files, result
entries ``*.result`` files.
"""

import hashlib
import json
import os
import sys
import tempfile
import time

from repro.obs import faults
from repro.study.trace_cache import (
    DEGRADED_DESCRIPTION,
    WRITE_ATTEMPTS,
    WRITE_BACKOFF,
    WRITE_FAILURES_DESCRIPTION,
    fingerprint_sources,
    remove_stray_temp_files,
    source_hash,
    stray_temp_files,
    toolchain_fingerprint,
)

#: Bumped whenever the on-disk entry layout changes.
STORE_VERSION = 1

#: File magic embedded in every entry.
MAGIC = "SCRS"

#: Packages (recursive) whose sources shape the analyses themselves.
#: Whole packages, not a hand-picked module list: the pipeline engine
#: and the core models import each other transitively (siginfo -> alu,
#: extension -> bitutils, ...) and a missed dependency would silently
#: serve stale results.  The trace-producing toolchain (minic, asm,
#: isa, sim) is covered separately by the toolchain fingerprint.  The
#: static analyzer lives here too: its stored summaries (kind
#: ``analyze``) depend on CFG/dataflow/significance sources.
_ENGINE_PACKAGES = ("repro.pipeline", "repro.core", "repro.analysis")

#: Modules outside those packages that also shape stored payloads: the
#: trace-walk reducers define the walk-unit payload layout and merge
#: semantics, so editing a walker must invalidate its stored results.
#: The memory-hierarchy models shape every PipelineResult's stall and
#: hierarchy_stats fields; they live under ``repro.sim`` (covered by the
#: toolchain fingerprint too, but an engine edit must invalidate engine
#: results even when the trace codec is untouched).
_ENGINE_MODULES = (
    "repro.study.walkers",
    "repro.sim.cache",
    "repro.sim.hierarchy",
    "repro.sim.hierarchy_model",
    "repro.sim.tlb",
)

_engine_fingerprint = None


def engine_fingerprint():
    """Hex digest over every analysis-engine source file (computed once)."""
    global _engine_fingerprint
    if _engine_fingerprint is None:
        _engine_fingerprint = fingerprint_sources(
            _ENGINE_PACKAGES, _ENGINE_MODULES
        )
    return _engine_fingerprint


def _checksum(payload):
    """Hex digest of a payload dict's canonical JSON form."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResultStore:
    """Directory of keyed JSON result entries, safely invalidated.

    ``load``/``store`` are the whole protocol: a *unit* is any object
    with ``workload`` (name), ``scale``, a JSON-able ``descriptor()``
    and a filename-safe ``slug()`` — see :mod:`repro.study.scheduler`.
    ``load`` returns the stored payload dict or ``None`` (missing, stale
    or damaged entry); ``store`` writes one atomically.  ``info`` and
    ``clear`` back the ``repro cache`` CLI subcommand.
    """

    #: Label this store reports under in the shared ``store_write_failures``
    #: counter and ``store_degraded`` gauge.
    _DEGRADED_LABEL = "result_store"

    def __init__(self, root, registry=None):
        # Created lazily on first store(), mirroring TraceCache: read
        # paths must not leave empty directories at mistyped locations.
        self.root = str(root)
        #: Process-local counters keyed by unit label.
        self.hits = {}
        self.misses = {}
        self.stores = {}
        #: True once writes have failed past the retry budget; further
        #: writes are skipped (reads keep working) instead of raising.
        self.degraded = False
        self.registry = None
        #: Plain dicts until :meth:`bind_registry` re-homes them in a
        #: session registry (the broker binds its own on construction).
        self.write_failures = {}
        self._degraded_gauge = None
        if registry is not None:
            self.bind_registry(registry)

    def bind_registry(self, registry):
        """Re-home the degradation instruments in ``registry``.

        Same discipline as ``TraceCache.bind_registry``: current counts
        carry over, and the instruments are shared by name with the
        trace cache's (each store reports under its own label).
        """
        if registry is self.registry:
            return
        failures = registry.counter(
            "store_write_failures", WRITE_FAILURES_DESCRIPTION
        )
        for label, count in dict(self.write_failures).items():
            failures.inc(label, count)
        self.write_failures = failures
        gauge = registry.gauge("store_degraded", DEGRADED_DESCRIPTION)
        if self.degraded:
            gauge.set(self._DEGRADED_LABEL, 1)
        self._degraded_gauge = gauge
        self.registry = registry

    def _degrade(self, error):
        """Flip into in-memory-only mode after exhausted write retries."""
        self.degraded = True
        if self._degraded_gauge is not None:
            self._degraded_gauge.set(self._DEGRADED_LABEL, 1)
        print(
            "repro: %s %s degraded to in-memory-only after %d failed "
            "write attempts: %s"
            % (self._DEGRADED_LABEL, self.root, WRITE_ATTEMPTS, error),
            file=sys.stderr,
        )

    # ---------------------------------------------------------------- keys

    def entry_key(self, workload, unit):
        """The full identity of one entry, as a JSON-able dict."""
        return {
            "store_version": STORE_VERSION,
            "workload": workload.name,
            "scale": unit.scale,
            "source_hash": source_hash(workload, unit.scale),
            "unit": unit.descriptor(),
            "toolchain": toolchain_fingerprint(),
            "engine": engine_fingerprint(),
        }

    def _digest(self, key):
        blob = json.dumps(key, sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def _path(self, workload, unit, key):
        return os.path.join(
            self.root,
            "%s@%d-%s-%s.result"
            % (workload.name, unit.scale, unit.slug(), self._digest(key)[:16]),
        )

    def path_for(self, workload, unit):
        """Cache file path for one unit's result."""
        return self._path(workload, unit, self.entry_key(workload, unit))

    # ------------------------------------------------------------- protocol

    def load(self, workload, unit):
        """Stored payload dict for ``unit``, or ``None`` on a miss.

        A damaged or mismatched entry counts as a miss: it is deleted
        (best effort) so the recomputed result can replace it.
        """
        label = unit.label()
        key = self.entry_key(workload, unit)
        path = self._path(workload, unit, key)
        try:
            faults.fire("store.read", key=os.path.basename(path))
            with open(path, "r", encoding="utf-8") as handle:
                blob = handle.read()
        except OSError:  # FileNotFoundError included: plain miss
            self.misses[label] = self.misses.get(label, 0) + 1
            return None
        try:
            document = json.loads(blob)
            if (
                not isinstance(document, dict)
                or document.get("magic") != MAGIC
                or document.get("key") != key
                or _checksum(document["payload"]) != document.get("checksum")
            ):
                raise ValueError("result entry does not match its key")
            payload = document["payload"]
        except (ValueError, KeyError, TypeError):
            try:
                os.remove(path)
            except OSError:
                pass
            self.misses[label] = self.misses.get(label, 0) + 1
            return None
        self.hits[label] = self.hits.get(label, 0) + 1
        return payload

    def store(self, workload, unit, payload):
        """Atomically write one result entry; returns its file path.

        Transient ``OSError``s are retried with backoff; exhausted
        retries flip the store into degraded mode and return ``None``
        (as does every write after that) instead of raising.
        """
        if self.degraded:
            return None
        label = unit.label()
        key = self.entry_key(workload, unit)
        path = self._path(workload, unit, key)
        document = {
            "magic": MAGIC,
            "key": key,
            "payload": payload,
            "checksum": _checksum(payload),
        }
        name = os.path.basename(path)
        for attempt in range(WRITE_ATTEMPTS):
            try:
                faults.fire("store.write", key="%s#%d" % (name, attempt))
                self._write_entry(path, workload, unit, document)
            except OSError as error:
                self._count_write_failure()
                if attempt + 1 < WRITE_ATTEMPTS:
                    time.sleep(WRITE_BACKOFF * (2 ** attempt))
                    continue
                self._degrade(error)
                return None
            self.stores[label] = self.stores.get(label, 0) + 1
            return path

    def _write_entry(self, path, workload, unit, document):
        # try/finally, not except/re-raise: the temp file must be gone
        # on *every* exit, including KeyboardInterrupt/SystemExit mid
        # dump (os.replace already consumed it on the success path, so
        # the unlink is a no-op there).
        os.makedirs(self.root, exist_ok=True)
        fd, temp_path = tempfile.mkstemp(
            prefix=".%s@%d-" % (workload.name, unit.scale), suffix=".tmp",
            dir=self.root,
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(document, handle, sort_keys=True)
            os.replace(temp_path, path)
        finally:
            try:
                os.remove(temp_path)
            except OSError:
                pass

    def _count_write_failure(self):
        if hasattr(self.write_failures, "inc"):
            self.write_failures.inc(self._DEGRADED_LABEL)
        else:
            self.write_failures[self._DEGRADED_LABEL] = (
                self.write_failures.get(self._DEGRADED_LABEL, 0) + 1
            )

    # ------------------------------------------------------------ inspection

    def entries(self):
        """Sorted file names of every result entry."""
        try:
            names = os.listdir(self.root)
        except OSError:
            return []
        return sorted(name for name in names if name.endswith(".result"))

    def info(self):
        """Aggregate statistics for ``repro cache info``."""
        entries = 0
        total_bytes = 0
        kinds = {}
        unreadable = 0
        for name in self.entries():
            path = os.path.join(self.root, name)
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    document = json.load(handle)
                unit = document["key"]["unit"]
                kind = unit["kind"]
                if kind == "walk":
                    # Walk entries bucket by walker kind, so cache info
                    # shows what kind of scans are persisted
                    # (walk:patterns, walk:pc, ...).
                    walker = unit.get("walker")
                    if isinstance(walker, list) and walker:
                        kind = "walk:%s" % walker[0]
            except (OSError, ValueError, KeyError, TypeError):
                unreadable += 1
                continue
            entries += 1
            total_bytes += os.path.getsize(path)
            kinds[kind] = kinds.get(kind, 0) + 1
        return {
            "dir": self.root,
            "entries": entries,
            "bytes": total_bytes,
            "kinds": kinds,
            "unreadable": unreadable,
            "temp_files": len(stray_temp_files(self.root)),
            "store_version": STORE_VERSION,
        }

    def clear(self):
        """Delete every result entry (and stray temp file); returns count."""
        removed = remove_stray_temp_files(self.root)
        for name in self.entries():
            try:
                os.remove(os.path.join(self.root, name))
                removed += 1
            except OSError:
                pass
        return removed

    def __repr__(self):
        return "ResultStore(%r)" % self.root
