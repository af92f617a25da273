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
``repro cache clear``.  Writes, reads and degraded mode follow the one
policy of :mod:`repro.study.disk_store`: an unreadable file is a plain
miss, and a damaged or mismatched one (truncation, bit rot, tampering)
is deleted so the recomputed result replaces it.  A degraded store
leaves the broker's memo to keep the session correct, and the run
completes compute-only.

The store shares its directory with the trace cache (``--cache-dir`` /
``$REPRO_CACHE_DIR``): trace entries are ``*.trace`` files, result
entries ``*.result`` files.
"""

import hashlib
import json
import os

from repro.obs import faults
from repro.study.disk_store import DiskStore, stray_temp_files
from repro.study.trace_cache import (
    fingerprint_sources,
    source_hash,
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
#: The memory-hierarchy model and its configuration shape every
#: PipelineResult's stall and hierarchy_stats fields and every activity
#: report's line fills; they live under ``repro.sim`` (covered by the
#: toolchain fingerprint too, but an engine edit must invalidate engine
#: results even when the trace codec is untouched).
_ENGINE_MODULES = (
    "repro.study.walkers",
    "repro.sim.hierarchy",
    "repro.sim.hierarchy_model",
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


class ResultStore(DiskStore):
    """Directory of keyed JSON result entries, safely invalidated.

    ``load``/``store`` are the whole protocol: a *unit* is any object
    with ``workload`` (name), ``scale``, a JSON-able ``descriptor()``,
    a filename-safe ``slug()`` and a ``label()`` — see
    :mod:`repro.study.scheduler`.  ``load`` returns the stored payload
    dict or ``None`` (missing, stale or damaged entry); ``store``
    writes one atomically.  ``info`` and ``clear`` back the ``repro
    cache`` CLI subcommand.  Counters are keyed by unit label.
    """

    NAME = "result_store"
    SUFFIX = ".result"
    DESCRIPTIONS = ("result entries served", "lookups with no usable entry",
                    "result entries written")

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

        Fault keys are the unit label: stable across toolchain and
        engine edits, unlike the file name.
        """
        label = unit.label()
        key = self.entry_key(workload, unit)

        def decode(path):
            faults.fire("store.read", key=label)
            with open(path, "r", encoding="utf-8") as handle:
                document = json.loads(handle.read())
            if (
                not isinstance(document, dict)
                or document.get("magic") != MAGIC
                or document.get("key") != key
                or _checksum(document["payload"]) != document.get("checksum")
            ):
                raise ValueError("result entry does not match its key")
            return document["payload"]

        return self._read(label, self._path(workload, unit, key), decode)

    def store(self, workload, unit, payload):
        """Atomically write one result entry; returns its file path.

        Returns ``None`` instead of raising once exhausted write retries
        have degraded the store.
        """
        label = unit.label()
        key = self.entry_key(workload, unit)
        blob = json.dumps(
            {
                "magic": MAGIC,
                "key": key,
                "payload": payload,
                "checksum": _checksum(payload),
            },
            sort_keys=True,
        )

        def dump(temp_path, attempt):
            faults.fire("store.write", key="%s#%d" % (label, attempt))
            with open(temp_path, "w", encoding="utf-8") as handle:
                handle.write(blob)

        return self._write(label, self._path(workload, unit, key), dump)

    # ------------------------------------------------------------ inspection

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
