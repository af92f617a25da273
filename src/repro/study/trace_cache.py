"""Persistent on-disk trace cache.

Materializing a trace (compile + simulate) dwarfs analysis, and PR 1's
:class:`~repro.study.session.TraceStore` only amortizes that cost within
one process.  :class:`TraceCache` extends the amortization across
processes and CI runs: every materialized trace is written to a cache
directory in the significance-compressed format of
:mod:`repro.sim.tracefile`, and later sessions read it back instead of
simulating.

Entries are keyed by ``(workload name, scale, source hash, toolchain
fingerprint, codec version)``:

* the *source hash* covers the workload's generated MiniC text, so any
  kernel or input change (including the ``scale``, which shapes the
  text) invalidates;
* the *toolchain fingerprint* covers every Python source file of the
  compiler, assembler/ISA and simulator packages, so a codegen or
  interpreter change invalidates;
* the *codec version* invalidates when the on-disk encoding changes.

A stale key simply never matches — old files sit inert until
``repro cache clear``.  Damaged files (truncation, bit rot, version
skew) fail closed: :meth:`TraceCache.load` returns ``None`` and deletes
the file, and the caller re-simulates.  Writes go through a temp file
and ``os.replace`` so concurrent processes never observe a partial
entry; the temp file is removed in a ``finally``, so an interrupted
write cannot leak it (strays from a hard kill are reported by ``cache
info`` and removed by ``cache clear``).

Writes also **degrade instead of raising**: a transient ``OSError``
(full disk, read-only directory, injected ``cache.write:eio``) is
retried :data:`WRITE_ATTEMPTS` times with backoff, and a store whose
writes keep failing flips into an in-memory-only *degraded mode* — a
one-time stderr warning, the ``store_degraded`` gauge, and silently
skipped writes from then on.  Reads never degrade; the in-process
:class:`~repro.study.session.TraceStore` keeps serving, so a run on a
broken disk completes compute-only instead of crashing.  See
``docs/ROBUSTNESS.md``.
"""

import hashlib
import json
import os
import sys
import tempfile
import time

from repro.obs import faults
from repro.obs.metrics import MetricsRegistry, format_workload_scale
from repro.sim import tracefile

#: Environment variable supplying a default cache directory to the CLI.
ENV_CACHE_DIR = "REPRO_CACHE_DIR"

#: Write-retry policy shared by :class:`TraceCache` and the result
#: store: attempts per entry, and the base of the exponential backoff
#: between them (seconds).
WRITE_ATTEMPTS = 3
WRITE_BACKOFF = 0.02

#: Shared instrument descriptions (both stores register these in the
#: same session registry, and registration demands one description).
WRITE_FAILURES_DESCRIPTION = "persistent store writes that failed with OSError"
DEGRADED_DESCRIPTION = "1 once a store has flipped to in-memory-only mode"

#: Packages whose sources determine trace content (compile + simulate).
_TOOLCHAIN_PACKAGES = ("repro.minic", "repro.asm", "repro.isa", "repro.sim")

_toolchain_fingerprint = None


def default_cache_dir():
    """The ``REPRO_CACHE_DIR`` environment default (None when unset/empty)."""
    return os.environ.get(ENV_CACHE_DIR) or None


def fingerprint_sources(packages=(), modules=()):
    """Hex digest over the sources of packages (recursive) and modules.

    Hashes the dotted name, relative path and contents of every ``.py``
    file involved, so any source change — anywhere in those trees —
    yields a new digest.  Both this module's toolchain fingerprint and
    the result store's engine fingerprint are built on this walker.
    """
    digest = hashlib.sha256()
    for package_name in packages:
        package = __import__(package_name, fromlist=["__file__"])
        root = os.path.dirname(package.__file__)
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            for filename in sorted(filenames):
                if not filename.endswith(".py"):
                    continue
                path = os.path.join(dirpath, filename)
                relative = os.path.relpath(path, root)
                digest.update(("%s:%s\n" % (package_name, relative)).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    for module_name in modules:
        module = __import__(module_name, fromlist=["__file__"])
        digest.update(("%s\n" % module_name).encode())
        with open(module.__file__, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def toolchain_fingerprint():
    """Hex digest over every toolchain source file (computed once).

    Hashes the relative path and contents of each ``.py`` file under the
    compiler, assembler/ISA and simulator packages — the code whose
    behaviour decides what a trace contains.
    """
    global _toolchain_fingerprint
    if _toolchain_fingerprint is None:
        _toolchain_fingerprint = fingerprint_sources(_TOOLCHAIN_PACKAGES)
    return _toolchain_fingerprint


def source_hash(workload, scale=1):
    """Hex digest of the workload's generated MiniC source at ``scale``."""
    return hashlib.sha256(workload.source(scale).encode("utf-8")).hexdigest()


def stray_temp_files(root):
    """Orphaned ``.tmp`` names under ``root`` from interrupted writes.

    Both stores write through ``mkstemp(prefix=".", suffix=".tmp")``;
    anything matching that shape after a write finished is a leak (a
    hard-killed writer), which ``cache info`` reports and ``cache
    clear`` removes.
    """
    try:
        names = os.listdir(root)
    except OSError:
        return []
    return sorted(
        name for name in names
        if name.startswith(".") and name.endswith(".tmp")
    )


def remove_stray_temp_files(root):
    """Delete orphaned temp files under ``root``; returns how many."""
    removed = 0
    for name in stray_temp_files(root):
        try:
            os.remove(os.path.join(root, name))
            removed += 1
        except OSError:
            pass
    return removed


class TraceCache:
    """Directory of significance-compressed trace files, safely keyed.

    ``load``/``store`` are the whole protocol: ``load`` returns the
    decoded records or ``None`` (missing, stale or damaged entry) and
    ``store`` writes one atomically.  ``info``/``clear`` back the
    ``repro cache`` CLI subcommand.
    """

    #: (metric attribute, registered name, description) per instrument.
    _COUNTERS = (
        ("hits", "trace_cache_hits", "cache files served"),
        ("misses", "trace_cache_misses", "lookups with no usable file"),
        ("stores", "trace_cache_stores", "trace files written"),
    )

    #: Label this store reports under in the shared ``store_write_failures``
    #: counter and ``store_degraded`` gauge.
    _DEGRADED_LABEL = "trace_cache"

    def __init__(self, root, registry=None):
        # The directory is only created on first store(): read paths
        # (info, clear, load) must not leave empty directories behind
        # when pointed at a mistyped location.
        self.root = str(root)
        #: True once writes have failed past the retry budget: the
        #: store skips all further writes (reads keep working) instead
        #: of aborting runs that could complete compute-only.
        self.degraded = False
        #: Process-local counters, keyed like TraceStore: (name, scale).
        #: Registered in a :class:`~repro.obs.metrics.MetricsRegistry`
        #: (a private one until a TraceStore rebinds the cache to the
        #: session's via :meth:`bind_registry`).
        self.registry = None
        self.bind_registry(
            registry if registry is not None else MetricsRegistry()
        )

    def bind_registry(self, registry):
        """Re-home the cache's counters in ``registry``.

        Current values carry over (they are merged into the registry's
        instruments), so a cache constructed before the session's
        registry existed loses nothing when the trace store adopts it.
        """
        if registry is self.registry:
            return
        for attribute, name, description in self._COUNTERS:
            counter = registry.counter(
                name, description, key=format_workload_scale
            )
            previous = getattr(self, attribute, None)
            if previous:
                for label, count in previous.items():
                    counter.inc(label, count)
            setattr(self, attribute, counter)
        failures = registry.counter(
            "store_write_failures", WRITE_FAILURES_DESCRIPTION
        )
        previous = getattr(self, "write_failures", None)
        if previous:
            for label, count in dict(previous).items():
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
        self._degraded_gauge.set(self._DEGRADED_LABEL, 1)
        print(
            "repro: %s %s degraded to in-memory-only after %d failed "
            "write attempts: %s"
            % (self._DEGRADED_LABEL, self.root, WRITE_ATTEMPTS, error),
            file=sys.stderr,
        )

    # ---------------------------------------------------------------- keys

    def entry_key(self, workload, scale=1):
        """Digest identifying one trace: workload + source + toolchain + codec."""
        blob = json.dumps(
            [
                workload.name,
                scale,
                source_hash(workload, scale),
                toolchain_fingerprint(),
                tracefile.CODEC_VERSION,
            ]
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def path_for(self, workload, scale=1):
        """Cache file path for a ``(workload, scale)`` trace."""
        return os.path.join(
            self.root,
            "%s@%d-%s.trace"
            % (workload.name, scale, self.entry_key(workload, scale)[:16]),
        )

    # ------------------------------------------------------------- protocol

    def load(self, workload, scale=1):
        """Decoded records for the workload's trace, or ``None`` on a miss.

        A damaged or version-skewed file counts as a miss: it is deleted
        (best effort) so the re-simulated trace can replace it.
        """
        key = (workload.name, scale)
        path = self.path_for(workload, scale)
        try:
            if faults.fire("trace.decode", key=os.path.basename(path)):
                raise tracefile.TraceCodecError(
                    "injected decode fault: %s" % path
                )
            records, _meta = tracefile.load_trace(path)
        except FileNotFoundError:
            self.misses[key] = self.misses.get(key, 0) + 1
            return None
        except (tracefile.TraceCodecError, OSError, ValueError):
            try:
                os.remove(path)
            except OSError:
                pass
            self.misses[key] = self.misses.get(key, 0) + 1
            return None
        self.hits[key] = self.hits.get(key, 0) + 1
        return records

    def store(self, workload, scale, records):
        """Atomically write one trace entry; returns its file path.

        Transient ``OSError``s are retried with backoff; exhausted
        retries flip the store into degraded mode and return ``None``
        (as does every write after that) instead of raising.
        """
        if self.degraded:
            return None
        key = (workload.name, scale)
        path = self.path_for(workload, scale)
        meta = {
            "workload": workload.name,
            "scale": scale,
            "source_hash": source_hash(workload, scale),
            "toolchain": toolchain_fingerprint(),
        }
        name = os.path.basename(path)
        for attempt in range(WRITE_ATTEMPTS):
            try:
                faults.fire("cache.write", key="%s#%d" % (name, attempt))
                self._write_entry(path, workload, scale, records, meta)
            except OSError as error:
                self.write_failures.inc(self._DEGRADED_LABEL)
                if attempt + 1 < WRITE_ATTEMPTS:
                    time.sleep(WRITE_BACKOFF * (2 ** attempt))
                    continue
                self._degrade(error)
                return None
            self.stores[key] = self.stores.get(key, 0) + 1
            return path

    def _write_entry(self, path, workload, scale, records, meta):
        # try/finally, not except/re-raise: the temp file must be gone
        # on *every* exit, including KeyboardInterrupt/SystemExit mid
        # dump (os.replace already consumed it on the success path, so
        # the unlink is a no-op there).
        os.makedirs(self.root, exist_ok=True)
        fd, temp_path = tempfile.mkstemp(
            prefix=".%s@%d-" % (workload.name, scale), suffix=".tmp",
            dir=self.root,
        )
        os.close(fd)
        try:
            tracefile.dump_trace(temp_path, records, meta=meta)
            os.replace(temp_path, path)
        finally:
            try:
                os.remove(temp_path)
            except OSError:
                pass

    # ------------------------------------------------------------ inspection

    def entries(self):
        """Sorted file names of every (readable) cache entry."""
        try:
            names = os.listdir(self.root)
        except OSError:
            return []
        return sorted(name for name in names if name.endswith(".trace"))

    def info(self):
        """Aggregate cache statistics for ``repro cache info``.

        Returns a dict with entry/record counts, encoded vs naive
        fixed-width byte totals and their ratio (< 1.0 means the
        significance compression is winning), plus the number of
        unreadable files encountered while scanning.
        """
        entries = 0
        records = 0
        encoded_bytes = 0
        naive_bytes = 0
        unreadable = 0
        for name in self.entries():
            path = os.path.join(self.root, name)
            try:
                meta = tracefile.read_meta(path)
            except (tracefile.TraceCodecError, OSError):
                unreadable += 1
                continue
            entries += 1
            records += int(meta.get("records", 0))
            encoded_bytes += int(meta.get("payload_bytes", 0))
            naive_bytes += int(meta.get("naive_bytes", 0))
        return {
            "dir": self.root,
            "entries": entries,
            "records": records,
            "encoded_bytes": encoded_bytes,
            "naive_bytes": naive_bytes,
            "ratio": (encoded_bytes / naive_bytes) if naive_bytes else 0.0,
            "unreadable": unreadable,
            "temp_files": len(stray_temp_files(self.root)),
            "codec_version": tracefile.CODEC_VERSION,
        }

    def clear(self):
        """Delete every cache entry (and stray temp file); returns count."""
        removed = remove_stray_temp_files(self.root)
        for name in self.entries():
            try:
                os.remove(os.path.join(self.root, name))
                removed += 1
            except OSError:
                pass
        return removed

    def __repr__(self):
        return "TraceCache(%r)" % self.root
