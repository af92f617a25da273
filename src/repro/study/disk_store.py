"""The on-disk entry discipline every persistent artifact follows.

The engine persists significance-compressed traces
(:class:`~repro.study.trace_cache.TraceCache`, ``*.trace``) and
per-unit results (:class:`~repro.study.result_store.ResultStore`,
``*.result``) under one cache directory, and the run log
(:mod:`repro.obs.runlog`) writes its manifests under ``runs/`` beside
them.  This module owns the one durability policy they share:

* **atomic writes** — :func:`atomic_write` fills a ``.<name>-XXXX.tmp``
  temp file and ``os.replace``\\ s it over the entry, so concurrent
  processes never observe a partial entry.  An interrupt (Ctrl-C,
  SIGTERM) removes the temp file on the way out; strays from a hard
  kill are found by :func:`stray_temp_files`, which ``repro cache
  info`` reports and ``repro cache clear`` removes;
* **retry, then degrade** — a write failing with ``OSError`` (full
  disk, read-only directory, an injected ``eio``) is retried
  :data:`WRITE_ATTEMPTS` times with backoff; a store whose writes keep
  failing flips into in-memory-only *degraded mode* (one stderr
  warning, the ``store_degraded`` gauge) and skips every later write,
  so a run on a broken disk completes compute-only;
* **fail-closed reads** — a missing or unreadable file is a plain miss
  and stays on disk (a transient ``EIO`` must not destroy a good
  entry); a file that fails validation (truncation, bit rot, version
  skew, a key mismatch) is deleted and counted as a miss, so the
  recomputed entry replaces it.

:class:`DiskStore` implements the last two and the ``hits`` /
``misses`` / ``stores`` counters; a store subclass supplies only what
differs — the entry key and path, the encoding, and ``info()``.  See
``docs/ROBUSTNESS.md``.
"""

import os
import sys
import tempfile
import time

from repro.obs.metrics import MetricsRegistry, format_label

#: Write-retry policy: attempts per entry, and the base of the
#: exponential backoff between them (seconds).
WRITE_ATTEMPTS = 3
WRITE_BACKOFF = 0.02

#: Suffix of every in-flight temp file (its name also starts with ".").
TEMP_SUFFIX = ".tmp"


def _listdir(directory):
    try:
        return os.listdir(directory)
    except OSError:
        return []


def _discard(path):
    """Delete ``path`` if possible; True when a file was removed."""
    try:
        os.remove(path)
    except OSError:
        return False
    return True


def atomic_write(path, dump):
    """Write ``path`` all or nothing; returns ``path``.

    ``dump(temp_path)`` fills a temp file in the entry's directory
    (created on demand), which ``os.replace`` then moves over ``path``.
    On any exit before that, ``KeyboardInterrupt`` and ``SystemExit``
    included, the temp file is removed and the exception propagates.
    """
    directory, name = os.path.split(path)
    os.makedirs(directory, exist_ok=True)
    fd, temp_path = tempfile.mkstemp(
        prefix=".%s-" % name, suffix=TEMP_SUFFIX, dir=directory
    )
    os.close(fd)
    try:
        dump(temp_path)
        os.replace(temp_path, path)
    except BaseException:
        _discard(temp_path)
        raise
    return path


def stray_temp_files(directory):
    """Sorted names of orphaned temp files (``.*.tmp``) in ``directory``.

    Every writer goes through :func:`atomic_write`, so anything of that
    shape outside a running write is a leak from a hard-killed writer.
    """
    return sorted(
        name for name in _listdir(directory)
        if name.startswith(".") and name.endswith(TEMP_SUFFIX)
    )


def remove_stray_temp_files(directory):
    """Delete the orphaned temp files in ``directory``; returns how many."""
    return sum(
        _discard(os.path.join(directory, name))
        for name in stray_temp_files(directory)
    )


class DiskStore:
    """A directory of ``*<SUFFIX>`` entries under the shared policy.

    Subclasses set :attr:`NAME`, :attr:`SUFFIX`, :attr:`LABEL_KEY` and
    :attr:`DESCRIPTIONS`, and build ``load``/``store`` on :meth:`_read`
    and :meth:`_write`.  The directory is created only by the first
    write: read paths (``load``, ``info``, ``clear``) must not leave
    empty directories at a mistyped location.
    """

    #: Prefix of the registered ``<NAME>_hits``/``_misses``/``_stores``
    #: counters, and this store's label in the shared
    #: ``store_write_failures`` counter and ``store_degraded`` gauge.
    NAME = None
    #: File-name suffix of an entry.
    SUFFIX = None
    #: Label encoder of the hit/miss/store counters.
    LABEL_KEY = staticmethod(format_label)
    #: Descriptions of the hits, misses and stores counters.
    DESCRIPTIONS = None

    def __init__(self, root, registry=None):
        self.root = str(root)
        #: True once writes have failed past the retry budget: every
        #: later write is skipped (reads keep working).
        self.degraded = False
        self.registry = None
        self.bind_registry(
            registry if registry is not None else MetricsRegistry()
        )

    def bind_registry(self, registry):
        """Re-home the store's instruments in ``registry``.

        A store starts in a private registry; the session's trace store
        or broker rebinds it to the session's.  Current counts carry
        over, so nothing counted before the rebinding is lost.
        """
        if registry is self.registry:
            return
        for attribute, description in zip(
            ("hits", "misses", "stores"), self.DESCRIPTIONS
        ):
            counter = registry.counter(
                "%s_%s" % (self.NAME, attribute), description,
                key=self.LABEL_KEY,
            )
            for label, count in getattr(self, attribute, {}).items():
                counter.inc(label, count)
            setattr(self, attribute, counter)
        failures = registry.counter(
            "store_write_failures",
            "persistent store writes that failed with OSError",
        )
        # The instrument is shared by both stores: carry only this
        # store's own label over.
        previous = getattr(self, "write_failures", {}).get(self.NAME)
        if previous:
            failures.inc(self.NAME, previous)
        self.write_failures = failures
        self._degraded_gauge = registry.gauge(
            "store_degraded", "1 once a store has flipped to in-memory-only mode"
        )
        if self.degraded:
            self._degraded_gauge.set(self.NAME, 1)
        self.registry = registry

    def _read(self, label, path, decode):
        """``decode(path)`` counted as a hit, or ``None`` on a miss.

        ``OSError`` (a missing or unreadable file) is a plain miss that
        keeps the file.  ``ValueError``/``KeyError``/``TypeError`` (the
        entry failed validation) deletes the file before the miss.
        """
        try:
            value = decode(path)
        except OSError:
            self.misses.inc(label)
            return None
        except (ValueError, KeyError, TypeError):
            _discard(path)
            self.misses.inc(label)
            return None
        self.hits.inc(label)
        return value

    def _write(self, label, path, dump):
        """Atomically write ``path`` via ``dump(temp_path, attempt)``.

        Returns ``path``, or ``None`` once the store is degraded.  The
        ``attempt`` number lets the store key its fault point, so a
        retry draws a fresh decision.
        """
        if self.degraded:
            return None
        for attempt in range(WRITE_ATTEMPTS):
            try:
                atomic_write(path, lambda temp_path: dump(temp_path, attempt))
            except OSError as error:
                self.write_failures.inc(self.NAME)
                if attempt + 1 < WRITE_ATTEMPTS:
                    time.sleep(WRITE_BACKOFF * (2 ** attempt))
                    continue
                self._degrade(error)
                return None
            self.stores.inc(label)
            return path

    def _degrade(self, error):
        """Flip into in-memory-only mode after exhausted write retries."""
        self.degraded = True
        self._degraded_gauge.set(self.NAME, 1)
        print(
            "repro: %s %s degraded to in-memory-only after %d failed "
            "write attempts: %s" % (self.NAME, self.root, WRITE_ATTEMPTS, error),
            file=sys.stderr,
        )

    def entries(self):
        """Sorted file names of every entry."""
        return sorted(
            name for name in _listdir(self.root) if name.endswith(self.SUFFIX)
        )

    def clear(self):
        """Delete every entry and stray temp file; returns how many."""
        return remove_stray_temp_files(self.root) + sum(
            _discard(os.path.join(self.root, name)) for name in self.entries()
        )

    def __repr__(self):
        return "%s(%r)" % (type(self).__name__, self.root)
