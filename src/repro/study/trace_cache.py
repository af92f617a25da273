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
``repro cache clear``.  Writes, reads and degraded mode follow the one
policy of :mod:`repro.study.disk_store`: an unreadable file is a plain
miss, and a damaged or version-skewed one (truncation, bit rot) is
deleted so the re-simulated trace replaces it.  The in-process
:class:`~repro.study.session.TraceStore` keeps serving when the disk
does not, so a run on a broken disk completes compute-only.
"""

import hashlib
import json
import os

from repro.obs import faults
from repro.obs.metrics import format_workload_scale
from repro.sim import tracefile
from repro.study.disk_store import DiskStore, stray_temp_files

#: Environment variable supplying a default cache directory to the CLI.
ENV_CACHE_DIR = "REPRO_CACHE_DIR"

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


class TraceCache(DiskStore):
    """Directory of significance-compressed trace files, safely keyed.

    ``load``/``store`` are the whole protocol: ``load`` returns the
    decoded records or ``None`` (missing, stale or damaged entry) and
    ``store`` writes one atomically.  ``info``/``clear`` back the
    ``repro cache`` CLI subcommand.  Counters are keyed like
    :class:`~repro.study.session.TraceStore`'s: ``(name, scale)``.
    """

    NAME = "trace_cache"
    SUFFIX = ".trace"
    LABEL_KEY = staticmethod(format_workload_scale)
    DESCRIPTIONS = ("cache files served", "lookups with no usable file",
                    "trace files written")

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

        Fault keys are ``workload@scale``: stable across toolchain
        edits, unlike the file name.
        """
        key = (workload.name, scale)

        def decode(path):
            if faults.fire("trace.decode", key=format_workload_scale(key)):
                raise tracefile.TraceCodecError(
                    "injected decode fault: %s" % path
                )
            return tracefile.load_trace(path)[0]

        return self._read(key, self.path_for(workload, scale), decode)

    def store(self, workload, scale, records):
        """Atomically write one trace entry; returns its file path.

        Returns ``None`` instead of raising once exhausted write retries
        have degraded the store.
        """
        key = (workload.name, scale)
        meta = {
            "workload": workload.name,
            "scale": scale,
            "source_hash": source_hash(workload, scale),
            "toolchain": toolchain_fingerprint(),
        }

        def dump(temp_path, attempt):
            faults.fire(
                "cache.write",
                key="%s#%d" % (format_workload_scale(key), attempt),
            )
            tracefile.dump_trace(temp_path, records, meta=meta)

        return self._write(key, self.path_for(workload, scale), dump)

    # ------------------------------------------------------------ inspection

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
