"""Deterministic fault injection for the execution and persistence stack.

Correctness under partial failure has to be *proven*, not assumed: a
forked worker OOM-killed mid-task, a disk returning ``EIO`` on a store
write, a cache file rotting between runs — every one of those paths has
a recovery story (supervised retry, degraded-mode stores, fail-closed
cache misses), and this module makes each of them testable and
reproducible.

The engine registers named **injection points** at the real call sites
(:data:`POINTS` is the catalog; ``tools/check_invariants.py`` verifies
every ``faults.fire(...)`` site names a cataloged point and that the
catalog is documented in ``docs/ROBUSTNESS.md``).  A seeded
:class:`FaultInjector` — parsed from ``--inject-faults SPEC`` or
``$REPRO_FAULTS`` — decides, deterministically, which evaluations of a
point actually fail:

    store.write:eio@0.2,worker.task:kill@0.1,seed=7

Each clause is ``point:mode@rate``; ``seed=N`` seeds the decision
stream.  A decision is a pure function of ``(seed, point, key, per-key
draw counter)`` — the *key* is call-site context (the entry file name,
the unit label plus attempt number) — so the same spec replays the same
failures regardless of scheduling or which worker performs the work,
retries draw fresh decisions, and two workers forked from the same
parent do not fail in lockstep.

Modes are interpreted here, not at the call sites, so sites stay one
line: ``eio`` raises :class:`OSError` (``errno.EIO``); ``kill`` exits
the process immediately (``os._exit``, exit code :data:`KILL_EXIT_CODE`
— only meaningful at ``worker.task``, where the supervised executor
detects the dead worker); ``exc`` raises
:class:`InjectedWorkerError`; ``hang`` sleeps far past any sane unit
deadline (exercising ``--unit-timeout``); ``corrupt`` is returned to
the call site, which converts it into its own domain error (a
``TraceCodecError`` for trace decodes) so the injected failure walks
the exact fail-closed path real bit rot would.

The injector is process-global, like the tracer: :func:`install` arms
it, forked workers inherit it, and :func:`fire` is a no-op when none is
installed.  Fired faults are counted in a ``faults_injected`` counter
(bound into the session registry via :func:`bind_registry`, so worker
deltas merge like every other instrument) and summarized into the run
manifest (see :func:`describe_active`).
"""

import errno
import hashlib
import os
import time

from repro.obs.metrics import Counter

#: Environment variable supplying a default fault spec to the CLI.
ENV_FAULTS = "REPRO_FAULTS"

#: Exit code of a ``kill``-mode injected worker death (distinctive, so
#: a supervised-executor crash report can tell injected kills from real
#: segfaults or the OOM killer).
KILL_EXIT_CODE = 86

#: How long a ``hang``-mode fault sleeps: far past any sane
#: ``--unit-timeout``, so the deadline machinery is what ends it.
HANG_SECONDS = 3600.0

#: The fault modes an injector can apply.
EIO_MODE = "eio"
CORRUPT_MODE = "corrupt"
KILL_MODE = "kill"
EXC_MODE = "exc"
HANG_MODE = "hang"

#: Injection-point catalog: point name -> allowed fault modes.  Every
#: ``faults.fire(...)`` call site must name a key of this dict, every
#: key must have a live call site, and every key must be documented in
#: ``docs/ROBUSTNESS.md`` — all three directions are enforced by
#: invariant 7 in ``tools/check_invariants.py``.
POINTS = {
    "store.write": ("eio",),
    "store.read": ("eio",),
    "cache.write": ("eio",),
    "trace.decode": ("corrupt",),
    "worker.task": ("kill", "exc", "hang"),
}

#: Description of the ``faults_injected`` counter.
_INJECTED_DESCRIPTION = "injected faults fired, per point:mode"

#: Cap on the per-run fault event list shipped into the run manifest.
MAX_EVENTS = 200


class FaultSpecError(ValueError):
    """An ``--inject-faults`` / ``$REPRO_FAULTS`` spec does not parse."""


class InjectedWorkerError(RuntimeError):
    """The ``exc`` fault mode: a worker task raising mid-flight."""


def _decision(seed, point, key, draw):
    """Uniform [0, 1) value, a pure function of the decision identity."""
    blob = "%d|%s|%s|%d" % (seed, point, "" if key is None else key, draw)
    digest = hashlib.sha256(blob.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


class FaultInjector:
    """Seeded, deterministic fault decisions over the point catalog.

    ``rules`` maps point name -> ``(mode, rate)``.  :meth:`fire`
    evaluates one point; fired faults are counted (per ``point:mode``
    label) and remembered (capped event list) for the run manifest.
    """

    def __init__(self, rules, seed=0, spec=None):
        for point, (mode, rate) in rules.items():
            if point not in POINTS:
                raise FaultSpecError(
                    "unknown fault point %r; known: %s"
                    % (point, ", ".join(sorted(POINTS)))
                )
            if mode not in POINTS[point]:
                raise FaultSpecError(
                    "fault point %r does not support mode %r (allowed: %s)"
                    % (point, mode, ", ".join(POINTS[point]))
                )
            if not 0.0 < rate <= 1.0:
                raise FaultSpecError(
                    "fault rate for %r must be in (0, 1], got %r"
                    % (point, rate)
                )
        self.rules = dict(rules)
        self.seed = seed
        self.spec = spec
        #: ``point:mode`` label -> fired count, until :func:`bind_registry`
        #: re-homes it in a session registry.
        self.injected = Counter("faults_injected", _INJECTED_DESCRIPTION)
        #: The first :data:`MAX_EVENTS` fired faults, for the manifest.
        self.events = []
        self._draws = {}

    @classmethod
    def parse(cls, spec):
        """Build an injector from a ``point:mode@rate,...,seed=N`` spec."""
        rules = {}
        seed = 0
        for clause in spec.split(","):
            clause = clause.strip()
            if not clause:
                continue
            if clause.startswith("seed="):
                try:
                    seed = int(clause[len("seed="):])
                except ValueError:
                    raise FaultSpecError(
                        "fault seed must be an integer, got %r"
                        % clause[len("seed="):]
                    )
                continue
            try:
                point, rest = clause.split(":", 1)
                mode, rate_text = rest.split("@", 1)
                rate = float(rate_text)
            except ValueError:
                raise FaultSpecError(
                    "fault clause %r is not point:mode@rate" % clause
                )
            if point in rules:
                raise FaultSpecError("fault point %r named twice" % point)
            rules[point] = (mode, rate)
        if not rules:
            raise FaultSpecError(
                "fault spec %r names no point:mode@rate clauses" % spec
            )
        return cls(rules, seed=seed, spec=spec)

    def fire(self, point, key=None):
        """Evaluate one injection point; apply (or report) its fault.

        Returns ``None`` when the point is unarmed or the decision says
        pass.  ``eio``/``exc`` raise, ``kill`` exits the process,
        ``hang`` sleeps; only ``corrupt`` returns (its mode string) for
        the call site to convert into its domain error.
        """
        if point not in POINTS:
            raise FaultSpecError(
                "fire() called for unregistered fault point %r" % point
            )
        rule = self.rules.get(point)
        if rule is None:
            return None
        mode, rate = rule
        # Draws are counted per (point, key), not per point: the nth
        # evaluation of one key decides identically no matter which
        # process performs it or how work was scheduled across workers.
        draw = self._draws.get((point, key), 0)
        self._draws[(point, key)] = draw + 1
        if _decision(self.seed, point, key, draw) >= rate:
            return None
        self._record(point, mode, key)
        if mode == EIO_MODE:
            raise OSError(
                errno.EIO,
                "injected fault at %s (key=%s)" % (point, key),
            )
        if mode == KILL_MODE:
            os._exit(KILL_EXIT_CODE)
        if mode == EXC_MODE:
            raise InjectedWorkerError(
                "injected fault at %s (key=%s)" % (point, key)
            )
        if mode == HANG_MODE:
            time.sleep(HANG_SECONDS)
            return None
        return mode  # corrupt: the call site raises its domain error

    def _record(self, point, mode, key):
        self.injected.inc("%s:%s" % (point, mode))
        if len(self.events) < MAX_EVENTS:
            self.events.append(
                {"point": point, "mode": mode, "key": key, "pid": os.getpid()}
            )

    def bind_registry(self, registry):
        """Re-home the fired-fault counter in ``registry``.

        Mirrors the cache stores' discipline: current counts carry
        over, and once bound the counter rides the registry's
        snapshot/diff/merge machinery, so faults fired inside forked
        workers are merged back into the parent's report (``kill``-mode
        fires excepted — the worker dies before shipping its delta; the
        supervisor's ``worker_crashes`` counter is their parent-side
        record).
        """
        counter = registry.counter("faults_injected", _INJECTED_DESCRIPTION)
        for label, count in self.injected.items():
            counter.inc(label, count)
        self.injected = counter

    def describe(self):
        """JSON-able summary (spec, seed, rules, counts) for manifests."""
        return {
            "spec": self.spec,
            "seed": self.seed,
            "rules": {
                point: {"mode": mode, "rate": rate}
                for point, (mode, rate) in sorted(self.rules.items())
            },
            "injected": {
                label: count
                for label, count in sorted(dict(self.injected).items())
            },
            "events": list(self.events),
        }

    def __repr__(self):
        return "FaultInjector(%d rules, seed=%d)" % (
            len(self.rules), self.seed
        )


_INJECTOR = None


def install(injector):
    """Install ``injector`` (or ``None``) as the process-global injector."""
    global _INJECTOR
    _INJECTOR = injector


def current_injector():
    """The installed :class:`FaultInjector`, or ``None``."""
    return _INJECTOR


def install_spec(spec):
    """Parse and install a spec string; returns the injector.

    Raises :class:`FaultSpecError` (a ``ValueError``) on a malformed
    spec, before anything is installed.
    """
    injector = FaultInjector.parse(spec)
    install(injector)
    return injector


def default_spec():
    """The ``$REPRO_FAULTS`` environment default (None when unset/empty)."""
    return os.environ.get(ENV_FAULTS) or None


def fire(point, key=None):
    """Evaluate ``point`` on the installed injector (no-op without one).

    This is the one function call sites use; see
    :meth:`FaultInjector.fire` for mode semantics.  ``key`` is
    call-site context that feeds the deterministic decision — include
    an attempt number in it wherever the caller retries, so retried
    operations draw fresh decisions.
    """
    if _INJECTOR is None:
        return None
    return _INJECTOR.fire(point, key)


def bind_registry(registry):
    """Bind the installed injector's counter into ``registry`` (if any)."""
    if _INJECTOR is not None:
        _INJECTOR.bind_registry(registry)


def describe_active():
    """The installed injector's manifest summary, or ``None``."""
    if _INJECTOR is None:
        return None
    return _INJECTOR.describe()
