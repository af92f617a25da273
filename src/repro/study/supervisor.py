"""Supervised worker pool for forked unit execution.

The broker's original fan-out was a bare ``pool.map``: one OOM-killed
worker aborted the entire ``repro all --jobs N`` run, a wedged unit
held the pool forever, and neither left a trace in the metrics.  This
module replaces it with a supervised pool — the workers stay
long-lived (forked once, fork start method: they inherit the broker
for free, and the copy-on-write cost is paid per worker, not per
task), while supervision is per *task*:

* **per-task dispatch** — tasks travel to workers over duplex pipes,
  one attempt at a time, with at most ``jobs`` workers alive;
* **dead-worker detection** — a worker that exits without shipping a
  result (segfault, OOM kill, injected ``worker.task:kill``) is
  detected through its pipe's EOF and its exit code, counted in the
  ``worker_crashes`` counter, and replaced; its task is retried;
* **deadline timeouts** — ``unit_timeout`` seconds per attempt
  (``--unit-timeout``); an expired worker is stopped and treated as a
  crash;
* **graceful stop** — a worker is stopped with SIGTERM, which it turns
  into ``SystemExit`` so an in-flight cache write removes its temp
  file; only a worker still alive :data:`STOP_GRACE` seconds later is
  killed;
* **retry with exponential backoff** — every retry draws a fresh
  fault decision and backs off ``backoff * 2**n`` seconds, counted in
  ``unit_retries``;
* **quarantine** — a task that kills its worker
  :data:`QUARANTINE_CRASHES` times is assumed to be poison for the
  forked path and re-run serially in-process (where the
  ``worker.task`` injection point does not exist and a crash would be
  a real engine bug);
* **guaranteed serial fallback** — a task whose worker *raised*
  (rather than died) more than ``max_retries`` times gets one final
  in-process attempt before the error propagates, so only failures
  that reproduce in the parent abort a run.

Because results are collected by task index, a run with crashing
workers finishes with output byte-identical to a clean serial run —
the chaos CI job holds this line — and because the workers persist,
fault-free supervision costs within a few percent of the bare
``pool.map`` it replaced (``benchmarks/bench_runner.py`` tracks the
ratio).  Every resolution records a ``supervise:<label>`` span
annotated with ``attempt=`` and ``outcome=`` for the trace and run
manifest.
"""

import multiprocessing.connection
import os
import signal
import time
import traceback

from repro.obs import faults, tracing

#: Default per-task retry budget for worker *failures* (exceptions);
#: crashes quarantine on their own schedule.  ``--max-retries``.
DEFAULT_MAX_RETRIES = 2

#: Worker deaths (crashes or timeouts) before a task is quarantined to
#: the serial in-process path.
QUARANTINE_CRASHES = 2

#: Base of the exponential retry backoff, in seconds.
DEFAULT_BACKOFF = 0.05

#: Ceiling on a single retry backoff, in seconds.
MAX_BACKOFF = 1.0

#: Seconds a stopped worker gets to unwind after SIGTERM (its pending
#: ``finally`` blocks remove half-written temp files) before SIGKILL.
STOP_GRACE = 2.0


def sigterm_to_exit(signum, frame):
    """SIGTERM handler: raise ``SystemExit`` so cleanup blocks run.

    An in-flight store write then removes its temp file, and the
    process still exits with the conventional ``128 + SIGTERM`` status.
    Forked workers and the CLI process both install it.
    """
    raise SystemExit(128 + signum)


class UnitExecutionError(RuntimeError):
    """A task failed in a worker and in the final in-process attempt."""


class _Inflight:
    """One dispatched attempt: which task, which try, and its deadline."""

    __slots__ = ("index", "attempt", "deadline")

    def __init__(self, index, attempt, deadline):
        self.index = index
        self.attempt = attempt
        self.deadline = deadline


class _Worker:
    """One persistent forked worker and the attempt it is running."""

    __slots__ = ("process", "conn", "current")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        self.current = None  # an _Inflight while busy


class _TaskState:
    """Per-task supervision bookkeeping across attempts."""

    __slots__ = ("attempts", "crashes", "failures", "last_error")

    def __init__(self):
        self.attempts = 0
        self.crashes = 0
        self.failures = 0
        self.last_error = None


class SupervisedExecutor:
    """Run tasks across a supervised worker pool, results in order.

    ``worker`` computes one task (in a forked child, after the
    ``worker.task`` fault point); ``inline`` computes one task in the
    parent process — the quarantine / last-resort path — and must
    return the same payload shape.  ``label_for`` names a task for
    counters, spans, and fault keys.
    """

    def __init__(self, context, worker, inline, registry, jobs, label_for,
                 max_retries=None, unit_timeout=None, backoff=None):
        self.context = context
        self.worker = worker
        self.inline = inline
        self.jobs = max(1, jobs)
        self.label_for = label_for
        self.max_retries = (
            DEFAULT_MAX_RETRIES if max_retries is None else max(0, max_retries)
        )
        self.unit_timeout = unit_timeout
        self.backoff = DEFAULT_BACKOFF if backoff is None else backoff
        self.unit_retries = registry.counter(
            "unit_retries", "supervised unit attempts retried after a failure"
        )
        self.worker_crashes = registry.counter(
            "worker_crashes", "unit workers that died or overran the deadline"
        )
        self.unit_quarantines = registry.counter(
            "unit_quarantines", "tasks re-run serially after repeated crashes"
        )

    # ------------------------------------------------------------- run loop

    def run(self, tasks):
        """Execute ``tasks``; returns their payloads in task order."""
        results = [None] * len(tasks)
        states = [_TaskState() for _ in tasks]
        pending = [(0.0, index) for index in range(len(tasks))]
        workers = {}  # conn -> _Worker
        self._remaining = len(tasks)
        try:
            while self._remaining > 0:
                now = time.monotonic()
                self._dispatch_ready(tasks, states, pending, workers, now)
                busy = [
                    conn for conn, worker in workers.items()
                    if worker.current is not None
                ]
                if not busy:
                    if pending:
                        release = min(item[0] for item in pending)
                        delay = release - time.monotonic()
                        if delay > 0:
                            time.sleep(delay)
                        continue
                    break  # unreachable: remaining > 0 implies work exists
                self._collect(tasks, states, results, pending, workers, busy)
        finally:
            for worker in workers.values():
                self._reap(worker, kill=True)
        return results

    def _spawn(self):
        parent_conn, child_conn = self.context.Pipe()
        process = self.context.Process(
            target=self._worker_main, args=(child_conn,), daemon=True
        )
        process.start()
        child_conn.close()  # the child's end lives in the child now
        return _Worker(process, parent_conn)

    def _dispatch_ready(self, tasks, states, pending, workers, now):
        idle = [
            worker for worker in workers.values() if worker.current is None
        ]
        while pending:
            pick = None
            for position, (release, _index) in enumerate(pending):
                if release <= now:
                    pick = position
                    break
            if pick is None:
                return
            if idle:
                worker = idle.pop()
            elif len(workers) < self.jobs:
                worker = self._spawn()
                workers[worker.conn] = worker
            else:
                return
            _release, index = pending.pop(pick)
            state = states[index]
            state.attempts += 1
            label = self.label_for(tasks[index])
            try:
                worker.conn.send((tasks[index], state.attempts, label))
            except (BrokenPipeError, OSError):
                # The worker died while idle (external kill): replace it
                # and hand the task straight back — no crash is charged
                # to the task, its attempt never started.
                del workers[worker.conn]
                self._reap(worker, kill=True)
                state.attempts -= 1
                pending.append((now, index))
                continue
            deadline = (
                now + self.unit_timeout
                if self.unit_timeout is not None else None
            )
            worker.current = _Inflight(index, state.attempts, deadline)

    def _worker_main(self, conn):
        """Forked worker body: compute tasks off the pipe until told to stop.

        Each received attempt fires the ``worker.task`` fault point
        before computing, so injected kills/hangs/raises exercise the
        exact recovery paths real worker deaths would.  SIGTERM (how
        :meth:`_reap` stops a worker) raises ``SystemExit``, so a task
        writing a cache entry unwinds through the atomic writer, which
        leaves no temp file behind.
        """
        signal.signal(signal.SIGTERM, sigterm_to_exit)
        try:
            while True:
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    break
                if message is None:
                    break
                task, attempt, label = message
                status, payload = "ok", None
                try:
                    faults.fire("worker.task", key="%s#%d" % (label, attempt))
                    payload = self.worker(task)
                except Exception:
                    status, payload = "error", traceback.format_exc()
                conn.send((status, payload))
        except BaseException:  # stopped, interrupted, or the pipe broke
            os._exit(1)
        os._exit(0)

    def _collect(self, tasks, states, results, pending, workers, busy):
        timeout = self._wait_timeout(pending, workers)
        ready = multiprocessing.connection.wait(busy, timeout)
        now = time.monotonic()
        for conn in ready:
            worker = workers[conn]
            entry = worker.current
            try:
                status, payload = conn.recv()
            except (EOFError, OSError):
                del workers[conn]
                exitcode = self._reap(worker, kill=True)
                self._on_crash(entry, exitcode, tasks, states, results,
                               pending, "crash")
                continue
            worker.current = None
            if status == "ok":
                self._resolve(entry.index, entry.attempt, tasks, results,
                              payload, "ok")
            else:
                self._on_failure(entry, payload, tasks, states, results,
                                 pending)
        for conn, worker in list(workers.items()):
            entry = worker.current
            if (
                entry is not None
                and entry.deadline is not None
                and now >= entry.deadline
            ):
                del workers[conn]
                exitcode = self._reap(worker, kill=True)
                self._on_crash(entry, exitcode, tasks, states, results,
                               pending, "timeout")

    def _wait_timeout(self, pending, workers):
        now = time.monotonic()
        busy = 0
        candidates = []
        for worker in workers.values():
            if worker.current is not None:
                busy += 1
                if worker.current.deadline is not None:
                    candidates.append(worker.current.deadline)
        if busy < self.jobs:
            # A worker slot is free, so a backoff release could unblock
            # a dispatch before any pipe event; with every slot busy
            # only a result/crash/deadline can, and waiting unbounded on
            # the pipes would otherwise become a busy-poll.
            candidates.extend(
                release for release, _index in pending if release > now
            )
        if not candidates:
            return None
        return max(0.0, min(candidates) - now)

    def _reap(self, worker, kill=False):
        # Stop gracefully first: SIGTERM lets the worker unwind; only a
        # worker still alive after the grace period is killed outright.
        if kill and worker.process.is_alive():
            worker.process.terminate()
            worker.process.join(STOP_GRACE)
            if worker.process.is_alive():
                worker.process.kill()
        worker.process.join()
        worker.conn.close()
        return worker.process.exitcode

    # ---------------------------------------------------------- resolutions

    def _resolve(self, index, attempt, tasks, results, payload, outcome):
        results[index] = payload
        self._remaining -= 1
        with tracing.span(
            "supervise:%s" % self.label_for(tasks[index]), "broker",
            attempt=attempt, outcome=outcome,
        ):
            pass

    def _on_crash(self, entry, exitcode, tasks, states, results, pending,
                  reason):
        state = states[entry.index]
        state.crashes += 1
        label = self.label_for(tasks[entry.index])
        self.worker_crashes.inc(label)
        with tracing.span(
            "supervise:%s" % label, "broker", attempt=entry.attempt,
            outcome=reason, exitcode=exitcode,
        ):
            pass
        if state.crashes >= QUARANTINE_CRASHES:
            # The forked path killed this task twice: poison.  Run it
            # serially in-process, where a crash would be a real bug.
            self.unit_quarantines.inc(label)
            self._resolve(
                entry.index, state.attempts + 1, tasks, results,
                self.inline(tasks[entry.index]), "quarantined",
            )
        else:
            self._retry(entry.index, state, label, pending)

    def _on_failure(self, entry, formatted, tasks, states, results, pending):
        state = states[entry.index]
        state.failures += 1
        state.last_error = formatted
        label = self.label_for(tasks[entry.index])
        with tracing.span(
            "supervise:%s" % label, "broker", attempt=entry.attempt,
            outcome="error",
        ):
            pass
        if state.failures > self.max_retries:
            # Retries exhausted: one in-process attempt, so only errors
            # that reproduce in the parent abort the run.
            try:
                payload = self.inline(tasks[entry.index])
            except Exception as error:
                raise UnitExecutionError(
                    "unit %s failed %d times in workers and in-process; "
                    "last worker error:\n%s"
                    % (label, state.failures, formatted)
                ) from error
            self._resolve(
                entry.index, state.attempts + 1, tasks, results, payload,
                "serial-fallback",
            )
        else:
            self._retry(entry.index, state, label, pending)

    def _retry(self, index, state, label, pending):
        self.unit_retries.inc(label)
        retries = state.crashes + state.failures
        delay = min(MAX_BACKOFF, self.backoff * (2 ** (retries - 1)))
        pending.append((time.monotonic() + delay, index))

    def __repr__(self):
        return "SupervisedExecutor(jobs=%d, max_retries=%d, timeout=%r)" % (
            self.jobs, self.max_retries, self.unit_timeout
        )
