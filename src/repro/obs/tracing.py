"""Nested spans exported as Chrome trace-event JSON (Perfetto-ready).

A :class:`span` is a context manager that always measures wall time
(``handle.seconds`` is valid with or without a tracer installed — it is
the engine's one sanctioned stopwatch; instrumented modules must not
call ``time.perf_counter`` directly, a rule ``tools/check_invariants.py``
enforces).  When a :class:`Tracer` is installed the span additionally
records one complete (``ph: "X"``) trace event with its category,
duration and attributes.

Categories form the span taxonomy (see ``docs/OBSERVABILITY.md``):

* ``session`` — session phases (unit preparation, the experiment loop);
* ``experiment`` — one experiment runner;
* ``broker`` — the unit scheduler's batch execution;
* ``unit`` — one analysis-unit resolution, with a ``path`` attribute of
  ``memory`` / ``disk`` / ``compute``;
* ``compute`` — real work: kernel expand/simulate, trace
  encode/decode/materialize, hierarchy classification, walks.
  A fully warm run contains **zero** ``compute`` events (CI asserts it).

Forked workers inherit the installed tracer; because
``time.perf_counter`` is CLOCK_MONOTONIC on Linux, the parent's time
origin stays valid across ``fork``, so worker events carry directly
comparable timestamps plus their own ``pid``.  Workers ship the events
they appended (``events_since`` a pre-task mark) back with their task
results; the parent stitches them in with :meth:`Tracer.extend`, and the
export emits one ``process_name`` metadata record per distinct pid so
Perfetto renders parent and workers as separate process tracks.
"""

import json
import os
import threading
import time

_TRACER = None


def set_tracer(tracer):
    """Install ``tracer`` (or ``None``) as the process-global tracer."""
    global _TRACER
    _TRACER = tracer


def current_tracer():
    """The installed :class:`Tracer`, or ``None``."""
    return _TRACER


def start_trace():
    """Create, install and return a fresh :class:`Tracer`."""
    tracer = Tracer()
    set_tracer(tracer)
    return tracer


class Tracer:
    """Collects trace events and renders them as Chrome trace JSON."""

    def __init__(self):
        #: perf_counter value all event timestamps are relative to.
        self.origin = time.perf_counter()
        #: The recorded events, in completion order.
        self.events = []

    def record(self, name, category, start, seconds, args):
        """Append one complete event (timestamps in microseconds)."""
        self.events.append({
            "name": name,
            "cat": category,
            "ph": "X",
            "ts": round((start - self.origin) * 1e6, 1),
            "dur": round(seconds * 1e6, 1),
            "pid": os.getpid(),
            "tid": threading.get_ident() & 0x7FFFFFFF,
            "args": args,
        })

    def event_count(self):
        """How many events are recorded (a worker's pre-task mark)."""
        return len(self.events)

    def events_since(self, mark):
        """The events appended after ``mark`` (for shipping to a parent)."""
        return self.events[mark:]

    def extend(self, events):
        """Stitch in events shipped from a forked worker."""
        self.events.extend(events)

    def categories(self):
        """Event count per category, sorted by category name."""
        counts = {}
        for event in self.events:
            counts[event["cat"]] = counts.get(event["cat"], 0) + 1
        return dict(sorted(counts.items()))

    def summary(self):
        """Per-category event counts and summed durations (for runlogs)."""
        summary = {}
        for event in self.events:
            entry = summary.setdefault(
                event["cat"], {"events": 0, "micros": 0.0}
            )
            entry["events"] += 1
            entry["micros"] += event["dur"]
        return {
            category: {
                "events": entry["events"],
                "seconds": round(entry["micros"] / 1e6, 6),
            }
            for category, entry in sorted(summary.items())
        }

    def to_chrome(self):
        """The trace as a Chrome trace-event JSON object.

        Events are sorted by timestamp and prefixed with one
        ``process_name`` metadata event per distinct pid (``repro`` for
        this process, ``repro-worker`` for forked workers), so Perfetto
        shows a coherent multi-process timeline.
        """
        pids = sorted({event["pid"] for event in self.events})
        parent = os.getpid()
        metadata = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {
                    "name": "repro" if pid == parent else "repro-worker"
                },
            }
            for pid in pids
        ]
        return {
            "traceEvents": metadata + sorted(
                self.events, key=lambda event: event["ts"]
            ),
            "displayTimeUnit": "ms",
        }

    def export(self, path):
        """Write the Chrome trace JSON to ``path``; returns the path."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_chrome(), handle, indent=1)
            handle.write("\n")
        return path

    def __repr__(self):
        return "Tracer(%d events)" % len(self.events)


class span:
    """Context manager measuring one operation (and recording it).

    ``with span("unit:x", "unit", kind="pipeline") as handle:`` always
    sets ``handle.seconds`` on exit; when a tracer is installed it also
    records a complete event under the span's category with the keyword
    attributes as event args.  :meth:`note` adds or updates attributes
    mid-span (e.g. the cache path once it is known).
    """

    __slots__ = ("name", "category", "args", "start", "seconds", "_cancelled")

    def __init__(self, name, category, **args):
        self.name = name
        self.category = category
        self.args = args
        self.start = None
        self.seconds = None
        self._cancelled = False

    def note(self, **args):
        """Attach (or update) attributes while the span is open."""
        self.args.update(args)

    def cancel(self):
        """Suppress the event (``seconds`` is still measured on exit).

        For probe-shaped spans whose outcome decides whether they were
        an operation at all — e.g. a disk lookup that missed and will be
        re-observed as a compute span instead.
        """
        self._cancelled = True

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        self.seconds = time.perf_counter() - self.start
        if _TRACER is not None and not self._cancelled:
            _TRACER.record(
                self.name, self.category, self.start, self.seconds, self.args
            )
        return False

