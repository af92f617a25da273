"""Workload plumbing: compile/run/verify with caching."""

from repro.minic import compile_program
from repro.sim import Interpreter, load_program


def format_int_array(name, values):
    """Render a MiniC global array definition for embedded input data."""
    body = ", ".join(str(int(v)) for v in values)
    return "int %s[%d] = {%s};" % (name, len(values), body)


class Workload:
    """A named MiniC kernel with synthetic inputs and a Python reference.

    ``source_builder(scale)`` returns MiniC source; ``reference(scale)``
    returns the exact output text the program must print.  Sources,
    programs, traces and outputs are cached per scale — the studies run
    many analyses over the same trace, and the caches hash the source.
    """

    def __init__(self, name, source_builder, reference, description, category="media"):
        self.name = name
        self.source_builder = source_builder
        self.reference = reference
        self.description = description
        self.category = category
        self._sources = {}
        self._programs = {}
        self._runs = {}

    def source(self, scale=1):
        """MiniC source text at the given scale (built once per scale)."""
        if scale not in self._sources:
            self._sources[scale] = self.source_builder(scale)
        return self._sources[scale]

    def program(self, scale=1):
        """Compiled program (cached)."""
        if scale not in self._programs:
            self._programs[scale] = compile_program(self.source(scale))
        return self._programs[scale]

    def run(self, scale=1, trace=True, max_instructions=20_000_000, trace_cache=None):
        """Execute; returns (trace_records, interpreter).

        The cache is limit-aware: a completed run is reused only when
        its executed instruction count fits the requested
        ``max_instructions``, so a stricter limit re-executes (and trips
        the limit) instead of silently returning a longer cached run.

        With a persistent ``trace_cache`` (a
        :class:`~repro.study.trace_cache.TraceCache`) and ``trace=True``,
        the lookup falls through memory → disk → simulate: a disk hit
        returns ``(records, None)`` — no interpreter exists because
        nothing was simulated — and a simulated trace is written back so
        later processes skip the simulation.  When tracing, the executed
        instruction count equals ``len(records)``, which keeps the
        disk path limit-aware too.
        """
        key = (scale, trace)
        cached = self._runs.get(key)
        if cached is not None:
            executed = (
                len(cached[0]) if cached[1] is None
                else cached[1].instructions_executed
            )
            if executed <= max_instructions:
                return cached
        if trace and trace_cache is not None:
            records = trace_cache.load(self, scale=scale)
            if records is not None and len(records) <= max_instructions:
                self._runs[key] = (records, None)
                return self._runs[key]
        memory, machine = load_program(self.program(scale))
        interpreter = Interpreter(memory, machine, trace=trace)
        interpreter.run(max_instructions)
        self._runs[key] = (interpreter.trace_records, interpreter)
        if trace and trace_cache is not None:
            trace_cache.store(self, scale, interpreter.trace_records)
        return self._runs[key]

    def trace(self, scale=1, trace_cache=None):
        """Trace records only (optionally via a persistent trace cache)."""
        return self.run(scale=scale, trace_cache=trace_cache)[0]

    def output(self, scale=1):
        """Program output text."""
        return self.run(scale=scale, trace=False)[1].output_text

    def expected_output(self, scale=1):
        """Reference output from the Python model."""
        return self.reference(scale)

    def verify(self, scale=1):
        """Assert simulated output matches the Python reference."""
        actual = self.output(scale)
        expected = self.expected_output(scale)
        if actual != expected:
            raise AssertionError(
                "workload %s mismatch at scale %d:\n  simulated: %s\n  reference: %s"
                % (self.name, scale, actual, expected)
            )
        return True

    def clear_cache(self):
        """Drop cached sources, programs and runs (frees trace memory)."""
        self._sources.clear()
        self._programs.clear()
        self._runs.clear()

    def __repr__(self):
        return "Workload(%s)" % self.name


# ------------------------------------------------------- reference helpers


def to_s32(value):
    """Wrap to signed 32-bit (the reference-side mirror of MiniC ints)."""
    value &= 0xFFFFFFFF
    return value - 0x100000000 if value & 0x80000000 else value


def mul32(a, b):
    """32-bit wrapping signed multiply."""
    return to_s32((a * b) & 0xFFFFFFFF)


def cdiv(a, b):
    """C-style integer division (truncation toward zero)."""
    quotient = abs(a) // abs(b)
    return quotient if (a < 0) == (b < 0) else -quotient


def cmod(a, b):
    """C-style remainder (sign follows the dividend)."""
    return a - cdiv(a, b) * b
