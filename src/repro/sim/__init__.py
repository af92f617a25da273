"""Execution substrate: functional simulator, caches, TLBs, tracing.

The paper's trace-driven study ran Mediabench through SimpleScalar's
interpreter with split 8KB L1 caches, a 64KB L2 and small TLBs.  This
subpackage provides the equivalent: a functional MIPS-subset interpreter
producing per-instruction :class:`~repro.sim.trace.TraceRecord` streams,
plus parameterized cache/TLB models assembled into the paper's memory
hierarchy by :class:`~repro.sim.hierarchy.MemoryHierarchy`.

Timing simulation consults
:class:`~repro.sim.hierarchy_model.MemoHierarchy`, a memoized,
field-wise-identical reimplementation of
:class:`~repro.sim.hierarchy.MemoryHierarchy`.
"""

from repro.sim.cache import Cache, CacheConfig
from repro.sim.hierarchy import PAPER_HIERARCHY, HierarchyConfig, MemoryHierarchy
from repro.sim.hierarchy_model import MemoHierarchy
from repro.sim.interpreter import Interpreter, SimulationError
from repro.sim.loader import load_program
from repro.sim.machine import Machine
from repro.sim.memory import Memory
from repro.sim.tlb import TLB
from repro.sim.trace import TraceRecord, run_trace
from repro.sim.tracefile import (
    CODEC_VERSION,
    TraceCodecError,
    decode_records,
    dump_trace,
    encode_records,
    load_trace,
)

__all__ = [
    "CODEC_VERSION",
    "TraceCodecError",
    "decode_records",
    "dump_trace",
    "encode_records",
    "load_trace",
    "Cache",
    "CacheConfig",
    "PAPER_HIERARCHY",
    "HierarchyConfig",
    "MemoryHierarchy",
    "MemoHierarchy",
    "Interpreter",
    "SimulationError",
    "load_program",
    "Machine",
    "Memory",
    "TLB",
    "TraceRecord",
    "run_trace",
]
