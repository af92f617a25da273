"""Execution substrate: functional simulator, memory hierarchy, tracing.

The paper's trace-driven study ran Mediabench through SimpleScalar's
interpreter with split 8KB L1 caches, a 64KB L2 and small TLBs.  This
subpackage provides the equivalent: a functional MIPS-subset interpreter
producing per-instruction :class:`~repro.sim.trace.TraceRecord` streams,
the hierarchy's parameters (:class:`~repro.sim.hierarchy.HierarchyConfig`,
:data:`~repro.sim.hierarchy.PAPER_HIERARCHY`), and
:class:`~repro.sim.hierarchy_model.MemoHierarchy`, the memoized cache/TLB
model that timing simulation consults.
"""

from repro.sim.hierarchy import PAPER_HIERARCHY, CacheConfig, HierarchyConfig
from repro.sim.hierarchy_model import MemoHierarchy
from repro.sim.interpreter import Interpreter, SimulationError
from repro.sim.loader import load_program
from repro.sim.machine import Machine
from repro.sim.memory import Memory
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
    "CacheConfig",
    "PAPER_HIERARCHY",
    "HierarchyConfig",
    "MemoHierarchy",
    "Interpreter",
    "SimulationError",
    "load_program",
    "Machine",
    "Memory",
    "TraceRecord",
    "run_trace",
]
