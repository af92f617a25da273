"""Significance compression — the paper's primary contribution.

This package implements Section 2 of the paper: the extension-bit data
representation (2-bit, 3-bit, halfword and generic block granularities),
significance pattern statistics (Table 1), the block-serial significance
ALU with its Case 1/2/3 rules and Table-4 exceptions, the block-serial
PC-increment model (Table 2), and instruction significance compression
with funct re-encoding and format permutations (Section 2.3, Table 3).
"""

from repro.core.alu import (
    AluResult,
    significance_add,
    significance_compare,
    significance_logical,
    significance_shift,
    table4_must_generate,
    table4_rows,
)
from repro.core.compress import CompressedWord, compress, compression_ratio
from repro.core.extension import (
    BYTE_SCHEME,
    HALFWORD_SCHEME,
    TWO_BIT_SCHEME,
    BlockScheme,
    SegmentedScheme,
    SignificanceScheme,
    ThreeBitScheme,
    TwoBitScheme,
)
from repro.core.icompress import (
    DEFAULT_SHORT_FUNCTS,
    CompressedInstruction,
    FetchStatistics,
    InstructionCompressor,
    build_recode_table,
)
from repro.core.patterns import ALL_PATTERNS, PatternCounter, pattern_of
from repro.core.pc import (
    BlockSerialPC,
    expected_activity_bits,
    expected_latency_cycles,
    table2_rows,
)

__all__ = [
    "AluResult",
    "significance_add",
    "significance_compare",
    "significance_logical",
    "significance_shift",
    "table4_must_generate",
    "table4_rows",
    "CompressedWord",
    "compress",
    "compression_ratio",
    "BYTE_SCHEME",
    "HALFWORD_SCHEME",
    "TWO_BIT_SCHEME",
    "BlockScheme",
    "SegmentedScheme",
    "SignificanceScheme",
    "ThreeBitScheme",
    "TwoBitScheme",
    "DEFAULT_SHORT_FUNCTS",
    "CompressedInstruction",
    "FetchStatistics",
    "InstructionCompressor",
    "build_recode_table",
    "ALL_PATTERNS",
    "PatternCounter",
    "pattern_of",
    "BlockSerialPC",
    "expected_activity_bits",
    "expected_latency_cycles",
    "table2_rows",
]
