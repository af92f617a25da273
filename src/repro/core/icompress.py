"""Instruction significance compression (paper Section 2.3, Figure 2, Table 3).

Instructions keep their full word slot in the instruction cache, but are
stored *permuted* so that, for the common cases, only three of the four
bytes need to be read, written and latched.  A single extension bit per
instruction word says whether the fourth byte is needed.  The permutation
is format-specific:

* **R-format** (Figure 2a/2b): the 6-bit funct field is split into two
  3-bit halves and re-encoded so the eight most frequent function codes
  place all the information in the upper half, leaving the lower three
  bits zero — those need not be fetched.  Shifts additionally move the
  ``shamt`` field into the unused ``rs`` slot.
* **I-format** (Figure 2c): the 16-bit immediate is split into two bytes;
  when the immediate is representable in 8 bits only the low immediate
  byte is stored.
* **J-format** is left uncompressed (2.2% of Mediabench instructions).

Byte order is chosen so the bytes needed early in the pipeline (opcode,
register specifiers) sit toward the most significant end — serial fetch
implementations can start decode/register-read after two bytes.
"""

from repro.isa.opcodes import (
    SHAMT_FUNCTS,
    ZERO_EXTENDED_IMM,
    Funct,
    Opcode,
)

#: Default top-8 function codes granted short (3-byte) encodings.  The
#: paper derives its set from a Mediabench profile (Table 3: ADDU, SLL,
#: and friends cover ~87% of R-format executions); this default comes from
#: an equivalent profile of the bundled workload suite and can be rebuilt
#: with :func:`build_recode_table`.
DEFAULT_SHORT_FUNCTS = (
    Funct.ADDU,
    Funct.SLL,
    Funct.SLT,
    Funct.SUBU,
    Funct.JR,
    Funct.SLTU,
    Funct.XOR,
    Funct.SRA,
)

#: Extension-bit storage overhead per instruction word.
INSTRUCTION_EXT_BITS = 1


def build_recode_table(funct_frequencies, slots=8):
    """Choose the ``slots`` most frequent function codes for short encoding.

    ``funct_frequencies`` maps :class:`~repro.isa.opcodes.Funct` (or raw
    funct values) to dynamic execution counts.  Returns a tuple of functs
    sorted by descending frequency, ties broken by funct value for
    determinism.
    """
    ordered = sorted(
        funct_frequencies.items(), key=lambda item: (-item[1], int(item[0]))
    )
    return tuple(Funct(int(funct)) for funct, _count in ordered[:slots])


class CompressedInstruction:
    """Fetch footprint of one instruction under significance compression."""

    __slots__ = ("bytes_fetched", "ext_bit", "reason")

    def __init__(self, bytes_fetched, ext_bit, reason):
        self.bytes_fetched = bytes_fetched
        self.ext_bit = ext_bit
        self.reason = reason

    @property
    def fetch_bits(self):
        """Bits read from the I-cache data array, extension bit included."""
        return self.bytes_fetched * 8 + INSTRUCTION_EXT_BITS

    def __repr__(self):
        return "CompressedInstruction(%d bytes, %s)" % (self.bytes_fetched, self.reason)


class InstructionCompressor:
    """Computes per-instruction fetch footprints (3 or 4 bytes).

    The compressor is configured with the set of function codes that
    received short encodings; everything else about the permutation is
    structural and needs no configuration.
    """

    def __init__(self, short_functs=DEFAULT_SHORT_FUNCTS):
        self.short_functs = frozenset(int(funct) for funct in short_functs)

    def compress(self, instr):
        """Return the :class:`CompressedInstruction` for a decoded ``instr``."""
        if instr.is_r_format:
            return self._compress_r_format(instr)
        if instr.is_j_format:
            return CompressedInstruction(4, 1, "j-format")
        return self._compress_i_format(instr)

    def bytes_fetched(self, instr):
        """Shorthand for ``compress(instr).bytes_fetched``."""
        return self.compress(instr).bytes_fetched

    def fetch_bits(self, instr):
        """Bits of I-cache data activity to fetch ``instr``."""
        return self.compress(instr).fetch_bits

    # ------------------------------------------------------------- private

    def _compress_r_format(self, instr):
        if int(instr.funct) in self.short_functs:
            # Re-encoded funct fits the f2 half; shifts park shamt in rs.
            if instr.funct in SHAMT_FUNCTS:
                return CompressedInstruction(3, 0, "r-format shift, short funct")
            return CompressedInstruction(3, 0, "r-format, short funct")
        return CompressedInstruction(4, 1, "r-format, long funct")

    def _compress_i_format(self, instr):
        if instr.opcode == Opcode.LUI:
            # The 16-bit immediate lands in the upper halfword; it only
            # fits the short form when its top byte is zero.
            if instr.imm_u <= 0xFF:
                return CompressedInstruction(3, 0, "lui, short immediate")
            return CompressedInstruction(4, 1, "lui, long immediate")
        if self._immediate_fits_byte(instr):
            return CompressedInstruction(3, 0, "i-format, 8-bit immediate")
        return CompressedInstruction(4, 1, "i-format, 16-bit immediate")

    @staticmethod
    def _immediate_fits_byte(instr):
        if instr.opcode in ZERO_EXTENDED_IMM:
            return instr.imm_u <= 0xFF
        return -128 <= instr.imm <= 127


class FetchStatistics:
    """Accumulates Section 2.3 instruction-fetch statistics over a trace.

    Tracks format mix, immediate usage/sizes, dynamic funct frequencies
    (Table 3) and average bytes fetched per instruction (the paper's
    headline: 3.17 bytes, 3.29 including the extension bit).
    """

    #: Bumped whenever to_dict changes shape or meaning.
    SCHEMA_VERSION = 1

    #: The integer tallies a (de)serialized statistics object carries.
    _COUNT_FIELDS = (
        "total", "bytes_fetched", "r_format_with_funct", "r_format_short",
        "i_format", "j_format", "with_immediate", "immediate_fits_byte",
    )

    def __init__(self, compressor=None):
        # Stats built over a custom compressor cannot be keyed/rebuilt
        # declaratively; to_dict checks this flag.
        self.standard_compressor = compressor is None
        self.compressor = compressor or InstructionCompressor()
        self.total = 0
        self.bytes_fetched = 0
        self.r_format_with_funct = 0
        self.r_format_short = 0
        self.i_format = 0
        self.j_format = 0
        self.with_immediate = 0
        self.immediate_fits_byte = 0
        self.funct_counts = {}

    def record(self, instr):
        """Record one executed instruction."""
        self.total += 1
        footprint = self.compressor.compress(instr)
        self.bytes_fetched += footprint.bytes_fetched
        if instr.is_r_format:
            self.funct_counts[int(instr.funct)] = (
                self.funct_counts.get(int(instr.funct), 0) + 1
            )
            self.r_format_with_funct += 1
            if footprint.bytes_fetched == 3:
                self.r_format_short += 1
        elif instr.is_j_format:
            self.j_format += 1
        else:
            self.i_format += 1
            self.with_immediate += 1
            if self.compressor._immediate_fits_byte(instr) or (
                instr.opcode == Opcode.LUI and instr.imm_u <= 0xFF
            ):
                self.immediate_fits_byte += 1

    def merge(self, other):
        """Fold another statistics object into this one."""
        self.total += other.total
        self.bytes_fetched += other.bytes_fetched
        self.r_format_with_funct += other.r_format_with_funct
        self.r_format_short += other.r_format_short
        self.i_format += other.i_format
        self.j_format += other.j_format
        self.with_immediate += other.with_immediate
        self.immediate_fits_byte += other.immediate_fits_byte
        for funct, count in other.funct_counts.items():
            self.funct_counts[funct] = self.funct_counts.get(funct, 0) + count

    # -------------------------------------------------------- serialization

    def to_dict(self):
        """Versioned plain-data form for the persistent result store.

        Only statistics over the default compressor serialize: the dict
        cannot express a custom recode table (ValueError otherwise).
        """
        if not self.standard_compressor:
            raise ValueError("cannot serialize stats over a custom compressor")
        payload = {"version": self.SCHEMA_VERSION}
        for field in self._COUNT_FIELDS:
            payload[field] = getattr(self, field)
        # JSON forces string keys; from_dict undoes this.
        payload["funct_counts"] = {
            str(funct): count for funct, count in self.funct_counts.items()
        }
        return payload

    @classmethod
    def from_dict(cls, payload):
        """Rebuild statistics from :meth:`to_dict` (ValueError on skew)."""
        if payload.get("version") != cls.SCHEMA_VERSION:
            raise ValueError(
                "fetch statistics schema v%r, expected v%d"
                % (payload.get("version"), cls.SCHEMA_VERSION)
            )
        stats = cls()
        try:
            for field in cls._COUNT_FIELDS:
                setattr(stats, field, payload[field])
            stats.funct_counts = {
                int(funct): count
                for funct, count in payload["funct_counts"].items()
            }
        except KeyError as error:
            raise ValueError("fetch statistics payload missing %s" % error)
        return stats

    def __eq__(self, other):
        if not isinstance(other, FetchStatistics):
            return NotImplemented
        return self.funct_counts == other.funct_counts and all(
            getattr(self, field) == getattr(other, field)
            for field in self._COUNT_FIELDS
        )

    __hash__ = object.__hash__

    # ------------------------------------------------------------- metrics

    def average_bytes_per_instruction(self):
        """Mean instruction bytes fetched (paper: 3.17)."""
        return self.bytes_fetched / self.total if self.total else 0.0

    def average_bytes_with_ext_bit(self):
        """Mean bytes including the extension bit (paper: 3.29)."""
        if self.total == 0:
            return 0.0
        return (self.bytes_fetched + self.total * INSTRUCTION_EXT_BITS / 8.0) / self.total

    def fetch_savings(self):
        """Fractional fetch-activity saving vs 4 bytes/instruction."""
        if self.total == 0:
            return 0.0
        compressed_bits = self.bytes_fetched * 8 + self.total * INSTRUCTION_EXT_BITS
        return 1.0 - compressed_bits / (self.total * 32.0)

    def format_mix(self):
        """Dict of dynamic format shares (r/i/j), fractions of 1."""
        if self.total == 0:
            return {"r": 0.0, "i": 0.0, "j": 0.0}
        return {
            "r": self.r_format_with_funct / self.total,
            "i": self.i_format / self.total,
            "j": self.j_format / self.total,
        }

    def short_r_fraction(self):
        """Fraction of R-format instructions needing only 3 bytes (paper ~87%)."""
        if self.r_format_with_funct == 0:
            return 0.0
        return self.r_format_short / self.r_format_with_funct

    def immediate_byte_fraction(self):
        """Fraction of immediates fitting 8 bits (paper ~80%)."""
        if self.with_immediate == 0:
            return 0.0
        return self.immediate_fits_byte / self.with_immediate

    def funct_table(self):
        """Rows (funct, percent, cumulative) like the paper's Table 3.

        Ties break by funct value (as :func:`build_recode_table` does),
        never by dict insertion order: a statistics object rebuilt from
        the persistent result store must render the identical table.
        """
        ordered = sorted(
            self.funct_counts.items(), key=lambda item: (-item[1], int(item[0]))
        )
        total = sum(self.funct_counts.values())
        rows = []
        cumulative = 0.0
        for funct, count in ordered:
            percent = 100.0 * count / total if total else 0.0
            cumulative += percent
            rows.append((Funct(funct), percent, cumulative))
        return rows
