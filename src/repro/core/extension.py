"""Extension-bit significance schemes (paper Section 2.1).

A *scheme* decides, for a 32-bit word, which of its storage blocks are
numerically significant and must be stored/processed, and which are mere
sign extensions that can be regenerated from the block below.  The lowest
block is always significant ("Because the lowest order data byte is very
often significant, we will always represent and operate on the low order
byte").

Three concrete schemes from the paper:

* :class:`ThreeBitScheme` — one extension bit per upper byte (the paper's
  chosen design, ~9% storage overhead).  Handles "internal" insignificant
  bytes such as the 0x10000009 address example.
* :class:`TwoBitScheme` — a 2-bit count of contiguous leading
  sign-extension bytes (~6% overhead); cannot express internal holes.
* :class:`BlockScheme` — generalization to any block width dividing 32;
  ``BlockScheme(16)`` is the halfword-granularity variant of Table 6, and
  ``BlockScheme(8)`` coincides with :class:`ThreeBitScheme`.

All schemes share the same interface so the activity studies and pipeline
models are granularity-agnostic.
"""

from repro.core.bitutils import (
    MASK32,
    WORD_BITS,
    block_of,
    byte_of,
    is_extension_of,
    sign_extension_block,
    sign_extension_byte,
)


class SignificanceScheme:
    """Interface shared by all extension-bit schemes.

    Concrete schemes define :attr:`block_bits`, :attr:`num_ext_bits` and
    :meth:`significant_mask`; everything else derives from those.
    """

    #: Width in bits of one significance block (8 for byte granularity).
    block_bits = None

    #: Number of extension bits stored alongside each word.
    num_ext_bits = None

    #: Short identifier used in reports.
    name = None

    @property
    def num_blocks(self):
        """Number of blocks in a 32-bit word."""
        return WORD_BITS // self.block_bits

    def significant_mask(self, value):
        """Tuple of booleans, LSB-block first; True = block is significant."""
        raise NotImplementedError

    def ext_bits(self, value):
        """Packed extension-bit field for ``value``.

        Bit ``i-1`` of the result corresponds to block ``i`` (the lowest
        block has no extension bit); a set bit marks the block as a sign
        extension (insignificant).
        """
        mask = self.significant_mask(value)
        bits = 0
        for index in range(1, self.num_blocks):
            if not mask[index]:
                bits |= 1 << (index - 1)
        return bits

    def significant_blocks(self, value):
        """Number of significant (stored) blocks of ``value``."""
        return sum(self.significant_mask(value))

    def significant_bytes(self, value):
        """Number of significant bytes of ``value`` under this scheme."""
        return self.significant_blocks(value) * (self.block_bits // 8)

    def stored_bits(self, value):
        """Bits that must be stored: significant blocks + extension bits."""
        return self.significant_blocks(value) * self.block_bits + self.num_ext_bits

    def datapath_bits(self, value):
        """Bits that a datapath must move for ``value`` (no extension bits)."""
        return self.significant_blocks(value) * self.block_bits

    def overhead_ratio(self):
        """Extension-bit storage overhead relative to a 32-bit word."""
        return self.num_ext_bits / WORD_BITS

    def reconstruct(self, value):
        """Drop insignificant blocks of ``value`` and regenerate them.

        For a correct scheme this is the identity on representable values;
        the property-based tests assert ``reconstruct(v) == v`` for every
        32-bit ``v``.
        """
        mask = self.significant_mask(value)
        return self.decompress(
            [
                block_of(value, index, self.block_bits)
                for index in range(self.num_blocks)
                if mask[index]
            ],
            self.ext_bits(value),
        )

    def decompress(self, stored_blocks, ext_bits):
        """Rebuild the 32-bit word from stored blocks and extension bits.

        ``stored_blocks`` lists the significant blocks LSB-first.
        """
        blocks = []
        stored = list(stored_blocks)
        cursor = 0
        for index in range(self.num_blocks):
            is_extension = index > 0 and (ext_bits >> (index - 1)) & 1
            if is_extension:
                blocks.append(sign_extension_block(blocks[index - 1], self.block_bits))
            else:
                if cursor >= len(stored):
                    raise ValueError("not enough stored blocks for extension bits")
                blocks.append(stored[cursor])
                cursor += 1
        if cursor != len(stored):
            raise ValueError("too many stored blocks for extension bits")
        word = 0
        for index, block in enumerate(blocks):
            word |= block << (index * self.block_bits)
        return word & MASK32


class ThreeBitScheme(SignificanceScheme):
    """Per-byte extension bits for the three upper bytes (paper's choice).

    Byte ``i`` (for i in 1..3) is insignificant iff it equals the sign
    extension of byte ``i-1``.  This handles internal holes: 0x10000009 is
    stored as bytes (0x09, 0x10) with extension bits 011.
    """

    block_bits = 8
    num_ext_bits = 3
    name = "byte3"

    def significant_mask(self, value):
        b0 = value & 0xFF
        b1 = (value >> 8) & 0xFF
        b2 = (value >> 16) & 0xFF
        b3 = (value >> 24) & 0xFF
        return (
            True,
            not is_extension_of(b1, b0),
            not is_extension_of(b2, b1),
            not is_extension_of(b3, b2),
        )


class TwoBitScheme(SignificanceScheme):
    """Two-bit count of contiguous leading sign-extension bytes.

    The extension field encodes *how many* upper bytes are sign
    extensions (0..3); only a contiguous run starting at the most
    significant byte can be dropped.  0x00000004 stores one byte with
    count 3; 0x10000009 must store all four bytes (no internal holes).
    """

    block_bits = 8
    num_ext_bits = 2
    name = "byte2"

    def trailing_extension_count(self, value):
        """Number of contiguous top bytes that are sign extensions (0..3)."""
        count = 0
        for index in range(3, 0, -1):
            upper = byte_of(value, index)
            lower = byte_of(value, index - 1)
            if is_extension_of(upper, lower):
                count += 1
            else:
                break
        return count

    def significant_mask(self, value):
        count = self.trailing_extension_count(value)
        return tuple(index < 4 - count for index in range(4))

    def ext_bits(self, value):
        """The 2-bit extension-byte count (not a per-byte bitmap)."""
        return self.trailing_extension_count(value)

    def decompress(self, stored_blocks, ext_bits):
        stored = list(stored_blocks)
        if len(stored) != 4 - ext_bits:
            raise ValueError("stored byte count disagrees with extension count")
        word = 0
        for index, block in enumerate(stored):
            word |= (block & 0xFF) << (8 * index)
        top = stored[-1]
        fill = sign_extension_byte(top)
        for index in range(len(stored), 4):
            word |= fill << (8 * index)
        return word & MASK32


class BlockScheme(SignificanceScheme):
    """Generic per-block extension-bit scheme for any width dividing 32.

    ``BlockScheme(16)`` is the halfword-granularity scheme of Table 6 (one
    extension bit).  ``BlockScheme(8)`` behaves identically to
    :class:`ThreeBitScheme` and the tests assert so.
    """

    def __init__(self, block_bits):
        if block_bits <= 0 or WORD_BITS % block_bits != 0:
            raise ValueError("block width must divide 32: %r" % (block_bits,))
        self.block_bits = block_bits
        self.num_ext_bits = WORD_BITS // block_bits - 1
        self.name = "block%d" % block_bits

    def significant_mask(self, value):
        mask = [True]
        previous = block_of(value, 0, self.block_bits)
        for index in range(1, self.num_blocks):
            current = block_of(value, index, self.block_bits)
            extension = current == sign_extension_block(previous, self.block_bits)
            mask.append(not extension)
            previous = current
        return tuple(mask)


class SegmentedScheme(SignificanceScheme):
    """Non-uniform segment significance — the Section 2.1 future-work item.

    "In general, one could consider non-power-of-two bit sequences and
    dividing words into sequences of different lengths, but this remains
    for future study."  ``SegmentedScheme((8, 4, 4, 16))`` splits a word
    into a low byte, two nibbles, and a high halfword; each upper
    segment gets one extension bit marking it as the sign extension of
    the segment below.  ``SegmentedScheme((8, 8, 8, 8))`` coincides with
    :class:`ThreeBitScheme`.

    Because segments have different widths, the generic block helpers do
    not apply; this class reimplements the mask/decompress pair from its
    segment table.
    """

    def __init__(self, segments):
        segments = tuple(int(s) for s in segments)
        if not segments or any(s <= 0 for s in segments):
            raise ValueError("segments must be positive widths")
        if sum(segments) != WORD_BITS:
            raise ValueError("segment widths must sum to 32")
        self.segments = segments
        self.num_ext_bits = len(segments) - 1
        self.name = "seg" + "_".join(str(s) for s in segments)
        offsets = []
        position = 0
        for width in segments:
            offsets.append(position)
            position += width
        self._offsets = tuple(offsets)
        # block_bits is only meaningful for uniform schemes; expose the
        # low segment width so stored_bits-style maths stay sensible.
        self.block_bits = segments[0]

    @property
    def num_blocks(self):
        return len(self.segments)

    def _segment_value(self, value, index):
        width = self.segments[index]
        return (value >> self._offsets[index]) & ((1 << width) - 1)

    def significant_mask(self, value):
        mask = [True]
        for index in range(1, len(self.segments)):
            below_width = self.segments[index - 1]
            below = self._segment_value(value, index - 1)
            sign = (below >> (below_width - 1)) & 1
            width = self.segments[index]
            expected = ((1 << width) - 1) if sign else 0
            mask.append(self._segment_value(value, index) != expected)
        return tuple(mask)

    def significant_bytes(self, value):
        """Significant bits rounded up to bytes (segments may be sub-byte)."""
        bits = self.datapath_bits(value)
        return -(-bits // 8)

    def datapath_bits(self, value):
        mask = self.significant_mask(value)
        return sum(
            width for width, significant in zip(self.segments, mask) if significant
        )

    def stored_bits(self, value):
        return self.datapath_bits(value) + self.num_ext_bits

    def decompress(self, stored_blocks, ext_bits):
        stored = list(stored_blocks)
        cursor = 0
        segment_values = []
        for index, width in enumerate(self.segments):
            is_extension = index > 0 and (ext_bits >> (index - 1)) & 1
            if is_extension:
                below = segment_values[index - 1]
                below_width = self.segments[index - 1]
                sign = (below >> (below_width - 1)) & 1
                segment_values.append(((1 << width) - 1) if sign else 0)
            else:
                if cursor >= len(stored):
                    raise ValueError("not enough stored segments")
                segment_values.append(stored[cursor] & ((1 << width) - 1))
                cursor += 1
        if cursor != len(stored):
            raise ValueError("too many stored segments")
        word = 0
        for index, segment in enumerate(segment_values):
            word |= segment << self._offsets[index]
        return word & MASK32

    def reconstruct(self, value):
        mask = self.significant_mask(value)
        stored = [
            self._segment_value(value, index)
            for index in range(len(self.segments))
            if mask[index]
        ]
        return self.decompress(stored, self.ext_bits(value))


#: The paper's primary scheme: 3 extension bits at byte granularity.
BYTE_SCHEME = ThreeBitScheme()

#: The cheaper 2-bit alternative discussed in Section 2.1.
TWO_BIT_SCHEME = TwoBitScheme()

#: Halfword (16-bit) granularity used for Table 6.
HALFWORD_SCHEME = BlockScheme(16)
