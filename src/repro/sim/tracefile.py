"""Significance-compressed binary trace codec (on-disk trace format).

The studies are trace-driven and materializing a trace (compile +
simulate) dwarfs the analysis, so traces are worth persisting.  This
module defines the serialized form: every 32-bit value of a
:class:`~repro.sim.trace.TraceRecord` is stored with a 2-bit *size tag*
giving its significant-byte count, and only those bytes hit the disk.
That is exactly the paper's 2-bit count scheme
(:class:`~repro.core.extension.TwoBitScheme`): a value's stored width is
``4 - trailing_extension_count(value)`` and the dropped upper bytes are
regenerated by sign extension — the same size patterns (``eees``,
``eess``, ``esss``, ``ssss``) CanalGS00 exploits in hardware, applied to
our own storage format.

Two structural tricks ride on top of the per-value compression:

* **PC chaining** — a record's ``pc`` always equals the previous
  record's ``next_pc``, and ``next_pc`` is usually ``pc + 4``; both are
  flag bits instead of stored words for straight-line code.
* **Instruction-word dictionary** — the 32-bit instruction word is
  stored only the first time its ``pc`` appears; loop iterations (the
  bulk of any trace) carry a flag instead of four random bytes.  This
  mirrors the interpreter's own per-PC decode cache and shares its
  assumption: no self-modifying code.

The file container is ``MAGIC | version | meta JSON | CRC-32 | payload``
so truncation, bit rot, and codec revisions are all detected before any
record is trusted (:class:`TraceCodecError`); callers fall back to
re-simulation.

A trace leaves disk one way: :func:`load_trace` reads the file once,
validates the container (:func:`read_meta` shares that parser) and
decodes the record list in place (:func:`decode_records`).
"""

import json
import struct
import zlib

from repro.isa.encoding import DecodeError, decode
from repro.obs import tracing
from repro.sim.trace import TraceRecord

#: Bump whenever the record encoding changes shape; cache keys include it.
CODEC_VERSION = 1

#: File signature for significance-compressed trace files.
MAGIC = b"SCTC"

_MASK32 = 0xFFFFFFFF

#: ``<`` = little-endian: u16 codec version, u32 meta length.
_HEADER = struct.Struct("<HI")
_CRC = struct.Struct("<I")

#: Every ALU kind the interpreter emits, index 0 reserved for "no ALU".
#: Appending here is codec-compatible; reordering requires a version bump.
ALU_KINDS = (
    None,
    "add",
    "sub",
    "and",
    "or",
    "xor",
    "nor",
    "slt",
    "sltu",
    "sll",
    "srl",
    "sra",
    "lui",
    "mult",
    "div",
)
_ALU_INDEX = {kind: index for index, kind in enumerate(ALU_KINDS)}

# Per-record flag bits.
_F_WRITE = 0x01  # write_value present
_F_MEM = 0x02  # memory access fields present
_F_STORE = 0x04  # the access is a store
_F_TAKEN = 0x08  # control flow redirected
_F_SEQ = 0x10  # next_pc == pc + 4 (not stored)
_F_PC = 0x20  # pc stored (first record / broken chain)
_F_WORD = 0x40  # instruction word stored (first visit to this pc)
_KNOWN_FLAGS = 0x7F


class TraceCodecError(ValueError):
    """Raised when a trace file or payload cannot be decoded."""


def significant_byte_count(value):
    """Stored-byte count (1..4) of a 32-bit value under sign extension.

    Mirrors the paper's 2-bit count scheme: the result equals
    ``4 - TwoBitScheme().trailing_extension_count(value)`` — the low
    bytes that must be stored so that sign-extending the top stored byte
    reconstructs the word.
    """
    signed = value - 0x100000000 if value & 0x80000000 else value
    if -0x80 <= signed < 0x80:
        return 1
    if -0x8000 <= signed < 0x8000:
        return 2
    if -0x800000 <= signed < 0x800000:
        return 3
    return 4


# ------------------------------------------------------------------ encoding


def encode_records(records):
    """Serialize trace records; returns ``(payload, naive_bytes)``.

    ``naive_bytes`` is what the same record stream would occupy in a
    fixed-width dump (identical structure, every value at four bytes, no
    size tags) — the baseline for the compression ratio that
    ``repro cache info`` reports.
    """
    out = bytearray()
    naive_bytes = 0
    expected_pc = None
    seen_pcs = set()
    for record in records:
        instr = record.instr
        pc = record.pc & _MASK32
        flags = 0
        values = []
        if pc != expected_pc:
            flags |= _F_PC
            values.append(pc)
        if pc not in seen_pcs:
            seen_pcs.add(pc)
            flags |= _F_WORD
            values.append(instr.word & _MASK32)
        values.extend(value & _MASK32 for value in record.read_values)
        if record.write_value is not None:
            flags |= _F_WRITE
            values.append(record.write_value & _MASK32)
        try:
            alu_index = _ALU_INDEX[record.alu_kind]
        except KeyError:
            raise TraceCodecError(
                "unknown ALU kind %r (codec version bump required)"
                % (record.alu_kind,)
            )
        if alu_index:
            values.append(record.alu_a & _MASK32)
            values.append(record.alu_b & _MASK32)
        if record.mem_addr is not None:
            flags |= _F_MEM
            if record.mem_is_store:
                flags |= _F_STORE
            values.append(record.mem_addr & _MASK32)
            values.append(record.mem_value & _MASK32)
        if record.taken:
            flags |= _F_TAKEN
        next_pc = record.next_pc & _MASK32
        if next_pc == (pc + 4) & _MASK32:
            flags |= _F_SEQ
        else:
            values.append(next_pc)
        expected_pc = next_pc

        out.append(flags)
        out.append(alu_index | (len(values) << 4))
        tags = bytearray((len(values) + 3) // 4)
        payload = bytearray()
        for index, value in enumerate(values):
            width = significant_byte_count(value)
            tags[index >> 2] |= (width - 1) << ((index & 3) * 2)
            payload += value.to_bytes(4, "little")[:width]
        out += tags
        out += payload
        naive_bytes += 2 + 4 * len(values)
    return bytes(out), naive_bytes


# ------------------------------------------------------------------ decoding


def decode_records(payload, count, start=0):
    """Rebuild ``count`` trace records from an encoded ``payload``.

    Decoding begins at byte ``start`` and must end exactly at the end of
    ``payload``, so :func:`load_trace` decodes straight out of the bytes
    it read, with no second copy of the payload.

    Raises :class:`TraceCodecError` on any structural damage: truncated
    payload, unknown flags or ALU kinds, undecodable instruction words,
    value-count mismatches, or trailing bytes after the final record.

    The loop body is deliberately flat and index-based: decoding must
    beat re-simulation by a wide margin or the persistent cache is
    pointless, and closures/attribute lookups per record dominate at
    millions of records per trace.
    """
    data = payload
    pos = start
    limit = len(data)
    expected_pc = None
    num_kinds = len(ALU_KINDS)
    #: pc -> (instr, source-register count, memory size); one decode per pc.
    instr_cache = {}
    # Records are allocated via __new__ and every slot written exactly
    # once below — TraceRecord.__init__ would write 13 defaults only for
    # most to be overwritten, and at millions of records that shows.
    # The round-trip tests pin this against __init__'s field set.
    new_record = TraceRecord.__new__
    record_type = TraceRecord
    records = []
    append_record = records.append
    try:
        for _ in range(count):
            if pos + 2 > limit:
                raise TraceCodecError("truncated record header")
            flags = data[pos]
            alu_byte = data[pos + 1]
            pos += 2
            if flags & ~_KNOWN_FLAGS:
                raise TraceCodecError("unknown flag bits 0x%02x" % flags)
            alu_index = alu_byte & 0x0F
            if alu_index >= num_kinds:
                raise TraceCodecError("unknown ALU kind index %d" % alu_index)
            num_values = alu_byte >> 4
            tag_pos = pos
            pos += (num_values + 3) >> 2
            if pos > limit:
                raise TraceCodecError("truncated size tags")
            values = []
            append_value = values.append
            for index in range(num_values):
                width = (
                    (data[tag_pos + (index >> 2)] >> ((index & 3) * 2)) & 3
                ) + 1
                end = pos + width
                if end > limit:
                    raise TraceCodecError("truncated value bytes")
                if width == 1:
                    value = data[pos]
                    if value & 0x80:
                        value |= 0xFFFFFF00
                elif width == 2:
                    value = data[pos] | (data[pos + 1] << 8)
                    if value & 0x8000:
                        value |= 0xFFFF0000
                elif width == 3:
                    value = (
                        data[pos]
                        | (data[pos + 1] << 8)
                        | (data[pos + 2] << 16)
                    )
                    if value & 0x800000:
                        value |= 0xFF000000
                else:
                    value = (
                        data[pos]
                        | (data[pos + 1] << 8)
                        | (data[pos + 2] << 16)
                        | (data[pos + 3] << 24)
                    )
                pos = end
                append_value(value)

            cursor = 0
            if flags & _F_PC:
                pc = values[cursor]
                cursor += 1
            elif expected_pc is None:
                raise TraceCodecError("first record does not carry a pc")
            else:
                pc = expected_pc
            if flags & _F_WORD:
                word = values[cursor]
                cursor += 1
                try:
                    instr = decode(word)
                except DecodeError as error:
                    raise TraceCodecError("bad instruction word: %s" % error)
                entry = (instr, len(instr.source_registers()), instr.memory_size)
                instr_cache[pc] = entry
            else:
                entry = instr_cache.get(pc)
                if entry is None:
                    raise TraceCodecError(
                        "no cached instruction word for pc 0x%08x" % pc
                    )
                instr = entry[0]
            record = new_record(record_type)
            record.pc = pc
            record.instr = instr
            num_reads = entry[1]
            if num_reads == 1:
                record.read_values = (values[cursor],)
                cursor += 1
            elif num_reads == 2:
                record.read_values = (values[cursor], values[cursor + 1])
                cursor += 2
            elif num_reads:
                record.read_values = tuple(values[cursor : cursor + num_reads])
                cursor += num_reads
            else:
                record.read_values = ()
            if flags & _F_WRITE:
                record.write_value = values[cursor]
                cursor += 1
            else:
                record.write_value = None
            if alu_index:
                record.alu_kind = ALU_KINDS[alu_index]
                record.alu_a = values[cursor]
                record.alu_b = values[cursor + 1]
                cursor += 2
            else:
                record.alu_kind = None
                record.alu_a = 0
                record.alu_b = 0
            if flags & _F_MEM:
                record.mem_addr = values[cursor]
                record.mem_value = values[cursor + 1]
                cursor += 2
                record.mem_size = entry[2]
                record.mem_is_store = (flags & _F_STORE) != 0
            else:
                record.mem_addr = None
                record.mem_size = 0
                record.mem_value = 0
                record.mem_is_store = False
            record.taken = (flags & _F_TAKEN) != 0
            if flags & _F_SEQ:
                next_pc = (pc + 4) & _MASK32
            else:
                next_pc = values[cursor]
                cursor += 1
            record.next_pc = next_pc
            if cursor != num_values:
                raise TraceCodecError(
                    "record stored %d values but consumed %d"
                    % (num_values, cursor)
                )
            expected_pc = next_pc
            append_record(record)
    except IndexError:
        # Indexing past `values` means the stored value count disagrees
        # with the flags — structural damage, same as any other mismatch.
        raise TraceCodecError("record consumed more values than stored")
    if pos != limit:
        raise TraceCodecError(
            "%d trailing bytes after final record" % (limit - pos)
        )
    return records


# ------------------------------------------------------------------ file I/O


def dump_trace(path, records, meta=None):
    """Write records to ``path``; returns the stored meta dict.

    The caller-supplied ``meta`` entries are merged with the codec's own
    bookkeeping (record count, payload and naive byte sizes).
    """
    with tracing.span(
        "trace.encode", "compute", path=str(path), records=len(records),
    ):
        payload, naive_bytes = encode_records(records)
    stored_meta = dict(meta or {})
    stored_meta.update(
        {
            "codec_version": CODEC_VERSION,
            "records": len(records),
            "payload_bytes": len(payload),
            "naive_bytes": naive_bytes,
        }
    )
    meta_blob = json.dumps(stored_meta, sort_keys=True).encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(MAGIC)
        handle.write(_HEADER.pack(CODEC_VERSION, len(meta_blob)))
        handle.write(meta_blob)
        handle.write(_CRC.pack(zlib.crc32(payload)))
        handle.write(payload)
    return stored_meta


def _parse_container(data, path):
    """Validate magic, codec version and meta block at the head of ``data``.

    Returns ``(meta, meta_end)``; the payload CRC-32 sits at
    ``meta_end``.  ``data`` may stop anywhere after the CRC: a file's
    header alone is enough.
    """
    header_size = len(MAGIC) + _HEADER.size
    if len(data) < header_size or data[: len(MAGIC)] != MAGIC:
        raise TraceCodecError("not a significance-compressed trace: %s" % path)
    version, meta_length = _HEADER.unpack_from(data, len(MAGIC))
    if version != CODEC_VERSION:
        raise TraceCodecError(
            "codec version %d != supported %d" % (version, CODEC_VERSION)
        )
    meta_end = header_size + meta_length
    if len(data) < meta_end + _CRC.size:
        raise TraceCodecError("truncated header in %s" % path)
    try:
        meta = json.loads(data[header_size:meta_end].decode("utf-8"))
    except ValueError:
        raise TraceCodecError("corrupt meta block in %s" % path)
    if not isinstance(meta, dict) or "records" not in meta:
        raise TraceCodecError("meta block missing record count in %s" % path)
    return meta, meta_end


def read_meta(path):
    """Read and validate only the header of a trace file (cheap).

    Used by ``repro cache info`` to report sizes without decoding every
    record.  Raises :class:`TraceCodecError` on a damaged header.
    """
    with open(path, "rb") as handle:
        data = handle.read(len(MAGIC) + _HEADER.size)
        if len(data) == len(MAGIC) + _HEADER.size:
            _version, meta_length = _HEADER.unpack_from(data, len(MAGIC))
            data += handle.read(meta_length + _CRC.size)
    return _parse_container(data, path)[0]


def load_trace(path):
    """Read, verify and decode a trace file; returns ``(records, meta)``.

    The file is read once; the container (magic, version, meta, payload
    CRC-32) is checked before any record is trusted.  Any damage — wrong
    magic, version skew, truncation, CRC mismatch, undecodable records —
    raises :class:`TraceCodecError` so callers can fall back to
    re-simulation.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    meta, meta_end = _parse_container(data, path)
    (crc,) = _CRC.unpack_from(data, meta_end)
    start = meta_end + _CRC.size
    if zlib.crc32(memoryview(data)[start:]) != crc:
        raise TraceCodecError("payload checksum mismatch in %s" % path)
    count = int(meta["records"])
    with tracing.span("trace.decode", "compute", path=str(path), records=count):
        records = decode_records(data, count, start)
    return records, meta
