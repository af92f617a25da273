"""Tests for the per-instruction significance summary: the oracle's
``compute_siginfo``, ``pipeline.siginfo.alu_activity`` and the activity
fields of the significance column's signatures."""

import pytest

from repro.asm import assemble
from repro.core.extension import BYTE_SCHEME, HALFWORD_SCHEME
from repro.pipeline.organizations import WORD_SCHEME
from repro.pipeline.siginfo import alu_activity, significance_column
from repro.sim import Interpreter, load_program
from repro.workloads import get_workload

from oracles.reference_kernel import compute_siginfo


def records_of(source):
    program = assemble(source)
    memory, machine = load_program(program)
    interpreter = Interpreter(memory, machine, trace=True)
    interpreter.run(100_000)
    return {(r.pc, r.instr.mnemonic): r for r in interpreter.trace_records}, (
        interpreter.trace_records
    )


class TestComputeSiginfo:
    def test_small_add(self):
        _, records = records_of(
            "main:\n li $t0, 3\n li $t1, 4\n addu $v0, $t0, $t1\n jr $ra\n"
        )
        add = [r for r in records if r.instr.mnemonic == "addu"][0]
        info = compute_siginfo(add)
        assert info.src_blocks == (1, 1)
        assert info.result_blocks == 1
        assert info.alu_blocks == 1
        assert info.max_src_blocks == 1
        assert 3 <= info.fetch_bytes <= 4

    def test_wide_add(self):
        _, records = records_of(
            "main:\n li $t0, 0x12345678\n addu $v0, $t0, $t0\n jr $ra\n"
        )
        add = [r for r in records if r.instr.mnemonic == "addu"][0]
        info = compute_siginfo(add)
        assert info.src_blocks == (4, 4)
        assert info.alu_blocks == 4

    def test_halfword_blocks(self):
        _, records = records_of(
            "main:\n li $t0, 0x12345678\n addu $v0, $t0, $t0\n jr $ra\n"
        )
        add = [r for r in records if r.instr.mnemonic == "addu"][0]
        info = compute_siginfo(add, scheme=HALFWORD_SCHEME)
        assert info.src_blocks == (2, 2)
        assert info.alu_blocks == 2

    def test_memory_blocks_bounded_by_access_size(self):
        _, records = records_of(
            """
            .data
            b: .byte 0x7F
            .text
            main:
                la $t0, b
                lb $v0, 0($t0)
                jr $ra
            """
        )
        load = [r for r in records if r.instr.mnemonic == "lb"][0]
        info = compute_siginfo(load)
        assert info.mem_blocks == 1  # one-byte access caps the blocks

    def test_store_value_blocks(self):
        _, records = records_of(
            """
            .data
            w: .word 0
            .text
            main:
                la $t0, w
                li $t1, 0x1234
                sw $t1, 0($t0)
                jr $ra
            """
        )
        store = [r for r in records if r.instr.mnemonic == "sw"][0]
        info = compute_siginfo(store)
        assert info.mem_blocks == 2  # two significant bytes stored

    def test_jump_has_no_alu_blocks(self):
        _, records = records_of("main:\n jr $ra\n")
        jump = [r for r in records if r.instr.mnemonic == "jr"][0]
        info = compute_siginfo(jump)
        assert info.alu_blocks == 0


class TestAluActivityDispatch:
    def _single(self, source, mnemonic):
        _, records = records_of(source)
        return [r for r in records if r.instr.mnemonic == mnemonic][0]

    def test_add_kind(self):
        record = self._single(
            "main:\n li $t0, 7\n addu $v0, $t0, $t0\n jr $ra\n", "addu"
        )
        result = alu_activity(record)
        assert result is not None
        assert result.value == 14

    def test_sub_kind(self):
        record = self._single(
            "main:\n li $t0, 7\n li $t1, 9\n subu $v0, $t0, $t1\n jr $ra\n", "subu"
        )
        result = alu_activity(record)
        assert result.value == (7 - 9) & 0xFFFFFFFF

    def test_logical_kinds(self):
        record = self._single(
            "main:\n li $t0, 0xF0\n li $t1, 0x0F\n or $v0, $t0, $t1\n jr $ra\n", "or"
        )
        assert alu_activity(record).value == 0xFF

    def test_shift_kind(self):
        record = self._single(
            "main:\n li $t0, 3\n sll $v0, $t0, 4\n jr $ra\n", "sll"
        )
        assert alu_activity(record).value == 48

    def test_slt_kind(self):
        record = self._single(
            "main:\n li $t0, -1\n li $t1, 1\n slt $v0, $t0, $t1\n jr $ra\n", "slt"
        )
        assert alu_activity(record).value == 1

    def test_mult_returns_none_but_counts_blocks(self):
        record = self._single(
            "main:\n li $t0, 300\n mult $t0, $t0\n mflo $v0\n jr $ra\n", "mult"
        )
        assert alu_activity(record) is None
        info = compute_siginfo(record)
        assert info.alu_blocks == 2  # 300 has two significant bytes

    def test_branch_is_subtract(self):
        record = self._single(
            "main:\n li $t0, 5\n beq $t0, $t0, done\ndone:\n jr $ra\n", "beq"
        )
        result = alu_activity(record)
        assert result is not None  # comparison through the adder
        assert result.value == 0


# --------------------------------------------- activity fields per record

#: lui, byte loads, mult/div, shifts, logic, compares and memory: every
#: ALU kind the interpreter records.
MIXED_SOURCE = """
.data
b: .byte 0x7F, 0x80
h: .half 0x1234
w: .word 0x12345678
.text
main:
    lui $t0, 0x1234
    lui $t1, 0x7fff
    la $t2, b
    lb $t3, 0($t2)
    lb $t4, 1($t2)
    lbu $t5, 1($t2)
    lh $t6, 2($t2)
    lw $t7, 4($t2)
    sb $t7, 0($t2)
    sh $t7, 2($t2)
    sw $t0, 4($t2)
    li $s0, 300
    mult $s0, $t7
    mflo $s1
    div $t7, $s0
    mfhi $s2
    sll $s3, $s0, 20
    sra $s4, $t4, 3
    xor $s5, $t0, $t3
    nor $s6, $zero, $s0
    slt $s7, $t4, $t3
    sltiu $v1, $t3, 5
    subu $v0, $t0, $t7
    beq $v0, $v0, done
done:
    jr $ra
"""

SCHEMES = (BYTE_SCHEME, HALFWORD_SCHEME, WORD_SCHEME)


def recomputed(record, scheme):
    """``(read_blocks, alu_operated)`` recomputed from ``record`` alone,
    the way the activity oracle counts them."""
    blocks = scheme.significant_blocks
    read_blocks = sum(blocks(value) for value in record.read_values)
    result = alu_activity(record, scheme)
    if result is not None:
        alu_operated = result.blocks_operated
    elif record.alu_kind in ("mult", "div", "lui"):
        alu_operated = max(blocks(record.alu_a), blocks(record.alu_b))
    else:
        alu_operated = -1
    return read_blocks, alu_operated


def data_bits(sig, scheme):
    """A memory signature's data bits, as the activity model counts them."""
    return min(sig.mem_blocks * scheme.block_bits, 8 * sig.instr.memory_size)


def assert_activity_fields(records, scheme):
    column = significance_column(records, scheme)
    for sid, record in zip(column.ids, records):
        sig = column.signatures[sid]
        assert (sig.read_blocks, sig.alu_operated) == recomputed(record, scheme)
        if record.mem_addr is not None:
            value_bits = scheme.significant_blocks(record.mem_value) * scheme.block_bits
            assert data_bits(sig, scheme) == min(value_bits, 8 * record.mem_size)
    return column


class TestActivityFields:
    @pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.name)
    def test_mixed_program_matches_per_record(self, scheme):
        _, records = records_of(MIXED_SOURCE)
        kinds = {record.alu_kind for record in records}
        assert {"lui", "mult", "div", "sll", "sra", "xor", "nor", "slt",
                "sltu", "add", "sub", None} <= kinds
        assert_activity_fields(records, scheme)

    @pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.name)
    def test_workload_matches_per_record(self, scheme):
        assert_activity_fields(get_workload("synth_small").trace(), scheme)

    def test_lui_widths_differ_under_halfwords(self):
        # The kernel sizes LUI by its result (0x12340000: two halfwords);
        # activity counts the wider operand (0x1234 and 16: one each).
        _, records = records_of(MIXED_SOURCE)
        lui = records[0]
        assert lui.instr.mnemonic == "lui"
        column = significance_column(records, HALFWORD_SCHEME)
        sig = column.signatures[column.ids[0]]
        assert (sig.alu_blocks, sig.alu_operated) == (2, 1)

    def test_byte_load_widths_differ_under_halfwords(self):
        # A byte load fills one halfword block in the kernel, but only
        # its 8 accessed bits cross the D-cache port.
        _, records = records_of(MIXED_SOURCE)
        column = significance_column(records, HALFWORD_SCHEME)
        loads = [
            column.signatures[sid] for sid, record in zip(column.ids, records)
            if record.instr.mnemonic in ("lb", "lbu")
        ]
        assert len(loads) == 3
        for sig in loads:
            assert sig.mem_blocks == 1
            assert data_bits(sig, HALFWORD_SCHEME) == 8

    def test_one_block_scheme_operates_one_block(self):
        # Under one block per word the pass skips the ALU; running it
        # agrees that every operation touches exactly that block.
        records = get_workload("synth_small").trace()
        column = significance_column(records, WORD_SCHEME)
        for sid, record in zip(column.ids, records):
            sig = column.signatures[sid]
            if record.alu_kind is None:
                assert (sig.alu_blocks, sig.alu_operated) == (0, -1)
            else:
                assert (sig.alu_blocks, sig.alu_operated) == (1, 1)
                result = alu_activity(record, WORD_SCHEME)
                assert result is None or result.blocks_operated == 1
