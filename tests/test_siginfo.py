"""Tests for the per-instruction significance summary: the oracle's
``compute_siginfo`` and ``pipeline.siginfo.alu_activity``."""


from repro.asm import assemble
from repro.core.extension import HALFWORD_SCHEME
from repro.pipeline.siginfo import alu_activity
from repro.sim import Interpreter, load_program

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
