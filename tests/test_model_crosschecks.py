"""Cross-model property tests: fast models vs independent slow references."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asm import assemble
from repro.isa.disasm import disassemble
from repro.sim.hierarchy import CacheConfig
from repro.sim.memory import Memory

from oracles.reference_hierarchy import Cache


class _ReferenceCache:
    """Dict-based LRU cache used as an oracle for the Cache model."""

    def __init__(self, num_sets, assoc, line_bytes):
        self.num_sets = num_sets
        self.assoc = assoc
        self.line_shift = line_bytes.bit_length() - 1
        self.sets = {}
        self.time = 0

    def access(self, address):
        self.time += 1
        line = address >> self.line_shift
        index = line % self.num_sets
        ways = self.sets.setdefault(index, {})
        if line in ways:
            ways[line] = self.time
            return True
        if len(ways) >= self.assoc:
            victim = min(ways, key=ways.get)
            del ways[victim]
        ways[line] = self.time
        return False


class TestCacheAgainstReference:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=0x3FFF), min_size=1, max_size=300),
        st.sampled_from([(256, 1, 32), (64, 2, 32), (16, 4, 64), (1, 4, 32)]),
    )
    def test_hit_miss_sequence_matches(self, addresses, geometry):
        num_sets, assoc, line = geometry
        cache = Cache(CacheConfig("x", num_sets * assoc * line, assoc, line))
        reference = _ReferenceCache(num_sets, assoc, line)
        for address in addresses:
            hit, _ = cache.access(address)
            assert hit == reference.access(address)


class TestMemoryProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=0, max_value=0x7FFFFF00),
        st.binary(min_size=1, max_size=64),
    )
    def test_bulk_roundtrip(self, address, data):
        memory = Memory()
        memory.write_bytes(address, data)
        assert memory.read_bytes(address, len(data)) == data

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=0, max_value=0xFFFF).map(lambda a: a * 4),
        st.integers(min_value=0, max_value=0xFFFFFFFF),
        st.integers(min_value=0, max_value=0xFFFF).map(lambda a: a * 4),
        st.integers(min_value=0, max_value=0xFFFFFFFF),
    )
    def test_independent_words(self, addr_a, value_a, addr_b, value_b):
        memory = Memory()
        memory.write_word(addr_a, value_a)
        memory.write_word(addr_b, value_b)
        if addr_a == addr_b:
            assert memory.read_word(addr_a) == value_b
        else:
            assert memory.read_word(addr_b) == value_b
            if abs(addr_a - addr_b) >= 4:
                assert memory.read_word(addr_a) == value_a


class TestAssemblerDisassemblerAgreement:
    """Disassembled text must re-assemble to the identical word."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=0xFFFFFFFF))
    def test_roundtrip_random_words(self, word):
        from repro.isa.encoding import DecodeError, decode

        try:
            decode(word)
        except DecodeError:
            return  # not in the supported subset
        text = disassemble(word)
        if text == "nop" or text.startswith(("j ", "jal ")):
            return  # absolute jump targets need a pc context
        if text.split()[0] in ("beq", "bne", "blez", "bgtz", "bltz", "bgez"):
            return  # branch offsets are pc-relative in text form
        program = assemble("main: " + text + "\n")
        # Don't-care fields (e.g. shamt of a non-shift R-format op) are
        # canonicalized by the disassembler, so require semantic
        # equivalence: the reassembled word disassembles identically.
        assert disassemble(program.text_words[0]) == text
