"""Substrate micro-benchmarks: throughput of the building blocks.

Not a paper artifact — these measure the reproduction's own moving
parts (interpreter, compression kernels, significance ALU, the memoized
L1D structure) so performance regressions in the substrate are visible.
"""

from repro.core.alu import significance_add
from repro.core.compress import compress
from repro.core.extension import BYTE_SCHEME
from repro.minic import compile_program
from repro.sim import Interpreter, load_program
from repro.sim.hierarchy import CacheConfig
from repro.sim.hierarchy_model import memo_cache

LOOP_PROGRAM = """
int main() {
    int sum = 0;
    for (int i = 0; i < 20000; i += 1) { sum += i & 1023; }
    print_int(sum);
    return 0;
}
"""


def test_interpreter_throughput(benchmark):
    program = compile_program(LOOP_PROGRAM)

    def run():
        memory, machine = load_program(program)
        interpreter = Interpreter(memory, machine, trace=False)
        interpreter.run()
        return interpreter.instructions_executed

    executed = benchmark(run)
    assert executed > 100_000


def test_trace_generation_throughput(benchmark):
    program = compile_program(LOOP_PROGRAM)

    def run():
        memory, machine = load_program(program)
        interpreter = Interpreter(memory, machine, trace=True)
        interpreter.run()
        return len(interpreter.trace_records)

    records = benchmark(run)
    assert records > 100_000


def test_compression_throughput(benchmark):
    values = [(i * 2654435761) & 0xFFFFFFFF for i in range(10_000)]

    def run():
        return sum(BYTE_SCHEME.significant_blocks(v) for v in values)

    total = benchmark(run)
    assert total > 0


def test_significance_alu_throughput(benchmark):
    pairs = [
        ((i * 48271) & 0xFFFFFFFF, (i * 16807) & 0xFFFFFFFF) for i in range(2_000)
    ]

    def run():
        return sum(significance_add(a, b).blocks_operated for a, b in pairs)

    total = benchmark(run)
    assert total >= len(pairs)


def test_compressed_word_roundtrip_throughput(benchmark):
    values = [(i * 2654435761) & 0xFFFFFFFF for i in range(5_000)]

    def run():
        return sum(compress(v).decompress() == v for v in values)

    ok = benchmark(run)
    assert ok == len(values)


def test_cache_model_throughput(benchmark):
    cache = memo_cache(CacheConfig("bench", 8 * 1024, 1, 32))
    lines = [((i * 97) & 0xFFFF) >> cache.line_shift for i in range(20_000)]

    def run():
        hits = 0
        for line in lines:
            hit, _ = cache.access_line(line, False)
            hits += hit
        return hits

    hits = benchmark(run)
    assert hits >= 0
