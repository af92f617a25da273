"""Integration tests asserting the *shape* of the paper's headline results.

These do not check exact numbers (our substrate is a from-scratch
simulator, not the authors' testbed) but the orderings and rough
magnitudes the paper reports: who wins, by roughly what factor, and
where the design points fall relative to each other.
"""

import pytest

from repro.core.icompress import FetchStatistics
from repro.core.patterns import PatternCounter
from repro.pipeline import ActivityModel, simulate
from repro.workloads import get_workload

from oracles.reference_kernel import compute_siginfo

#: A representative cross-section of the suite, kept small so the whole
#: test file stays fast; traces are cached on the workload objects.
SAMPLE = ("rawcaudio", "gsm_toast", "cjpeg", "pegwit")


@pytest.fixture(scope="module")
def traces():
    return {name: get_workload(name).trace(scale=1) for name in SAMPLE}


@pytest.fixture(scope="module")
def cpis(traces):
    organizations = (
        "baseline32",
        "byte_serial",
        "halfword_serial",
        "byte_semi_parallel",
        "parallel_compressed",
        "parallel_skewed",
        "parallel_skewed_bypass",
    )
    results = {}
    for org in organizations:
        values = [simulate(org, traces[name]).cpi for name in SAMPLE]
        results[org] = sum(values) / len(values)
    return results


@pytest.fixture(scope="module")
def activity(traces):
    model = ActivityModel()
    reports = [model.process(traces[name], name=name) for name in SAMPLE]
    from repro.pipeline.activity import _average_report

    return {report.name: report for report in reports} | {
        "AVG": _average_report("AVG", reports)
    }


class TestTable1Shape:
    """Table 1: 'eees' dominates; top-4 patterns cover ~94%."""

    def test_pattern_distribution(self, traces):
        counter = PatternCounter()
        for name in SAMPLE:
            for record in traces[name]:
                for value in record.read_values:
                    counter.record(value)
        rows = counter.table()
        assert rows[0][0] == "eees"
        assert rows[0][1] > 35.0  # dominant single-byte pattern
        assert counter.top_coverage(4) > 0.85
        # Our stack lives at 0x7FFFxxxx, so 'sess' stack-address reads are
        # more frequent than in the paper's Table 1 (94%); the 2-bit
        # scheme still captures the large majority of operand values.
        assert counter.two_bit_representable_fraction() > 0.70


class TestSection23Shape:
    """Fetch compression: ~3.2 bytes/instruction, ~80% small immediates."""

    def test_average_fetch_bytes(self, traces):
        stats = FetchStatistics()
        for name in SAMPLE:
            for record in traces[name]:
                stats.record(record.instr)
        assert 3.0 < stats.average_bytes_per_instruction() < 3.6
        assert stats.fetch_savings() > 0.10
        assert stats.immediate_byte_fraction() > 0.6
        assert stats.short_r_fraction() > 0.6

    def test_format_mix(self, traces):
        stats = FetchStatistics()
        for record in traces["rawcaudio"]:
            stats.record(record.instr)
        mix = stats.format_mix()
        assert mix["i"] > 0.35          # I-format dominates compiled code
        assert mix["j"] < 0.10          # J-format rare (paper: 2.2%)
        assert abs(sum(mix.values()) - 1.0) < 1e-9


class TestTable5Shape:
    """Table 5 AVG: fetch ~18%, RF ~40-47%, ALU ~33%, PC ~73%, latches ~42%."""

    def test_average_savings_bands(self, activity):
        avg = activity["AVG"]
        assert 0.08 < avg.savings("fetch") < 0.30
        assert 0.25 < avg.savings("rf_read") < 0.60
        assert 0.25 < avg.savings("rf_write") < 0.60
        assert 0.20 < avg.savings("alu") < 0.60
        assert 0.10 < avg.savings("dcache_data") < 0.60
        assert avg.savings("dcache_tag") < 0.20  # negligible, as in paper
        assert 0.55 < avg.savings("pc") < 0.90
        assert 0.25 < avg.savings("latches") < 0.60

    def test_crypto_is_worst_case(self, activity):
        """pegwit anchors the low end of datapath savings (paper: 15% ALU)."""
        for stage in ("rf_read", "alu", "dcache_data"):
            others = [activity[name].savings(stage) for name in SAMPLE if name != "pegwit"]
            assert activity["pegwit"].savings(stage) < min(others)

    def test_media_kernels_save_more_than_30_percent(self, activity):
        assert activity["rawcaudio"].savings("rf_read") > 0.30
        assert activity["rawcaudio"].savings("latches") > 0.30


class TestCpiShape:
    """Figures 4, 6, 8, 10: CPI ordering and rough factors."""

    def test_full_ordering(self, cpis):
        assert cpis["baseline32"] < cpis["parallel_skewed_bypass"]
        assert cpis["parallel_skewed_bypass"] < cpis["parallel_skewed"]
        assert cpis["parallel_skewed"] <= cpis["parallel_compressed"] * 1.05
        assert cpis["parallel_compressed"] < cpis["byte_semi_parallel"]
        assert cpis["byte_semi_parallel"] < cpis["byte_serial"]
        assert cpis["halfword_serial"] < cpis["byte_serial"]

    def test_byte_serial_overhead_band(self, cpis):
        """Paper: +79% on average; accept a broad band around it."""
        overhead = cpis["byte_serial"] / cpis["baseline32"] - 1
        assert 0.5 < overhead < 1.6

    def test_semi_parallel_overhead_band(self, cpis):
        """Paper: +24%."""
        overhead = cpis["byte_semi_parallel"] / cpis["baseline32"] - 1
        assert 0.12 < overhead < 0.55

    def test_skewed_bypass_near_baseline(self, cpis):
        """Paper: +2%."""
        overhead = cpis["parallel_skewed_bypass"] / cpis["baseline32"] - 1
        assert overhead < 0.10

    def test_compressed_moderate_overhead(self, cpis):
        """Paper: +6%."""
        overhead = cpis["parallel_compressed"] / cpis["baseline32"] - 1
        assert 0.02 < overhead < 0.25

    def test_baseline_cpi_plausible(self, cpis):
        """Paper quotes a baseline CPI around 1.5 (no branch prediction)."""
        assert 1.05 < cpis["baseline32"] < 1.8


class TestBottleneckShape:
    """Section 5: EX structural hazards dominate byte-serial stalls (~72%)."""

    def test_ex_dominates_bandwidth_demand(self, traces):
        result = simulate("byte_serial", traces["rawcaudio"])
        stage, share = result.bottleneck()
        assert stage == "ex"
        # The paper's 72% counts EX-attributed stall cycles; our measure
        # is excess bandwidth demand, which spreads more evenly — EX must
        # still be the single largest component.
        assert share > 0.25
        assert result.stage_excess["ex"] > result.stage_excess["rd"]

    def test_section5_bandwidth_demand(self, traces):
        # The per-stage byte demand behind the 3/2/2/1 semi-parallel
        # widths: fetch ~3.2 bytes, ALU ~2.7, memory accesses ~2.8.
        records = traces["rawcaudio"]
        fetch_bytes = alu_bytes = mem_bytes = mem_count = 0
        for record in records:
            info = compute_siginfo(record)
            fetch_bytes += info.fetch_bytes
            alu_bytes += info.alu_blocks
            if record.mem_addr is not None:
                mem_bytes += info.mem_blocks
                mem_count += 1
        assert 3.0 < fetch_bytes / len(records) < 3.6     # paper: ~3.2
        assert 1.5 < alu_bytes / len(records) < 3.5       # paper: ~2.7
        assert 1.0 < mem_bytes / max(1, mem_count) < 3.5  # paper: ~2.8
