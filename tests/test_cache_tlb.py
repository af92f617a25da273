"""Tests for the cache, TLB and memory-hierarchy models."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.hierarchy import PAPER_HIERARCHY, CacheConfig, HierarchyConfig

from oracles.reference_hierarchy import TLB, Cache, MemoryHierarchy


def make_cache(size=8 * 1024, assoc=1, line=32, name="test"):
    return Cache(CacheConfig(name, size, assoc, line))


class TestCacheGeometry:
    def test_paper_l1_geometry(self):
        cache = make_cache()
        assert cache.config.num_sets == 256

    def test_paper_l2_geometry(self):
        cache = make_cache(size=64 * 1024, assoc=4)
        assert cache.config.num_sets == 512

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig("bad", 1000, 1, 32)

    def test_non_power_of_two_line_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig("bad", 8192, 1, 24)

    def test_non_power_of_two_sets_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig("bad", 3 * 1024, 1, 32)


class TestCacheBehaviour:
    def test_cold_miss_then_hit(self):
        cache = make_cache()
        hit, _ = cache.access(0x1000)
        assert not hit
        hit, _ = cache.access(0x1000)
        assert hit

    def test_same_line_hits(self):
        cache = make_cache()
        cache.access(0x1000)
        hit, _ = cache.access(0x101F)  # same 32-byte line
        assert hit
        hit, _ = cache.access(0x1020)  # next line
        assert not hit

    def test_direct_mapped_conflict(self):
        cache = make_cache()  # 8KB DM: addresses 8KB apart conflict
        cache.access(0x0000)
        cache.access(0x2000)
        hit, _ = cache.access(0x0000)
        assert not hit

    def test_associativity_avoids_conflict(self):
        cache = make_cache(assoc=2)
        cache.access(0x0000)
        cache.access(0x4000)
        hit, _ = cache.access(0x0000)
        assert hit

    def test_lru_eviction(self):
        cache = make_cache(size=64, assoc=2, line=32)  # one set, 2 ways
        cache.access(0x00)
        cache.access(0x20)
        cache.access(0x00)   # touch to make 0x20 the LRU
        cache.access(0x40)   # evicts 0x20
        assert cache.contains(0x00)
        assert not cache.contains(0x20)

    def test_writeback_of_dirty_victim(self):
        cache = make_cache(size=32, assoc=1, line=32)  # a single line
        cache.access(0x00, is_write=True)
        hit, victim = cache.access(0x20)
        assert not hit
        assert victim == 0x00
        assert cache.writebacks == 1

    def test_clean_victim_no_writeback(self):
        cache = make_cache(size=32, assoc=1, line=32)
        cache.access(0x00, is_write=False)
        _, victim = cache.access(0x20)
        assert victim is None

    def test_write_hit_marks_dirty(self):
        cache = make_cache(size=32, assoc=1, line=32)
        cache.access(0x00)                  # clean fill
        cache.access(0x04, is_write=True)   # write hit dirties the line
        _, victim = cache.access(0x20)
        assert victim == 0x00

    def test_stats_and_reset(self):
        cache = make_cache()
        cache.access(0x00)
        cache.access(0x00)
        stats = cache.stats()
        assert stats["accesses"] == 2
        assert stats["hits"] == 1
        assert stats["hit_rate"] == pytest.approx(0.5)
        cache.reset_stats()
        assert cache.accesses == 0
        assert cache.contains(0x00)

    @settings(max_examples=25)
    @given(st.lists(st.integers(min_value=0, max_value=0xFFFF), min_size=1, max_size=200))
    def test_counters_consistent(self, addresses):
        cache = make_cache(size=256, assoc=2, line=32)
        for address in addresses:
            cache.access(address)
        assert cache.hits + cache.misses == cache.accesses
        assert cache.fills == cache.misses

    @settings(max_examples=25)
    @given(st.lists(st.integers(min_value=0, max_value=0xFFFF), min_size=1, max_size=50))
    def test_second_pass_all_hits_when_fits(self, addresses):
        # A cache larger than the footprint never misses on the second pass.
        cache = make_cache(size=64 * 1024, assoc=4, line=32)
        for address in addresses:
            cache.access(address)
        cache.reset_stats()
        for address in addresses:
            cache.access(address)
        assert cache.misses == 0


class TestTLB:
    def test_paper_geometry(self):
        itlb = TLB("ITLB", 16, 4)
        dtlb = TLB("DTLB", 32, 4)
        assert itlb.num_sets == 4
        assert dtlb.num_sets == 8

    def test_miss_then_hit(self):
        tlb = TLB("t", 16, 4)
        assert not tlb.access(0x00400000)
        assert tlb.access(0x00400FFF)  # same 4KB page

    def test_different_page_misses(self):
        tlb = TLB("t", 16, 4)
        tlb.access(0x00400000)
        assert not tlb.access(0x00401000)

    def test_capacity_eviction(self):
        tlb = TLB("t", 4, 4)  # fully associative, 4 entries
        for page in range(5):
            tlb.access(page << 12)
        assert not tlb.access(0)  # page 0 evicted by page 4

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            TLB("t", 10, 4)
        with pytest.raises(ValueError):
            TLB("t", 24, 4)

    def test_hit_rate(self):
        tlb = TLB("t", 16, 4)
        tlb.access(0)
        tlb.access(0)
        assert tlb.hit_rate == pytest.approx(0.5)


class TestMemoryHierarchy:
    def test_l1_hit_no_stall(self):
        hierarchy = MemoryHierarchy()
        hierarchy.access_instruction(0x00400000)
        result = hierarchy.access_instruction(0x00400004)
        assert result.stall_cycles == 0
        assert result.l1_hit

    def test_cold_access_pays_tlb_and_memory(self):
        hierarchy = MemoryHierarchy()
        result = hierarchy.access_instruction(0x00400000)
        assert not result.l1_hit
        assert not result.tlb_hit
        # 30 (TLB miss) + 30 (L2 miss -> memory).
        assert result.stall_cycles == 60

    def test_l2_hit_costs_six(self):
        config = HierarchyConfig()
        hierarchy = MemoryHierarchy(config)
        hierarchy.access_data(0x10000000)           # warm L2 + TLB
        # Force the line out of L1 with a conflicting line 8KB away.
        hierarchy.access_data(0x10002000)
        result = hierarchy.access_data(0x10000000)  # L1 miss, L2 hit
        assert not result.l1_hit
        assert result.l2_hit
        assert result.stall_cycles == config.l2_hit_cycles

    def test_split_l1_unified_l2(self):
        hierarchy = MemoryHierarchy()
        hierarchy.access_instruction(0x00400000)
        result = hierarchy.access_data(0x00400000)
        # Same address: D-access misses its own L1 but hits unified L2.
        assert not result.l1_hit
        assert result.l2_hit

    def test_store_writeback_traffic_reaches_l2(self):
        hierarchy = MemoryHierarchy()
        hierarchy.access_data(0x10000000, is_store=True)
        l2_before = hierarchy.l2.accesses
        hierarchy.access_data(0x10002000)  # evicts the dirty line (DM L1)
        assert hierarchy.l2.accesses >= l2_before + 2  # fill + writeback

    def test_stats_structure(self):
        hierarchy = MemoryHierarchy()
        hierarchy.access_instruction(0x00400000)
        stats = hierarchy.stats()
        assert set(stats) == {"l1i", "l1d", "l2", "itlb", "dtlb"}
        assert stats["l1i"]["accesses"] == 1

    def test_paper_config_values(self):
        assert PAPER_HIERARCHY.l1i.size_bytes == 8 * 1024
        assert PAPER_HIERARCHY.l2.assoc == 4
        assert PAPER_HIERARCHY.l2_hit_cycles == 6
        assert PAPER_HIERARCHY.memory_cycles == 30
        assert PAPER_HIERARCHY.itlb_entries == 16
        assert PAPER_HIERARCHY.dtlb_entries == 32


class TestTLBEvictionOrder:
    def test_lru_not_fifo(self):
        # Re-touching the oldest entry must move it to MRU: after the
        # set overflows, the victim is the least-recently *used* page,
        # not the first-installed one.
        tlb = TLB("t", 4, 4)  # one fully associative set
        for page in (0, 1, 2, 3):
            tlb.access(page << 12)
        tlb.access(0 << 12)       # page 0 becomes MRU; page 1 is now LRU
        tlb.access(4 << 12)       # evicts page 1
        assert tlb.access(0 << 12)      # survived
        assert not tlb.access(1 << 12)  # evicted (this re-installs it)

    def test_hit_promotes_within_full_set(self):
        tlb = TLB("t", 4, 4)
        for page in (0, 1, 2, 3):
            tlb.access(page << 12)
        # Touch in reverse: LRU order becomes 3, 2, 1, 0 (0 is MRU last).
        for page in (3, 2, 1, 0):
            assert tlb.access(page << 12)
        tlb.access(4 << 12)  # evicts page 3, the coldest after reversal
        assert not tlb.access(3 << 12)

    def test_eviction_is_per_set(self):
        # Pages landing in different sets never evict each other.
        tlb = TLB("t", 8, 4)  # 2 sets
        even = [(page << 1) << 12 for page in range(4)]   # set 0, 4 ways
        odd = ((1 << 1) | 1) << 12                        # set 1
        for address in even:
            tlb.access(address)
        tlb.access(odd)
        for address in even:  # set 0 still intact
            assert tlb.access(address)


class TestCacheSetBoundaryAliasing:
    def test_set_wraparound_aliases(self):
        # 8KB DM, 32B lines: 256 sets.  Addresses one full cache apart
        # alias to the same set with different tags.
        cache = make_cache()
        stride = 256 * 32
        cache.access(0x0000)
        hit, _ = cache.access(stride)      # same set 0, different tag
        assert not hit
        hit, _ = cache.access(0x0000)      # original line was evicted
        assert not hit

    def test_last_set_first_set_are_distinct(self):
        # The last line of one cache-sized span and the first line of
        # the next span sit in *different* sets — off-by-one set-index
        # masks would collapse them.
        cache = make_cache()
        last_set = 255 * 32
        next_span_first = 256 * 32
        cache.access(last_set)
        hit, _ = cache.access(next_span_first)
        assert not hit                     # different set: cold miss
        assert cache.contains(last_set)    # and no eviction of set 255

    def test_line_boundary_is_not_a_set_boundary(self):
        # The last byte of a line and the first byte of the next line
        # fall in adjacent sets (DM): both fit concurrently.
        cache = make_cache()
        cache.access(0x103F)  # set 129's line
        cache.access(0x1040)  # set 130's line
        assert cache.contains(0x103F)
        assert cache.contains(0x1040)

    def test_associative_tags_disambiguate_aliases(self):
        cache = make_cache(assoc=2)  # 128 sets x 2 ways
        stride = 128 * 32
        cache.access(0x0000)
        cache.access(stride)           # same set, second way
        assert cache.contains(0x0000)
        assert cache.contains(stride)
        assert cache.misses == 2


class TestDegenerateConfigsRejected:
    @pytest.mark.parametrize("field,value", [
        ("size_bytes", 0), ("size_bytes", -8192), ("size_bytes", True),
        ("assoc", 0), ("assoc", -1),
        ("line_bytes", 0), ("line_bytes", 32.0),
    ])
    def test_cache_config_degenerate_fields(self, field, value):
        kwargs = {"name": "bad", "size_bytes": 8192, "assoc": 1,
                  "line_bytes": 32}
        kwargs[field] = value
        with pytest.raises(ValueError) as excinfo:
            CacheConfig(**kwargs)
        assert field in str(excinfo.value)

    @pytest.mark.parametrize("field,value", [
        ("entries", 0), ("entries", -16), ("assoc", 0),
        ("page_bits", 0), ("page_bits", False),
    ])
    def test_tlb_degenerate_fields(self, field, value):
        kwargs = {"entries": 16, "assoc": 4, "page_bits": 12}
        kwargs[field] = value
        with pytest.raises(ValueError) as excinfo:
            TLB("t", **kwargs)
        assert field in str(excinfo.value)

    @pytest.mark.parametrize("field,value", [
        ("l2_hit_cycles", -1), ("memory_cycles", "30"),
        ("tlb_miss_cycles", -5), ("itlb_entries", 0),
        ("dtlb_assoc", 0), ("l1i", "not-a-cache"),
    ])
    def test_hierarchy_degenerate_fields(self, field, value):
        with pytest.raises(ValueError) as excinfo:
            HierarchyConfig(**{field: value})
        assert field in str(excinfo.value)

    def test_hierarchy_entries_assoc_mismatch_names_both(self):
        with pytest.raises(ValueError) as excinfo:
            HierarchyConfig(itlb_entries=16, itlb_assoc=3)
        message = str(excinfo.value)
        assert "itlb_entries" in message
        assert "itlb_assoc" in message

    def test_zero_latency_config_is_valid(self):
        # The perfect-memory configs tests use must keep working.
        config = HierarchyConfig(
            l2_hit_cycles=0, memory_cycles=0, tlb_miss_cycles=0
        )
        assert MemoryHierarchy(config).ifetch_stall(0x00400000) == 0


class TestConfigFromDict:
    def test_cache_unknown_key(self):
        with pytest.raises(ValueError) as excinfo:
            CacheConfig.from_dict(
                {"name": "x", "size_bytes": 8192, "assoc": 1,
                 "line_bytes": 32, "lines": 64}
            )
        assert "lines" in str(excinfo.value)

    def test_cache_missing_key(self):
        with pytest.raises(ValueError) as excinfo:
            CacheConfig.from_dict({"name": "x", "size_bytes": 8192})
        assert "missing" in str(excinfo.value)

    def test_hierarchy_unknown_key(self):
        # The fail-closed point: a typo must not silently leave the
        # real field at its default.
        with pytest.raises(ValueError) as excinfo:
            HierarchyConfig.from_dict({"memory_cycle": 10})
        assert "memory_cycle" in str(excinfo.value)

    def test_hierarchy_non_mapping(self):
        with pytest.raises(ValueError):
            HierarchyConfig.from_dict([("memory_cycles", 10)])

    def test_hierarchy_nested_cache_dicts(self):
        config = HierarchyConfig.from_dict({
            "l2": {"name": "L2", "size_bytes": 128 * 1024, "assoc": 8,
                   "line_bytes": 32},
            "memory_cycles": 40,
        })
        assert config.l2.size_bytes == 128 * 1024
        assert config.l2.assoc == 8
        assert config.memory_cycles == 40
        assert config.l2_hit_cycles == 6  # untouched default
