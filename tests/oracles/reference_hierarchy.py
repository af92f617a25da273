"""The reference memory hierarchy: one object per cache, TLB and access.

The production hierarchy
(:class:`~repro.sim.hierarchy_model.MemoHierarchy`) memoizes LRU
transitions over immutable set states and folds same-line runs into
counters.  This oracle keeps the original straightforward model: an
LRU list per set in :class:`Cache` and :class:`TLB`, and an
:class:`AccessResult` per access from :class:`MemoryHierarchy`.  The
differential suites (``tests/test_hierarchies.py``,
``tests/test_kernels.py``, ``tests/test_activity_model.py``) require
identical stalls, counters, pipeline results and activity reports from
both.

Write policy is write-back, write-allocate.  :class:`MemoryHierarchy`
also implements the narrow timing protocol (``ifetch_stall`` /
``data_stall`` / ``classify_block`` / ``stats``), so the reference
kernel can run over either hierarchy.
"""

from repro.sim.hierarchy import PAGE_BITS, PAPER_HIERARCHY


class Cache:
    """Set-associative LRU cache tracking hit/miss/fill/writeback counts."""

    def __init__(self, config):
        self.config = config
        self._line_shift = config.line_bytes.bit_length() - 1
        self._set_mask = config.num_sets - 1
        # Each set is an ordered list of (line_number, dirty); index 0 = MRU.
        self._sets = [[] for _ in range(config.num_sets)]
        self.accesses = 0
        self.hits = 0
        self.misses = 0
        self.fills = 0
        self.writebacks = 0

    def access(self, address, is_write=False):
        """Access ``address``; returns (hit, victim_writeback_address).

        On a miss the line is allocated (write-allocate).  If a dirty
        victim was evicted, its base address is returned (else None) so
        callers can model writeback traffic to the next level.
        """
        line_number = address >> self._line_shift
        set_index = line_number & self._set_mask
        ways = self._sets[set_index]
        self.accesses += 1
        for position, (way_line, dirty) in enumerate(ways):
            if way_line == line_number:
                self.hits += 1
                ways.pop(position)
                ways.insert(0, (line_number, dirty or is_write))
                return True, None
        self.misses += 1
        self.fills += 1
        victim_address = None
        if len(ways) >= self.config.assoc:
            victim_line, victim_dirty = ways.pop()
            if victim_dirty:
                victim_address = victim_line << self._line_shift
                self.writebacks += 1
        ways.insert(0, (line_number, is_write))
        return False, victim_address

    def contains(self, address):
        """True if the line holding ``address`` is resident (no side effects)."""
        line_number = address >> self._line_shift
        set_index = line_number & self._set_mask
        return any(way_line == line_number for way_line, _dirty in self._sets[set_index])

    @property
    def hit_rate(self):
        """Fraction of accesses that hit (0 when no accesses yet)."""
        return self.hits / self.accesses if self.accesses else 0.0

    def stats(self):
        """Dict of counters for reports."""
        return {
            "name": self.config.name,
            "accesses": self.accesses,
            "hits": self.hits,
            "misses": self.misses,
            "fills": self.fills,
            "writebacks": self.writebacks,
            "hit_rate": self.hit_rate,
        }

    def reset_stats(self):
        """Zero the counters without flushing cache contents."""
        self.accesses = self.hits = self.misses = 0
        self.fills = self.writebacks = 0


class TLB:
    """A small set-associative LRU TLB over 4KB pages."""

    def __init__(self, name, entries, assoc, page_bits=PAGE_BITS):
        for field, value in (
            ("entries", entries),
            ("assoc", assoc),
            ("page_bits", page_bits),
        ):
            if (
                not isinstance(value, int)
                or isinstance(value, bool)
                or value <= 0
            ):
                raise ValueError(
                    "TLB field %r must be a positive integer, got %r"
                    % (field, value)
                )
        if entries % assoc:
            raise ValueError("entries must be a multiple of associativity")
        self.name = name
        self.entries = entries
        self.assoc = assoc
        self.page_bits = page_bits
        self.num_sets = entries // assoc
        if self.num_sets & (self.num_sets - 1):
            raise ValueError("number of sets must be a power of two")
        self._sets = [[] for _ in range(self.num_sets)]
        self.accesses = 0
        self.hits = 0
        self.misses = 0

    def access(self, address):
        """Translate ``address``; returns True on hit, False on miss.

        Misses install the translation (the simulator has no page faults;
        every page is considered mapped).
        """
        page = address >> self.page_bits
        set_index = page & (self.num_sets - 1)
        tag = page >> (self.num_sets.bit_length() - 1)
        ways = self._sets[set_index]
        self.accesses += 1
        for position, way_tag in enumerate(ways):
            if way_tag == tag:
                self.hits += 1
                ways.pop(position)
                ways.insert(0, tag)
                return True
        self.misses += 1
        if len(ways) >= self.assoc:
            ways.pop()
        ways.insert(0, tag)
        return False

    @property
    def hit_rate(self):
        return self.hits / self.accesses if self.accesses else 0.0

    def stats(self):
        """Dict of counters for reports."""
        return {
            "name": self.name,
            "accesses": self.accesses,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
        }


class AccessResult:
    """Outcome of one hierarchy access."""

    __slots__ = ("stall_cycles", "l1_hit", "l2_hit", "tlb_hit", "l1_fill", "writeback")

    def __init__(self, stall_cycles, l1_hit, l2_hit, tlb_hit, l1_fill, writeback):
        self.stall_cycles = stall_cycles
        self.l1_hit = l1_hit
        self.l2_hit = l2_hit
        self.tlb_hit = tlb_hit
        self.l1_fill = l1_fill
        self.writeback = writeback

    def __repr__(self):
        return "AccessResult(stall=%d, l1=%s)" % (self.stall_cycles, self.l1_hit)


class MemoryHierarchy:
    """Split L1s over a unified L2, with I/D TLBs."""

    def __init__(self, config=None):
        self.config = config or PAPER_HIERARCHY
        self.l1i = Cache(self.config.l1i)
        self.l1d = Cache(self.config.l1d)
        self.l2 = Cache(self.config.l2)
        self.itlb = TLB("ITLB", self.config.itlb_entries, self.config.itlb_assoc)
        self.dtlb = TLB("DTLB", self.config.dtlb_entries, self.config.dtlb_assoc)

    def access_instruction(self, address):
        """Fetch access; returns an :class:`AccessResult`."""
        return self._access(address, self.l1i, self.itlb, is_store=False)

    def access_data(self, address, is_store=False):
        """Data access; returns an :class:`AccessResult`."""
        return self._access(address, self.l1d, self.dtlb, is_store=is_store)

    # ------------------------------------------------- narrow timing protocol
    #
    # The same three methods MemoHierarchy implements (see
    # repro.sim.hierarchy_model), so the differential suites can run the
    # kernels over either; they return bare stall-cycle integers, leaving
    # the AccessResult object path to the reference activity model, which
    # inspects the l1_fill flag per access.

    def ifetch_stall(self, address):
        """Stall cycles of one instruction fetch at ``address``."""
        return self._access(
            address, self.l1i, self.itlb, is_store=False
        ).stall_cycles

    def data_stall(self, address, is_store=False):
        """Stall cycles of one data access at ``address``."""
        return self._access(
            address, self.l1d, self.dtlb, is_store=is_store
        ).stall_cycles

    def classify_block(self, records):
        """Batch API: ``[(ifetch_stall, data_stall), ...]`` per record.

        Records without a memory access report a data stall of 0 (and
        touch no data-side structure).  State evolves exactly as the
        equivalent per-record calls would evolve it.
        """
        ifetch_stall = self.ifetch_stall
        data_stall = self.data_stall
        latencies = []
        append = latencies.append
        for record in records:
            istall = ifetch_stall(record.pc)
            mem_addr = record.mem_addr
            append((
                istall,
                data_stall(mem_addr, record.mem_is_store)
                if mem_addr is not None
                else 0,
            ))
        return latencies

    def _access(self, address, l1, tlb, is_store):
        stall = 0
        tlb_hit = tlb.access(address)
        if not tlb_hit:
            stall += self.config.tlb_miss_cycles
        l1_hit, victim_address = l1.access(address, is_write=is_store)
        l2_hit = True
        l1_fill = not l1_hit
        writeback = victim_address is not None
        if not l1_hit:
            l2_hit, _l2_victim = self.l2.access(address, is_write=False)
            stall += self.config.l2_hit_cycles if l2_hit else self.config.memory_cycles
            if writeback:
                # Dirty victim written back into L2 (no extra stall modelled;
                # writeback buffers hide it, but the L2 sees the traffic).
                self.l2.access(victim_address, is_write=True)
        return AccessResult(stall, l1_hit, l2_hit, tlb_hit, l1_fill, writeback)

    def stats(self):
        """Per-structure statistics dictionaries."""
        return {
            "l1i": self.l1i.stats(),
            "l1d": self.l1d.stats(),
            "l2": self.l2.stats(),
            "itlb": self.itlb.stats(),
            "dtlb": self.dtlb.stats(),
        }
