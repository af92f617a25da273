"""The paper's memory hierarchy (Section 3) with latency accounting.

* L1: split 8KB direct-mapped I and D caches, 32-byte lines, 1-cycle hit.
* L2: unified 64KB 4-way, 32-byte lines, 6-cycle hit, 30-cycle miss.
* TLBs: 16-entry 4-way I, 32-entry 4-way D, 1-cycle hit, 30-cycle miss.

The hierarchy returns *stall* cycles beyond the 1-cycle pipelined access
that the IF/MEM stage already accounts for.

:class:`MemoryHierarchy` serves two roles.  The activity model walks it
through the per-access :class:`AccessResult` path.  Through the narrow
timing protocol (:meth:`ifetch_stall` / :meth:`data_stall` /
:meth:`classify_block`) it is the test oracle for
:class:`~repro.sim.hierarchy_model.MemoHierarchy`, the memoized
reimplementation the pipeline kernel consults.
"""

from repro.sim.cache import Cache, CacheConfig
from repro.sim.tlb import TLB


def _require_count(field, value, minimum):
    """Reject a non-integer or too-small hierarchy config field."""
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ValueError(
            "hierarchy config field %r must be an integer >= %d, got %r"
            % (field, minimum, value)
        )


class HierarchyConfig:
    """Latency and geometry parameters of the full hierarchy.

    Every field is validated eagerly — a bad value raises ``ValueError``
    naming the offending field here, at construction, rather than
    surfacing as an arithmetic error deep inside a simulation.  Use
    :meth:`from_dict` to build one from plain data; unknown keys fail
    closed the same way.
    """

    #: The accepted constructor keywords, in declaration order.
    _FIELDS = (
        "l1i", "l1d", "l2",
        "l2_hit_cycles", "memory_cycles",
        "itlb_entries", "itlb_assoc",
        "dtlb_entries", "dtlb_assoc",
        "tlb_miss_cycles",
    )

    def __init__(
        self,
        l1i=CacheConfig("L1I", 8 * 1024, 1, 32),
        l1d=CacheConfig("L1D", 8 * 1024, 1, 32),
        l2=CacheConfig("L2", 64 * 1024, 4, 32),
        l2_hit_cycles=6,
        memory_cycles=30,
        itlb_entries=16,
        itlb_assoc=4,
        dtlb_entries=32,
        dtlb_assoc=4,
        tlb_miss_cycles=30,
    ):
        for field, value in (("l1i", l1i), ("l1d", l1d), ("l2", l2)):
            if not isinstance(value, CacheConfig):
                raise ValueError(
                    "hierarchy config field %r must be a CacheConfig, got %r"
                    % (field, value)
                )
        for field, value in (
            ("l2_hit_cycles", l2_hit_cycles),
            ("memory_cycles", memory_cycles),
            ("tlb_miss_cycles", tlb_miss_cycles),
        ):
            _require_count(field, value, minimum=0)
        for field, value in (
            ("itlb_entries", itlb_entries),
            ("itlb_assoc", itlb_assoc),
            ("dtlb_entries", dtlb_entries),
            ("dtlb_assoc", dtlb_assoc),
        ):
            _require_count(field, value, minimum=1)
        if itlb_entries % itlb_assoc:
            raise ValueError(
                "hierarchy config field 'itlb_entries' (%d) is not a "
                "multiple of 'itlb_assoc' (%d)" % (itlb_entries, itlb_assoc)
            )
        if dtlb_entries % dtlb_assoc:
            raise ValueError(
                "hierarchy config field 'dtlb_entries' (%d) is not a "
                "multiple of 'dtlb_assoc' (%d)" % (dtlb_entries, dtlb_assoc)
            )
        self.l1i = l1i
        self.l1d = l1d
        self.l2 = l2
        self.l2_hit_cycles = l2_hit_cycles
        self.memory_cycles = memory_cycles
        self.itlb_entries = itlb_entries
        self.itlb_assoc = itlb_assoc
        self.dtlb_entries = dtlb_entries
        self.dtlb_assoc = dtlb_assoc
        self.tlb_miss_cycles = tlb_miss_cycles

    @classmethod
    def from_dict(cls, payload):
        """Build a config from a plain dict, failing closed.

        Unknown keys raise ``ValueError`` naming the offending key (the
        fail-closed style of the result-store ``from_dict`` loaders) —
        a typo like ``memory_cycle`` must not silently leave the real
        field at its default.  Cache levels may be given as nested
        dicts (see :meth:`CacheConfig.from_dict`).
        """
        if not isinstance(payload, dict):
            raise ValueError(
                "hierarchy config payload must be a mapping, got %s"
                % type(payload).__name__
            )
        for key in payload:
            if key not in cls._FIELDS:
                raise ValueError("unknown hierarchy config key %r" % (key,))
        kwargs = dict(payload)
        for field in ("l1i", "l1d", "l2"):
            value = kwargs.get(field)
            if isinstance(value, dict):
                kwargs[field] = CacheConfig.from_dict(value)
        return cls(**kwargs)


#: Exactly the configuration of the paper's experimental framework.
PAPER_HIERARCHY = HierarchyConfig()


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
    # the AccessResult object path to consumers that inspect
    # hit/fill/writeback flags per access.

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
