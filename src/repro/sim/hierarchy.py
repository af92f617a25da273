"""The paper's memory hierarchy configuration (Section 3).

* L1: split 8KB direct-mapped I and D caches, 32-byte lines, 1-cycle hit.
* L2: unified 64KB 4-way, 32-byte lines, 6-cycle hit, 30-cycle miss.
* TLBs: 16-entry 4-way I, 32-entry 4-way D over 4KB pages, 1-cycle hit,
  30-cycle miss.

Caches are LRU, write-back and write-allocate (SimpleScalar's default);
latencies are stall cycles beyond the 1-cycle pipelined access the
IF/MEM stage already accounts for.  This module holds only these
parameters; the model that applies them is
:class:`~repro.sim.hierarchy_model.MemoHierarchy`, held to the test
oracle in ``tests/oracles/reference_hierarchy.py``.
"""

#: log2 of the page size the TLBs translate (4KB pages).
PAGE_BITS = 12


class CacheConfig:
    """Geometry and identification of one cache level.

    Fields are validated eagerly: zero or negative sizes (which the
    arithmetic checks below would silently accept — ``0 % n == 0`` and
    ``0 & -1 == 0``) raise ``ValueError`` naming the offending field
    here rather than dividing by zero inside an access.
    """

    #: The accepted constructor keywords, in declaration order.
    _FIELDS = ("name", "size_bytes", "assoc", "line_bytes")

    def __init__(self, name, size_bytes, assoc, line_bytes):
        for field, value in (
            ("size_bytes", size_bytes),
            ("assoc", assoc),
            ("line_bytes", line_bytes),
        ):
            if (
                not isinstance(value, int)
                or isinstance(value, bool)
                or value <= 0
            ):
                raise ValueError(
                    "cache config field %r must be a positive integer, got %r"
                    % (field, value)
                )
        if size_bytes % (assoc * line_bytes):
            raise ValueError("cache size must be a multiple of assoc * line size")
        self.name = name
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.line_bytes = line_bytes
        self.num_sets = size_bytes // (assoc * line_bytes)
        if self.num_sets & (self.num_sets - 1):
            raise ValueError("number of sets must be a power of two")
        if line_bytes & (line_bytes - 1):
            raise ValueError("line size must be a power of two")

    @classmethod
    def from_dict(cls, payload):
        """Build a config from a plain dict, failing closed.

        Unknown keys raise ``ValueError`` naming the offending key, so a
        typo never silently leaves a field at some other value.
        """
        if not isinstance(payload, dict):
            raise ValueError(
                "cache config payload must be a mapping, got %s"
                % type(payload).__name__
            )
        for key in payload:
            if key not in cls._FIELDS:
                raise ValueError("unknown cache config key %r" % (key,))
        missing = [field for field in cls._FIELDS if field not in payload]
        if missing:
            raise ValueError("cache config key %r is missing" % (missing[0],))
        return cls(**payload)

    def __repr__(self):
        return "CacheConfig(%s: %dB, %d-way, %dB lines)" % (
            self.name,
            self.size_bytes,
            self.assoc,
            self.line_bytes,
        )


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
