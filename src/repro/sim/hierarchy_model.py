"""The memoized memory hierarchy the pipeline kernel consults.

Each dynamic instruction performs one instruction-side access (ITLB +
L1I + possibly L2), and loads/stores add a data-side access, so the
hierarchy is a per-record cost in every pipeline simulation.
:class:`MemoHierarchy` reimplements the geometry and LRU / write-back /
write-allocate semantics of :class:`~repro.sim.hierarchy.MemoryHierarchy`
for that hot loop:

* **per-static-instruction access classification**: the ITLB set/tag
  and L2 line of each fetch are pure functions of the PC, so they are
  computed once per *static* instruction and memoized (traces revisit
  the same few hundred PCs thousands of times — the same regularity
  the kernel's expansion memo exploits);
* **memoized (set-index, tag, state) transitions**: set contents are
  immutable tuples of tag/dirty words, and the LRU transition for
  ``(state, tag, is_write)`` — hit?, next state, evicted victim — is
  computed once and replayed from a dict thereafter.  States are
  tag-relative, so every set of a structure shares one transition
  table;
* **a same-line fast path**: consecutive accesses to one cache line
  (the common case for straight-line fetch and for stack/buffer data
  runs) are L1-resident MRU hits with no state change, so they fold
  into two counters and skip the structures entirely.

The kernel consumes it through a narrow timing protocol:

* ``ifetch_stall(address) -> int`` — stall cycles of one fetch;
* ``data_stall(address, is_store=False) -> int`` — stall cycles of one
  data access;
* ``classify_block(records) -> [(ifetch_stall, data_stall), ...]`` —
  the batch form: per-record stall latencies in record order;
* ``stats() -> dict`` — the per-structure counter dictionaries that
  ride into :class:`~repro.pipeline.base.PipelineResult`.

:class:`~repro.sim.hierarchy.MemoryHierarchy` implements the same
protocol and is the test oracle: the differential suites in
``tests/test_hierarchies.py`` and ``tests/test_kernels.py`` hold every
counter and every :class:`~repro.pipeline.base.PipelineResult` to it,
field for field.
"""

from repro.obs import tracing
from repro.sim.hierarchy import PAPER_HIERARCHY
from repro.sim.tlb import PAGE_BITS

class _MemoTLB:
    """Tag-tuple TLB with a shared ``(state, tag)`` transition memo.

    Set contents are immutable tuples of page tags, MRU first — exactly
    the ordering of the reference :class:`~repro.sim.tlb.TLB`'s per-set
    lists.  States carry tags, not pages, so transitions are identical
    across sets and one memo dict serves all of them.  An MRU probe
    short-circuits the memo for the common repeated-page case.
    """

    __slots__ = (
        "name", "entries", "assoc", "page_bits", "num_sets",
        "set_mask", "set_bits", "_sets", "_memo",
        "accesses", "hits", "misses",
    )

    def __init__(self, name, entries, assoc, page_bits):
        self.name = name
        self.entries = entries
        self.assoc = assoc
        self.page_bits = page_bits
        self.num_sets = entries // assoc
        self.set_mask = self.num_sets - 1
        # Matches the reference tag shift: page >> (num_sets.bit_length()-1).
        self.set_bits = self.num_sets.bit_length() - 1
        self._sets = [()] * self.num_sets
        self._memo = {}
        self.accesses = 0
        self.hits = 0
        self.misses = 0

    def access_tag(self, set_index, tag):
        """Translate one pre-classified (set, tag) access; True on hit."""
        self.accesses += 1
        state = self._sets[set_index]
        if state and state[0] == tag:
            self.hits += 1
            return True
        key = (state, tag)
        transition = self._memo.get(key)
        if transition is None:
            if tag in state:
                position = state.index(tag)
                next_state = (tag,) + state[:position] + state[position + 1:]
                transition = (True, next_state)
            else:
                kept = state[:-1] if len(state) >= self.assoc else state
                transition = (False, (tag,) + kept)
            self._memo[key] = transition
        hit, next_state = transition
        self._sets[set_index] = next_state
        if hit:
            self.hits += 1
        else:
            self.misses += 1
        return hit

    def stats(self, folded_hits=0):
        """Reference-identical counter dict; ``folded_hits`` adds the
        fast-path accesses the hierarchy short-circuited (all hits)."""
        accesses = self.accesses + folded_hits
        hits = self.hits + folded_hits
        return {
            "name": self.name,
            "accesses": accesses,
            "hits": hits,
            "misses": self.misses,
            "hit_rate": hits / accesses if accesses else 0.0,
        }


class _MemoCacheDM:
    """Direct-mapped cache as two flat arrays (no LRU state to memoize).

    With one way per set the reference semantics collapse to a tag
    compare plus a dirty bit, so the per-set list walk and the
    transition memo both disappear.
    """

    __slots__ = (
        "config", "line_shift", "set_mask",
        "_lines", "_dirty",
        "accesses", "hits", "misses", "fills", "writebacks",
    )

    def __init__(self, config):
        self.config = config
        self.line_shift = config.line_bytes.bit_length() - 1
        self.set_mask = config.num_sets - 1
        self._lines = [-1] * config.num_sets
        self._dirty = [False] * config.num_sets
        self.accesses = 0
        self.hits = 0
        self.misses = 0
        self.fills = 0
        self.writebacks = 0

    def access_line(self, line, is_write):
        """Access one line number; returns (hit, victim_line_or_None)."""
        set_index = line & self.set_mask
        self.accesses += 1
        lines = self._lines
        dirty = self._dirty
        if lines[set_index] == line:
            self.hits += 1
            if is_write:
                dirty[set_index] = True
            return True, None
        self.misses += 1
        self.fills += 1
        victim = None
        if dirty[set_index]:
            victim = lines[set_index]
            self.writebacks += 1
        lines[set_index] = line
        dirty[set_index] = is_write
        return False, victim

    def mark_store_mru(self, line):
        """Set the dirty bit of a line known to be resident (fast path)."""
        self._dirty[line & self.set_mask] = True

    def stats(self, folded_hits=0):
        """Reference-identical counter dict (see :class:`_MemoTLB`)."""
        accesses = self.accesses + folded_hits
        hits = self.hits + folded_hits
        return {
            "name": self.config.name,
            "accesses": accesses,
            "hits": hits,
            "misses": self.misses,
            "fills": self.fills,
            "writebacks": self.writebacks,
            "hit_rate": hits / accesses if accesses else 0.0,
        }


class _MemoCacheSA:
    """Set-associative LRU cache with a shared transition memo.

    Each set is an immutable tuple of ``(tag << 1) | dirty`` words, MRU
    first — the same ordering as the reference per-set lists.  The LRU
    transition for ``(state, tag, is_write)`` (hit?, next state, dirty
    victim tag) is computed once and replayed from a dict; because
    states are tag-relative, every set shares the one memo.  An MRU
    probe handles repeated-line traffic without touching the memo.
    """

    __slots__ = (
        "config", "line_shift", "set_mask", "set_bits", "assoc",
        "_sets", "_memo",
        "accesses", "hits", "misses", "fills", "writebacks",
    )

    def __init__(self, config):
        self.config = config
        self.line_shift = config.line_bytes.bit_length() - 1
        self.set_mask = config.num_sets - 1
        self.set_bits = config.num_sets.bit_length() - 1
        self.assoc = config.assoc
        self._sets = [()] * config.num_sets
        self._memo = {}
        self.accesses = 0
        self.hits = 0
        self.misses = 0
        self.fills = 0
        self.writebacks = 0

    def access_line(self, line, is_write):
        """Access one line number; returns (hit, victim_line_or_None)."""
        set_index = line & self.set_mask
        tag = line >> self.set_bits
        state = self._sets[set_index]
        self.accesses += 1
        if state:
            mru = state[0]
            if mru >> 1 == tag:
                self.hits += 1
                if is_write and not mru & 1:
                    self._sets[set_index] = (mru | 1,) + state[1:]
                return True, None
        key = (state, tag, is_write)
        transition = self._memo.get(key)
        if transition is None:
            transition = self._transition(state, tag, is_write)
            self._memo[key] = transition
        hit, next_state, victim_tag = transition
        self._sets[set_index] = next_state
        if hit:
            self.hits += 1
            return True, None
        self.misses += 1
        self.fills += 1
        if victim_tag is None:
            return False, None
        self.writebacks += 1
        return False, (victim_tag << self.set_bits) | set_index

    def _transition(self, state, tag, is_write):
        # Mirrors Cache.access exactly: hit promotes to MRU (or-ing the
        # dirty bit); a miss on a full set evicts the LRU way, surfacing
        # its tag only when dirty (write-back).
        for position, way in enumerate(state):
            if way >> 1 == tag:
                promoted = way | 1 if is_write else way
                next_state = (promoted,) + state[:position] + state[position + 1:]
                return True, next_state, None
        victim_tag = None
        kept = state
        if len(state) >= self.assoc:
            last = state[-1]
            kept = state[:-1]
            if last & 1:
                victim_tag = last >> 1
        filled = (tag << 1) | (1 if is_write else 0)
        return False, (filled,) + kept, victim_tag

    def mark_store_mru(self, line):
        """Set the dirty bit of the MRU way (the fast path guarantees
        the line is the MRU way of its set)."""
        set_index = line & self.set_mask
        state = self._sets[set_index]
        mru = state[0]
        if not mru & 1:
            self._sets[set_index] = (mru | 1,) + state[1:]

    def stats(self, folded_hits=0):
        """Reference-identical counter dict (see :class:`_MemoTLB`)."""
        accesses = self.accesses + folded_hits
        hits = self.hits + folded_hits
        return {
            "name": self.config.name,
            "accesses": accesses,
            "hits": hits,
            "misses": self.misses,
            "fills": self.fills,
            "writebacks": self.writebacks,
            "hit_rate": hits / accesses if accesses else 0.0,
        }


def _memo_cache(config):
    """The memoized cache structure matching one CacheConfig's geometry."""
    if config.assoc == 1:
        return _MemoCacheDM(config)
    return _MemoCacheSA(config)


class MemoHierarchy:
    """Memoized hierarchy state: reference semantics, hot-loop shape.

    Implements the narrow timing protocol (``ifetch_stall`` /
    ``data_stall`` / ``classify_block`` / ``stats``) over the memoized
    structures above.  Three layers of reuse, fastest first:

    1. **same-line fast path** — an access to the line the previous
       access (on the same side) touched is an L1 MRU hit with a
       guaranteed TLB MRU hit and *no* state change (a line never spans
       pages when ``line_bytes <= page size``); it bumps one counter
       and returns 0.  The counters fold back into :meth:`stats`
       non-destructively, so every reported number still matches the
       reference byte for byte.
    2. **per-static-instruction classification** — the ITLB set/tag
       and L2 line of a fetch are pure functions of the PC, memoized
       per static instruction.
    3. **memoized LRU transitions** — see :class:`_MemoCacheSA` /
       :class:`_MemoTLB`.

    Data addresses are dynamic, so layer 2 applies to the instruction
    side only; the data side uses layers 1 and 3.
    """

    def __init__(self, config=None):
        config = config or PAPER_HIERARCHY
        self.config = config
        self._l1i = _memo_cache(config.l1i)
        self._l1d = _memo_cache(config.l1d)
        self._l2 = _memo_cache(config.l2)
        self._itlb = _MemoTLB(
            "ITLB", config.itlb_entries, config.itlb_assoc, PAGE_BITS
        )
        self._dtlb = _MemoTLB(
            "DTLB", config.dtlb_entries, config.dtlb_assoc, PAGE_BITS
        )
        self._i_shift = self._l1i.line_shift
        self._d_shift = self._l1d.line_shift
        self._l2_shift = self._l2.line_shift
        self._page_bits = PAGE_BITS
        self._tlb_miss = config.tlb_miss_cycles
        self._l2_hit_cycles = config.l2_hit_cycles
        self._memory_cycles = config.memory_cycles
        # The same-line fast path assumes same line => same page, which
        # holds whenever a line cannot span pages.
        page_bytes = 1 << PAGE_BITS
        self._i_fastable = config.l1i.line_bytes <= page_bytes
        self._d_fastable = config.l1d.line_bytes <= page_bytes
        self._i_last_line = -1
        self._d_last_line = -1
        self._i_fast = 0
        self._d_fast = 0
        #: pc -> (itlb set, itlb tag, l2 line): the per-static-instruction
        #: access classification (computed once per unique PC).
        self._i_classes = {}

    def ifetch_stall(self, address):
        """Stall cycles of one instruction fetch at ``address``."""
        line = address >> self._i_shift
        if line == self._i_last_line:
            self._i_fast += 1
            return 0
        if self._i_fastable:
            self._i_last_line = line
        classes = self._i_classes
        cls = classes.get(address)
        if cls is None:
            page = address >> self._page_bits
            itlb = self._itlb
            cls = (
                page & itlb.set_mask,
                page >> itlb.set_bits,
                address >> self._l2_shift,
            )
            classes[address] = cls
        tlb_set, tlb_tag, l2_line = cls
        stall = 0
        if not self._itlb.access_tag(tlb_set, tlb_tag):
            stall = self._tlb_miss
        hit, victim = self._l1i.access_line(line, False)
        if not hit:
            l2_hit, _l2_victim = self._l2.access_line(l2_line, False)
            stall += self._l2_hit_cycles if l2_hit else self._memory_cycles
            if victim is not None:
                self._l2.access_line(
                    (victim << self._i_shift) >> self._l2_shift, True
                )
        return stall

    def data_stall(self, address, is_store=False):
        """Stall cycles of one data access at ``address``."""
        line = address >> self._d_shift
        if line == self._d_last_line:
            self._d_fast += 1
            if is_store:
                self._l1d.mark_store_mru(line)
            return 0
        if self._d_fastable:
            self._d_last_line = line
        page = address >> self._page_bits
        dtlb = self._dtlb
        stall = 0
        if not dtlb.access_tag(page & dtlb.set_mask, page >> dtlb.set_bits):
            stall = self._tlb_miss
        hit, victim = self._l1d.access_line(line, is_store)
        if not hit:
            l2_hit, _l2_victim = self._l2.access_line(
                address >> self._l2_shift, False
            )
            stall += self._l2_hit_cycles if l2_hit else self._memory_cycles
            if victim is not None:
                self._l2.access_line(
                    (victim << self._d_shift) >> self._l2_shift, True
                )
        return stall

    def classify_block(self, records):
        """Batch API: ``[(ifetch_stall, data_stall), ...]`` per record.

        State evolves exactly as the per-record calls would evolve it
        (instruction access first, then the data access when the record
        has one), so a block-at-a-time consumer and a record-at-a-time
        consumer observe identical hierarchies.
        """
        with tracing.span("hierarchy.classify_block", "compute") as handle:
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
            handle.note(records=len(latencies))
            return latencies

    def stats(self):
        """Per-structure statistics, field-wise identical to reference."""
        return {
            "l1i": self._l1i.stats(self._i_fast),
            "l1d": self._l1d.stats(self._d_fast),
            "l2": self._l2.stats(),
            "itlb": self._itlb.stats(self._i_fast),
            "dtlb": self._dtlb.stats(self._d_fast),
        }

    def __repr__(self):
        return "MemoHierarchy(%r)" % (self.config,)
