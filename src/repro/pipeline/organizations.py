"""The seven pipeline organizations of the paper (Sections 3-6).

Each organization converts a trace record plus its
:class:`~repro.pipeline.siginfo.SigInfo` into per-stage occupancies, an
optional EX completion latency (skew latches), and control-resolution
timing.  Widths are in *blocks* of the organization's scheme granularity
(bytes for byte organizations, halfwords for the 16-bit serial one).

Interpretation notes (recorded per DESIGN.md):

* The 3-byte-wide instruction cache of Figure 3 serves all compressed
  organizations: one cycle for three bytes, a second for the fourth.
* In the *compressed* pipeline (Figure 9), the second register-read
  cycle for multi-byte operands is modelled as skewed into EX — it
  lengthens the instruction's completion and any dependent branch
  resolution by one cycle but does not block the register file, which
  matches the paper's measured +6% far better than a blocking read
  (stack-pointer and global-array base operands are full-width on a
  large fraction of instructions in any compiled code).
* In the *skewed* pipeline (Figure 7) every instruction traverses the
  byte-skew latches (one extra cycle of completion latency); with
  *bypasses* (Figure 10) short operands skip them.
"""

from repro.core.extension import BYTE_SCHEME, HALFWORD_SCHEME, BlockScheme
from repro.core.icompress import InstructionCompressor
from repro.isa.opcodes import Opcode
from repro.pipeline.base import InOrderPipeline

#: A full-width pseudo-scheme for the 32-bit baseline: everything is one
#: 32-bit block, so occupancies collapse to single cycles.
WORD_SCHEME = BlockScheme(32)

_DEFAULT_COMPRESSOR = InstructionCompressor()


def _ceil_div(value, width):
    return -(-value // width)


class Organization:
    """Base class: stage widths, resolution timing, forwarding style."""

    #: Display name used in figures and reports.
    name = "base"

    #: Scheme used for significance-dependent occupancies.
    scheme = BYTE_SCHEME

    #: Whether dependent instructions may consume result blocks as they
    #: are produced (byte-streaming forwarding) or must wait for the
    #: complete value.
    streams_operands = False

    #: Cycles between a producer starting EX and its first result block
    #: being forwardable (0 = available the very next cycle).
    forward_latency = 0

    #: Number of inter-stage latch boundaries (for latch-activity
    #: comparisons; the baseline 5-stage has 4).
    latch_boundaries = 4

    #: Instruction compressor shared by the compressed organizations.
    compressor = _DEFAULT_COMPRESSOR

    #: Banked fetch smoothing: the three permuted I-cache banks serve a
    #: fourth instruction byte concurrently with the next instruction's
    #: bytes, so extra bytes accumulate as bank debt instead of stalling
    #: fetch a full cycle per 4-byte instruction.  The serial
    #: organizations keep the paper's literal extra fetch cycle.
    banked_fetch = False

    def occupancies(self, record, info):
        """Return (IF, RD, EX, MEM, WB) stage-busy cycles."""
        raise NotImplementedError

    def ex_latency(self, record, info):
        """Extra EX completion latency beyond the busy time."""
        return 0

    # Timing *plans* are the only timing API for address readiness and
    # control resolution: a plan names an anchor and an offset instead
    # of computing a cycle, so the kernel can precompute the expansion
    # and evaluate the plan later against runtime EX/RD times.

    def address_plan(self, record, info):
        """How a memory access's D-cache launch time derives from EX.

        Returns ``("ex_end", 0)`` (the full effective address must be
        complete) or ``("ex_start", k)`` (the access launches ``k``
        cycles after EX entry).  Skewed organizations use the latter:
        the set index lives in the low address bytes, and the tag
        comparison is itself byte-skewed.
        """
        return ("ex_end", 0)

    def resolution_plan(self, record, info):
        """How a control instruction's redirect time derives from RD/EX.

        Returns ``("rd_end", 0)``, ``("ex_end", 0)`` or
        ``("ex_start", depth)`` — the last resolving at
        ``max(ex_start + depth, rd_end)``.
        """
        if record.instr.opcode in (Opcode.J, Opcode.JAL):
            return ("rd_end", 0)  # target computable at decode
        return ("ex_end", 0)

    def __repr__(self):
        return "Organization(%s)" % self.name


def _compressed_fetch_cycles(info):
    """Figure 3's I-cache: 3 byte banks + extension bit."""
    return 1 + (1 if info.fetch_bytes > 3 else 0)


class BaselineOrg(Organization):
    """Conventional 32-bit 5-stage pipeline (the paper's reference)."""

    name = "baseline32"
    scheme = WORD_SCHEME

    def occupancies(self, record, info):
        return (1, 1, 1, 1, 1)


class ByteSerialOrg(Organization):
    """Figure 3: one-byte datapath, 3-byte-wide instruction cache.

    Register file, ALU, D-cache and writeback are one byte wide;
    significant bytes are processed serially with cut-through between
    stages (while later bytes are read, earlier bytes execute).
    """

    name = "byte_serial"
    scheme = BYTE_SCHEME
    streams_operands = True

    def occupancies(self, record, info):
        occ_if = _compressed_fetch_cycles(info)
        occ_rd = max(1, info.max_src_blocks)
        occ_ex = max(1, info.alu_blocks)
        if record.mem_addr is not None:
            occ_mem = max(1, info.mem_blocks)
        else:
            # Results pass through the byte-wide MEM-stage latches.
            occ_mem = max(1, info.result_blocks)
        occ_wb = max(1, info.result_blocks)
        return (occ_if, occ_rd, occ_ex, occ_mem, occ_wb)


class HalfwordSerialOrg(Organization):
    """The 16-bit variant of Figure 3 discussed with Figure 4.

    The instruction cache keeps the 3-byte organization; the datapath
    processes 16-bit blocks serially.
    """

    name = "halfword_serial"
    scheme = HALFWORD_SCHEME
    streams_operands = True

    def occupancies(self, record, info):
        occ_if = _compressed_fetch_cycles(info)
        occ_rd = max(1, info.max_src_blocks)
        occ_ex = max(1, info.alu_blocks)
        if record.mem_addr is not None:
            occ_mem = max(1, info.mem_blocks)
        else:
            occ_mem = max(1, info.result_blocks)
        occ_wb = max(1, info.result_blocks)
        return (occ_if, occ_rd, occ_ex, occ_mem, occ_wb)


class SemiParallelOrg(Organization):
    """Figure 5: widths balanced per the Section 5 bandwidth analysis.

    Three bytes of instruction fetch, two-byte register file and ALU,
    one-byte data cache, two-byte writeback.
    """

    name = "byte_semi_parallel"
    scheme = BYTE_SCHEME
    streams_operands = True

    def occupancies(self, record, info):
        occ_if = _compressed_fetch_cycles(info)
        occ_rd = max(1, _ceil_div(info.max_src_blocks, 2))
        occ_ex = max(1, _ceil_div(info.alu_blocks, 2))
        if record.mem_addr is not None:
            occ_mem = max(1, info.mem_blocks)
        else:
            occ_mem = max(1, _ceil_div(info.result_blocks, 2))
        occ_wb = max(1, _ceil_div(info.result_blocks, 2))
        return (occ_if, occ_rd, occ_ex, occ_mem, occ_wb)


class ParallelCompressedOrg(Organization):
    """Figure 9: five full-width stages with operand gating.

    Fetch takes an extra cycle for 4-byte instructions.  The second
    register-read cycle for multi-byte operands and the second D-cache
    cycle for multi-byte loads are skewed into the following stage: they
    add completion latency (visible to dependents and branch
    resolution) without blocking the stage.
    """

    name = "parallel_compressed"
    scheme = BYTE_SCHEME
    streams_operands = True
    banked_fetch = True

    def occupancies(self, record, info):
        occ_if = _compressed_fetch_cycles(info)
        if record.mem_addr is not None and not record.mem_is_store:
            occ_mem = 1 + (1 if info.mem_blocks > 1 else 0)
        else:
            occ_mem = 1
        return (occ_if, 1, 1, occ_mem, 1)

    def ex_latency(self, record, info):
        # Upper operand bytes arrive one cycle behind the low byte.
        return 1 if info.max_src_blocks > 1 else 0


class ParallelSkewedOrg(Organization):
    """Figure 7: full-width byte-skewed pipeline, optimized for long data.

    Every instruction flows through the skewed byte lanes exactly once,
    so stage occupancies are all one cycle, but completion trails by the
    skew depth: the last significant result byte emerges from its lane
    ``blocks-1`` cycles later, plus one fixed skew-latch stage.  Branch
    comparisons resolve once the widest significant operand has passed
    through the comparator lanes.
    """

    name = "parallel_skewed"
    scheme = BYTE_SCHEME
    streams_operands = True
    banked_fetch = True
    latch_boundaries = 7

    #: Fixed extra skew-latch stages every instruction traverses.
    skew_stages = 1

    def occupancies(self, record, info):
        occ_if = _compressed_fetch_cycles(info)
        return (occ_if, 1, 1, 1, 1)

    def ex_latency(self, record, info):
        if record.mem_addr is not None:
            # Address lanes feed the byte-banked cache directly; the
            # skew cost of memory operations lives in address_plan.
            return 0
        return self.skew_stages + max(0, max(1, info.alu_blocks) - 1)

    def address_plan(self, record, info):
        # The low index bytes of the effective address emerge from the
        # first adder lane; the byte-banked data array and the skewed
        # tag comparison absorb the later address bytes, so the access
        # launches one cycle after EX entry.
        return ("ex_start", 1)

    def resolution_plan(self, record, info):
        if record.instr.opcode in (Opcode.J, Opcode.JAL):
            return ("rd_end", 0)
        return ("ex_start", self.skew_stages + max(1, info.max_src_blocks))


class ParallelSkewedBypassOrg(ParallelSkewedOrg):
    """Figure 10: the skewed pipeline with stage-skipping forwarding.

    Short operands skip the skew stages entirely, recovering the
    baseline's effective pipeline length and latch activity; only
    genuinely wide operands pay the skew.
    """

    name = "parallel_skewed_bypass"
    latch_boundaries = 4
    skew_stages = 0


#: All organizations in presentation order.
ALL_ORGANIZATIONS = (
    BaselineOrg(),
    ByteSerialOrg(),
    HalfwordSerialOrg(),
    SemiParallelOrg(),
    ParallelCompressedOrg(),
    ParallelSkewedOrg(),
    ParallelSkewedBypassOrg(),
)

_BY_NAME = {org.name: org for org in ALL_ORGANIZATIONS}


def get_organization(name):
    """Look up an organization by name (KeyError if unknown)."""
    return _BY_NAME[name]


def simulate(organization, records, hierarchy_config=None):
    """Convenience: run ``records`` through one organization.

    ``organization`` may be a name or an Organization instance.
    """
    if isinstance(organization, str):
        organization = get_organization(organization)
    return InOrderPipeline(organization, hierarchy_config).run(records)
