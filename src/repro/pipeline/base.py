"""In-order stage-occupancy pipeline engine.

One engine serves all seven organizations.  Each dynamic instruction is
expanded (by its organization) into per-stage *occupancies* — cycles the
stage is busy and cannot accept the next instruction — plus optional
extra *latency* on the EX side (skew latches), and dispatched with the
classic reservation recurrence.  :class:`InOrderPipeline` is a thin
facade over :class:`~repro.pipeline.kernel.TabularKernel`, which
computes the trace's significance, stall and prediction columns, maps
the organization over the distinct significance signatures, and then
runs the recurrence:

* a stage is entered one cycle after the instruction entered the
  previous stage (byte cut-through: later bytes of a serial operation
  stream behind the first), never before the stage has drained the
  previous instruction;
* a stage completes no earlier than the previous stage completed (the
  last byte cannot be consumed before it is produced);
* EX additionally waits for source operands, honouring byte-streaming
  forwarding where the organization supports it;
* fetch is gated by control flow: the paper's machines have no branch
  prediction, so IF stalls until a branch/jump resolves (jumps resolve
  at decode; branches and jr resolve per the organization, typically in
  EX — byte-skewed organizations resolve once the widest significant
  operand has passed through the comparator lanes).

Cache and TLB stalls come from
:class:`~repro.sim.hierarchy_model.MemoHierarchy`, the memoized
cache/TLB model, with the paper's Section 3 parameters.
"""

from repro.sim.hierarchy_model import MemoHierarchy


#: Bumped whenever the meaning or shape of PipelineResult.to_dict
#: changes; from_dict refuses any other version.
RESULT_SCHEMA_VERSION = 1


class PipelineResult:
    """Outcome of one timing simulation."""

    def __init__(self, name, instructions, cycles, stalls, hierarchy_stats,
                 stage_excess=None, predictor_accuracy=None):
        self.name = name
        self.instructions = instructions
        self.cycles = cycles
        self.stalls = stalls
        self.hierarchy_stats = hierarchy_stats
        #: Cycles of stage occupancy beyond the single-cycle ideal, per
        #: stage — the bandwidth-demand measure behind the paper's
        #: Section 5 bottleneck analysis.
        self.stage_excess = stage_excess or {}
        #: Direction-prediction accuracy when the run had a predictor
        #: attached (the Section 3 future-work study), else None.
        self.predictor_accuracy = predictor_accuracy

    @property
    def cpi(self):
        """Cycles per instruction."""
        if self.instructions == 0:
            return 0.0
        return self.cycles / self.instructions

    def stall_fraction(self, cause):
        """Share of total stall cycles attributed to ``cause``."""
        total = sum(self.stalls.values())
        if total == 0:
            return 0.0
        return self.stalls.get(cause, 0) / total

    def bottleneck(self):
        """(stage, share) with the largest excess-occupancy share.

        This is the Section 5 measurement: the stage whose bandwidth
        demand beyond one cycle per instruction dominates — EX for the
        byte-serial organization in the paper (72% of stalls).
        """
        total = sum(self.stage_excess.values())
        if total == 0:
            return ("none", 0.0)
        stage = max(self.stage_excess, key=self.stage_excess.get)
        return (stage, self.stage_excess[stage] / total)

    # ------------------------------------------------------- serialization

    _FIELDS = ("name", "instructions", "cycles", "stalls", "hierarchy_stats",
               "stage_excess", "predictor_accuracy")

    def to_dict(self):
        """Versioned plain-data form for the persistent result store."""
        payload = {"version": RESULT_SCHEMA_VERSION}
        for field in self._FIELDS:
            payload[field] = getattr(self, field)
        return payload

    @classmethod
    def from_dict(cls, payload):
        """Rebuild a result from :meth:`to_dict` output.

        Raises ``ValueError`` on a version skew or missing field so a
        persistent store can fail closed and recompute.
        """
        if payload.get("version") != RESULT_SCHEMA_VERSION:
            raise ValueError(
                "pipeline result schema v%r, expected v%d"
                % (payload.get("version"), RESULT_SCHEMA_VERSION)
            )
        try:
            fields = {field: payload[field] for field in cls._FIELDS}
        except KeyError as error:
            raise ValueError("pipeline result payload missing %s" % error)
        # A corrupted-but-checksummed entry must fail here, not as a
        # TypeError deep inside stall_fraction()/bottleneck().
        for field in ("stalls", "stage_excess"):
            if not isinstance(fields[field], dict):
                raise ValueError(
                    "pipeline result field %r must be a mapping, got %s"
                    % (field, type(fields[field]).__name__)
                )
        return cls(**fields)

    def __eq__(self, other):
        if not isinstance(other, PipelineResult):
            return NotImplemented
        return all(
            getattr(self, field) == getattr(other, field)
            for field in self._FIELDS
        )

    # Field-wise equality must not cost results their hashability.
    __hash__ = object.__hash__

    def __repr__(self):
        return "PipelineResult(%s: CPI=%.3f over %d instrs)" % (
            self.name,
            self.cpi,
            self.instructions,
        )


class InOrderPipeline:
    """Trace-driven timing model for one organization.

    ``run`` builds private per-trace columns and replays the reservation
    recurrence documented above through
    :class:`~repro.pipeline.kernel.TabularKernel`.  The per-run
    :class:`~repro.sim.hierarchy_model.MemoHierarchy` state is exposed
    as :attr:`hierarchy`; ``hierarchy_config`` parameterizes its
    geometry and latencies (``None``: the paper's Section 3 values).

    ``predictor`` (optional) enables the Section 3 future-work study: a
    direction predictor with ideal BTB.  Correctly predicted control
    instructions stop gating fetch; mispredictions redirect at the
    organization's resolution time, exactly as the unpredicted machine
    does for every branch.
    """

    def __init__(self, organization, hierarchy_config=None, predictor=None):
        self.organization = organization
        self.hierarchy = MemoHierarchy(hierarchy_config)
        self.predictor = predictor

    def run(self, records):
        """Simulate ``records`` and return a :class:`PipelineResult`."""
        # Imported lazily: the kernel module constructs PipelineResult,
        # so it imports this module.
        from repro.pipeline.kernel import default_kernel_name, get_kernel

        return get_kernel(default_kernel_name()).run(
            records, self.organization, self.hierarchy, self.predictor
        )
