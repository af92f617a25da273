"""Experiment registry: declarative specs, one per paper table/figure.

Each experiment is an :class:`ExperimentSpec` — id, description, *unit*
requirements, and a runner ``f(workloads, scale, store)``.
The specs are what :class:`repro.study.session.ExperimentSession`
schedules: the session executes the deduped analysis units (pipeline
simulations, activity passes, trace walks, static analyses) through the
:class:`~repro.study.scheduler.ResultBroker` — at most once per
(workload, organization) no matter how many experiments share them —
and then runs the runners one after another; each runner only reads
results its spec declared, so the broker serves them from its memo.
"""

from repro.analysis.tag_table import static_scheme_totals
from repro.core.compress import STATIC_BYTE_SCHEME
from repro.core.extension import BYTE_SCHEME, HALFWORD_SCHEME, TWO_BIT_SCHEME
from repro.study import activity_study, cpi_study, funct_study, patterns_study, pc_study
from repro.study.report import format_table, percent
from repro.study.scheduler import (
    BIMODAL_VARIANT,
    ActivityUnit,
    SimUnit,
    TagTableUnit,
    WalkUnit,
    activity_config,
    broker_for,
)
from repro.workloads import mediabench_suite

#: Organizations the energy estimate compares (baseline32 implied).
ENERGY_ORGANIZATIONS = (
    "byte_serial",
    "halfword_serial",
    "byte_semi_parallel",
    "parallel_compressed",
    "parallel_skewed",
    "parallel_skewed_bypass",
)

#: Organizations of the Section 3 branch-prediction future-work study.
PREDICTOR_ORGANIZATIONS = ("baseline32", "byte_serial", "parallel_skewed_bypass")

#: Standard activity-model configuration keys the studies request.
BYTE_ACTIVITY = activity_config(BYTE_SCHEME)
HALFWORD_ACTIVITY = activity_config(HALFWORD_SCHEME)
BYTE_ACTIVITY_MEM = activity_config(BYTE_SCHEME, ext_bits_in_memory=True)

#: Schemes the Section 2.1 storage ablation compares, in report order.
ABLATION_SCHEMES = (TWO_BIT_SCHEME, BYTE_SCHEME, HALFWORD_SCHEME)

#: Segmentations the Section 2.1 future-work ablation sweeps.
SEGMENTATIONS = (
    (8, 8, 8, 8),
    (8, 4, 4, 16),
    (4, 4, 8, 16),
    (8, 8, 16),
    (16, 16),
    (8, 24),
)

#: Walker specs the trace-walking studies request (shared across
#: experiments, so e.g. table1 and the scheme ablation fuse into the
#: same pattern walk).  Built through the studies' own spec helpers so
#: the units declared here and the payloads the runners request can
#: never diverge.
PATTERN_WALK = patterns_study.pattern_walk_spec()
SCHEME_BITS_WALK = (
    "scheme_bits",
    tuple(scheme.name for scheme in ABLATION_SCHEMES),
)
SEGMENT_BITS_WALK = ("segment_bits", SEGMENTATIONS)
PC_WALK = pc_study.pc_walk_spec()
FETCH_WALK = funct_study.FETCH_WALK
#: Per-PC execution counts: weights the static tag table into the
#: ``static-byte`` ablation row (stored bits per executed operand).
PC_EXEC_WALK = ("pc_exec",)


class ExperimentSpec:
    """Declarative description of one experiment.

    ``runner(workloads=None, scale=1, store=None)`` returns the report
    text.  ``alias_of`` marks alternate names for an existing experiment
    so schedulers can skip them; ``units`` (a builder ``f(workloads, scale) -> [unit, ...]``) names
    the fine-grained simulation/analysis units the runner will request,
    so the session can dedupe and shard them before any runner starts.
    """

    __slots__ = ("id", "description", "runner", "alias_of", "units")

    def __init__(self, id, description, runner, alias_of=None, units=None):
        self.id = id
        self.description = description
        self.runner = runner
        self.alias_of = alias_of
        self.units = units

    def required_units(self, workloads=None, scale=1):
        """The analysis units this experiment's runner will request."""
        if self.units is None:
            return []
        return list(self.units(workloads or mediabench_suite(), scale))

    def run(self, workloads=None, scale=1, store=None):
        """Execute the runner; returns the report text."""
        return self.runner(workloads=workloads, scale=scale, store=store)

    def __repr__(self):
        return "ExperimentSpec(%s)" % self.id


# ------------------------------------------------------------ unit builders


def _sim_units(organizations, variants=(None,)):
    """Builder: one SimUnit per (workload, organization, variant)."""
    organizations = tuple(organizations)

    def build(workloads, scale):
        return [
            SimUnit(workload.name, scale, organization, variant)
            for workload in workloads
            for organization in organizations
            for variant in variants
        ]

    return build


def _figure_units(figure):
    """Builder for one CPI figure: its organizations plus the baseline."""
    return _sim_units(("baseline32",) + cpi_study.FIGURES[figure][0])


def _activity_units(*configs):
    """Builder: one ActivityUnit per (workload, model configuration)."""

    def build(workloads, scale):
        return [
            ActivityUnit(workload.name, scale, config)
            for workload in workloads
            for config in configs
        ]

    return build


def _walk_units(*specs):
    """Builder: one WalkUnit per (workload, walker spec).

    The session's broker reduces every pending walk unit for the same
    trace from one trace summary, so declaring several specs (or
    sharing one across experiments) costs one decode, not several.
    """

    def build(workloads, scale):
        return [
            WalkUnit(workload.name, scale, spec)
            for workload in workloads
            for spec in specs
        ]

    return build


def _scheme_ablation_units(workloads, scale):
    """The scheme ablation: its trace walks plus one tag table each.

    The ``static-byte`` row multiplies each workload's static tag table
    (a trace-free :class:`TagTableUnit`) by its per-PC execution counts
    (the ``pc_exec`` walk, fused with the other walks' decode pass).
    """
    units = _walk_units(PATTERN_WALK, SCHEME_BITS_WALK, PC_EXEC_WALK)(
        workloads, scale
    )
    units += [TagTableUnit(workload.name, scale) for workload in workloads]
    return units


def _energy_units(workloads, scale):
    """The energy estimate: every organization's CPI + byte activity."""
    units = _sim_units(("baseline32",) + ENERGY_ORGANIZATIONS)(workloads, scale)
    units += _activity_units(BYTE_ACTIVITY)(workloads, scale)
    return units


# ----------------------------------------------------------------- runners


def _run_table1(workloads=None, scale=1, store=None):
    _counter, text = patterns_study.run(workloads, scale, store=store)
    return text


def _run_table2(workloads=None, scale=1, store=None):
    _rows, text = pc_study.run(workloads, scale, store=store)
    return text


def _run_table3(workloads=None, scale=1, store=None):
    _stats, text = funct_study.run(workloads, scale, store=store)
    return text


def _run_table5(workloads=None, scale=1, store=None):
    _reports, _avg, text = activity_study.run(BYTE_SCHEME, workloads, scale, store=store)
    return text


def _run_table6(workloads=None, scale=1, store=None):
    _reports, _avg, text = activity_study.run(
        HALFWORD_SCHEME, workloads, scale, store=store
    )
    return text


def _run_figure(figure):
    def runner(workloads=None, scale=1, store=None):
        _names, _table, text = cpi_study.run_figure(figure, workloads, scale, store=store)
        return text

    return runner


def _run_bottleneck(workloads=None, scale=1, store=None):
    _totals, text = cpi_study.run_bottleneck(workloads, scale, store=store)
    return text


def _stored_bit_ratios(workloads, spec, scale, store):
    """Per-scheme ``stored_bits / 32`` ratios from one stored-bits walk.

    Suite totals are integer sums over the per-workload payloads, so the
    ratios are bit-identical to the old concatenated-value-list
    ``compression_ratio`` computation.
    """
    broker = broker_for(store)
    total_bits = None
    total_values = 0
    for workload in workloads:
        payload = broker.walk_payload(workload, spec, scale=scale)
        if total_bits is None:
            total_bits = [0] * len(payload["bits"])
        for index, bits in enumerate(payload["bits"]):
            total_bits[index] += bits
        total_values += payload["values"]
    return [
        bits / (32.0 * total_values) if total_values else 0.0
        for bits in total_bits or ()
    ]


def _static_scheme_ratio(workloads, scale, store):
    """Suite-level ``static-byte`` stored-bits / 32 ratio.

    Every executed operand is charged the byte width the static tag
    table proved for its instruction address (zero tag bits); the
    per-PC execution counts come from the ``pc_exec`` walk.
    """
    broker = broker_for(store)
    total_bits = 0
    total_values = 0
    for workload in workloads:
        table = broker.tag_table(workload, scale=scale)
        payload = broker.walk_payload(workload, PC_EXEC_WALK, scale=scale)
        totals = static_scheme_totals(table, payload["execs"])
        total_bits += totals["bits"]
        total_values += totals["values"]
    return total_bits / (32.0 * total_values) if total_values else 0.0


def _run_scheme_ablation(workloads=None, scale=1, store=None):
    """Ablation: dynamic tag-bit schemes vs compile-time static tags."""
    workloads = workloads or mediabench_suite()
    counter = patterns_study.collect_pattern_counter(workloads, scale, store=store)
    ratios = _stored_bit_ratios(workloads, SCHEME_BITS_WALK, scale, store)
    static_ratio = _static_scheme_ratio(workloads, scale, store)
    rows = []
    for scheme, ratio in zip(ABLATION_SCHEMES, ratios):
        rows.append(
            (
                scheme.name,
                scheme.num_ext_bits,
                percent(scheme.overhead_ratio()),
                "%.3f" % ratio,
                percent(1 - ratio),
            )
        )
    rows.append(
        (
            STATIC_BYTE_SCHEME.name,
            STATIC_BYTE_SCHEME.num_ext_bits,
            percent(STATIC_BYTE_SCHEME.overhead_ratio()),
            "%.3f" % static_ratio,
            percent(1 - static_ratio),
        )
    )
    text = format_table(
        ("scheme", "ext bits", "overhead", "stored bits / 32", "net savings"),
        rows,
        title=(
            "Ablation (Section 2.1 trade-off) — extension-bit schemes\n"
            "(static-byte: per-PC widths proven at compile time, no tag "
            "bits)\n"
            "2-bit coverage of operand values: %s (paper ~94%%)"
            % percent(counter.two_bit_representable_fraction())
        ),
    )
    return text


def _run_granularity_ablation(workloads=None, scale=1, store=None):
    """Ablation: activity savings vs block granularity (byte/halfword)."""
    from repro.pipeline.activity import STAGES

    parts = []
    for scheme in (BYTE_SCHEME, HALFWORD_SCHEME):
        _reports, average, _text = activity_study.run(scheme, workloads, scale, store=store)
        parts.append(
            (scheme.name, {stage: average.savings_percent(stage) for stage in STAGES})
        )
    rows = []
    for stage in STAGES:
        rows.append(
            (stage, "%.1f" % parts[0][1][stage], "%.1f" % parts[1][1][stage])
        )
    return format_table(
        ("stage", "byte savings %", "halfword savings %"),
        rows,
        title="Ablation — granularity sweep (Tables 5 vs 6 side by side)",
    )


def _run_energy(workloads=None, scale=1, store=None):
    """Energy estimate: weighted activity x delay per organization.

    The paper's Section 7 defers energy quantification to circuit-level
    analysis; this applies the standard first-order model (energy
    proportional to capacitance-weighted switching activity) so the
    organizations can be compared on energy and energy-delay product.
    """
    from repro.pipeline import ActivityModel
    from repro.pipeline.energy import EnergyModel
    from repro.pipeline.organizations import get_organization

    workloads = workloads or mediabench_suite()
    broker = broker_for(store)
    activity_model = ActivityModel()
    energy_model = EnergyModel()
    # One activity report and one baseline simulation per workload,
    # shared across every organization row (and, through the broker,
    # with table5 and the CPI figures).
    reports = {
        workload.name: broker.activity_report(
            activity_model, workload, scale=scale
        )
        for workload in workloads
    }
    baselines = {
        workload.name: broker.pipeline_result(
            workload, "baseline32", scale=scale
        )
        for workload in workloads
    }
    rows = []
    for org_name in ENERGY_ORGANIZATIONS:
        organization = get_organization(org_name)
        latch_scale = organization.latch_boundaries / 4.0
        savings_sum = 0.0
        edp_sum = 0.0
        cpi_overhead_sum = 0.0
        for workload in workloads:
            report = reports[workload.name]
            baseline_cpi = baselines[workload.name].cpi
            result = broker.pipeline_result(workload, org_name, scale=scale)
            estimate = energy_model.estimate(report, result, latch_scale=latch_scale)
            savings_sum += estimate.energy_savings
            edp_sum += estimate.energy_delay_product(baseline_cpi)
            cpi_overhead_sum += result.cpi / baseline_cpi - 1
        count = len(workloads)
        rows.append(
            (
                org_name,
                percent(savings_sum / count),
                "%+.1f%%" % (100 * cpi_overhead_sum / count),
                "%.3f" % (edp_sum / count),
            )
        )
    return format_table(
        ("organization", "dynamic energy saved", "CPI overhead", "EDP vs baseline"),
        rows,
        title=(
            "Energy estimate — capacitance-weighted activity x delay\n"
            "(EDP < 1.0: the organization wins on energy-delay product)"
        ),
    )


def _run_memory_extension_ablation(workloads=None, scale=1, store=None):
    """Section 1 option: keeping extension bits in main memory."""
    from repro.pipeline import ActivityModel

    workloads = workloads or mediabench_suite()
    rows = []
    for label, flag in (("regenerated at fill", False), ("maintained in memory", True)):
        _reports, average = activity_study.suite_reports(
            ActivityModel(ext_bits_in_memory=flag), workloads, scale=scale,
            store=store,
        )
        rows.append(
            (
                label,
                percent(average.savings("dcache_data")),
                percent(average.savings("latches")),
            )
        )
    return format_table(
        ("extension bits", "D$ data savings", "latch savings"),
        rows,
        title=(
            "Ablation (Section 1) — extension bits maintained in memory\n"
            "(line fills arrive pre-compressed instead of full width)"
        ),
    )


def _run_branch_prediction_ablation(workloads=None, scale=1, store=None):
    """Future work (Section 3): CPI with a bimodal predictor attached."""
    workloads = workloads or mediabench_suite()
    broker = broker_for(store)
    rows = []
    for org_name in PREDICTOR_ORGANIZATIONS:
        stall_cpis = []
        predicted_cpis = []
        accuracy_total = 0.0
        for workload in workloads:
            stall_cpis.append(
                broker.pipeline_result(workload, org_name, scale=scale).cpi
            )
            predicted = broker.pipeline_result(
                workload, org_name, scale=scale, variant=BIMODAL_VARIANT
            )
            predicted_cpis.append(predicted.cpi)
            accuracy_total += predicted.predictor_accuracy
        stall_avg = sum(stall_cpis) / len(stall_cpis)
        predicted_avg = sum(predicted_cpis) / len(predicted_cpis)
        rows.append(
            (
                org_name,
                "%.3f" % stall_avg,
                "%.3f" % predicted_avg,
                percent(1 - predicted_avg / stall_avg),
                percent(accuracy_total / len(workloads)),
            )
        )
    return format_table(
        (
            "organization",
            "CPI (stall-on-branch)",
            "CPI (bimodal + BTB)",
            "CPI reduction",
            "predictor accuracy",
        ),
        rows,
        title=(
            "Future work (Section 3) — branch prediction ablation\n"
            "(the paper's machines stall fetch until branches resolve)"
        ),
    )


def _run_segmentation_ablation(workloads=None, scale=1, store=None):
    """Future work (Section 2.1): non-uniform significance segments."""
    from repro.core.extension import SegmentedScheme

    workloads = workloads or mediabench_suite()
    ratios = _stored_bit_ratios(workloads, SEGMENT_BITS_WALK, scale, store)
    rows = []
    for segments, ratio in zip(SEGMENTATIONS, ratios):
        scheme = SegmentedScheme(segments)
        rows.append(
            (
                "/".join(str(s) for s in segments),
                scheme.num_ext_bits,
                "%.3f" % ratio,
                percent(1 - ratio),
            )
        )
    return format_table(
        ("segments (low..high)", "ext bits", "stored bits / 32", "net savings"),
        rows,
        title=(
            "Future work (Section 2.1) — non-power-of-two segmentations\n"
            "(storage ratio over the suite's dynamic operand values)"
        ),
    )


#: (id, description, runner, alias_of, units) — the declarative source
#: of truth.  ``units`` names the fine-grained analysis units the runner
#: requests; the trace-walking studies (table1, table2, table3, the
#: value-level ablations) declare walk units, which the session reduces
#: from one trace summary per trace.
_SPEC_TABLE = (
    ("table1", "Table 1: significant-byte pattern frequencies", _run_table1,
     None, _walk_units(PATTERN_WALK)),
    ("table2", "Table 2: PC-update activity/latency vs block size", _run_table2,
     None, _walk_units(PC_WALK)),
    ("table3", "Table 3 + Section 2.3: instruction statistics", _run_table3,
     None, _walk_units(FETCH_WALK)),
    ("fetchstats", "alias of table3", _run_table3, "table3",
     _walk_units(FETCH_WALK)),
    ("table5", "Table 5: activity savings, byte granularity", _run_table5,
     None, _activity_units(BYTE_ACTIVITY)),
    ("table6", "Table 6: activity savings, halfword granularity", _run_table6,
     None, _activity_units(HALFWORD_ACTIVITY)),
    ("fig4", "Figure 4: CPI, byte/halfword serial", _run_figure("fig4"),
     None, _figure_units("fig4")),
    ("fig6", "Figure 6: CPI, byte semi-parallel", _run_figure("fig6"),
     None, _figure_units("fig6")),
    ("fig8", "Figure 8: CPI, byte-parallel skewed", _run_figure("fig8"),
     None, _figure_units("fig8")),
    (
        "fig10",
        "Figure 10: CPI, compressed and skewed+bypasses",
        _run_figure("fig10"),
        None,
        _figure_units("fig10"),
    ),
    ("bottleneck", "Section 5: byte-serial bottleneck analysis", _run_bottleneck,
     None, _sim_units(("byte_serial",))),
    (
        "ablation-schemes",
        "Ablation: 2-bit vs 3-bit vs halfword vs static-byte schemes",
        _run_scheme_ablation,
        None,
        _scheme_ablation_units,
    ),
    (
        "ablation-granularity",
        "Ablation: byte vs halfword activity",
        _run_granularity_ablation,
        None,
        _activity_units(BYTE_ACTIVITY, HALFWORD_ACTIVITY),
    ),
    (
        "future-branch-prediction",
        "Future work: branch prediction ablation (Section 3)",
        _run_branch_prediction_ablation,
        None,
        _sim_units(PREDICTOR_ORGANIZATIONS, variants=(None, BIMODAL_VARIANT)),
    ),
    (
        "future-segmentation",
        "Future work: non-uniform significance segments (Section 2.1)",
        _run_segmentation_ablation,
        None,
        _walk_units(SEGMENT_BITS_WALK),
    ),
    (
        "energy",
        "Energy estimate: weighted activity x delay (Section 7 follow-up)",
        _run_energy,
        None,
        _energy_units,
    ),
    (
        "ablation-memory-extension",
        "Ablation: extension bits maintained in main memory (Section 1)",
        _run_memory_extension_ablation,
        None,
        _activity_units(BYTE_ACTIVITY, BYTE_ACTIVITY_MEM),
    ),
)

#: Experiment id -> ExperimentSpec (aliases included).
EXPERIMENTS = {
    id: ExperimentSpec(id, description, runner, alias_of, units)
    for id, description, runner, alias_of, units in _SPEC_TABLE
}


def canonical_experiment_ids():
    """Sorted runnable ids: aliases and duplicate runners deduped out.

    Dedupe is by runner identity, not just the ``alias_of`` marker, so a
    future alias that forgets the marker still cannot be double-run.
    """
    seen_runners = set()
    names = []
    for name in sorted(EXPERIMENTS):
        spec = EXPERIMENTS[name]
        if spec.alias_of is not None or spec.runner in seen_runners:
            continue
        seen_runners.add(spec.runner)
        names.append(name)
    return names


def run_experiment(name, workloads=None, scale=1, store=None):
    """Run one experiment by id; returns its report text.

    Outside a session the spec's declared units first go to the broker
    as one batch, so each trace is resolved once and the runner's own
    requests are memo hits.
    """
    if name not in EXPERIMENTS:
        raise KeyError(
            "unknown experiment %r; available: %s" % (name, ", ".join(sorted(EXPERIMENTS)))
        )
    spec = EXPERIMENTS[name]
    workloads = list(workloads or mediabench_suite())
    broker = broker_for(store)
    broker.run_units(
        spec.required_units(workloads, scale),
        {workload.name: workload for workload in workloads},
    )
    return spec.run(workloads=workloads, scale=scale, store=broker.traces)
