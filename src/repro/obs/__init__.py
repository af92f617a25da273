"""Observability layer: metrics, spans, run manifests, fault injection.

``repro.obs`` is orchestration-only — it never shapes simulation
results, so its sources are deliberately outside every cache
fingerprint.  See ``docs/OBSERVABILITY.md`` for the metric catalog and
span taxonomy, and ``docs/ROBUSTNESS.md`` for the fault-injection
point catalog (:mod:`repro.obs.faults`).
"""

from repro.obs.faults import (
    FaultInjector,
    FaultSpecError,
    InjectedWorkerError,
    current_injector,
    describe_active,
    fire,
    install,
    install_spec,
)
from repro.obs.metrics import (
    METRICS_SCHEMA_VERSION,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
    format_label,
    format_workload_scale,
)
from repro.obs.tracing import (
    Tracer,
    current_tracer,
    set_tracer,
    span,
    start_trace,
)

__all__ = [
    "FaultInjector",
    "FaultSpecError",
    "InjectedWorkerError",
    "current_injector",
    "describe_active",
    "fire",
    "install",
    "install_spec",
    "METRICS_SCHEMA_VERSION",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSnapshot",
    "format_label",
    "format_workload_scale",
    "Tracer",
    "current_tracer",
    "set_tracer",
    "span",
    "start_trace",
]
