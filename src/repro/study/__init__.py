"""Experiment harness: one module per paper artifact.

Every table and figure of the paper's evaluation has a runner here that
regenerates it from the bundled workload suite:

==============  ==========================================  =================
experiment id   paper artifact                              module
==============  ==========================================  =================
``table1``      Table 1 (significant-byte patterns)         patterns_study
``table2``      Table 2 (PC-update activity/latency)        pc_study
``table3``      Table 3 (dynamic funct frequencies)         funct_study
``fetchstats``  Section 2.3 statistics (3.17 B/instr ...)   funct_study
``table5``      Table 5 (activity savings, byte)            activity_study
``table6``      Table 6 (activity savings, halfword)        activity_study
``fig4``        Figure 4 (CPI: serial organizations)        cpi_study
``fig6``        Figure 6 (CPI: semi-parallel)               cpi_study
``fig8``        Figure 8 (CPI: byte-parallel skewed)        cpi_study
``fig10``       Figure 10 (CPI: compressed, skewed+byp)     cpi_study
``bottleneck``  Section 5 (byte-serial stall analysis)      cpi_study
==============  ==========================================  =================

Use :func:`repro.study.experiments.run_experiment`, the ``repro`` CLI,
or — to share one trace materialization and every analysis unit across
many experiments — :class:`repro.study.session.ExperimentSession`.
"""

from repro.study.experiments import (
    EXPERIMENTS,
    ExperimentSpec,
    canonical_experiment_ids,
    run_experiment,
)
from repro.study.result_store import ResultStore
from repro.study.scheduler import (
    ActivityUnit,
    ResultBroker,
    SimUnit,
)
from repro.study.session import ExperimentResult, ExperimentSession, TraceStore
from repro.study.trace_cache import TraceCache

__all__ = [
    "EXPERIMENTS",
    "ActivityUnit",
    "ExperimentResult",
    "ExperimentSession",
    "ExperimentSpec",
    "ResultBroker",
    "ResultStore",
    "SimUnit",
    "TraceCache",
    "TraceStore",
    "canonical_experiment_ids",
    "run_experiment",
]
