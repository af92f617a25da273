"""Pipeline timing and activity models for the paper's organizations.

Seven organizations are modelled, matching Sections 4-6 of the paper:

========================  =======  ==============================  ==========
name                      figure   datapath widths (IF/RD/EX/M/WB)  paper CPI
========================  =======  ==============================  ==========
``baseline32``            —        4/4/4/4/4 bytes, no compression  1.00x
``byte_serial``           Fig 3    3/1/1/1/1                        +79%
``halfword_serial``       Fig 4    2/2/2/2/2                        ~+30%
``byte_semi_parallel``    Fig 5    3/2/2/1/2                        +24%
``parallel_compressed``   Fig 9    full width, stage reuse          +6%
``parallel_skewed``       Fig 7    full width, byte-skewed deep     ~2-6%
``parallel_skewed_bypass``Fig 10   skewed + stage-skip forwarding   +2%
========================  =======  ==============================  ==========

All organizations are driven by the same trace and share the in-order
stage-occupancy engine of :mod:`repro.pipeline.base`; the activity
accounting of :mod:`repro.pipeline.activity` reproduces the Section 2.9
study (Tables 5 and 6).
"""

from repro.pipeline.activity import ActivityModel, ActivityReport
from repro.pipeline.base import InOrderPipeline, PipelineResult
from repro.pipeline.predictor import AlwaysStallPredictor, BimodalPredictor
from repro.pipeline.organizations import (
    ALL_ORGANIZATIONS,
    BaselineOrg,
    ByteSerialOrg,
    HalfwordSerialOrg,
    ParallelCompressedOrg,
    ParallelSkewedBypassOrg,
    ParallelSkewedOrg,
    SemiParallelOrg,
    get_organization,
    simulate,
)
from repro.pipeline.kernel import (
    TraceColumns,
    default_kernel_name,
    get_kernel,
)

__all__ = [
    "ActivityModel",
    "ActivityReport",
    "AlwaysStallPredictor",
    "BimodalPredictor",
    "InOrderPipeline",
    "PipelineResult",
    "TraceColumns",
    "default_kernel_name",
    "get_kernel",
    "ALL_ORGANIZATIONS",
    "BaselineOrg",
    "ByteSerialOrg",
    "HalfwordSerialOrg",
    "ParallelCompressedOrg",
    "ParallelSkewedBypassOrg",
    "ParallelSkewedOrg",
    "SemiParallelOrg",
    "get_organization",
    "simulate",
]
