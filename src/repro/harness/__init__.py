"""Experiment harness: runs workloads under registered schemes and
aggregates the paper's metrics.

Scheme and placement dispatch go through the registries in
:mod:`repro.api`; the declarative front door over this harness is
:func:`repro.api.run` (see docs/API.md).
"""

from repro.api.kernels import (
    arrival_rate_for_load, fleet_arrival_rate_for_load, isolated_time,
    mean_isolated_service, sharing_allocator)
from repro.api.schemes import RequestRecord
from repro.harness.experiment import (
    SCHEMES, WorkloadResult, run_single_kernel, run_workload)
from repro.harness.sweep import SweepSummary, run_sweep, summarize
from repro.harness.report import (TAIL_HEADERS, attribution_table,
                                  format_table, tail_cells)
from repro.harness.open_system import (
    FleetOpenSystemExperiment, FleetOpenSystemResult,
    OpenSystemExperiment, OpenSystemResult)

__all__ = [
    "SCHEMES", "WorkloadResult", "isolated_time", "run_single_kernel",
    "run_workload", "SweepSummary", "run_sweep", "summarize", "format_table",
    "TAIL_HEADERS", "attribution_table", "tail_cells",
    "OpenSystemExperiment", "OpenSystemResult", "RequestRecord",
    "FleetOpenSystemExperiment", "FleetOpenSystemResult",
    "arrival_rate_for_load", "fleet_arrival_rate_for_load",
    "mean_isolated_service", "sharing_allocator",
]
