"""accelOS: the paper's primary contribution.

A host runtime plus JIT compiler enabling software work-group scheduling and
fair resource sharing on accelerators:

* :mod:`repro.accelos.rtlib` — the GPU scheduling runtime library, written in
  the mini OpenCL-C and statically linked into every transformed kernel.
* :mod:`repro.accelos.transform` — the §6.2 five-step kernel rewrite.
* :mod:`repro.accelos.adaptive` — the §6.4 chunk-size policy.
* :mod:`repro.accelos.sharing` — the §3 resource sharing algorithm.
* :mod:`repro.accelos.vndrange` — Virtual NDRanges in device memory.
* :mod:`repro.accelos.scheduler` / :mod:`repro.accelos.monitor` /
  :mod:`repro.accelos.memory_manager` / :mod:`repro.accelos.proxycl` /
  :mod:`repro.accelos.runtime` — the §4/§5 host runtime.
"""

from repro.accelos.adaptive import chunk_size_for, SchedulingPolicy
from repro.accelos.sharing import KernelRequirements, compute_allocations
from repro.accelos.transform import AccelOSTransform, TransformedKernel
from repro.accelos.vndrange import VirtualNDRange
from repro.accelos.runtime import AccelOSRuntime
from repro.accelos.fleet import FleetRuntime
from repro.accelos.placement import (
    AffinityPlacement, LeastLoadedPlacement, PlacementPolicy,
    RoundRobinPlacement, default_policies)

__all__ = [
    "chunk_size_for", "SchedulingPolicy",
    "KernelRequirements", "compute_allocations",
    "AccelOSTransform", "TransformedKernel",
    "VirtualNDRange", "AccelOSRuntime", "FleetRuntime",
    "PlacementPolicy", "RoundRobinPlacement",
    "LeastLoadedPlacement", "AffinityPlacement", "default_policies",
]
