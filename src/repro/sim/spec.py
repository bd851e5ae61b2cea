"""Kernel execution specifications consumed by the timing simulator.

A :class:`KernelExecSpec` fully describes one kernel execution request on
one device: the per-virtual-group compute costs (drawn deterministically
from the kernel's profile), the per-WG resource demands, and — when the
request was scheduled by accelOS or Elastic Kernels — the physical group
count, dequeue chunk and scheduling overhead.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError

# Cost of one scheduling operation on the virtual-group queue, in seconds.
# Each dequeue is an atomic RMW to device memory (~1 us of cross-CU latency)
# plus two work-group barriers in the scheduling loop that every work item
# pays; together on the order of several microseconds per operation, which
# is exactly why §6.4 amortises dequeues for short kernels.
SCHED_OP_OVERHEAD = 2.0e-6


class ExecutionMode:
    HARDWARE = "hardware"  # unmodified kernel, firmware scheduler
    ACCELOS = "accelos"    # dyn_sched kernel: shared-queue dequeue loop
    ELASTIC = "elastic"    # Elastic Kernels: static pre-assignment


class KernelExecSpec:
    """One kernel execution request, ready for simulation."""

    def __init__(self, name, wg_threads, wg_costs, mem_rate_per_wg,
                 registers_per_thread, local_mem_per_wg,
                 mode=ExecutionMode.HARDWARE, physical_groups=None,
                 chunk=1, sched_overhead=SCHED_OP_OVERHEAD,
                 sat_occupancy=1.0, arrival_time=0.0):
        wg_costs = np.asarray(wg_costs, dtype=np.float64)
        if wg_costs.ndim != 1 or wg_costs.size == 0:
            raise SimulationError("wg_costs must be a non-empty 1-D array")
        if (wg_costs <= 0).any():
            raise SimulationError("wg costs must be positive")
        self.name = name
        self.wg_threads = int(wg_threads)
        self.wg_costs = wg_costs
        self.total_groups = int(wg_costs.size)
        self.mem_rate_per_wg = float(mem_rate_per_wg)  # bytes/s demanded
        self.registers_per_thread = int(registers_per_thread)
        self.local_mem_per_wg = int(local_mem_per_wg)
        self.mode = mode
        self.physical_groups = physical_groups
        self.chunk = int(chunk)
        self.sched_overhead = float(sched_overhead)
        # Occupancy saturation: the fraction of a CU's maximum residency at
        # which this kernel reaches peak per-CU throughput.  GPUs are
        # strongly sub-linear in occupancy — compute-bound kernels with high
        # ILP saturate early (small value), latency-bound kernels need full
        # occupancy (1.0).  WG cost arrays are expressed at FULL occupancy;
        # at lower residency each WG runs up to 1/sat_occupancy faster.
        if not 0.0 < sat_occupancy <= 1.0:
            raise SimulationError("sat_occupancy must be in (0, 1]")
        self.sat_occupancy = float(sat_occupancy)
        # When the request enters the system; 0.0 for closed batches, set by
        # the open-system path (GPUSimulator.run_open) for streaming arrivals.
        if arrival_time < 0:
            raise SimulationError("arrival_time must be non-negative")
        self.arrival_time = float(arrival_time)
        if mode != ExecutionMode.HARDWARE and not physical_groups:
            raise SimulationError(
                "{} execution needs a physical group count".format(mode))

    @property
    def total_work(self):
        return float(self.wg_costs.sum())

    @property
    def registers_per_group(self):
        return self.registers_per_thread * self.wg_threads

    def scaled(self, cost_scale):
        """A copy with WG costs scaled (device speed normalisation)."""
        return KernelExecSpec(
            self.name, self.wg_threads, self.wg_costs * cost_scale,
            self.mem_rate_per_wg, self.registers_per_thread,
            self.local_mem_per_wg, self.mode, self.physical_groups,
            self.chunk, self.sched_overhead, self.sat_occupancy,
            self.arrival_time)

    def with_mode(self, mode, physical_groups=None, chunk=1,
                  sched_overhead=SCHED_OP_OVERHEAD):
        return KernelExecSpec(
            self.name, self.wg_threads, self.wg_costs,
            self.mem_rate_per_wg, self.registers_per_thread,
            self.local_mem_per_wg, mode, physical_groups, chunk,
            sched_overhead, self.sat_occupancy, self.arrival_time)

    def with_arrival(self, arrival_time):
        """A copy entering the system at ``arrival_time`` seconds.

        Every other field was validated when this spec was built, so the
        copy shares them (``wg_costs`` included) instead of checking them
        again: the open-system path calls this once per request.
        """
        if arrival_time < 0:
            raise SimulationError("arrival_time must be non-negative")
        # assigned in __init__'s order, so the copy keeps the instances'
        # shared attribute layout (a __dict__ copy would not)
        spec = KernelExecSpec.__new__(KernelExecSpec)
        spec.name = self.name
        spec.wg_threads = self.wg_threads
        spec.wg_costs = self.wg_costs
        spec.total_groups = self.total_groups
        spec.mem_rate_per_wg = self.mem_rate_per_wg
        spec.registers_per_thread = self.registers_per_thread
        spec.local_mem_per_wg = self.local_mem_per_wg
        spec.mode = self.mode
        spec.physical_groups = self.physical_groups
        spec.chunk = self.chunk
        spec.sched_overhead = self.sched_overhead
        spec.sat_occupancy = self.sat_occupancy
        spec.arrival_time = float(arrival_time)
        return spec

    def __repr__(self):
        return ("<KernelExecSpec {} ({} WGs x {} thr, mode={})>"
                .format(self.name, self.total_groups, self.wg_threads,
                        self.mode))
