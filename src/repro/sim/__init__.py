"""Event-driven GPU timing simulator (the evaluation plane).

Replaces the paper's physical K20m / R9 295X2 boards.  The simulator models
what the evaluation (§8) actually measures:

* per-CU occupancy limits (threads, registers, local memory, WG slots)
  gating work-group residency,
* the firmware scheduler's behaviour for concurrent kernels — FIFO with
  drain-tail overlap (NVIDIA-like) or near-exclusive (AMD-like),
* static round-robin WG placement for hardware dispatch (paper fig. 3a)
  versus the dynamic shared-queue dequeue loop of accelOS work groups
  (fig. 3b), including the atomic cost of each scheduling operation and
  §6.4 chunking,
* shared memory bandwidth: a dispatch-time roofline multiplier stretches a
  WG's cost when co-resident work oversubscribes the device's bandwidth.

Inputs are :class:`~repro.sim.spec.KernelExecSpec` objects (per-virtual-group
cost arrays plus resource demands); outputs are per-kernel execution
intervals from which the metrics package derives slowdowns, unfairness,
overlap and throughput.
"""

from repro.sim.engine import EventQueue
from repro.sim.spec import KernelExecSpec, ExecutionMode
from repro.sim.gpu import GPUSimulator
from repro.sim.fleet import (DeviceFleet, DeviceStatus, FleetDevice,
                             FleetSimulator, FleetStatus, MigrationOrder,
                             PlacedRequest, QueuedRequest)
from repro.sim.trace import ExecutionTrace, KernelInterval

__all__ = [
    "EventQueue", "KernelExecSpec", "ExecutionMode", "GPUSimulator",
    "DeviceFleet", "FleetDevice", "FleetSimulator", "FleetStatus",
    "DeviceStatus", "MigrationOrder", "PlacedRequest", "QueuedRequest",
    "ExecutionTrace", "KernelInterval",
]
