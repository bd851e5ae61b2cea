"""Tests for the future-work slot-rebalancing extension (paper §2.5/§10).

The paper's accelOS binds every allocation for the kernel's lifetime; the
conclusion lists "additional techniques for software managed scheduling" as
future work.  The simulator's ``rebalance`` flag implements the obvious one
(re-granting freed slots) so its value can be quantified.
"""

import numpy as np
import pytest

from repro.cl import nvidia_k20m
from repro.sim import ExecutionMode, GPUSimulator, KernelExecSpec
from repro.sim.gpu import _Slot
from repro.sim.resources import max_resident_groups

from tests.oracles import ReferenceGPUSimulator


def spec(name, n, cost, wg=256, sat=0.5):
    return KernelExecSpec(name, wg, np.full(n, cost), 0.0, 16, 0,
                          sat_occupancy=sat)


def half_split(long_spec, short_spec, device):
    cap = max_resident_groups(long_spec, device)
    return (
        long_spec.with_mode(ExecutionMode.ACCELOS, physical_groups=cap // 2,
                            chunk=1),
        short_spec.with_mode(ExecutionMode.ACCELOS, physical_groups=cap // 2,
                             chunk=1),
    )


def test_rebalance_speeds_up_the_survivor():
    device = nvidia_k20m()
    long_kernel = spec("long", 2048, 100e-6)
    short_kernel = spec("short", 32, 50e-6)
    bound = GPUSimulator(device, rebalance=False)
    t_bound = bound.run(half_split(long_kernel, short_kernel,
                                   device)).turnarounds[0]
    rebal = GPUSimulator(device, rebalance=True)
    t_rebal = rebal.run(half_split(long_kernel, short_kernel,
                                   device)).turnarounds[0]
    # once the short kernel retires, the long one absorbs its slots
    assert t_rebal < t_bound * 0.85


def test_rebalance_conserves_work():
    device = nvidia_k20m()
    long_kernel = spec("long", 777, 80e-6)
    short_kernel = spec("short", 16, 40e-6)
    sim = GPUSimulator(device, rebalance=True)
    sim.run(half_split(long_kernel, short_kernel, device))
    for run in sim.runs:
        assert run.completed == run.total
        assert run.resident == 0


def test_rebalance_no_effect_when_nothing_retires_early():
    device = nvidia_k20m()
    a = spec("a", 512, 100e-6)
    b = spec("b", 512, 100e-6)
    t_bound = GPUSimulator(device, rebalance=False).run(
        half_split(a, b, device)).makespan
    t_rebal = GPUSimulator(device, rebalance=True).run(
        half_split(a, b, device)).makespan
    # symmetric kernels finish together: rebalancing changes nothing much
    assert t_rebal == pytest.approx(t_bound, rel=0.05)


def test_rebalance_off_by_default():
    device = nvidia_k20m()
    assert GPUSimulator(device).rebalance is False


class GrantTrackingSimulator(GPUSimulator):
    """Records ``(freed CU, granted CU)`` for every slot a ``rebalance``
    grant starts: the CU of the retire that made the grant, and the CU
    the granted slot took."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.grants = []
        self._freed = None
        self._granting = None

    def _retire_slot(self, slot):
        self._freed = slot.cu.index
        super()._retire_slot(slot)

    def _grant_freed_capacity(self):
        self._granting = self._freed
        try:
            super()._grant_freed_capacity()
        finally:
            self._granting = None

    def _start_slot(self, slot):
        if self._granting is not None:
            self.grants.append((self._granting, slot.cu.index))
        return super()._start_slot(slot)


def _slot_trace(simulator, specs):
    events = []

    def observe(time, payload):
        if isinstance(payload, _Slot):
            events.append((time, payload.run.index, payload.index,
                           payload.cu.index))
    simulator.event_observer = observe
    trace = simulator.run(specs)
    return events, [(iv.start, iv.finish) for iv in trace.intervals]


def test_rebalance_grants_scan_every_cu():
    """A retire's pending pass tries only the freed CU, but a grant is
    not a queued slot: the starved kernel's wider groups do not fit the
    CU a narrow slot freed, so grants land on other CUs, as the
    oracle's scan of every CU places them."""
    device = nvidia_k20m()

    def batch():
        return [
            KernelExecSpec("long", 512, np.full(400, 1e-4), 0.0, 16, 0,
                           mode=ExecutionMode.ACCELOS, physical_groups=10,
                           chunk=1),
            KernelExecSpec("short", 256, np.full(40, 5e-5), 0.0, 16, 0,
                           mode=ExecutionMode.ACCELOS, physical_groups=20,
                           chunk=1),
        ]
    tracked = GrantTrackingSimulator(device, rebalance=True)
    engine = _slot_trace(tracked, batch())
    assert engine == _slot_trace(
        ReferenceGPUSimulator(nvidia_k20m(), rebalance=True), batch())
    assert any(freed != granted for freed, granted in tracked.grants)
