"""Unit tests for the GPU timing simulator."""

import numpy as np
import pytest

from repro.cl import amd_r9_295x2, nvidia_k20m
from repro.errors import SimulationError
from repro.sim import ExecutionMode, GPUSimulator, KernelExecSpec
from repro.sim.contention import BandwidthTracker
from repro.sim.engine import EventQueue
from repro.sim.gpu import device_cost_scale, per_cu_residency_cap
from repro.sim.hw_sched import (ExclusiveHardwareScheduler,
                                FifoHardwareScheduler, scheduler_for)
from repro.sim.resources import CUState, max_resident_groups
from repro.sim.trace import ExecutionTrace, KernelInterval


def spec(name="k", n=128, cost=100e-6, wg=256, mem=0.0, regs=16, lmem=0,
         sat=1.0, cv=0.0, seed=0, **kw):
    rng = np.random.default_rng(seed)
    costs = np.full(n, cost)
    if cv:
        costs = costs * np.clip(1 + cv * rng.standard_normal(n), 0.3, 3.0)
    return KernelExecSpec(name, wg, costs, mem * 1e9, regs, lmem,
                          sat_occupancy=sat, **kw)


# -- engine -----------------------------------------------------------------

def test_event_queue_orders_by_time():
    q = EventQueue()
    q.push(3.0, "c")
    q.push(1.0, "a")
    q.push(2.0, "b")
    assert [q.pop()[1] for _ in range(3)] == ["a", "b", "c"]
    assert q.now == 3.0


def test_event_queue_fifo_on_ties():
    q = EventQueue()
    q.push(1.0, "first")
    q.push(1.0, "second")
    assert [q.pop()[1], q.pop()[1]] == ["first", "second"]


def test_event_queue_rejects_past_events():
    q = EventQueue()
    q.push(2.0, "x")
    q.pop()
    with pytest.raises(SimulationError):
        q.push(1.0, "y")


def test_event_queue_empty_pop():
    with pytest.raises(SimulationError):
        EventQueue().pop()


def test_event_queue_ties_never_compare_payloads():
    """Equal-time events pop in insertion order via the sequence counter
    even when the payloads themselves are mutually non-comparable (tuples
    vs None vs objects — exactly what the simulator pushes)."""

    class Opaque:
        __lt__ = None  # comparing two of these raises TypeError

    payloads = [("chunk", object(), 1), None, Opaque(), ("arrival", None),
                Opaque()]
    q = EventQueue()
    for payload in payloads:
        q.push(1.0, payload)
    q.push(0.5, "early")
    popped = [q.pop()[1] for _ in range(len(payloads) + 1)]
    assert popped[0] == "early"
    assert popped[1:] == payloads  # identity order preserved on the tie


def test_event_queue_interleaved_ties_stay_fifo():
    """Ties pushed across pops still break by insertion order."""
    q = EventQueue()
    q.push(1.0, "a")
    q.push(1.0, "b")
    assert q.pop()[1] == "a"
    q.push(1.0, "c")  # same timestamp, pushed later than b
    assert [q.pop()[1], q.pop()[1]] == ["b", "c"]


def test_event_queue_rejects_nan_time():
    q = EventQueue()
    with pytest.raises(SimulationError, match="NaN"):
        q.push(float("nan"), "x")
    assert not q  # nothing was enqueued


# -- resources -----------------------------------------------------------------

def test_cu_admit_release_roundtrip():
    dev = nvidia_k20m()
    cu = CUState(0, dev)
    s = spec(wg=512, regs=32, lmem=1024)
    assert cu.fits(s)
    cu.admit(s)
    assert cu.threads_free == dev.max_threads_per_cu - 512
    cu.release(s)
    assert cu.threads_free == dev.max_threads_per_cu


def test_cu_rejects_overflow():
    dev = nvidia_k20m()
    cu = CUState(0, dev)
    s = spec(wg=2048)
    cu.admit(s)
    assert not cu.fits(s)
    with pytest.raises(SimulationError):
        cu.admit(s)


def test_max_resident_groups_thread_bound():
    dev = nvidia_k20m()
    assert max_resident_groups(spec(wg=256, regs=1), dev) == 13 * 8
    assert max_resident_groups(spec(wg=512, regs=1), dev) == 13 * 4


def test_max_resident_groups_register_bound():
    dev = nvidia_k20m()
    heavy = spec(wg=256, regs=128)  # 32768 regs per WG -> 2 per CU
    assert max_resident_groups(heavy, dev) == 13 * 2


def test_per_cu_residency_cap_lmem_bound():
    dev = nvidia_k20m()
    s = spec(wg=64, lmem=24 * 1024)
    assert per_cu_residency_cap(s, dev) == 2


# -- contention ----------------------------------------------------------------

def test_bandwidth_no_stretch_under_capacity():
    bw = BandwidthTracker(nvidia_k20m())
    bw.add_rate(50e9)
    assert bw.stretch(10e9) == 1.0


def test_bandwidth_stretch_for_heavy_wg():
    bw = BandwidthTracker(nvidia_k20m())  # 208 GB/s
    for _ in range(100):
        bw.add_rate(4e9)
    # heavy demander above fair share is throttled
    assert bw.stretch(4e9) == pytest.approx(404 / 208, rel=1e-3)


def test_bandwidth_light_wg_unthrottled():
    bw = BandwidthTracker(nvidia_k20m())
    for _ in range(100):
        bw.add_rate(4e9)
    # a compute-bound WG below the per-WG fair share is not stretched
    assert bw.stretch(0.5e9) == 1.0


def test_bandwidth_unbalanced_remove_is_loud():
    """Removing more demand than was added names the device, the
    demand and the resident count instead of a bare assertion."""
    bw = BandwidthTracker(nvidia_k20m())
    bw.add_rate(4e9)
    bw.remove_rate(4e9)
    with pytest.raises(SimulationError) as excinfo:
        bw.remove_rate(4e9)
    message = str(excinfo.value)
    assert nvidia_k20m().name in message
    assert "-4000000000.0 bytes/s" in message
    assert "-1 resident" in message


def test_bandwidth_float_drift_is_tolerated():
    bw = BandwidthTracker(nvidia_k20m())
    bw.add_rate(0.1e9)
    bw.add_rate(0.2e9)
    bw.remove_rate(0.2e9 + 1e-3)
    bw.remove_rate(0.1e9)        # 1e-3 bytes/s below zero: float drift
    assert (bw.demand, bw.resident) == (0.0, 0)


# -- hardware schedulers -----------------------------------------------------------

def test_scheduler_for_devices():
    assert isinstance(scheduler_for(nvidia_k20m()), FifoHardwareScheduler)
    assert isinstance(scheduler_for(amd_r9_295x2()), ExclusiveHardwareScheduler)


def test_device_cost_scale_reference_is_one():
    assert device_cost_scale(nvidia_k20m()) == pytest.approx(1.0)
    assert device_cost_scale(amd_r9_295x2()) > 1.0  # slower per CU


# -- hardware mode ------------------------------------------------------------------

def test_isolated_makespan_close_to_work_over_capacity():
    dev = nvidia_k20m()
    s = spec(n=1040, cost=100e-6)
    trace = GPUSimulator(dev).run([s])
    capacity = max_resident_groups(s, dev)
    ideal = 1040 * 100e-6 / capacity
    assert ideal <= trace.makespan <= ideal * 1.2


def test_two_kernels_serialise_under_fifo():
    dev = nvidia_k20m()
    a, b = spec("a", n=1024), spec("b", n=1024, seed=1)
    trace = GPUSimulator(dev).run([a, b])
    ia, ib = trace.intervals
    # b cannot start before a has dispatched everything
    assert ib.start >= ia.dispatch_done
    assert 0.0 <= trace.execution_overlap() < 0.5


def test_exclusive_scheduler_zero_overlap():
    dev = amd_r9_295x2()
    a, b = spec("a", n=2048), spec("b", n=2048, seed=1)
    trace = GPUSimulator(dev).run([a, b])
    assert trace.execution_overlap() == 0.0


def test_small_kernels_overlap_under_fifo():
    dev = nvidia_k20m()
    # both kernels fit simultaneously: once the firmware handoff window
    # passes, the second kernel co-runs with the first's long work groups
    a = spec("a", n=20, cost=2e-3)
    b = spec("b", n=20, cost=2e-3, seed=1)
    trace = GPUSimulator(dev).run([a, b])
    assert trace.execution_overlap() > 0.5


def test_completion_conservation_hardware():
    dev = nvidia_k20m()
    specs = [spec("a", n=333, cv=0.5), spec("b", n=77, seed=1)]
    sim = GPUSimulator(dev)
    trace = sim.run(specs)
    for run in sim.runs:
        assert run.completed == run.total
        assert run.resident == 0


def test_memory_bound_kernel_bandwidth_limited():
    dev = nvidia_k20m()
    s = spec(n=1040, cost=100e-6, mem=5.0)
    trace = GPUSimulator(dev).run([s])
    bw_floor = 1040 * 100e-6 * 5e9 / 208e9
    assert trace.makespan >= bw_floor * 0.95


# -- software modes ------------------------------------------------------------------

def test_accelos_mode_full_overlap_and_fairness():
    dev = nvidia_k20m()
    cap = max_resident_groups(spec(), dev)
    a = spec("a", n=1024).with_mode(ExecutionMode.ACCELOS,
                                    physical_groups=cap // 2)
    b = spec("b", n=1024, seed=1).with_mode(ExecutionMode.ACCELOS,
                                            physical_groups=cap // 2)
    trace = GPUSimulator(dev).run([a, b])
    assert trace.execution_overlap() > 0.9
    ta, tb = trace.turnarounds
    assert abs(ta - tb) / max(ta, tb) < 0.1


def test_accelos_dequeue_overhead_visible_with_chunk_one():
    dev = nvidia_k20m()
    base = spec(n=1024, cost=20e-6)
    fat = base.with_mode(ExecutionMode.ACCELOS, physical_groups=64, chunk=8)
    thin = base.with_mode(ExecutionMode.ACCELOS, physical_groups=64, chunk=1)
    t_fat = GPUSimulator(dev).run([fat]).makespan
    t_thin = GPUSimulator(dev).run([thin]).makespan
    assert t_thin > t_fat  # more scheduling operations, more overhead


def test_accelos_resources_bound_until_finish():
    dev = nvidia_k20m()
    # one long kernel, one short: the long one must NOT speed up after the
    # short one finishes (paper §2.5: allocations are bound)
    long_alone = spec("long", n=512, cost=200e-6).with_mode(
        ExecutionMode.ACCELOS, physical_groups=26)
    t_alone = GPUSimulator(dev).run([long_alone]).makespan
    short = spec("short", n=16, cost=50e-6, seed=1).with_mode(
        ExecutionMode.ACCELOS, physical_groups=16)
    t_shared = GPUSimulator(dev).run([long_alone, short]).turnarounds[0]
    assert t_shared == pytest.approx(t_alone, rel=0.02)


def test_elastic_mode_static_assignment_completes():
    dev = nvidia_k20m()
    s = spec(n=100, cv=0.6).with_mode(ExecutionMode.ELASTIC,
                                      physical_groups=16)
    sim = GPUSimulator(dev)
    trace = sim.run([s])
    assert sim.runs[0].completed == 100


def test_elastic_static_imbalance_slower_than_dynamic():
    dev = nvidia_k20m()
    base = spec(n=512, cv=0.8, cost=100e-6)
    elastic = base.with_mode(ExecutionMode.ELASTIC, physical_groups=64)
    accelos = base.with_mode(ExecutionMode.ACCELOS, physical_groups=64,
                             chunk=1, sched_overhead=0.0)
    t_elastic = GPUSimulator(dev).run([elastic]).makespan
    t_accelos = GPUSimulator(dev).run([accelos]).makespan
    assert t_accelos <= t_elastic


def test_pending_slots_eventually_placed():
    dev = nvidia_k20m()
    # request more physical groups than fit concurrently: the extras queue
    cap = max_resident_groups(spec(), dev)
    s = spec(n=cap * 4).with_mode(ExecutionMode.ACCELOS,
                                  physical_groups=cap * 2)
    sim = GPUSimulator(dev)
    trace = sim.run([s])
    assert sim.runs[0].completed == cap * 4


def test_mixed_modes_rejected():
    dev = nvidia_k20m()
    a = spec("a")
    b = spec("b").with_mode(ExecutionMode.ACCELOS, physical_groups=4)
    with pytest.raises(SimulationError, match="mixed"):
        GPUSimulator(dev).run([a, b])


def test_empty_batch_rejected():
    with pytest.raises(SimulationError):
        GPUSimulator(nvidia_k20m()).run([])


def test_jitter_scales_costs():
    dev = nvidia_k20m()
    s = spec(n=256)
    t1 = GPUSimulator(dev).run([s], cost_jitter=[1.0]).makespan
    t2 = GPUSimulator(dev).run([s], cost_jitter=[1.1]).makespan
    assert t2 == pytest.approx(t1 * 1.1, rel=1e-6)


# -- traces ------------------------------------------------------------------------

def test_trace_overlap_disjoint_is_zero():
    trace = ExecutionTrace([
        KernelInterval("a", 0.0, 1.0, 0.5, 1.0),
        KernelInterval("b", 1.0, 2.0, 1.5, 1.0),
    ], "dev", "hardware")
    assert trace.execution_overlap() == 0.0


def test_trace_overlap_nested_intervals():
    trace = ExecutionTrace([
        KernelInterval("a", 0.0, 4.0, 1.0, 1.0),
        KernelInterval("b", 1.0, 2.0, 1.0, 1.0),
    ], "dev", "hardware")
    assert trace.execution_overlap() == pytest.approx(0.25)


def test_trace_makespan():
    trace = ExecutionTrace([
        KernelInterval("a", 0.0, 3.0, 1.0, 1.0),
        KernelInterval("b", 0.0, 5.0, 1.0, 1.0),
    ], "dev", "hardware")
    assert trace.makespan == 5.0
