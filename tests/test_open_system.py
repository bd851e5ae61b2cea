"""Tests for the continuous-arrival (open-system) scheduling subsystem."""

import numpy as np
import pytest

from repro.cl import nvidia_k20m
from repro.errors import SimulationError
from repro.api.kernels import arrival_rate_for_load, sharing_allocator
from repro.harness.open_system import OpenSystemExperiment
from repro.sim import ExecutionMode, GPUSimulator, KernelExecSpec
from repro.sim.gpu import KERNEL_HANDOFF_LATENCY
from repro.sim.resources import max_resident_groups
from repro.workloads import (PROFILE_NAMES, poisson_arrivals,
                             periodic_arrivals, trace_arrivals)


def spec(name, n, cost, wg=256, sat=0.5, arrival=0.0):
    return KernelExecSpec(name, wg, np.full(n, cost), 0.0, 16, 0,
                          sat_occupancy=sat, arrival_time=arrival)


def accel(base, groups, chunk=1):
    return base.with_mode(ExecutionMode.ACCELOS, physical_groups=groups,
                          chunk=chunk)


# -- arrival generators ------------------------------------------------------

def test_poisson_arrivals_deterministic():
    a = poisson_arrivals(100.0, 50, seed=42)
    b = poisson_arrivals(100.0, 50, seed=42)
    assert a == b


def test_poisson_arrivals_seed_changes_stream():
    a = poisson_arrivals(100.0, 50, seed=1)
    b = poisson_arrivals(100.0, 50, seed=2)
    assert a != b


def test_poisson_arrivals_are_monotonic_and_from_pool():
    names = ("bfs", "sgemm")
    stream = poisson_arrivals(50.0, 40, seed=0, names=names)
    assert len(stream) == 40
    times = [a.time for a in stream]
    assert times == sorted(times)
    assert all(t > 0 for t in times)
    assert set(a.name for a in stream) <= set(names)


def test_poisson_arrivals_default_pool_is_corpus():
    stream = poisson_arrivals(200.0, 200, seed=3)
    assert set(a.name for a in stream) <= set(PROFILE_NAMES)


def test_poisson_arrivals_validation():
    with pytest.raises(SimulationError):
        poisson_arrivals(0.0, 10)
    with pytest.raises(SimulationError):
        poisson_arrivals(1.0, 0)
    with pytest.raises(SimulationError):
        poisson_arrivals(1.0, 10, names=())


def test_periodic_arrivals_round_robin():
    stream = periodic_arrivals(0.5, 5, names=("a", "b"))
    assert [a.name for a in stream] == ["a", "b", "a", "b", "a"]
    assert [a.time for a in stream] == [0.0, 0.5, 1.0, 1.5, 2.0]


def test_trace_arrivals_sorted():
    stream = trace_arrivals([("b", 2.0), ("a", 1.0)])
    assert [a.name for a in stream] == ["a", "b"]
    with pytest.raises(SimulationError):
        trace_arrivals([])
    with pytest.raises(SimulationError):
        trace_arrivals([("a", -1.0)])


# -- spec / API plumbing -----------------------------------------------------

def test_spec_rejects_negative_arrival():
    with pytest.raises(SimulationError):
        spec("k", 4, 1e-4, arrival=-1.0)


def test_with_arrival_preserves_everything_else():
    base = spec("k", 8, 1e-4)
    late = base.with_arrival(0.25)
    assert late.arrival_time == 0.25
    assert late.name == base.name
    assert late.total_groups == base.total_groups
    assert base.arrival_time == 0.0  # original untouched
    assert late.wg_costs is base.wg_costs
    assert {k: v for k, v in vars(late).items() if k != "arrival_time"} \
        == {k: v for k, v in vars(base).items() if k != "arrival_time"}


def test_with_arrival_rejects_negative_arrival():
    with pytest.raises(SimulationError,
                       match="^arrival_time must be non-negative$"):
        spec("k", 4, 1e-4).with_arrival(-1e-9)


def test_closed_run_rejects_arrival_times():
    device = nvidia_k20m()
    with pytest.raises(SimulationError, match="run_open"):
        GPUSimulator(device).run([spec("k", 4, 1e-4, arrival=0.5)])


def test_run_open_rejects_elastic():
    device = nvidia_k20m()
    elastic = spec("k", 4, 1e-4).with_mode(ExecutionMode.ELASTIC,
                                           physical_groups=2)
    with pytest.raises(SimulationError, match="merged launch"):
        GPUSimulator(device).run_open([elastic])


def test_run_open_accelos_requires_allocator():
    device = nvidia_k20m()
    with pytest.raises(SimulationError, match="allocator"):
        GPUSimulator(device).run_open([accel(spec("k", 4, 1e-4), 2)])


def test_allocator_length_mismatch_raises():
    device = nvidia_k20m()
    bad = lambda specs: [1] * (len(specs) + 1)
    with pytest.raises(SimulationError, match="allocator returned"):
        GPUSimulator(device).run_open([accel(spec("k", 16, 1e-4), 2)],
                                      allocator=bad)


# -- hardware (firmware scheduler) open system -------------------------------

def test_hw_open_single_late_arrival():
    device = nvidia_k20m()
    trace = GPUSimulator(device).run_open([spec("k", 64, 50e-6,
                                                arrival=0.5)])
    iv = trace.intervals[0]
    assert iv.arrival == 0.5
    assert iv.start >= 0.5
    assert iv.turnaround == pytest.approx(iv.finish - 0.5)
    assert iv.queueing_delay >= 0.0


def test_hw_open_matches_closed_batch_at_t0():
    device = nvidia_k20m()
    specs = [spec("a", 256, 100e-6), spec("b", 128, 80e-6)]
    closed = GPUSimulator(device).run(specs)
    opened = GPUSimulator(device).run_open(specs)
    assert opened.turnarounds == closed.turnarounds
    assert opened.makespan == closed.makespan


def test_hw_open_fifo_queues_behind_long_kernel():
    device = nvidia_k20m()
    long_kernel = spec("long", 2048, 100e-6)
    late = spec("late", 16, 50e-6, arrival=1e-4)
    trace = GPUSimulator(device).run_open([long_kernel, late])
    iv = trace.intervals[1]
    # the firmware dispatches in arrival order: the late kernel waits for
    # the long one's grid to drain, far beyond the handoff latency
    assert iv.queueing_delay > 10 * KERNEL_HANDOFF_LATENCY
    assert iv.start >= trace.intervals[0].dispatch_done


def test_hw_open_idle_gap_restarts_promptly():
    device = nvidia_k20m()
    first = spec("first", 16, 50e-6)
    second = spec("second", 16, 50e-6, arrival=0.2)  # device long idle
    trace = GPUSimulator(device).run_open([first, second])
    assert trace.intervals[0].finish < 0.2
    iv = trace.intervals[1]
    assert iv.queueing_delay <= KERNEL_HANDOFF_LATENCY + 1e-9


def test_hw_open_deterministic():
    device = nvidia_k20m()
    specs = [spec("a", 200, 90e-6), spec("b", 64, 60e-6, arrival=3e-3),
             spec("c", 32, 40e-6, arrival=5e-3)]
    t1 = GPUSimulator(device).run_open(specs)
    t2 = GPUSimulator(device).run_open(specs)
    assert [(iv.start, iv.finish) for iv in t1.intervals] \
        == [(iv.start, iv.finish) for iv in t2.intervals]


# -- accelOS open system (continuous re-allocation) --------------------------

def test_accelos_open_conserves_work():
    device = nvidia_k20m()
    specs = [accel(spec("a", 300, 80e-6), 4),
             accel(spec("b", 150, 60e-6, arrival=2e-3), 4),
             accel(spec("c", 80, 40e-6, arrival=4e-3), 4)]
    sim = GPUSimulator(device)
    trace = sim.run_open(specs, allocator=sharing_allocator(device))
    for run in sim.runs:
        assert run.completed == run.total
        assert run.resident == 0
        assert run.live_slots == 0
    for iv in trace.intervals:
        assert iv.start >= iv.arrival
        assert iv.finish > iv.start


def test_accelos_open_regrows_after_completion():
    """When a co-runner finishes, re-allocation hands its share to the
    survivor — the open-system generalisation of the rebalance hook."""
    device = nvidia_k20m()
    long_base = spec("long", 2048, 100e-6)
    short_base = spec("short", 32, 50e-6)
    cap = max_resident_groups(long_base, device)
    # closed batch, allocations bound for the kernels' lifetimes (paper)
    bound = GPUSimulator(device, rebalance=False).run(
        [accel(long_base, cap // 2), accel(short_base, cap // 2)])
    # open system: the same pair, re-allocated on every completion
    t_open = GPUSimulator(device).run_open(
        [accel(long_base, cap // 2), accel(short_base, cap // 2)],
        allocator=sharing_allocator(device))
    assert t_open.turnarounds[0] < bound.turnarounds[0] * 0.85


def test_accelos_open_shrinks_for_new_arrival():
    """A sole kernel owns the device; when a second request arrives the
    re-allocation shrinks the first at chunk boundaries so the newcomer is
    served promptly rather than waiting for a full drain."""
    device = nvidia_k20m()
    first = accel(spec("first", 4096, 100e-6), 1)
    second_base = spec("second", 256, 100e-6)
    arrival = 1e-3  # well inside the first kernel's run
    second = accel(second_base.with_arrival(arrival), 1)
    trace = GPUSimulator(device).run_open(
        [first, second], allocator=sharing_allocator(device))
    first_iv, second_iv = trace.intervals
    assert first_iv.finish > arrival  # genuinely overlapping
    # the newcomer is dispatched long before the first kernel finishes
    assert second_iv.start < first_iv.finish * 0.5
    # and its slowdown stays in the same ballpark as the incumbent's
    iso_first = GPUSimulator(device).run([spec("first", 4096,
                                               100e-6)]).makespan
    iso_second = GPUSimulator(device).run([spec("second", 256,
                                                100e-6)]).makespan
    s_first = first_iv.turnaround / iso_first
    s_second = second_iv.turnaround / iso_second
    assert max(s_first, s_second) / min(s_first, s_second) < 3.0


def test_accelos_open_burst_waits_for_admission():
    """A burst larger than the device's minimum-allocation capacity must
    queue (real queueing delay), not crash the sharing algorithm."""
    device = nvidia_k20m()
    # 27 x 1024-thread kernels: one group each already exceeds max_threads
    specs = [accel(spec("k{}".format(i), 32, 80e-6, wg=1024,
                        arrival=i * 1e-6), 1)
             for i in range(27)]
    sim = GPUSimulator(device)
    trace = sim.run_open(specs, allocator=sharing_allocator(device))
    for run in sim.runs:
        assert run.completed == run.total
        assert run.resident == 0
    # the head of the burst starts immediately; the tail genuinely waited
    # for completions to free admission capacity
    delays = [iv.queueing_delay for iv in trace.intervals]
    assert delays[0] == 0.0
    assert delays[-1] > delays[0]
    assert max(delays) > 0


def test_periodic_arrivals_empty_pool():
    with pytest.raises(SimulationError):
        periodic_arrivals(1.0, 3, names=())


def test_accelos_open_deterministic():
    device = nvidia_k20m()
    specs = [accel(spec("a", 400, 70e-6), 2),
             accel(spec("b", 100, 50e-6, arrival=1e-3), 2)]
    allocator = sharing_allocator(device)
    t1 = GPUSimulator(device).run_open(specs, allocator=allocator)
    t2 = GPUSimulator(device).run_open(specs, allocator=allocator)
    assert [(iv.start, iv.finish) for iv in t1.intervals] \
        == [(iv.start, iv.finish) for iv in t2.intervals]


# -- the OpenSystemExperiment harness ----------------------------------------

def test_arrival_rate_for_load():
    device = nvidia_k20m()
    low = arrival_rate_for_load(0.5, device, names=("bfs", "sgemm"))
    high = arrival_rate_for_load(2.0, device, names=("bfs", "sgemm"))
    assert 0 < low < high
    assert high == pytest.approx(4 * low)
    with pytest.raises(SimulationError):
        arrival_rate_for_load(0.0, device)


def test_open_experiment_records_follow_submission_order():
    device = nvidia_k20m()
    arrivals = poisson_arrivals(
        arrival_rate_for_load(0.8, device, names=("bfs", "stencil", "spmv")),
        8, seed=5, names=("bfs", "stencil", "spmv"))
    experiment = OpenSystemExperiment(device)
    for scheme in ("baseline", "ek", "accelos"):
        result = experiment.run(arrivals, scheme)
        assert len(result.records) == len(arrivals)
        for record, arrival in zip(result.records, arrivals):
            assert record.name == arrival.name
            assert record.arrival == arrival.time
            assert record.queueing_delay >= -1e-12
            assert record.slowdown > 0
        assert result.unfairness >= 1.0
        assert result.stp > 0
        assert result.request_throughput > 0


def test_open_experiment_accelos_fairer_under_load():
    device = nvidia_k20m()
    arrivals = poisson_arrivals(arrival_rate_for_load(1.0, device),
                                24, seed=3)
    results = OpenSystemExperiment(device).run_all(arrivals)
    assert results["accelos"].unfairness < results["baseline"].unfairness
    assert results["accelos"].antt < results["baseline"].antt


def test_ek_serialises_arrivals_accelos_overlaps():
    device = nvidia_k20m()
    # the second request arrives while the first is still running; both
    # would fit the device together
    arrivals = trace_arrivals([("histo_prescan", 0.0),
                               ("sad_larger_calc_8", 1e-4)])
    experiment = OpenSystemExperiment(device)
    ek = experiment.run(arrivals, "ek").records
    # EK's merge is static: the late request waits for the running launch
    assert ek[1].start >= ek[0].finish - 1e-12
    acc = experiment.run(arrivals, "accelos").records
    # accelOS re-allocates on arrival: the late request co-executes
    assert acc[1].start < acc[0].finish


def test_open_experiment_deterministic():
    device = nvidia_k20m()
    arrivals = poisson_arrivals(arrival_rate_for_load(1.0, device),
                                12, seed=9)
    experiment = OpenSystemExperiment(device)
    first = experiment.run_all(arrivals)
    second = experiment.run_all(poisson_arrivals(
        arrival_rate_for_load(1.0, device), 12, seed=9))
    for scheme, result in first.items():
        again = second[scheme]
        assert [r.finish for r in again.records] \
            == [r.finish for r in result.records]
        assert again.unfairness == result.unfairness
        assert again.mean_queueing_delay == result.mean_queueing_delay


def test_open_experiment_rejects_bad_input():
    device = nvidia_k20m()
    experiment = OpenSystemExperiment(device)
    with pytest.raises(SimulationError):
        experiment.run([], "accelos")
    with pytest.raises(SimulationError, match="unknown scheme"):
        experiment.run(poisson_arrivals(10.0, 2), "warp")
