"""Tests for the multi-device fleet layer (placement + fleet harness)."""

import numpy as np
import pytest

from repro.accelos import FleetRuntime
from repro.accelos.placement import (AffinityPlacement, LeastLoadedPlacement,
                                     RoundRobinPlacement)
from repro.api import default_policies
from repro.cl import NDRange, derated_device, nvidia_k20m
from repro.errors import SchedulingError, SimulationError
from repro.harness import (FleetOpenSystemExperiment, OpenSystemExperiment,
                           arrival_rate_for_load, fleet_arrival_rate_for_load,
                           isolated_time)
from repro.kernelc import types as T
from repro.sim import DeviceFleet, FleetSimulator
from repro.workloads import (periodic_arrivals, poisson_arrivals,
                             trace_arrivals)

from tests.oracles import place, place_arrivals


def hetero_fleet():
    return DeviceFleet([
        ("fast", nvidia_k20m()),
        ("slow", derated_device(nvidia_k20m(), "K20m-derated",
                                clock_scale=0.4, cu_scale=0.5)),
    ])


def homo_fleet(n=2):
    return DeviceFleet([("dev{}".format(i), nvidia_k20m())
                        for i in range(n)])


def constant_estimator(name, device):
    return 1.0


# -- DeviceFleet construction -------------------------------------------------

def test_fleet_requires_devices_and_unique_ids():
    with pytest.raises(SimulationError):
        DeviceFleet([])
    with pytest.raises(SimulationError):
        DeviceFleet([("a", nvidia_k20m()), ("a", nvidia_k20m())])


def test_same_named_members_keep_their_own_isolated_times(monkeypatch):
    """A K20m and a half-clock derating that keeps the K20m's name share
    a fleet: placement estimates, session backlogs and the record
    denominator each read the member's own isolated time, because
    calibration keys on the device value, never its name."""
    fleet = DeviceFleet([
        ("fast", nvidia_k20m()),
        ("slow", derated_device(nvidia_k20m(), nvidia_k20m().name,
                                clock_scale=0.5)),
    ])
    kernels = ("sgemm", "bfs")
    for name in kernels:
        assert isolated_time(name, fleet[0].device) \
            < isolated_time(name, fleet[1].device)
    checked = []
    original = FleetSimulator._status

    def checked_status(simulator, now):
        status = original(simulator, now)
        for j, (member, session) in enumerate(zip(fleet,
                                                  simulator.sessions)):
            own = {name: isolated_time(name, member.device)
                   for name in kernels}
            assert all(status.estimate(name, j) == own[name]
                       for name in kernels)
            backlog = 0.0
            for arrival, run in session._entries.values():
                if run.finish_time is None and run.total > 0:
                    backlog += own[arrival.name] * (
                        (run.total - run.completed) / run.total)
            assert status.devices[j].backlog_seconds == backlog
        checked.append(status)
        return status
    monkeypatch.setattr(FleetSimulator, "_status", checked_status)
    arrivals = trace_arrivals([(kernels[i % 2], 0.0) for i in range(8)])
    result = FleetOpenSystemExperiment(fleet).run(
        arrivals, "accelos", LeastLoadedPlacement(), mode="online")
    assert checked
    assert {d.index for d in result.decisions} == {0, 1}
    for record in result.records:
        assert record.isolated == isolated_time(record.name,
                                                fleet[0].device)


def test_fleet_homogeneity_and_lookup():
    fleet = hetero_fleet()
    assert not fleet.homogeneous
    assert homo_fleet().homogeneous
    assert fleet.index_of("slow") == 1
    assert fleet.id_to_index() == {"fast": 0, "slow": 1}
    with pytest.raises(SimulationError):
        fleet.index_of("missing")
    assert fleet[0].relative_speed > fleet[1].relative_speed


def test_derated_device_is_slower():
    base = nvidia_k20m()
    slow = derated_device(base, "half", clock_scale=0.5)
    assert isolated_time("sgemm", slow) > isolated_time("sgemm", base)
    with pytest.raises(ValueError):
        derated_device(base, "bad", clock_scale=0.0)


# -- placement policies -------------------------------------------------------

def test_round_robin_cycles():
    policy = RoundRobinPlacement()
    arrivals = periodic_arrivals(0.1, 6, names=("bfs",))
    decisions = place_arrivals(policy, arrivals, homo_fleet().devices,
                               estimator=constant_estimator)
    assert [d.index for d in decisions] == [0, 1, 0, 1, 0, 1]


def test_least_loaded_prefers_idle_fast_device():
    fleet = hetero_fleet()
    policy = LeastLoadedPlacement()
    arrivals = trace_arrivals([("sgemm", 0.0)])
    decisions = place_arrivals(policy, arrivals, fleet.devices,
                               estimator=isolated_time)
    assert decisions[0].index == 0  # the fast device finishes it sooner


def test_least_loaded_spills_to_slow_device_under_backlog():
    fleet = hetero_fleet()
    policy = LeastLoadedPlacement()
    # a burst at t=0: the fast device's backlog grows until the slow one
    # is the earlier finish for some request
    arrivals = trace_arrivals([("sgemm", 0.0)] * 8)
    decisions = place_arrivals(policy, arrivals, fleet.devices,
                               estimator=isolated_time)
    used = {d.index for d in decisions}
    assert used == {0, 1}


def test_affinity_keeps_tenant_home_and_charges_migration():
    fleet = homo_fleet()
    policy = AffinityPlacement(penalty=0.5)
    # two tenants alternate; with the huge penalty nobody ever migrates
    arrivals = periodic_arrivals(0.01, 8, names=("bfs",),
                                 tenants=("t0", "t1"))
    decisions = place_arrivals(policy, arrivals, fleet.devices,
                               estimator=constant_estimator)
    homes = {}
    for d in decisions:
        homes.setdefault(d.arrival.tenant, set()).add(d.index)
        assert d.penalty == 0.0
    assert all(len(devices) == 1 for devices in homes.values())


def test_affinity_migrates_when_home_is_swamped():
    fleet = homo_fleet()
    policy = AffinityPlacement(penalty=0.1)
    # one tenant, its home device drowning in backlog: with the other
    # device idle the migration penalty is worth paying
    arrivals = trace_arrivals([("bfs", 0.0, "t0")] * 6)
    decisions = place_arrivals(policy, arrivals, fleet.devices,
                               estimator=constant_estimator)
    migrated = [d for d in decisions if d.penalty > 0]
    assert migrated, "expected at least one migration"
    assert all(d.penalty == 0.1 for d in migrated)


def test_pinned_arrivals_bypass_policy():
    fleet = homo_fleet()
    policy = RoundRobinPlacement()
    arrivals = trace_arrivals([
        ("bfs", 0.0, None, "dev1"),
        ("bfs", 0.1, None, "dev1"),
        ("bfs", 0.2),
    ])
    decisions = place_arrivals(policy, arrivals, fleet.devices,
                               estimator=constant_estimator,
                               ids=fleet.id_to_index())
    assert [d.index for d in decisions] == [1, 1, 0]
    assert [d.pinned for d in decisions] == [True, True, False]
    with pytest.raises(SchedulingError, match="unknown device"):
        place_arrivals(policy, trace_arrivals([("bfs", 0.0, None, "nope")]),
                       fleet.devices, estimator=constant_estimator,
                       ids=fleet.id_to_index())


def test_place_arrivals_conservation():
    """Every arrival is placed exactly once, in input order."""
    fleet = hetero_fleet()
    rate = fleet_arrival_rate_for_load(1.0, fleet)
    arrivals = poisson_arrivals(rate, 40, seed=5, tenants=6)
    for policy in default_policies().values():
        decisions = place_arrivals(policy, arrivals, fleet.devices,
                                   estimator=isolated_time,
                                   ids=fleet.id_to_index())
        assert len(decisions) == len(arrivals)
        assert [d.arrival for d in decisions] == arrivals
        assert all(0 <= d.index < len(fleet) for d in decisions)


def test_place_arrivals_rejects_bad_input():
    fleet = homo_fleet()
    with pytest.raises(SchedulingError):
        place_arrivals(RoundRobinPlacement(), [], fleet.devices,
                       estimator=constant_estimator)
    with pytest.raises(SchedulingError):
        place_arrivals(RoundRobinPlacement(),
                       trace_arrivals([("bfs", 0.0)]), [],
                       estimator=constant_estimator)


def test_placement_deterministic_across_runs():
    fleet = hetero_fleet()
    rate = fleet_arrival_rate_for_load(1.5, fleet)
    for policy_name in default_policies():
        a = place_arrivals(default_policies()[policy_name],
                           poisson_arrivals(rate, 30, seed=9, tenants=4),
                           fleet.devices, estimator=isolated_time)
        b = place_arrivals(default_policies()[policy_name],
                           poisson_arrivals(rate, 30, seed=9, tenants=4),
                           fleet.devices, estimator=isolated_time)
        assert [(d.index, d.penalty) for d in a] \
            == [(d.index, d.penalty) for d in b]


def test_policy_reuse_is_reproducible():
    """One policy object placing the same stream twice decides identically
    (reset clears the round-robin cursor / tenant homes)."""
    fleet = homo_fleet()
    arrivals = poisson_arrivals(50.0, 20, seed=2, tenants=3)
    for policy in default_policies().values():
        first = place_arrivals(policy, arrivals, fleet.devices,
                               estimator=constant_estimator)
        second = place_arrivals(policy, arrivals, fleet.devices,
                                estimator=constant_estimator)
        assert [d.index for d in first] == [d.index for d in second]


# -- FleetOpenSystemExperiment ------------------------------------------------

def test_fleet_experiment_conserves_requests():
    fleet = hetero_fleet()
    experiment = FleetOpenSystemExperiment(fleet)
    rate = fleet_arrival_rate_for_load(1.0, fleet)
    arrivals = poisson_arrivals(rate, 24, seed=3)
    for scheme in ("baseline", "accelos", "ek"):
        result = experiment.run(arrivals, scheme, LeastLoadedPlacement())
        assert len(result.overall.records) == len(arrivals)
        per_device_total = sum(len(r.records)
                               for r in result.per_device.values())
        assert per_device_total == len(arrivals)
        assert abs(sum(result.device_share.values()) - 1.0) < 1e-12
        for record, arrival in zip(result.overall.records, arrivals):
            assert record.name == arrival.name
            assert record.arrival == arrival.time
            assert record.finish > record.arrival


def test_fleet_experiment_deterministic_under_fixed_seed():
    fleet = hetero_fleet()
    rate = fleet_arrival_rate_for_load(1.0, fleet)

    def run_once():
        experiment = FleetOpenSystemExperiment(hetero_fleet())
        arrivals = poisson_arrivals(rate, 20, seed=17, tenants=4)
        return experiment.run(arrivals, "accelos", AffinityPlacement())

    a, b = run_once(), run_once()
    assert a.overall.antt == b.overall.antt
    assert a.overall.unfairness == b.overall.unfairness
    assert [r.finish for r in a.overall.records] \
        == [r.finish for r in b.overall.records]
    assert a.device_share == b.device_share
    assert a.migrations == b.migrations


def test_homogeneous_fleet_fairness_no_worse_than_single_device():
    """Per-device fairness on a homogeneous fleet must not regress versus
    the single-device baseline serving the same per-device sub-stream:
    each member *is* a single device running the same allocator."""
    fleet = homo_fleet()
    experiment = FleetOpenSystemExperiment(fleet)
    rate = fleet_arrival_rate_for_load(1.0, fleet)
    arrivals = poisson_arrivals(rate, 24, seed=8)
    result = experiment.run(arrivals, "accelos", RoundRobinPlacement())

    decisions = place(experiment, arrivals, RoundRobinPlacement())
    single = OpenSystemExperiment(nvidia_k20m())
    for index, member in enumerate(fleet):
        sub = [d.arrival for d in decisions if d.index == index]
        if not sub:
            continue
        solo = single.run(sub, "accelos")
        per_device = result.per_device[member.id]
        assert per_device.unfairness == pytest.approx(solo.unfairness)
        assert per_device.antt == pytest.approx(solo.antt)


def test_fleet_pinned_trace_lands_on_tagged_devices():
    fleet = homo_fleet()
    experiment = FleetOpenSystemExperiment(fleet)
    arrivals = trace_arrivals([
        ("bfs", 0.0, "t0", "dev0"),
        ("sgemm", 0.001, "t1", "dev1"),
        ("spmv", 0.002, "t0", "dev0"),
    ])
    result = experiment.run(arrivals, "baseline", LeastLoadedPlacement())
    names = {device_id: [r.name for r in res.records]
             for device_id, res in result.per_device.items()}
    assert names == {"dev0": ["bfs", "spmv"], "dev1": ["sgemm"]}


def test_fleet_migration_penalty_delays_start():
    fleet = homo_fleet()
    experiment = FleetOpenSystemExperiment(fleet)
    policy = AffinityPlacement(penalty=5e-3)
    # one tenant's home backlog forces a migration mid-stream
    arrivals = trace_arrivals([("sgemm", 0.0, "t0")] * 4)
    decisions = place(experiment, arrivals, policy)
    migrated = [i for i, d in enumerate(decisions) if d.penalty > 0]
    assert migrated
    result = experiment.run(arrivals, "baseline",
                            AffinityPlacement(penalty=5e-3))
    for i in migrated:
        record = result.overall.records[i]
        # the buffers move before the kernel can start on the new device
        assert record.start >= arrivals[i].time + 5e-3 - 1e-12


def test_fleet_rejects_empty_stream():
    experiment = FleetOpenSystemExperiment(homo_fleet())
    with pytest.raises(SimulationError):
        experiment.run([], "accelos", RoundRobinPlacement())


def test_fleet_arrival_rate_scales_with_fleet():
    single = nvidia_k20m()
    homo = homo_fleet(2)
    assert fleet_arrival_rate_for_load(1.0, homo) \
        == pytest.approx(2 * arrival_rate_for_load(1.0, single))
    with pytest.raises(SimulationError):
        fleet_arrival_rate_for_load(0.0, homo)


# -- FleetRuntime (functional plane) -----------------------------------------

SAXPY = """
kernel void saxpy(global const float* x, global float* y, float a)
{
    size_t gid = get_global_id(0);
    y[gid] = a * x[gid] + y[gid];
}
"""


def _run_saxpy(ctx, n=512, wg=128):
    program = ctx.create_program(SAXPY).build()
    kernel = program.create_kernel("saxpy")
    queue = ctx.create_queue()
    x = ctx.create_buffer(T.FLOAT, n)
    y = ctx.create_buffer(T.FLOAT, n)
    x_host = np.linspace(0, 1, n, dtype=np.float32)
    y_host = np.ones(n, dtype=np.float32)
    queue.enqueue_write_buffer(x, x_host)
    queue.enqueue_write_buffer(y, y_host)
    kernel.set_args(x, y, 3.0)
    queue.enqueue_nd_range(kernel, NDRange((n,), (wg,)))
    queue.finish()
    return queue.enqueue_read_buffer(y), 3.0 * x_host + y_host


def test_fleet_runtime_sessions_spread_and_compute_correctly():
    fleet = FleetRuntime([("fast", nvidia_k20m()),
                          ("slow", derated_device(nvidia_k20m(),
                                                  "K20m-half", 0.5))])
    devices_used = set()
    for app in ("app-a", "app-b"):
        result, expected = _run_saxpy(fleet.session(app))
        assert np.allclose(result, expected)
        devices_used.add(fleet.device_of(app))
    assert devices_used == {"fast", "slow"}
    assert len(fleet.launch_history) == 2


def test_fleet_runtime_sessions_are_sticky():
    fleet = FleetRuntime([("a", nvidia_k20m()), ("b", nvidia_k20m())])
    fleet.session("app")
    home = fleet.device_of("app")
    fleet.session("app")  # returning application: same device
    assert fleet.device_of("app") == home
    with pytest.raises(SchedulingError, match="already lives"):
        fleet.session("app", device="a" if home == "b" else "b")


def test_fleet_runtime_accepts_device_fleet():
    """The evaluation-plane fleet object works as FleetRuntime input."""
    fleet = FleetRuntime(hetero_fleet())
    assert fleet.ids == ["fast", "slow"]
    result, expected = _run_saxpy(fleet.session("app"))
    assert np.allclose(result, expected)


def test_fleet_runtime_pinned_session_and_lookup():
    fleet = FleetRuntime([("a", nvidia_k20m()), ("b", nvidia_k20m())])
    fleet.session("pinned", device="b")
    assert fleet.device_of("pinned") == "b"
    assert fleet.runtime_for("b") is fleet.runtimes[1]
    with pytest.raises(SchedulingError):
        fleet.runtime_for("zzz")
    with pytest.raises(SchedulingError):
        FleetRuntime([])
    with pytest.raises(SchedulingError):
        FleetRuntime([("x", nvidia_k20m()), ("x", nvidia_k20m())])


def test_fleet_runtime_drain_is_per_device():
    fleet = FleetRuntime([("a", nvidia_k20m()), ("b", nvidia_k20m())])
    result_a, expected_a = _run_saxpy(fleet.session("app-a"))
    result_b, expected_b = _run_saxpy(fleet.session("app-b"))
    assert np.allclose(result_a, expected_a)
    assert np.allclose(result_b, expected_b)
    plans = fleet.drain()  # everything already drained by queue.finish()
    assert set(plans) == {"a", "b"}
    assert all(p == [] for p in plans.values())


# -- tagged arrival generators ------------------------------------------------

def test_tenantless_streams_unchanged():
    """Adding the tenant machinery must not perturb existing seeds."""
    stream = poisson_arrivals(100.0, 10, seed=42)
    assert all(a.tenant is None and a.device is None for a in stream)


def test_tenant_tagging_is_deterministic():
    a = poisson_arrivals(100.0, 30, seed=1, tenants=5)
    b = poisson_arrivals(100.0, 30, seed=1, tenants=5)
    assert a == b
    assert {x.tenant for x in a} <= {"app{}".format(i) for i in range(5)}
    with pytest.raises(SimulationError):
        poisson_arrivals(100.0, 10, tenants=0)
    with pytest.raises(SimulationError):
        poisson_arrivals(100.0, 10, tenants=())


def test_periodic_tenants_cycle():
    stream = periodic_arrivals(0.1, 4, names=("bfs",), tenants=("u", "v"))
    assert [a.tenant for a in stream] == ["u", "v", "u", "v"]
