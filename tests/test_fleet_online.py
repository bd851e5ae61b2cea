"""Closed-loop fleet co-simulation: equivalence, online policies,
re-balancing, and the new spec surface.

The backward-compatibility contract of the refactor (ISSUE 5): driving
the closed loop with a legacy offline policy in estimate mode must
reproduce the historical offline pre-pass — placement decisions AND
simulated records — **bit-identically**, for every scheme.  On top of
that, the online protocol (live loads, burst detection, work stealing)
is exercised directly.
"""

import json

import pytest

from repro.accelos.placement import (AffinityPlacement,
                                     BurstAwareOnlinePlacement,
                                     LeastLoadedPlacement,
                                     OfflinePolicyAdapter,
                                     RoundRobinPlacement,
                                     WorkStealingRebalance)
from repro.api import ExperimentSpec, run
from repro.api.placements import (is_online_placement, placement_from_name,
                                  placement_names, rebalancer_names)
from repro.cl import derated_device, nvidia_k20m
from repro.errors import SchedulingError, SimulationError
from repro.harness import (FleetOpenSystemExperiment,
                           fleet_arrival_rate_for_load, isolated_time)
from repro.sim import DeviceFleet, ExecutionMode, GPUSimulator
from repro.workloads import trace_arrivals
from repro.workloads.scenarios import scenario

from tests.oracles import place_arrivals, run_offline


def hetero_fleet():
    return DeviceFleet([
        ("fast", nvidia_k20m()),
        ("slow", derated_device(nvidia_k20m(), "K20m-derated",
                                clock_scale=0.4, cu_scale=0.5)),
    ])


def homo_fleet(n=2):
    return DeviceFleet([("dev{}".format(i), nvidia_k20m())
                        for i in range(n)])


def bursty_stream(fleet, count=40, seed=2016, load=1.5):
    rate = fleet_arrival_rate_for_load(load, fleet)
    return scenario("multi-tenant").generate(rate, count, seed=seed)


SCHEMES = ("baseline", "ek", "accelos")
OFFLINE_POLICIES = (RoundRobinPlacement, LeastLoadedPlacement,
                    AffinityPlacement)


# -- offline/closed-loop equivalence ------------------------------------------

@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("policy_cls", OFFLINE_POLICIES)
def test_loop_reproduces_offline_path_bit_identically(scheme, policy_cls):
    """The refactor's contract: the closed loop driven by a legacy policy
    (estimate mode, the 'auto' default) reproduces the offline pre-pass's
    decisions and records bit-for-bit."""
    fleet = hetero_fleet()
    arrivals = bursty_stream(fleet)
    experiment = FleetOpenSystemExperiment(fleet)
    offline = run_offline(experiment, arrivals, scheme, policy_cls())
    loop = experiment.run(arrivals, scheme, policy_cls())
    assert [(d.index, d.penalty, d.pinned) for d in offline.decisions] \
        == [(d.index, d.penalty, d.pinned) for d in loop.decisions]
    assert [(r.start, r.finish) for r in offline.overall.records] \
        == [(r.start, r.finish) for r in loop.overall.records]
    assert offline.overall.unfairness == loop.overall.unfairness
    assert offline.overall.antt == loop.overall.antt
    assert offline.device_share == loop.device_share
    assert loop.rebalances == 0


def test_retired_offline_mode_points_to_auto():
    """``"offline"`` ran the estimate adapter of ``"auto"``: a spec, a
    JSON spec or a harness call naming it gets one error naming
    ``"auto"``."""
    retired = "placement mode 'offline' was retired: use 'auto'"
    devices = ({"id": "a"}, {"id": "b"})
    with pytest.raises(SimulationError, match=retired):
        ExperimentSpec(devices=devices, placement_mode="offline")
    document = ExperimentSpec(devices=devices).to_dict()
    document["placement_mode"] = "offline"
    with pytest.raises(SimulationError, match=retired):
        ExperimentSpec.from_json(json.dumps(document))
    experiment = FleetOpenSystemExperiment(homo_fleet())
    arrivals = trace_arrivals([("bfs", 0.0)])
    with pytest.raises(SimulationError, match=retired):
        experiment.run(arrivals, "accelos", "least-loaded", mode="offline")
    with pytest.raises(SimulationError, match=retired):
        experiment.run_stream(iter(arrivals), "accelos", "least-loaded",
                              mode="offline")


def test_pinned_requests_honoured_in_the_loop():
    fleet = homo_fleet()
    experiment = FleetOpenSystemExperiment(fleet)
    arrivals = trace_arrivals([
        ("bfs", 0.0, "t0", "dev1"),
        ("sgemm", 0.001, "t1", "dev0"),
        ("spmv", 0.002, "t0", "dev1"),
    ])
    result = experiment.run(arrivals, "accelos", "burst-aware")
    names = {device_id: [r.name for r in res.records]
             for device_id, res in result.per_device.items()}
    assert names == {"dev0": ["sgemm"], "dev1": ["bfs", "spmv"]}


def test_loop_rejects_bad_mode_combinations():
    fleet = homo_fleet()
    experiment = FleetOpenSystemExperiment(fleet)
    arrivals = trace_arrivals([("bfs", 0.0)])
    with pytest.raises(SimulationError, match="'offline' was retired"):
        experiment.run(arrivals, "accelos", "burst-aware", mode="offline")
    with pytest.raises(SimulationError, match="live-state"):
        experiment.run(arrivals, "accelos", "least-loaded",
                       rebalance="work-stealing")
    with pytest.raises(SimulationError, match="unknown placement mode"):
        experiment.run(arrivals, "accelos", "least-loaded", mode="nope")


# -- online policies -----------------------------------------------------------

def test_online_least_loaded_uses_live_state():
    """mode='online' adapts a legacy policy to live loads; on a stream
    where the single-server estimate misjudges accelOS's space sharing,
    decisions legitimately differ from the estimate replay."""
    fleet = hetero_fleet()
    arrivals = bursty_stream(fleet, count=48)
    experiment = FleetOpenSystemExperiment(fleet)
    estimate = experiment.run(arrivals, "accelos", LeastLoadedPlacement())
    live = experiment.run(arrivals, "accelos", LeastLoadedPlacement(),
                          mode="online")
    assert [d.index for d in estimate.decisions] \
        != [d.index for d in live.decisions]
    # conservation holds in both planes
    assert len(live.overall.records) == len(arrivals)
    assert sum(len(r.records) for r in live.per_device.values()) \
        == len(arrivals)


def test_burst_factor_tracks_surges():
    policy = BurstAwareOnlinePlacement(horizon=4, surge=2.0)

    class A:
        def __init__(self, t):
            self.time = t

    # steady spacing: factor ~1
    for t in (0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0):
        policy.observe_arrival(A(t))
    assert policy.burst_factor(6.0) == pytest.approx(1.0, rel=0.3)
    assert not policy.bursting(6.0)
    # a surge: 4 arrivals in 0.03s after one per second
    for t in (6.01, 6.02, 6.03):
        policy.observe_arrival(A(t))
    assert policy.bursting(6.03)
    policy.reset()
    assert policy.burst_factor(1.0) == 1.0


def test_burst_aware_deterministic_and_conserving():
    fleet = hetero_fleet()
    arrivals = bursty_stream(fleet, count=40)
    experiment = FleetOpenSystemExperiment(fleet)
    a = experiment.run(arrivals, "accelos", "burst-aware")
    b = experiment.run(arrivals, "accelos", "burst-aware")
    assert [r.finish for r in a.overall.records] \
        == [r.finish for r in b.overall.records]
    assert a.device_share == b.device_share
    assert len(a.overall.records) == len(arrivals)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_every_builtin_scheme_serves_the_closed_loop(scheme):
    """All three schemes expose open sessions: the loop is not an
    accelOS-only feature."""
    fleet = hetero_fleet()
    arrivals = bursty_stream(fleet, count=24)
    experiment = FleetOpenSystemExperiment(fleet)
    result = experiment.run(arrivals, scheme, "burst-aware")
    assert len(result.overall.records) == len(arrivals)
    for record in result.overall.records:
        assert record.finish > record.arrival


# -- work stealing -------------------------------------------------------------

def test_work_stealing_moves_queued_work_to_idle_device():
    """A burst pinned (by arrival pattern) onto one device: the other
    device is idle, so the re-balancer steals queued requests and every
    stolen one is charged the migration penalty."""
    fleet = homo_fleet()
    experiment = FleetOpenSystemExperiment(fleet)
    # a tight burst at t=0 all placed before any completion: round-robin
    # would split it, but affinity-for-one-tenant piles it up; use the
    # baseline scheme so requests queue in the firmware FIFO
    arrivals = trace_arrivals([("sgemm", 1e-6 * i, "t0")
                               for i in range(8)])
    policy = WorkStealingRebalance(
        inner=OfflinePolicyAdapter(AffinityPlacement(penalty=0.5),
                                   mode="live"),
        penalty=1e-4)
    result = experiment.run(arrivals, "baseline", policy, mode="online")
    assert result.rebalances > 0
    assert len(result.overall.records) == len(arrivals)
    # stolen requests pay the transfer before starting on the thief
    stolen = [d for d in result.decisions if d.penalty > 0]
    assert len(stolen) == result.rebalances
    for decision in stolen:
        position = result.decisions.index(decision)
        record = result.overall.records[position]
        assert record.start >= decision.arrival.time + 1e-4 - 1e-12
    # both devices ended up serving the tenant
    assert all(share > 0 for share in result.device_share.values())


def test_work_stealing_never_touches_pinned_requests():
    fleet = homo_fleet()
    experiment = FleetOpenSystemExperiment(fleet)
    arrivals = trace_arrivals([("sgemm", 1e-6 * i, "t0", "dev0")
                               for i in range(8)])
    policy = WorkStealingRebalance(penalty=1e-4)
    result = experiment.run(arrivals, "baseline", policy, mode="online")
    assert result.rebalances == 0
    assert result.device_share == {"dev0": 1.0, "dev1": 0.0}


def test_spec_rebalance_runs_through_the_driver():
    spec = ExperimentSpec(
        scenario="multi-tenant", schemes=("accelos",), loads=(1.5,),
        seeds=(2016,), count=32,
        devices=({"id": "fast", "base": "nvidia-k20m"},
                 {"id": "slow", "base": "nvidia-k20m",
                  "clock_scale": 0.4, "cu_scale": 0.5}),
        placements=("least-loaded",), placement_mode="online",
        rebalance="work-stealing")
    results = run(spec)
    result = results.get(placement="least-loaded")
    assert len(result.overall.records) == 32
    # same spec twice: deterministic end to end
    again = run(spec).get(placement="least-loaded")
    assert [r.finish for r in result.overall.records] \
        == [r.finish for r in again.overall.records]


# -- incremental simulator interface ------------------------------------------

def test_open_withdraw_only_before_start():
    device = nvidia_k20m()
    sim = GPUSimulator(device)
    sim.open_begin(ExecutionMode.HARDWARE)
    from repro.api.kernels import base_spec
    first = sim.open_submit(base_spec("sgemm").with_arrival(0.0))
    second = sim.open_submit(base_spec("bfs").with_arrival(1e-7))
    sim.open_advance_before(1e-6)
    # the first request has begun dispatching: it is no longer queued
    assert not sim.open_withdrawable(first)
    with pytest.raises(SimulationError, match="already started"):
        sim.open_withdraw(first)
    # the second still waits for the dispatch window: withdrawable
    assert sim.open_withdrawable(second)
    sim.open_withdraw(second)
    sim.open_drain()
    trace = sim.open_trace()
    assert [iv.name for iv in trace.intervals] == ["sgemm"]


def test_run_open_is_the_incremental_interface():
    """Batch run_open and manual begin/submit/drain produce identical
    traces (one code path, regression-locked)."""
    from repro.api.kernels import base_spec
    device = nvidia_k20m()
    arrivals = [("sgemm", 0.0), ("bfs", 0.0005), ("spmv", 0.001)]
    specs = [base_spec(n).with_arrival(t) for n, t in arrivals]
    batch = GPUSimulator(device).run_open(specs)
    sim = GPUSimulator(device)
    sim.open_begin(ExecutionMode.HARDWARE)
    for spec in specs:
        sim.open_submit(spec)
    sim.open_drain()
    manual = sim.open_trace()
    assert [(iv.name, iv.start, iv.finish) for iv in batch.intervals] \
        == [(iv.name, iv.start, iv.finish) for iv in manual.intervals]


# -- registry & spec surface ---------------------------------------------------

def test_online_policies_registered_and_flagged():
    assert "burst-aware" in placement_names()
    assert "work-stealing" in placement_names()
    assert is_online_placement("burst-aware")
    assert is_online_placement("work-stealing")
    assert not is_online_placement("least-loaded")
    assert "work-stealing" in rebalancer_names()


def test_place_arrivals_rejects_online_policies():
    fleet = homo_fleet()
    with pytest.raises(SchedulingError, match="closed-loop-only"):
        place_arrivals(placement_from_name("burst-aware"),
                       trace_arrivals([("bfs", 0.0)]), fleet.devices,
                       estimator=isolated_time)


def test_spec_round_trips_new_fields():
    spec = ExperimentSpec(
        devices=({"id": "a"}, {"id": "b", "clock_scale": 0.5}),
        placements=("burst-aware",), placement_mode="online",
        rebalance="work-stealing")
    again = ExperimentSpec.from_json(spec.to_json())
    assert again == spec
    assert again.placement_mode == "online"
    assert again.rebalance == "work-stealing"


def test_spec_validates_new_fields_eagerly():
    fleet_devices = ({"id": "a"}, {"id": "b"})
    with pytest.raises(SimulationError,
                       match=r"unknown placement mode 'sideways' "
                             r"\(valid: auto, online\)"):
        ExperimentSpec(devices=fleet_devices, placement_mode="sideways")
    with pytest.raises(SimulationError, match="re-balancer"):
        ExperimentSpec(devices=fleet_devices, rebalance="magic")
    with pytest.raises(SimulationError, match="'offline' was retired"):
        ExperimentSpec(devices=fleet_devices,
                       placements=("burst-aware",),
                       placement_mode="offline")
    with pytest.raises(SimulationError, match="'offline' was retired"):
        ExperimentSpec(placement_mode="offline")
    with pytest.raises(SimulationError, match="live-state"):
        ExperimentSpec(devices=fleet_devices,
                       placements=("least-loaded",),
                       rebalance="work-stealing")
    with pytest.raises(SimulationError, match="multi-device"):
        ExperimentSpec(placement_mode="online")
    with pytest.raises(SimulationError, match="multi-device"):
        ExperimentSpec(rebalance="work-stealing")


# -- pinned x affinity interaction (satellite regression lock) -----------------

def constant_estimator(name, device):
    return 1.0


def test_pinned_placement_rehomes_tenant_and_pays_migration():
    """place_arrivals consults migration_penalty for pinned decisions
    too: a hard pin moves the tenant's buffers, so (a) the pinned
    request itself pays the transfer when its home is elsewhere, and
    (b) the tenant is re-homed onto the pinned device, changing what a
    *later* unpinned request is charged.  Intended behaviour — the home
    map tracks where the buffers physically are."""
    fleet = homo_fleet()
    policy = AffinityPlacement(penalty=0.25)
    arrivals = trace_arrivals([
        ("bfs", 0.0, "t0"),            # homes t0 on dev0 (free)
        ("bfs", 0.1, "t0", "dev1"),    # pinned off-home: pays + re-homes
        ("bfs", 0.2, "t0"),            # load draws it back to dev0...
    ])
    decisions = place_arrivals(policy, arrivals, fleet.devices,
                               estimator=constant_estimator,
                               ids=fleet.id_to_index())
    assert [d.index for d in decisions] == [0, 1, 0]
    assert [d.pinned for d in decisions] == [False, True, False]
    # the pinned request paid the buffer transfer...
    assert decisions[1].penalty == 0.25
    # ...and BECAUSE the pin re-homed the tenant to dev1, returning to
    # dev0 — free before the pin — now costs a second transfer
    assert decisions[2].penalty == 0.25


def test_pinned_rehoming_charges_later_unpinned_request():
    """The flip side: after a pin re-homes the tenant, an unpinned
    request drawn back to the old device pays the migration."""
    fleet = homo_fleet()
    policy = AffinityPlacement(penalty=0.05)
    arrivals = trace_arrivals([
        ("bfs", 0.0, "t0", "dev1"),    # first sight of t0: home = dev1
        ("bfs", 0.0001, "u1"), ("bfs", 0.0002, "u2"),  # background load
        ("bfs", 0.0003, "t0"),         # backlog draws t0 off its home
    ])
    decisions = place_arrivals(policy, arrivals, fleet.devices,
                               estimator=constant_estimator,
                               ids=fleet.id_to_index())
    assert decisions[0].penalty == 0.0   # first sight: no old home to leave
    assert decisions[0].index == 1
    # without the pin, t0's first request would have homed on dev0 and
    # its later request would return there free; the pin homed it on
    # dev1, so the return to dev0 is a *charged* migration
    last = decisions[-1]
    assert last.index == 0 and last.penalty == 0.05


def test_pinned_migration_delay_applies_in_simulation():
    """The pinned request's migration penalty delays its start on the
    pinned device in both fleet planes."""
    fleet = homo_fleet()
    experiment = FleetOpenSystemExperiment(fleet)
    arrivals = trace_arrivals([
        ("sgemm", 0.0, "t0"),
        ("sgemm", 0.001, "t0", "dev1"),
    ])
    for mode in ("auto", "online"):
        result = experiment.run(arrivals, "baseline",
                                AffinityPlacement(penalty=5e-3), mode=mode)
        pinned_record = result.overall.records[1]
        assert result.decisions[1].penalty == 5e-3
        assert pinned_record.start >= 0.001 + 5e-3 - 1e-12


# -- place_arrivals estimator memoisation (satellite perf fix) -----------------

def test_place_arrivals_memoises_estimator_calls():
    fleet = homo_fleet()
    calls = []

    def counting_estimator(name, device):
        calls.append((name, device.name))
        return 1.0

    arrivals = trace_arrivals([("bfs", 0.001 * i) for i in range(50)])
    place_arrivals(LeastLoadedPlacement(), arrivals, fleet.devices,
                   estimator=counting_estimator)
    # one estimate per (kernel, device), not one per request per device
    assert len(calls) == len(fleet)

    calls.clear()
    place_arrivals(RoundRobinPlacement(), arrivals, fleet.devices,
                   estimator=counting_estimator)
    # cost-blind policy: only the busy-until update needs estimates
    assert len(calls) == len(fleet)
