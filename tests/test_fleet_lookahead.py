"""The fleet loop's lookahead: devices run apart up to each other's
finish bounds.

With work stealing, :meth:`repro.sim.fleet.FleetSimulator._advance_before`
advances the earliest device up to the earliest time another device can
next finish a request or go idle (``finish_bound()``; for accelOS,
:meth:`repro.sim.gpu.GPUSimulator.open_finish_bound`), then brings the
others up to its finish before the re-balance hook fires.  These tests
draw the regime that bound is for, the repo benchmark's ``fleet-steal``
shape: accelOS on a K20m and a quarter K20m (half clock, a quarter of
the compute units) far past saturation, with work stealing.  Each draw
runs on the checked drive loop (``tests/oracles/fleet.py``: every finish
against its device's bound, every hook against the devices' clocks,
every key on one session and harvested once) and must match the
one-event loop; the lookahead must have engaged.  A session whose bound
is too late must make the loop raise, and a small fixed stream pins the
engine's event count and the loop's ``advance`` calls.
"""

import functools

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.accelos.placement import WorkStealingRebalance
from repro.api.kernels import isolated_table, sharing_allocator
from repro.api.schemes import (GpuOpenSession, SteppedSession,
                               scheme_from_name)
from repro.cl import nvidia_k20m
from repro.errors import SimulationError
from repro.harness import (FleetOpenSystemExperiment,
                           fleet_arrival_rate_for_load, open_system)
from repro.sim import DeviceFleet, ExecutionMode, FleetSimulator
from repro.workloads import trace_arrivals
from repro.workloads.scenarios import scenario

from tests.oracles import (BoundCheckedFleetSimulator, CheckedFleetSimulator,
                           ConservationCheckedFleetSimulator)
from tests.test_event_batching import (QUANTUM, StepwiseFleetSimulator,
                                       _fleet, _fleet_run, _policy,
                                       assert_matches_the_per_event_loop)

# 512-thread kernels (a dozen fill the quarter K20m's admission) and
# 256-thread ones; histo_intermediates, mri-gridding_binning and
# mri-gridding_reorder draw two virtual groups per dequeue on both devices
KERNELS = ("bfs", "histo_intermediates", "histo_main", "histo_final",
           "mri-gridding_binning", "mri-gridding_reorder", "sgemm",
           "mri-q_ComputePhiMag")


def _steal_case(entries, placement, penalty, streaming=False):
    """An accelOS work-stealing case on the K20m and the quarter K20m;
    each run builds a fresh policy, since a policy keeps state."""
    return dict(fleet=_fleet(2, identical=False),
                arrivals=trace_arrivals(entries), scheme="accelos",
                placement=placement, streaming=streaming,
                policy=lambda: WorkStealingRebalance(
                    inner=_policy(placement, False), penalty=penalty))


@st.composite
def steal_cases(draw):
    """Same-instant bursts; round-robin placement sends half of them to
    the quarter K20m, whose admission queue then fills, and the K20m
    steals from it."""
    count = draw(st.integers(12, 40))
    entries = [(draw(st.sampled_from(KERNELS)),
                draw(st.integers(0, 3)) * QUANTUM,
                draw(st.sampled_from(("t0", "t1", "t2"))),
                draw(st.sampled_from((None, None, None, "slow"))))
               for _ in range(count)]
    return _steal_case(
        entries, draw(st.sampled_from(("round-robin", "burst-aware"))),
        draw(st.sampled_from((0.0, 1e-4, 1e-3))),
        streaming=draw(st.booleans()))


@settings(max_examples=40, deadline=None)
@given(steal_cases())
def test_overloaded_accelos_fleet_matches_the_per_event_loop(case):
    """Placements, migrations, harvest order, each device's events and
    every hook call (with the events each device had processed) match
    the one-event loop, and the loop made fewer ``advance`` calls than
    the devices processed events."""
    outcome, calls = assert_matches_the_per_event_loop(case)
    assert calls < outcome["events"]


def _anchor_entries():
    """Two same-instant bursts of 24 mixed kernels, every eleventh
    request pinned to the quarter K20m."""
    return [(KERNELS[i % 6], QUANTUM * (i // 24), "t{}".format(i % 3),
             "slow" if i % 11 == 10 else None) for i in range(48)]


def test_stealing_anchor_migrates_and_checks_bounds():
    """The fixed anchor of the property: requests migrate with a
    penalty, the bound checker checks finishes, and the lookahead skips
    most of the one-event loop's interleaving."""
    case = _steal_case(_anchor_entries(), "round-robin", 1e-4)
    outcome, calls = assert_matches_the_per_event_loop(case)
    assert len(outcome["migrations"]) >= 5
    assert calls * 20 < outcome["events"]
    checked = []

    def checker(*args, **kwargs):
        checked.append(BoundCheckedFleetSimulator(*args, **kwargs))
        return checked[-1]
    _fleet_run(checker, case)
    assert checked[0].bounds_checked > 0


# -- the loop's tie rules, on scripted devices -------------------------------

class ScriptedSession(SteppedSession):
    """A device whose events are a fixed script of ``(time, finishes)``
    pairs on a coarse grid, so cross-device ties are common.  Its
    bound is either exact (the time of its next finishing event, or of
    its last event, where it goes idle) or the default ``peek()``."""

    def __init__(self, script, exact):
        self.script = script
        self.done = 0
        self.exact = exact

    def peek(self):
        return self.script[self.done][0] if self.done < len(self.script) \
            else None

    def step(self):
        event = self.script[self.done]
        self.done += 1
        return event

    def finish_bound(self):
        if not self.exact:
            return self.peek()
        for time, finishes in self.script[self.done:]:
            if finishes:
                return time
        return self.script[-1][0] if self.done < len(self.script) else None

    def queued(self):
        return []

    def backlog_seconds(self, now):
        return 0.0

    def active_count(self):
        return 0


class HookLog:
    """A re-balancer that never moves anything and logs, at each call,
    the time and every device's processed event count."""

    uses_costs = False

    def __init__(self, sessions):
        self.sessions = sessions
        self.calls = []

    def rebalance(self, status):
        self.calls.append((status.now, [s.done for s in self.sessions]))
        return []


def _scripted_hooks(simulator_cls, scripts, exact):
    sessions = [ScriptedSession(script, flag)
                for script, flag in zip(scripts, exact)]
    fleet = DeviceFleet([("dev{}".format(j), nvidia_k20m())
                         for j in range(len(scripts))])
    log = HookLog(sessions)
    simulator = simulator_cls(fleet, sessions, log,
                              [{} for _ in sessions])
    simulator._rebalance_enabled = True
    simulator._placed = {}
    simulator._advance_before(None)
    return log.calls


@st.composite
def scripts(draw):
    count = draw(st.integers(2, 3))
    out = []
    for _ in range(count):
        times = sorted(draw(st.lists(st.integers(0, 5), max_size=8)))
        out.append([(float(time), draw(st.integers(0, 1)))
                    for time in times])
    return out, [draw(st.booleans()) for _ in range(count)]


@settings(max_examples=200, deadline=None)
@given(scripts())
def test_scripted_ties_match_the_per_event_loop(case):
    """Every hook call fires at the same time, in the same order, with
    every device at the same event as in the one-event loop: the tie
    rules of the limit and of the catch-up (lower fleet indices
    inclusive, higher exclusive) under exact and next-event bounds."""
    scripts, exact = case
    assert _scripted_hooks(FleetSimulator, scripts, exact) \
        == _scripted_hooks(StepwiseFleetSimulator, scripts, exact)


# -- the bound itself, event by event ----------------------------------------

@st.composite
def bound_cases(draw):
    """One device's accelOS stream, every request submitted up front
    (so arrival events are pending all along), and the steps at which
    the oldest withdrawable request is withdrawn."""
    device = _fleet(2, identical=False)[draw(st.integers(0, 1))].device
    count = draw(st.integers(1, 30))
    entries = [(draw(st.sampled_from(KERNELS)),
                draw(st.integers(0, 40)) * QUANTUM / 4, "t0")
               for _ in range(count)]
    entries.sort(key=lambda entry: entry[1])
    withdraws = draw(st.sets(st.integers(0, 400), max_size=4))
    return device, trace_arrivals(entries), withdraws


@settings(max_examples=40, deadline=None)
@given(bound_cases())
# the lone request is withdrawn at step 0, so the stream finishes nothing
@example((nvidia_k20m(), trace_arrivals([("bfs", 0.0, "t0")]), {0}))
def test_finish_bound_never_passes_the_next_finish(case):
    """After every event, the accelOS bound is at most the time of the
    next event that finishes a request or leaves the device idle, and
    at least the next event's time; withdrawals recompute it.  The
    bound must also see past the next event somewhere in every stream
    that finishes a request, or it would be the one-event horizon
    again."""
    device, arrivals, withdraws = case
    session = scheme_from_name("accelos").open_session(device)
    for key, arrival in enumerate(arrivals):
        session.submit(key, arrival, arrival.time)
    bounds = []
    ahead = 0
    steps = 0
    ran = False
    while session.peek() is not None:
        if steps in withdraws and session.queued():
            session.withdraw(session.queued()[0].key)
            bounds = []
        bound = session.finish_bound()
        assert bound >= session.peek()
        ahead += bound > session.peek()
        bounds.append(bound)
        time, finished = session.step()
        steps += 1
        ran = ran or bool(finished)
        if finished or session.peek() is None:
            assert all(bound <= time for bound in bounds), (time, bounds)
            bounds = []
    assert ahead or not ran


# -- an unsound bound fails loudly -------------------------------------------

class LateBoundSession(GpuOpenSession):
    """An accelOS session that claims it cannot finish anything for a
    simulated hour."""

    def __init__(self, device):
        accelos = scheme_from_name("accelos")
        super().__init__(
            device, ExecutionMode.ACCELOS,
            lambda arrival, time: accelos.admission_spec(
                arrival, device).with_arrival(time),
            allocator=sharing_allocator(device))

    def finish_bound(self):
        next_time = self.peek()
        return None if next_time is None else next_time + 3600.0


def _late_bound_fleet(simulator_cls, **kwargs):
    """A long request on the first device and a short one on the
    second, whose session gives a too-late bound: the first device runs
    to its own finish, and the catch-up finds the second one finishing
    before it."""
    fleet = DeviceFleet([("dev0", nvidia_k20m()), ("dev1", nvidia_k20m())])
    sessions = [scheme_from_name("accelos").open_session(fleet[0].device),
                LateBoundSession(fleet[1].device)]
    policy = WorkStealingRebalance(inner=_policy("round-robin", False))
    simulator = simulator_cls(fleet, sessions, policy,
                              [isolated_table(m.device) for m in fleet],
                              **kwargs)
    arrivals = trace_arrivals([("lbm", 0.0, "t0", "dev0"),
                               ("mri-q_ComputePhiMag", 0.0, "t1", "dev1")])
    simulator.run(arrivals, lambda entry, start, finish: None)


def test_a_too_late_finish_bound_raises():
    with pytest.raises(SimulationError,
                       match=r"device dev1 finished a request at t=0\.0\d+"
                             r", before device dev0 did at t=.*though its "
                             r"finish bound was 3600\."):
        _late_bound_fleet(FleetSimulator)


def test_the_bound_checker_names_the_cell_device_and_time():
    with pytest.raises(AssertionError,
                       match=r"late cell, seed 7: device dev1 at t=0\.0\d+"
                             r": finished a request before its finish "
                             r"bound 3600\."):
        _late_bound_fleet(BoundCheckedFleetSimulator,
                          label="late cell, seed 7")


def test_the_conservation_checker_catches_a_second_home():
    """A loop that submits one request to both devices fails the
    conservation check at the second submit."""
    class DoubleSubmit(ConservationCheckedFleetSimulator):
        def _place_one(self, arrival, key, *args):
            entry = super()._place_one(arrival, key, *args)
            if key == 3:
                self.sessions[1 - entry.index].submit(key, arrival,
                                                      arrival.time)
            return entry

    case = _steal_case(_anchor_entries(), "burst-aware", 1e-4)
    with pytest.raises(AssertionError,
                       match=r"seed 1: device \w+ at t=.*: request 3 "
                             r"submitted while it lives on device"):
        _fleet_run(lambda *args, **kwargs: DoubleSubmit(
            *args, label="anchor, seed 1", **kwargs), case)


# -- the counts a weakened bound would move ----------------------------------

def _fleet_steal_stream(fleet, seed):
    """150 requests of the repo benchmark's ``fleet-steal`` input: the
    multi-tenant scenario at load 12 on the fleet."""
    rate = fleet_arrival_rate_for_load(12.0, fleet)
    return scenario("multi-tenant").generate(rate, 150, seed=seed)


def test_fleet_steal_counts_are_pinned(monkeypatch):
    """A ``fleet-steal``-shaped stream: the engine's event count is the
    one the loop gave before finish bounds, and the lookahead's
    ``advance`` count is pinned (the loop before finish bounds made
    16,995).  A weaker bound, or a catch-up that advances devices with
    nothing to process, moves the second count."""
    calls = []
    advance = GpuOpenSession.advance

    def counted(self, *args):
        calls.append(None)
        return advance(self, *args)
    monkeypatch.setattr(GpuOpenSession, "advance", counted)
    fleet = _fleet(2, identical=False)
    experiment = FleetOpenSystemExperiment(fleet)
    result = experiment.run_stream(iter(_fleet_steal_stream(fleet, 2016)),
                                   "accelos", "burst-aware",
                                   rebalance="work-stealing")
    assert result.rebalances == 10
    assert (experiment.events_processed, len(calls)) == (58773, 630)


def test_checked_loop_runs_fleet_steal_streams(monkeypatch):
    """The checked drive loop under the fleet harness, on seeded
    ``fleet-steal``-shaped streams with migrations."""
    built = []
    fleet = _fleet(2, identical=False)
    for seed in (1, 2016):
        monkeypatch.setattr(open_system, "FleetSimulator", functools.partial(
            _built, built, label="fleet-steal, seed {}".format(seed)))
        FleetOpenSystemExperiment(fleet).run(
            _fleet_steal_stream(fleet, seed), "accelos", "burst-aware",
            rebalance="work-stealing")
    assert len(built) == 2
    assert all(simulator.migrations for simulator in built)
    assert all(simulator.bounds_checked for simulator in built)


def _built(built, *args, **kwargs):
    built.append(CheckedFleetSimulator(*args, **kwargs))
    return built[-1]
