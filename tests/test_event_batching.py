"""Batched event advance: differential oracles against the per-event loops.

The engine, the scheme sessions, the single-device harness and the fleet
co-simulation advance a device to a horizon in one call instead of one
``peek``/``step`` round trip per event.  The per-event loops they
replaced are kept here as reference drivers: on hypothesis-drawn fleets
and streams both must produce the same placements, migrations, harvest
order, timings and engine event counts.  The checks a completion must
keep on both of its paths (``open_step``, and the inline arms of
``open_advance``) are regression-locked at the end.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.accelos.placement import OfflinePolicyAdapter, OnlinePlacementPolicy
from repro.api.kernels import isolated_table, isolated_time
from repro.api.placements import placement_from_name, rebalancer_from_name
from repro.api.schemes import GpuOpenSession, record_sink, scheme_from_name
from repro.attribution import AttributionLedger
from repro.cl import derated_device, nvidia_k20m
from repro.errors import SimulationError
from repro.harness import OpenSystemExperiment
from repro.metrics.sketches import StreamingRecordSink
from repro.sim import (DeviceFleet, ExecutionMode, FleetSimulator,
                       GPUSimulator, KernelExecSpec)
from repro.workloads import from_name, trace_arrivals

from tests.oracles import CheckedFleetSimulator

KERNELS = ("sgemm", "bfs", "spmv", "stencil")
# arrival slots are multiples of this, so many requests arrive together
# and identical devices see events at exactly equal times
QUANTUM = 2e-4


class StepwiseFleetSimulator(FleetSimulator):
    """The reference fleet loop: every iteration peeks every session and
    steps the one with the earliest event, ties to the lower fleet
    index, firing the re-balance hook after a finish or an idle
    transition."""

    def _advance_before(self, time):
        while True:
            best = None
            best_time = None
            for j, session in enumerate(self.sessions):
                next_time = session.peek()
                if next_time is None:
                    continue
                if best_time is None or next_time < best_time:
                    best, best_time = j, next_time
            if best is None or (time is not None and best_time >= time):
                return
            event_time, finished = self.sessions[best].step()
            if self._rebalance_enabled \
                    and (finished or self.sessions[best].peek() is None):
                self._maybe_rebalance(event_time)


def _fleet(size, identical):
    if identical:
        return DeviceFleet([("dev{}".format(i), nvidia_k20m())
                            for i in range(size)])
    members = [("fast", nvidia_k20m()),
               ("slow", derated_device(nvidia_k20m(), "K20m-quarter",
                                       clock_scale=0.5, cu_scale=0.25)),
               ("half", derated_device(nvidia_k20m(), "K20m-half",
                                       clock_scale=0.5))]
    return DeviceFleet(members[:size])


def _policy(placement, rebalance):
    policy = placement_from_name(placement)
    if not isinstance(policy, OnlinePlacementPolicy):
        policy = OfflinePolicyAdapter(policy, mode="live")
    if rebalance:
        policy = rebalancer_from_name("work-stealing")(policy)
    return policy


@st.composite
def fleet_cases(draw):
    size = draw(st.integers(2, 3))
    identical = draw(st.booleans())
    fleet = _fleet(size, identical)
    count = draw(st.integers(4, 18))
    entries = []
    for _ in range(count):
        name = draw(st.sampled_from(KERNELS))
        time = draw(st.integers(0, 6)) * QUANTUM
        tenant = draw(st.sampled_from(("t0", "t1", "t2")))
        pin = draw(st.one_of(st.none(), st.sampled_from(fleet.ids)))
        entries.append((name, time, tenant, pin))
    return dict(
        fleet=fleet, arrivals=trace_arrivals(entries),
        scheme=draw(st.sampled_from(("accelos", "baseline", "ek"))),
        placement=draw(st.sampled_from(
            ("round-robin", "least-loaded", "burst-aware"))),
        rebalance=draw(st.booleans()),
        streaming=draw(st.booleans()))


def _orders(orders):
    return [(m.key, m.source, m.target, m.penalty) for m in orders]


def _log_calls(owner, name, log):
    """Append the result of every call of ``owner.name`` to ``log``."""
    original = getattr(owner, name)

    def logged(*args):
        result = original(*args)
        log.append(result)
        return result
    setattr(owner, name, logged)


def _fleet_run(simulator_cls, case):
    """One attributed fleet run, exact or streaming.

    The outcome holds the harvest order, each device's event sequence
    and the re-balance hook's calls in order, each with the number of
    events every device had processed when it fired: the hook must see
    the state the one-event loop shows it, even when a cross-device tie
    taken in the wrong order changes no placement.  Simulator-backed
    devices report every event through the engine's per-event observer,
    which both ``open_step`` and ``open_advance``'s inline arms call.
    ``advance_calls`` counts the sessions' ``advance`` calls; it is not
    part of the outcome, since the one-event loop makes none.
    """
    fleet = case["fleet"]
    scheme = scheme_from_name(case["scheme"])
    sessions = [case.get("session", scheme.open_session)(member.device)
                for member in fleet]
    events = [[] for _ in fleet]
    calls = []
    for j, session in enumerate(sessions):
        if isinstance(session, GpuOpenSession):
            session._sim.event_observer = \
                lambda time, payload, log=events[j]: log.append(time)
        else:
            _log_calls(session, "step", events[j])
        _log_calls(session, "advance", calls)
    policy = (case["policy"]() if "policy" in case
              else _policy(case["placement"], case["rebalance"]))
    hooks = []
    rebalance = policy.rebalance

    def logged_rebalance(status):
        orders = rebalance(status)
        hooks.append((status.now, [len(log) for log in events],
                      _orders(orders)))
        return orders
    policy.rebalance = logged_rebalance
    ledger = AttributionLedger(fleet.ids)
    simulator = simulator_cls(fleet, sessions, policy,
                              [isolated_table(m.device) for m in fleet],
                              ledger=ledger)
    harvested = []
    on_record = record_sink(
        lambda name: 1.0,
        lambda entry, record: harvested.append(
            (entry.position, entry.index, entry.penalty, entry.pinned,
             entry.migrated, record.start, record.finish)))
    if case["streaming"]:
        simulator.run_stream(iter(case["arrivals"]), on_record)
    else:
        simulator.run(case["arrivals"], on_record)
    outcome = dict(harvested=harvested, report=repr(ledger.report()))
    outcome["migrations"] = _orders(simulator.migrations)
    outcome["events"] = simulator.events_processed()
    outcome["device_events"] = events
    outcome["hooks"] = hooks
    return outcome, len(calls)


def checked_fleet(case):
    """The checked drive loop (``tests/oracles/fleet.py``) for ``case``,
    labelled with what it draws."""
    label = "{} on {} ({}{})".format(
        case["scheme"], "+".join(case["fleet"].ids),
        case.get("placement", "policy"),
        " + work stealing" if case.get("rebalance", True) else "")
    return functools.partial(CheckedFleetSimulator, label=label)


def assert_matches_the_per_event_loop(case):
    """Run ``case`` on the checked drive loop and on the one-event
    loop; both outcomes must be equal.  Returns the drive loop's outcome
    and its number of session ``advance`` calls."""
    batched, calls = _fleet_run(checked_fleet(case), case)
    assert batched == _fleet_run(StepwiseFleetSimulator, case)[0]
    return batched, calls


@settings(max_examples=60, deadline=None)
@given(fleet_cases())
def test_fleet_horizon_matches_the_per_event_loop(case):
    assert_matches_the_per_event_loop(case)


def test_identical_devices_tie_and_steal_like_the_per_event_loop():
    """Bursts of one kernel on two identical devices: both firmware
    queues run work groups at exactly equal times, and work stealing
    migrates a queued request (the fixed anchor of the property above).
    Every fourth request is pinned to the first device."""
    entries = [("sgemm", QUANTUM * (i // 4), "t0",
                "dev0" if i % 4 == 3 else None) for i in range(16)]
    case = dict(fleet=_fleet(2, identical=True),
                arrivals=trace_arrivals(entries), scheme="baseline",
                placement="least-loaded", rebalance=True, streaming=False)
    batched, _ = assert_matches_the_per_event_loop(case)
    assert batched["migrations"]
    assert batched["events"] > 0


# -- the re-balance hook's backlog walk -----------------------------------------

def _recomputed_backlog(session, now):
    """A session's outstanding isolated work, summed in the session's
    own order through the module-level ``isolated_time``."""
    if isinstance(session, GpuOpenSession):
        total = 0.0
        for arrival, run in session._entries.values():
            if run.finish_time is None and run.total > 0:
                remaining = (run.total - run.completed) / run.total
                total += isolated_time(arrival.name, session.device) \
                    * remaining
        return total
    total = sum(isolated_time(entry[3].name, session.device)
                for entry in session._waiting)
    if session._busy_until is not None:
        total += max(0.0, session._busy_until - now)
    return total


@pytest.mark.parametrize("scheme", ["accelos", "ek"])
def test_backlog_matches_isolated_time_along_a_migrating_run(scheme):
    """The fleet-steal shape: a K20m and a quarter-size half-clock K20m
    far past saturation, burst-aware placement and work stealing.  Every
    backlog the re-balance hook reads equals the sum recomputed through
    ``isolated_time``, bit for bit."""
    fleet = _fleet(2, identical=False)
    arrivals = from_name("multi-tenant", seed=2016, load=12.0, count=120,
                         device=nvidia_k20m())
    sessions = [scheme_from_name(scheme).open_session(member.device)
                for member in fleet]
    checked = []
    for session in sessions:
        original = session.backlog_seconds

        def checked_backlog(now, session=session, original=original):
            value = original(now)
            assert value == _recomputed_backlog(session, now)
            checked.append(value)
            return value
        session.backlog_seconds = checked_backlog
    simulator = FleetSimulator(fleet, sessions,
                               _policy("burst-aware", rebalance=True),
                               [isolated_table(m.device) for m in fleet])
    simulator.run(arrivals, lambda entry, start, finish: None)
    assert simulator.migrations
    assert any(value > 0 for value in checked)


@pytest.mark.parametrize("scheme", ["accelos", "ek"])
def test_same_named_devices_keep_their_own_isolated_times(scheme):
    """Two derated devices share a display name but not a clock: each
    session prices the same queued request on its own device."""
    arrival = trace_arrivals([("sgemm", 0.0, "t0")])[0]
    backlogs = []
    for clock_scale in (0.5, 0.25):
        device = derated_device(nvidia_k20m(), "K20m-derated",
                                clock_scale=clock_scale)
        session = scheme_from_name(scheme).open_session(device)
        session.submit(0, arrival, 0.0)
        backlog = session.backlog_seconds(0.0)
        assert backlog == isolated_time("sgemm", device)
        backlogs.append(backlog)
    assert backlogs[0] != backlogs[1]


# -- the single-device harness -------------------------------------------------

def _stepwise_single(device, scheme, arrivals):
    """The reference single-device loop: step while the next event is
    before the arrival, harvest, submit; then step until drained."""
    session = scheme_from_name(scheme).open_session(device)
    harvested = []
    for position, arrival in enumerate(arrivals):
        while session.peek() is not None \
                and session.peek() < arrival.time:
            session.step()
        harvested.extend(session.harvest())
        session.submit(position, arrival, arrival.time)
    while session.peek() is not None:
        session.step()
    harvested.extend(session.harvest())
    return harvested, getattr(session, "events_processed", 0)


class _RecordingSink(StreamingRecordSink):
    __slots__ = ("seen",)

    def __init__(self):
        super().__init__()
        self.seen = []

    def observe(self, record):
        self.seen.append((record.arrival, record.start, record.finish))
        super().observe(record)


class _RecordingLedger(AttributionLedger):
    def __init__(self, device_ids):
        super().__init__(device_ids)
        self.finished = []

    def finish(self, key, start, finish):
        self.finished.append((key, start, finish))
        super().finish(key, start, finish)


@st.composite
def single_cases(draw):
    count = draw(st.integers(1, 20))
    entries = [(draw(st.sampled_from(KERNELS)),
                draw(st.integers(0, 8)) * QUANTUM,
                draw(st.sampled_from(("t0", "t1"))))
               for _ in range(count)]
    return (draw(st.sampled_from(("accelos", "baseline", "ek"))),
            trace_arrivals(entries))


def _check_run_stream(device, scheme, arrivals):
    """``run_stream`` observes the step loop's harvest in its order and
    processes as many engine events."""
    expected, events = _stepwise_single(device, scheme, arrivals)
    sinks = []

    def factory():
        sinks.append(_RecordingSink())
        return sinks[-1]

    experiment = OpenSystemExperiment(device)
    experiment.run_stream(iter(arrivals), scheme, sink_factory=factory)
    assert sinks[0].seen == [(arrivals[key].time, start, finish)
                             for key, start, finish in expected]
    assert experiment.events_processed == events


@settings(max_examples=40, deadline=None)
@given(single_cases())
def test_run_stream_matches_the_per_event_loop(case):
    scheme, arrivals = case
    _check_run_stream(nvidia_k20m(), scheme, arrivals)


@settings(max_examples=40, deadline=None)
@given(single_cases())
def test_attributed_records_match_the_per_event_loop(case):
    scheme, arrivals = case
    device = nvidia_k20m()
    expected, _ = _stepwise_single(device, scheme, arrivals)
    ledger = _RecordingLedger([device.name])
    result = OpenSystemExperiment(device).run(arrivals, scheme,
                                              ledger=ledger)
    assert ledger.finished == expected
    timings = {key: (start, finish) for key, start, finish in expected}
    assert [(r.start, r.finish) for r in result.records] \
        == [timings[key] for key in range(len(arrivals))]


def test_arrival_at_a_chunk_boundary_is_placed_first():
    """A request arriving exactly when a chunk of an earlier one
    completes is admitted before that completion is processed — the
    arrival-first tie rule, which the exclusive bound of ``advance``
    keeps."""
    device = nvidia_k20m()
    probe = scheme_from_name("accelos").open_session(device)
    first = trace_arrivals([("sgemm", 0.0, "t0")])
    probe.submit(0, first[0], 0.0)
    probe.step()                    # the arrival itself
    boundary = probe.peek()         # the first chunk completion
    _check_run_stream(device, "accelos",
                      first + trace_arrivals([("bfs", boundary, "t1")]))


# -- checks the chunk-completion path keeps ------------------------------------

def _accelos_spec(name, costs, arrival=0.0, chunk=2, overhead=2e-6):
    return KernelExecSpec(name, 256, np.asarray(costs, dtype=float), 1e6,
                          16, 0, mode=ExecutionMode.ACCELOS,
                          physical_groups=1, chunk=chunk,
                          sched_overhead=overhead, arrival_time=arrival)


def _open_accelos(targets):
    sim = GPUSimulator(nvidia_k20m())
    sim.open_begin(ExecutionMode.ACCELOS,
                   allocator=lambda specs: [targets["n"]] * len(specs))
    return sim


def test_nan_chunk_cost_raises_when_a_completion_draws_it():
    # the first chunk is finite; the NaN sits in the chunk a completion
    # draws, so the failing push is the one of a chunk-completion event
    sim = _open_accelos({"n": 1})
    sim.open_submit(_accelos_spec("nan", [1e-4, 1e-4, float("nan"), 1e-4]))
    sim.open_step()                 # arrival: admit, draw the first chunk
    with pytest.raises(SimulationError, match="event scheduled at NaN time"):
        sim.open_step()


def test_nan_chunk_cost_raises_in_the_inline_draw():
    # the same draw, made by open_advance's inline accelOS arm
    sim = _open_accelos({"n": 1})
    sim.open_submit(_accelos_spec("nan", [1e-4, 1e-4, float("nan"), 1e-4]))
    sim.open_step()
    with pytest.raises(SimulationError, match="event scheduled at NaN time"):
        sim.open_advance()


@pytest.mark.parametrize("process", ["open_step", "open_advance"])
def test_chunk_completion_scheduled_in_the_past_raises(process):
    # a negative dequeue overhead outweighs the second chunk's work
    sim = _open_accelos({"n": 1})
    sim.open_submit(_accelos_spec("past", [1e-2] * 2 + [1e-9] * 2,
                                  overhead=-1e-3))
    sim.open_step()
    with pytest.raises(SimulationError, match="event scheduled in the past"):
        getattr(sim, process)()


def test_firmware_start_on_a_freed_cu_rejects_a_nan_time():
    # 1024-thread groups: two fit a K20m CU, so the arrival's pass
    # starts groups 0-25 and the NaN group 26 waits on CU 0 until group
    # 0 completes; open_step's dispatch pass and open_advance's inline
    # start on the freed CU must both reject it
    def processes():
        sim = GPUSimulator(nvidia_k20m())
        sim.open_begin(ExecutionMode.HARDWARE)
        sim.open_submit(KernelExecSpec(
            "nan", 1024, [1e-4] * 26 + [float("nan")] + [1e-4] * 12, 1e6,
            16, 0))
        sim.open_step()             # the arrival's dispatch pass
        return sim
    for process in ("open_step", "open_advance"):
        sim = processes()
        with pytest.raises(SimulationError,
                           match="event scheduled at NaN time"):
            getattr(sim, process)()
        assert sim.events_processed == 2


def test_elastic_draw_rejects_a_nan_time():
    # one slot: placement draws group 0, and its completion draws the
    # NaN group 1 in open_advance's inline Elastic Kernels arm
    spec = KernelExecSpec("nan", 256, [1e-4, float("nan")], 1e6, 16, 0,
                          mode=ExecutionMode.ELASTIC, physical_groups=1)
    with pytest.raises(SimulationError, match="event scheduled at NaN time"):
        GPUSimulator(nvidia_k20m()).run([spec])


def test_event_observer_sees_every_event_once_on_either_path():
    def drive(advance):
        targets = {"n": 2}
        sim = _open_accelos(targets)
        seen = []
        def observe(time, payload):
            if isinstance(payload, tuple):          # ("arrival", run)
                seen.append((time, payload[0], payload[1].spec.name))
            else:                                   # a chunk's slot record
                seen.append((time, "chunk", payload.run.spec.name))
        sim.event_observer = observe
        sim.open_submit(_accelos_spec("a", [1e-4] * 9))
        sim.open_submit(_accelos_spec("b", [2e-4] * 5, arrival=1e-4))
        if advance:
            sim.open_drain()
        else:
            while sim.open_peek() is not None:
                sim.open_step()
        assert len(seen) == sim.events_processed
        return seen
    assert drive(advance=True) == drive(advance=False)


def test_step_on_a_drained_simulator_raises():
    sim = _open_accelos({"n": 1})
    sim.open_submit(_accelos_spec("one", [1e-4] * 4))
    sim.open_drain()
    with pytest.raises(SimulationError, match="pop from empty event queue"):
        sim.open_step()


def test_pending_shrink_retires_the_slot_at_the_chunk_boundary():
    """Resident work groups are never preempted: a shrink decided
    mid-chunk takes effect when the chunk completes, and the retiring
    slot draws no further chunk."""
    targets = {"n": 2}
    sim = _open_accelos(targets)
    run = sim.open_submit(_accelos_spec("a", [1e-4] * 8))
    sim.open_step()                 # arrival: two slots, a chunk each
    assert run.live_slots == 2
    boundary = sim.open_peek()
    targets["n"] = 1
    sim.open_submit(_accelos_spec("b", [1e-4] * 8, arrival=boundary / 20))
    sim.open_step()                 # arrival of b re-plans: a shrinks
    assert (run.live_slots, run.shrink_slots, run.completed) == (2, 1, 0)
    queued = len(sim.events)
    assert sim.open_step() == boundary
    # the slot finished its chunk, then retired instead of drawing again
    assert (run.live_slots, run.shrink_slots, run.completed) == (1, 0, 2)
    assert len(sim.events) == queued - 1
    sim.open_drain()
    assert run.finish_time is not None and run.completed == 8
