"""The fleet snapshot a placement policy reads: lazy fields, sealed after
the call, and each session's index of withdrawable requests.

:meth:`repro.sim.fleet.FleetSimulator._status` reads no session when it
builds a snapshot: each :class:`~repro.sim.fleet.DeviceStatus` field is
read from its session the first time the policy asks for it, and a
:class:`~repro.api.schemes.GpuOpenSession` walks only the requests that
may still be withdrawable (``_waiting``), pruning those that started.
These tests run the status checker (``tests/oracles/fleet.py``), which
compares every field a policy reads with the eager scan it replaced,
on work-stealing fleets under each execution mode; show that a field first
read after the policy call raises; and pin the calls a small accelOS
work-stealing stream makes.
"""

import re

import pytest

from repro.accelos.placement import (OfflinePolicyAdapter,
                                     WorkStealingRebalance)
from repro.api.placements import placement_from_name
from repro.api.schemes import GpuOpenSession, scheme_from_name
from repro.cl import amd_r9_295x2, derated_device, nvidia_k20m
from repro.errors import SimulationError
from repro.sim import DeviceFleet, FleetSimulator, GPUSimulator
from repro.workloads import trace_arrivals

from tests.oracles import CheckedFleetSimulator
from tests.test_event_batching import QUANTUM, _fleet_run, _policy
from tests.test_fleet_lookahead import _anchor_entries, _steal_case


def _fleet(base):
    """``base`` and a half-clock quarter of it (the fleet-steal shape)."""
    return DeviceFleet([
        ("fast", base()),
        ("slow", derated_device(base(), base().name + "-quarter",
                                clock_scale=0.5, cu_scale=0.25))])


def _entries():
    """The lookahead tests' anchor burst (every eleventh request pinned
    to the slow device), one ``QUANTUM`` later.  A device's first
    request then arrives past its clock (still 0), so a firmware device
    sets that request's dispatch window at submission, and only its
    clock keeps the request withdrawable until the arrival event."""
    return [(name, time + QUANTUM, tenant, pin)
            for name, time, tenant, pin in _anchor_entries()]


class _QueueReading(OfflinePolicyAdapter):
    """Live round-robin placement that also reads every device's queue
    at each arrival, as a queue-aware policy would.  On a firmware
    device the queue is then read while the device's first request
    waits for its clock to reach the request's arrival."""

    def __init__(self):
        super().__init__(placement_from_name("round-robin"), mode="live")

    def choose(self, arrival, status, costs):
        for device in status.devices:
            device.queued
        return super().choose(arrival, status, costs)


@pytest.mark.parametrize("placement", ["round-robin", "queue-reading"])
@pytest.mark.parametrize("scheme,base", [
    ("accelos", nvidia_k20m),
    ("baseline", nvidia_k20m),          # firmware FIFO
    ("baseline", amd_r9_295x2),         # firmware exclusive
    ("ek", nvidia_k20m),
], ids=["accelos", "baseline-fifo", "baseline-exclusive", "ek"])
def test_lazy_status_matches_the_eager_scans(scheme, base, placement):
    """Every field a policy reads in a work-stealing run with pinned
    arrivals and penalised migrations equals the eager scan, and each
    session's withdrawable index matches a full walk.  Built-in live
    round-robin placement reads only backlogs, so queues are read (and
    pruned) only by the re-balance hook, as in an unchecked run; the
    queue-reading placement reads every queue at every arrival, so under
    firmware the checks cover queues read while only the device clock
    kept a request withdrawable, where pruning on read rests on the
    clock never going back."""
    case = dict(fleet=_fleet(base), arrivals=trace_arrivals(_entries()),
                scheme=scheme, streaming=False,
                policy=lambda: WorkStealingRebalance(
                    inner=(_QueueReading() if placement == "queue-reading"
                           else _policy("round-robin", False)),
                    penalty=1e-3))
    built = []

    def checked(*args, **kwargs):
        built.append(CheckedFleetSimulator(*args, label=scheme, **kwargs))
        return built[-1]
    outcome, _ = _fleet_run(checked, case)
    simulator = built[0]
    assert len(outcome["migrations"]) >= 4
    assert all(penalty > 0 for *_, penalty in outcome["migrations"])
    # two devices at each of the 44 unpinned arrivals and each hook
    assert simulator.status_checks == 2 * (44 + len(outcome["hooks"]))
    # only what the policies read is compared: every backlog, the queues
    # they looked at, and never an active count
    reads = simulator.reads
    assert reads["backlog_seconds"] == simulator.status_checks
    assert reads["active_count"] == 0
    if placement == "queue-reading":
        assert reads["queued"] >= 2 * 44
        if scheme == "baseline":
            assert simulator.clock_held > 0
    else:
        assert 0 < reads["queued"] < simulator.status_checks


# -- a snapshot is valid only during its policy call ----------------------------

class _Keeping(WorkStealingRebalance):
    """Work stealing that keeps every snapshot it is shown, with the
    ``(backlog_seconds, queued)`` of each device that the call had read
    when it returned (``None`` where it read nothing)."""

    def __init__(self):
        super().__init__(inner=_policy("round-robin", False), penalty=1e-4)
        self.chosen = []
        self.rebalanced = []

    @staticmethod
    def _seen(status):
        return status, [(device._backlog, device._queued)
                        for device in status.devices]

    def choose(self, arrival, status, costs):
        index = super().choose(arrival, status, costs)
        self.chosen.append(self._seen(status))
        return index

    def rebalance(self, status):
        orders = super().rebalance(status)
        self.rebalanced.append(self._seen(status))
        return orders


def _kept_snapshots():
    """A ``_Keeping`` policy that ran the lookahead tests' anchor burst
    (accelOS), holding every snapshot it was shown."""
    fleet = _fleet(nvidia_k20m)
    scheme = scheme_from_name("accelos")
    sessions = [scheme.open_session(member.device) for member in fleet]
    policy = _Keeping()
    simulator = FleetSimulator(fleet, sessions, policy,
                               [session._isolated for session in sessions])
    simulator.run(trace_arrivals(_anchor_entries()),
                  lambda entry, start, finish: None)
    assert simulator.migrations
    return policy


def test_a_field_first_read_after_the_call_raises():
    """Live round-robin placement reads only the backlogs: a placement
    snapshot's queue, read after ``choose`` returned, raises and names
    the device and the snapshot's time; so does the active count of
    every snapshot, which no built-in policy reads."""
    policy = _kept_snapshots()
    status, _ = policy.chosen[-1]
    device = status.devices[1]
    with pytest.raises(SimulationError,
                       match=r"status of device slow at t={} read after "
                             r"its policy call returned: queued was never "
                             r"read".format(re.escape(repr(status.now)))):
        device.queued
    with pytest.raises(SimulationError, match=r"queued was never read"):
        device.queue_depth
    for status, _ in policy.chosen + policy.rebalanced:
        for device in status.devices:
            with pytest.raises(SimulationError,
                               match=r"device {} at t=.*: active_count was "
                                     r"never read".format(device.id)):
                device.active_count


def test_fields_read_during_the_call_stay_readable():
    """What a policy read during its call reads the same afterwards;
    what it did not read raises.  Placement read every backlog and no
    queue; each re-balance hook read every backlog and at least the
    first thief's queue.  ``repr`` shows only the fields read."""
    policy = _kept_snapshots()
    for kept, queues in ((policy.chosen, False), (policy.rebalanced, True)):
        for status, seen in kept:
            assert any(queued is not None for _, queued in seen) == queues
            for device, (backlog, queued) in zip(status.devices, seen):
                assert backlog is not None
                assert device.backlog_seconds == backlog
                if queued is None:
                    with pytest.raises(SimulationError, match="queued"):
                        device.queue_depth
                else:
                    assert device.queued is queued
                    assert device.queue_depth == len(queued)
    status, _ = policy.chosen[-1]
    assert repr(status.devices[0]).endswith("queue=? active=?>")


# -- the calls a status read makes -------------------------------------------

def test_status_reads_are_pinned(monkeypatch):
    """The anchor burst of the lookahead tests (accelOS, the K20m and
    the quarter K20m, live round-robin placement and work stealing with a
    penalty): the built-in policies never ask for an active count, every
    ``open_withdrawable`` call of a status read either reports an entry
    or prunes one, and the calls are pinned.  The eager snapshots made
    184 calls of each of ``queued``, ``backlog_seconds`` and
    ``active_count`` (two devices at 44 unpinned arrivals and 48 hooks)
    and 5,476 ``open_withdrawable`` calls; a snapshot that reads a field
    the policy did not ask for, or a ``queued`` that walks started
    requests again, moves the counts."""
    counts = dict(queued=0, backlog=0, active=0, withdrawable=0,
                  reported=0, pruned=0)
    reading = []
    queued = GpuOpenSession.queued
    backlog = GpuOpenSession.backlog_seconds
    active = GpuOpenSession.active_count
    withdrawable = GPUSimulator.open_withdrawable

    def counted_queued(self):
        counts["queued"] += 1
        before = len(self._waiting)
        reading.append(None)
        out = queued(self)
        reading.pop()
        counts["reported"] += len(out)
        counts["pruned"] += before - len(self._waiting)
        return out

    def counted_backlog(self, now):
        counts["backlog"] += 1
        return backlog(self, now)

    def counted_active(self):
        counts["active"] += 1
        reading.append(None)
        out = active(self)
        reading.pop()
        return out

    def counted_withdrawable(self, run):
        if reading:
            counts["withdrawable"] += 1
        return withdrawable(self, run)
    monkeypatch.setattr(GpuOpenSession, "queued", counted_queued)
    monkeypatch.setattr(GpuOpenSession, "backlog_seconds", counted_backlog)
    monkeypatch.setattr(GpuOpenSession, "active_count", counted_active)
    monkeypatch.setattr(GPUSimulator, "open_withdrawable",
                        counted_withdrawable)
    outcome, _ = _fleet_run(
        FleetSimulator, _steal_case(_anchor_entries(), "round-robin", 1e-4))
    assert counts["active"] == 0
    assert counts["withdrawable"] <= counts["reported"] + counts["pruned"]
    assert (len(outcome["migrations"]), len(outcome["hooks"])) == (10, 48)
    assert counts == dict(queued=96, backlog=184, active=0,
                          withdrawable=184, reported=136, pruned=48)


@pytest.mark.parametrize("scheme", ["accelos", "baseline"])
def test_harvest_drops_requests_no_status_read_pruned(scheme):
    """A lone device builds no snapshot, so nothing prunes the session's
    withdrawable index: harvest must drop each finished request from it,
    or the index grows with the stream."""
    fleet = DeviceFleet([("dev0", nvidia_k20m())])
    session = scheme_from_name(scheme).open_session(fleet[0].device)
    simulator = FleetSimulator(fleet, [session], None, [session._isolated])
    records = []
    count = simulator.run(trace_arrivals(_entries()),
                          lambda entry, start, finish: records.append(entry))
    assert count == len(records) == 48
    assert session._entries == session._waiting == {}


@pytest.mark.parametrize("scheme", ["accelos", "baseline"])
def test_checked_fleet_without_queue_reads_keeps_its_index_clean(scheme):
    """Live round-robin placement with no re-balancer reads only
    backlogs, so no queue is ever read and nothing is pruned: under the
    status checker, a request that a harvest or a withdraw left in the
    index fails at the next snapshot, and the index ends empty."""
    fleet = _fleet(nvidia_k20m)
    sessions = [scheme_from_name(scheme).open_session(member.device)
                for member in fleet]
    simulator = CheckedFleetSimulator(
        fleet, sessions, _policy("round-robin", False),
        [session._isolated for session in sessions], label=scheme)
    count = simulator.run(trace_arrivals(_entries()),
                          lambda entry, start, finish: None)
    assert count == 48
    assert simulator.reads["queued"] == 0
    assert simulator.status_checks == 2 * 44
    for session in sessions:
        assert session._entries == session._waiting == {}
