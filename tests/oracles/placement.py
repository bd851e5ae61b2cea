"""The frozen offline pre-pass: the oracle for offline placement.

Fleet runs once had a second plane beside the drive loop:
:func:`place_arrivals` walked the whole stream against a single-server
backlog estimate before any device simulated, then every device's
sub-stream was simulated on its own.  The loop now runs offline policies
through ``OfflinePolicyAdapter(mode="estimate")``; this module keeps the
pre-pass as it was, so tests can check that the loop reproduces its
placement decisions and records bit for bit
(tests/test_fleet_online.py::test_loop_reproduces_offline_path_bit_identically).
"""

from repro.accelos.placement import OnlinePlacementPolicy
from repro.api.kernels import isolated_time
from repro.api.placements import placement_from_name
from repro.api.schemes import RequestRecord, scheme_from_name
from repro.errors import SchedulingError, SimulationError
from repro.harness import FleetOpenSystemResult, OpenSystemExperiment
from repro.metrics import ExactRecordSink
from repro.sim.fleet import PlacedRequest
from repro.workloads.arrivals import ArrivalRequest


def place_arrivals(policy, arrivals, devices, estimator, ids=None):
    """Place one arrival stream across a fleet (the simulation plane).

    Walks the stream in arrival order maintaining a per-device backlog
    estimate — each device modelled as a single server working through the
    estimated isolated service times of the requests routed to it — and
    asks ``policy`` to choose a device for every unpinned request.
    ``estimator(name, device)`` supplies the service estimate;
    ``ids`` maps device ids of pinned requests to fleet indices.

    Conservation invariant: returns exactly one
    :class:`~repro.sim.fleet.PlacedRequest` per arrival, in the input
    stream's order.
    """
    if isinstance(policy, OnlinePlacementPolicy):
        raise SchedulingError(
            "policy {!r} is closed-loop-only (online); the offline "
            "pre-pass cannot drive it".format(policy.name))
    if not arrivals:
        raise SchedulingError("cannot place an empty arrival stream")
    if not devices:
        raise SchedulingError("cannot place onto an empty fleet")
    id_to_index = dict(ids) if ids is not None else {}
    policy.reset()
    busy_until = [0.0] * len(devices)
    order = sorted(range(len(arrivals)),
                   key=lambda i: (arrivals[i].time, i))
    placed = [None] * len(arrivals)
    # one estimate per distinct (kernel, device), not one per request
    estimates = {}

    def estimate(name, device_index):
        key = (name, device_index)
        value = estimates.get(key)
        if value is None:
            value = estimator(name, devices[device_index])
            estimates[key] = value
        return value

    for i in order:
        arrival = arrivals[i]
        costs = None
        if arrival.device is not None:
            if arrival.device not in id_to_index:
                raise SchedulingError(
                    "arrival pinned to unknown device {!r}".format(
                        arrival.device))
            index = id_to_index[arrival.device]
            pinned = True
        else:
            loads = [max(0.0, busy - arrival.time) for busy in busy_until]
            # pinned requests and cost-blind policies never read the cost
            # vector, so only estimate per device when the policy will
            costs = ([estimate(arrival.name, j)
                      for j in range(len(devices))]
                     if policy.uses_costs else None)
            index = policy.choose(arrival, loads,
                                  costs if costs is not None
                                  else [0.0] * len(devices))
            if not 0 <= index < len(devices):
                raise SchedulingError(
                    "policy {} chose device {} of {}".format(
                        policy.name, index, len(devices)))
            pinned = False
        penalty = policy.migration_penalty(arrival, index)
        start = max(busy_until[index], arrival.time + penalty)
        service = (costs[index] if costs is not None
                   else estimate(arrival.name, index))
        busy_until[index] = start + service
        placed[i] = PlacedRequest(i, arrival, index, penalty, pinned)
    return placed


def place(experiment, arrivals, placement):
    """Pre-pass placement decisions of one stream on a
    :class:`~repro.harness.FleetOpenSystemExperiment`'s fleet (no
    simulation)."""
    fleet = experiment.fleet
    return place_arrivals(placement_from_name(placement), arrivals,
                          fleet.devices, estimator=isolated_time,
                          ids=fleet.id_to_index())


def run_offline(experiment, arrivals, scheme, placement):
    """The pre-pass fleet run: place the whole stream, then simulate
    every device's sub-stream independently, each as a single-device
    experiment.  Returns a :class:`~repro.harness.FleetOpenSystemResult`
    like ``experiment.run``."""
    scheme_obj = scheme_from_name(scheme)
    policy = placement_from_name(placement)
    fleet = experiment.fleet
    decisions = place(experiment, arrivals, policy)
    per_device_indices = {i: [] for i in range(len(fleet))}
    for position, decision in enumerate(decisions):
        per_device_indices[decision.index].append(position)

    all_records = [None] * len(arrivals)
    device_sinks = [ExactRecordSink() for _ in fleet]
    for index, positions in per_device_indices.items():
        if not positions:
            continue
        # a migration penalty delays the request's availability on the
        # device (the buffers move first), so it shifts the effective
        # arrival; queueing delay is still charged from the original
        # arrival time below
        sub_arrivals = [
            ArrivalRequest(arrivals[p].name,
                           arrivals[p].time + decisions[p].penalty,
                           tenant=arrivals[p].tenant)
            for p in positions
        ]
        single = OpenSystemExperiment(fleet[index].device,
                                      policy=experiment.policy,
                                      saturate=experiment.saturate)
        sub_records = single.scheme_records(sub_arrivals, scheme_obj)
        for position, record in zip(positions, sub_records):
            original = arrivals[position]
            rewritten = RequestRecord(
                record.name, original.time, record.start, record.finish,
                experiment.reference_isolated(record.name),
                tenant=original.tenant)
            device_sinks[index].observe(rewritten)
            all_records[position] = rewritten
    if any(record is None for record in all_records):
        raise SimulationError("fleet run lost a request record")
    overall = ExactRecordSink()
    for record in all_records:
        overall.observe(record)
    return FleetOpenSystemResult(
        scheme_obj.name, policy.name, fleet, overall, device_sinks,
        decisions=decisions,
        migrations=sum(1 for d in decisions if d.penalty > 0))
