"""Open-system experiments: continuous arrivals under pluggable schemes.

The closed-batch harness (:mod:`repro.harness.experiment`) submits every
kernel at t=0 and measures one drain; a real accelOS deployment instead
serves a *stream* of requests.  This module evaluates that steady-state
regime with the paper's STP/ANTT methodology (Eyerman & Eeckhout [10])
extended with per-request queueing delay.

Scheme execution itself lives on the registered scheme objects
(:mod:`repro.api.schemes`): ``baseline`` (firmware FIFO/exclusive queue),
``ek`` (Elastic Kernels' serialised merged launches) and ``accelos``
(the §3 sharing algorithm re-run on every arrival and completion) are
pre-registered, and any user-registered scheme runs through these
experiments unchanged — the harness only zips records into metrics.

Every run goes through one drive loop,
:class:`repro.sim.fleet.FleetSimulator`: advance the devices to the next
arrival, harvest what finished, submit the arrival.  A single device is
a one-member fleet with no placement policy.  Runs differ only in what
is attached to the loop:

* the **sink** — exact runs put each record at its stream position (the
  retained list every exact metric is computed from); streaming runs
  feed a :class:`~repro.metrics.sketches.StreamingRecordSink`;
* the **observer** — with a ledger
  (:class:`repro.attribution.AttributionLedger`) the loop reports every
  submit, migration, finish and finished record to it, and the result
  gains an ``attribution`` report.

Per-request metrics measure turnaround from *arrival* (queueing included),
normalised by the kernel's isolated execution time — the open-system
analogue of the paper's individual slowdown.

**Inputs:** an arrival stream (:class:`repro.workloads.arrivals.ArrivalRequest`
lists, usually from the seeded generators) plus a device — or, for
:class:`FleetOpenSystemExperiment`, a :class:`repro.sim.fleet.DeviceFleet`
and a placement policy.  **Invariants:** records are returned in the
stream's submission order, one per arrival (conservation); every
experiment is a pure function of its inputs (same stream → bit-identical
metrics); the accelOS scheme re-runs the §3 allocator on every arrival
and completion of the device serving the request.

Fleet runs place each request on exactly one device and report both
per-device results and fleet-wide aggregates.  Fleet slowdowns are
normalised by the *best* isolated time across the fleet, so being routed
to a slow device legitimately counts as slowdown — the user-perceived
metric for a heterogeneous deployment.
"""

from __future__ import annotations

import numpy as np

from repro.accelos.adaptive import SchedulingPolicy
from repro.accelos.placement import (OfflinePolicyAdapter,
                                     OnlinePlacementPolicy, PlacementDecision)
# re-exported under their historical home: these primitives now live in
# repro.api.kernels so schemes below the harness can share them
from repro.api.kernels import (arrival_rate_for_load,  # noqa: F401
                               fleet_arrival_rate_for_load, isolated_table,
                               IsolatedTable, mean_isolated_service,
                               requirements_from_spec, sharing_allocator)
from repro.api.placements import placement_from_name, rebalancer_from_name
from repro.api.schemes import (RequestRecord,  # noqa: F401
                               device_loop, loop_records, open_scheme_names,
                               record_sink, require_session,
                               scheme_from_name)
from repro.errors import SimulationError
from repro.metrics import (StreamingRecordSink, antt, individual_slowdowns,
                           request_tails, stp, system_unfairness)
from repro.sim.fleet import DeviceFleet, FleetSimulator


class OpenSystemResult:
    """Stream-level metrics of one scheme over one arrival stream.

    Built either from a retained record list (the exact path — every
    metric computed over the full population) or from a
    :class:`~repro.metrics.sketches.StreamingRecordSink`
    (:meth:`from_sink` — bounded-memory online accumulators, percentile
    fields are P² estimates, ``records``/``slowdowns`` are ``None``).
    Both forms expose the identical metric surface, so the METRICS
    registry and every report work unchanged.
    """

    def __init__(self, scheme, device_name, records):
        if not records:
            raise SimulationError("no request records")
        self.scheme = scheme
        self.device_name = device_name
        self.records = records
        self.count = len(records)
        turnarounds = [r.turnaround for r in records]
        isolated = [r.isolated for r in records]
        self.slowdowns = individual_slowdowns(turnarounds, isolated)
        self.unfairness = system_unfairness(self.slowdowns)
        self.antt = antt(self.slowdowns)
        self.stp = stp(self.slowdowns)
        self.mean_turnaround = float(np.mean(turnarounds))
        self.mean_queueing_delay = float(
            np.mean([r.queueing_delay for r in records]))
        self.makespan = max(r.finish for r in records)
        (self.slowdown_tails, self.queueing_tails,
         self.tenant_slowdown_tails) = request_tails(records)

    @classmethod
    def from_sink(cls, scheme, device_name, sink):
        """Build the streaming twin from a non-empty record sink."""
        if sink.count == 0:
            raise SimulationError("no request records")
        stats = sink.slowdown.stats
        if stats.min <= 0:
            # mirrors metrics.fairness.system_unfairness
            raise SimulationError("slowdowns must be positive")
        self = object.__new__(cls)
        self.scheme = scheme
        self.device_name = device_name
        self.records = None             # not retained: bounded memory
        self.count = sink.count
        self.slowdowns = None
        self.unfairness = stats.max / stats.min
        self.antt = stats.mean
        self.stp = sink.inverse_slowdown_sum
        self.mean_turnaround = sink.turnaround.mean
        self.mean_queueing_delay = sink.queueing.stats.mean
        self.makespan = sink.finish.max
        self.slowdown_tails = sink.slowdown.summary()
        self.queueing_tails = sink.queueing.summary()
        self.tenant_slowdown_tails = sink.tenant_summaries()
        return self

    @property
    def p99_slowdown(self):
        """The headline tail metric: 99th-percentile request slowdown."""
        return self.slowdown_tails.p99

    @property
    def request_throughput(self):
        """Completed requests per second of simulated time."""
        return self.count / self.makespan

    def __repr__(self):
        return ("<OpenSystemResult {} {} reqs: U={:.2f} ANTT={:.2f}>"
                .format(self.scheme, self.count, self.unfairness,
                        self.antt))


class OpenSystemExperiment:
    """Runs one arrival stream under registered scheduling schemes."""

    def __init__(self, device, policy=SchedulingPolicy.ADAPTIVE,
                 saturate=True):
        self.device = device
        self.policy = policy
        self.saturate = saturate

    # -- public ------------------------------------------------------------

    def run(self, arrivals, scheme, ledger=None):
        """Simulate ``arrivals`` (a list of :class:`ArrivalRequest`) under
        ``scheme`` (a registered name or scheme object); returns an
        :class:`OpenSystemResult` with records in submission order.

        With a ``ledger`` (:class:`repro.attribution.AttributionLedger`)
        the loop reports its events to it — identical timings — and the
        result gains an ``attribution`` report; the scheme needs an
        ``open_session``.
        """
        scheme_obj = scheme_from_name(scheme)
        if ledger is None:
            records = self.scheme_records(arrivals, scheme_obj)
        else:
            records = loop_records(scheme_obj, arrivals, self.device,
                                   self.policy, self.saturate, ledger)
        return _attributed(OpenSystemResult(
            scheme_obj.name, self.device.name, records), ledger)

    def scheme_records(self, arrivals, scheme):
        """Per-request records of one scheme over one stream (the
        scheme's ``open_records``).  Unknown scheme names raise listing
        the registered schemes."""
        if not arrivals:
            raise SimulationError("empty arrival stream")
        return scheme_from_name(scheme).open_records(
            arrivals, self.device, policy=self.policy,
            saturate=self.saturate)

    def run_stream(self, arrivals, scheme, sink_factory=None, ledger=None):
        """Streaming :meth:`run`: consume a *lazy* time-ordered arrival
        iterator incrementally, accumulate metrics in a record sink and
        never retain the stream — bounded memory at any request count.

        The scheme must support ``open_session``.  Returns an
        :class:`OpenSystemResult` built
        :meth:`~OpenSystemResult.from_sink` (``records is None``).  With
        a ``ledger`` the loop reports its events and finished records to
        it, and the result gains an ``attribution`` report — still
        bounded memory (the ledger is O(#tenants·#devices)).
        """
        scheme_obj = scheme_from_name(scheme)
        simulator = device_loop(scheme_obj, self.device, self.policy,
                                self.saturate, ledger)
        sink = (sink_factory or StreamingRecordSink)()
        simulator.run_stream(arrivals, record_sink(
            isolated_table(self.device).__getitem__,
            lambda entry, record: sink.observe(record)))
        # observability only: how many engine events the stream cost
        # (read by benchmarks/bench_engine.py for events/sec)
        self.events_processed = simulator.events_processed()
        return _attributed(OpenSystemResult.from_sink(
            scheme_obj.name, self.device.name, sink), ledger)

    def run_all(self, arrivals, schemes=None):
        """All schemes over one stream: ``{scheme: OpenSystemResult}``.
        ``schemes=None`` means every registered *open-capable* scheme,
        resolved at call time — user registrations included."""
        if schemes is None:
            schemes = open_scheme_names()
        return {scheme_from_name(s).name: self.run(arrivals, s)
                for s in schemes}


# -- multi-device fleets ------------------------------------------------------

class FleetOpenSystemResult:
    """One scheme + placement policy over one stream on one fleet.

    ``overall`` aggregates every request fleet-wide; ``per_device`` maps
    device ids (only those that served at least one request) to their own
    :class:`OpenSystemResult`.  All slowdowns are normalised by the best
    isolated time across the fleet, so the heterogeneity cost of a
    placement decision is visible in ANTT/unfairness.
    """

    def __init__(self, scheme, placement_name, fleet, records_by_device,
                 all_records, decisions, rebalances=0):
        self.scheme = scheme
        self.placement = placement_name
        self.fleet_ids = list(fleet.ids)
        self.overall = OpenSystemResult(
            scheme, "fleet({})".format("+".join(fleet.ids)), all_records)
        self.per_device = {
            device_id: OpenSystemResult(scheme, device_id, records)
            for device_id, records in records_by_device.items() if records
        }
        self.decisions = decisions
        self.migrations = sum(1 for d in decisions if d.penalty > 0)
        # closed-loop only: how many requests the re-balance hook moved
        # between devices after their initial placement
        self.rebalances = rebalances
        self.device_share = {
            device_id: len(records_by_device.get(device_id, ())) /
            float(len(all_records))
            for device_id in fleet.ids
        }

    @classmethod
    def from_sinks(cls, scheme, placement_name, fleet, overall_sink,
                   device_sinks, migrations=0, rebalances=0):
        """Build the streaming twin from per-device record sinks.

        ``decisions`` is ``None`` (per-arrival decisions are not retained
        in streaming mode); ``migrations``/``rebalances`` arrive as
        counts accumulated by the streaming loop.
        """
        self = object.__new__(cls)
        self.scheme = scheme
        self.placement = placement_name
        self.fleet_ids = list(fleet.ids)
        self.overall = OpenSystemResult.from_sink(
            scheme, "fleet({})".format("+".join(fleet.ids)), overall_sink)
        self.per_device = {
            device_id: OpenSystemResult.from_sink(scheme, device_id, sink)
            for device_id, sink in device_sinks.items() if sink.count
        }
        self.decisions = None
        self.migrations = migrations
        self.rebalances = rebalances
        total = float(self.overall.count)
        self.device_share = {
            device_id: (device_sinks[device_id].count / total
                        if device_id in device_sinks else 0.0)
            for device_id in fleet.ids
        }
        return self

    def __getattr__(self, attr):
        # convenience passthrough: fleet.antt == fleet.overall.antt
        if attr in ("antt", "stp", "unfairness", "mean_turnaround",
                    "mean_queueing_delay", "records", "slowdowns",
                    "makespan", "request_throughput", "slowdown_tails",
                    "queueing_tails", "tenant_slowdown_tails",
                    "p99_slowdown", "count"):
            return getattr(self.overall, attr)
        raise AttributeError(attr)

    def __repr__(self):
        return ("<FleetOpenSystemResult {}/{} {} reqs on {} devices: "
                "U={:.2f} ANTT={:.2f}>".format(
                    self.scheme, self.placement, self.overall.count,
                    len(self.per_device), self.overall.unfairness,
                    self.overall.antt))


class FleetOpenSystemExperiment:
    """Open-system arrival streams against a heterogeneous device fleet.

    The fleet runs in the drive loop
    (:class:`repro.sim.fleet.FleetSimulator`): every device's scheme
    session shares one event timeline and the placement policy is
    consulted at each arrival.  Three placement modes (``mode=``):

    * ``"auto"`` (default) — an offline policy runs in *estimate* mode
      (:class:`~repro.accelos.placement.OfflinePolicyAdapter`: routing
      against a single-server backlog estimate); an online policy gets
      live fleet state and the re-balance hook.
    * ``"offline"`` — the same estimate mode, with online policies,
      re-balancing and attribution rejected.
    * ``"online"`` — force live-state placement: online policies run
      natively, offline policies are adapted with live loads.

    ``rebalance`` names a registered re-balancer
    (:func:`repro.api.placements.rebalancer_names`) wrapped around the
    policy; it requires live-state placement (an online policy, or
    ``mode="online"``).  The scheme must implement ``open_session``.

    Pinned requests are honoured in every mode and never re-balanced;
    migration penalties delay a request's availability on its new
    device.  Deterministic end to end: placement has no RNG and device
    simulation is event-driven.
    """

    def __init__(self, fleet, policy=SchedulingPolicy.ADAPTIVE,
                 saturate=True):
        if not isinstance(fleet, DeviceFleet):
            fleet = DeviceFleet(fleet)
        self.fleet = fleet
        self.policy = policy
        self.saturate = saturate
        tables = self._tables = [isolated_table(m.device) for m in fleet]
        self._reference = IsolatedTable(
            lambda name: min(table[name] for table in tables))

    def reference_isolated(self, name):
        """Best isolated time across the fleet: the slowdown denominator."""
        return self._reference[name]

    # -- simulation --------------------------------------------------------

    def run(self, arrivals, scheme, placement, mode="auto", rebalance=None,
            ledger=None):
        """One scheme over one stream under one placement policy.

        ``placement`` is a registered name or a policy instance (offline
        or online protocol); ``mode`` and ``rebalance`` are described on
        the class.  With a ``ledger``
        (:class:`repro.attribution.AttributionLedger`) the loop reports
        placement/migration/completion events to it and the result gains
        an ``attribution`` report.
        """
        if not arrivals:
            raise SimulationError("empty arrival stream")
        scheme_obj = scheme_from_name(scheme)
        simulator = self._loop(scheme_obj, placement, mode, rebalance,
                               ledger)
        records = [None] * len(arrivals)
        placed = [None] * len(arrivals)

        def observe(entry, record):
            records[entry.position] = record
            placed[entry.position] = entry
        simulator.run(arrivals, record_sink(self.reference_isolated,
                                            observe))
        records_by_device = {device_id: [] for device_id in self.fleet.ids}
        decisions = []
        for record, entry in zip(records, placed):
            records_by_device[self.fleet[entry.index].id].append(record)
            decisions.append(PlacementDecision(
                entry.arrival, entry.index, entry.penalty, entry.pinned))
        return _attributed(FleetOpenSystemResult(
            scheme_obj.name, simulator.policy.name, self.fleet,
            records_by_device, records, decisions,
            rebalances=len(simulator.migrations)), ledger)

    def run_stream(self, arrivals, scheme, placement, mode="auto",
                   rebalance=None, sink_factory=None, ledger=None):
        """Streaming :meth:`run`: consume a lazy time-ordered arrival
        iterator through the loop in bounded memory.

        ``mode="offline"`` is rejected (as by the spec's streaming
        metrics mode); completed requests drain into per-device record
        sinks as they finish.  Returns a :class:`FleetOpenSystemResult`
        built :meth:`~FleetOpenSystemResult.from_sinks` (``records`` and
        ``decisions`` are ``None``).  With a ``ledger`` the loop reports
        its events and finished records to it, and the result gains an
        ``attribution`` report.
        """
        if mode not in ("auto", "online"):
            raise SimulationError(
                "streaming fleet runs are closed-loop only: placement "
                "mode must be 'auto' or 'online', got {!r}".format(mode))
        scheme_obj = scheme_from_name(scheme)
        simulator = self._loop(scheme_obj, placement, mode, rebalance,
                               ledger)
        factory = sink_factory or StreamingRecordSink
        overall = factory()
        device_sinks = {device_id: factory()
                        for device_id in self.fleet.ids}
        migrated = [0]

        def observe(entry, record):
            overall.observe(record)
            device_sinks[self.fleet[entry.index].id].observe(record)
            if entry.penalty > 0:
                migrated[0] += 1
        simulator.run_stream(arrivals, record_sink(self.reference_isolated,
                                                   observe))
        # observability only: engine events summed over the fleet's
        # sessions (read by benchmarks/bench_engine.py for events/sec)
        self.events_processed = simulator.events_processed()
        return _attributed(FleetOpenSystemResult.from_sinks(
            scheme_obj.name, simulator.policy.name, self.fleet, overall,
            device_sinks, migrations=migrated[0],
            rebalances=len(simulator.migrations)), ledger)

    def _loop(self, scheme_obj, placement, mode, rebalance, ledger):
        """Validate the placement settings and build the drive loop over
        the fleet's sessions (shared by the exact and streaming runs)."""
        if mode not in ("auto", "offline", "online"):
            raise SimulationError(
                "placement mode must be 'auto', 'offline' or 'online', "
                "got {!r}".format(mode))
        policy = placement_from_name(placement)
        is_online = isinstance(policy, OnlinePlacementPolicy)
        if rebalance in ("none",):
            rebalance = None
        if mode == "offline":
            if ledger is not None:
                raise SimulationError(
                    "attribution needs the closed loop's event timeline; "
                    "offline placement cannot be attributed")
            if is_online:
                raise SimulationError(
                    "placement {!r} is closed-loop-only; drop "
                    "mode='offline' or pick an offline policy".format(
                        policy.name))
            if rebalance is not None:
                raise SimulationError(
                    "re-balancing needs the closed loop; drop "
                    "mode='offline' or the rebalance setting")
        if mode == "online" and not is_online:
            # offline choose logic fed live simulator state
            policy = OfflinePolicyAdapter(policy, mode="live")
        elif not is_online:
            # the single-server backlog estimate
            policy = OfflinePolicyAdapter(policy, mode="estimate")
        if rebalance is not None:
            if not (is_online or mode == "online"):
                raise SimulationError(
                    "re-balancing needs live-state placement: use an "
                    "online policy or mode='online'")
            policy = rebalancer_from_name(rebalance)(policy)
        require_session(scheme_obj)
        sessions = [
            scheme_obj.open_session(member.device, policy=self.policy,
                                    saturate=self.saturate)
            for member in self.fleet
        ]
        return FleetSimulator(self.fleet, sessions, policy, self._tables,
                              ledger=ledger)

    def run_all(self, arrivals, placement, schemes=None, mode="auto",
                rebalance=None):
        """All schemes over one stream: ``{scheme: FleetOpenSystemResult}``.
        ``schemes=None`` means every registered open-capable scheme, at
        call time."""
        if schemes is None:
            schemes = open_scheme_names()
        return {scheme_from_name(s).name:
                self.run(arrivals, s, placement, mode=mode,
                         rebalance=rebalance)
                for s in schemes}

    def run_policies(self, arrivals, scheme, policies, mode="auto",
                     rebalance=None):
        """One scheme under several placement policies:
        ``{policy_name: FleetOpenSystemResult}``."""
        results = {}
        for policy in policies:
            policy = placement_from_name(policy)
            results[policy.name] = self.run(arrivals, scheme, policy,
                                            mode=mode, rebalance=rebalance)
        return results


def _attributed(result, ledger):
    """Attach the ledger's report to a result (attributed runs only)."""
    if ledger is not None:
        result.attribution = ledger.report()
    return result
