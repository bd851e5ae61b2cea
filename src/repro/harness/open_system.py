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
a one-member fleet with no placement policy.  Both experiments' ``run``
and ``run_stream`` enter one body (:meth:`_LoopExperiment._run`), and
runs differ only in what is attached to the loop:

* the **sinks** (:mod:`repro.metrics.sketches`) — exact runs fill
  exact record sinks in stream-position order; streaming runs fill
  bounded-memory sinks (or a custom factory's) as requests finish.
  Every result is built from its sinks;
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

from repro.accelos.adaptive import SchedulingPolicy
from repro.accelos.placement import (OfflinePolicyAdapter,
                                     OnlinePlacementPolicy)
# re-exported under their historical home: these primitives now live in
# repro.api.kernels so schemes below the harness can share them
from repro.api.kernels import (arrival_rate_for_load,  # noqa: F401
                               fleet_arrival_rate_for_load, isolated_table,
                               IsolatedTable, mean_isolated_service,
                               requirements_from_spec, sharing_allocator)
from repro.api.placements import (check_placement_mode, placement_from_name,
                                  rebalancer_from_name)
from repro.api.schemes import (RequestRecord,  # noqa: F401
                               device_loop, loop_records, open_scheme_names,
                               record_sink, require_session, scheme_from_name)
from repro.errors import SimulationError
from repro.metrics import ExactRecordSink, StreamingRecordSink
from repro.sim.fleet import DeviceFleet, FleetSimulator


class OpenSystemResult:
    """Stream-level metrics of one scheme over one arrival stream.

    Built from a non-empty record sink: the fields are its
    :class:`~repro.metrics.sketches.SinkMetrics`.  From an
    :class:`~repro.metrics.sketches.ExactRecordSink` every metric is
    computed over the full population; from a
    :class:`~repro.metrics.sketches.StreamingRecordSink` the percentile
    fields are P² estimates and ``records``/``slowdowns`` are ``None``.
    The METRICS registry and every report read either alike.
    """

    def __init__(self, scheme, device_name, sink):
        if sink.count == 0:
            raise SimulationError("no request records")
        self.scheme = scheme
        self.device_name = device_name
        vars(self).update(sink.reduce()._asdict())

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


class _LoopExperiment:
    """The one run body of both experiments.

    Subclasses provide ``_loop(scheme, ledger, **settings)`` (the
    validated drive loop), ``_reference`` (the slowdown denominator
    table), ``_per_device`` (whether each fleet member gets its own
    sinks) and ``_result(...)``.
    """

    _per_device = False

    def _run(self, arrivals, scheme, exact, sink_factory=None, ledger=None,
             **settings):
        """Validate, build the loop, deliver every record to the run's
        sinks, build the result and attach the ledger report.

        Exact runs hold each ``(entry, record)`` at ``entry.position``
        and deliver them in stream order after the drain, so exact sinks
        reduce in submission order; streaming runs deliver as the loop
        harvests.  ``events_processed`` is the run's engine event count
        (observability only: ``benchmarks/bench_engine.py`` reads it).
        """
        scheme_obj = scheme_from_name(scheme)
        simulator = self._loop(scheme_obj, ledger, **settings)
        factory = (ExactRecordSink if exact
                   else sink_factory or StreamingRecordSink)
        overall = factory()
        device_sinks = ([factory() for _ in self.fleet] if self._per_device
                        else [])
        migrated = 0

        def deliver(entry, record):
            nonlocal migrated
            overall.observe(record)
            if device_sinks:
                device_sinks[entry.index].observe(record)
                if entry.penalty > 0:
                    migrated += 1

        held = None
        if exact:
            held = [None] * len(arrivals)

            def hold(entry, record):
                held[entry.position] = (entry, record)
            simulator.run(arrivals, record_sink(self._reference.__getitem__,
                                                hold))
            for entry, record in held:
                deliver(entry, record)
        else:
            simulator.run_stream(arrivals, record_sink(
                self._reference.__getitem__, deliver))
        self.events_processed = simulator.events_processed()
        result = self._result(scheme_obj.name, simulator, overall,
                              device_sinks, held, migrated)
        if ledger is not None:
            result.attribution = ledger.report()
        return result


class OpenSystemExperiment(_LoopExperiment):
    """Runs one arrival stream under registered scheduling schemes."""

    def __init__(self, device, policy=SchedulingPolicy.ADAPTIVE,
                 saturate=True):
        self.device = device
        self.policy = policy
        self.saturate = saturate
        self._reference = isolated_table(device)

    # -- public ------------------------------------------------------------

    def run(self, arrivals, scheme, ledger=None):
        """Simulate ``arrivals`` (a list of :class:`ArrivalRequest`) under
        ``scheme`` (a registered name or scheme object); returns an
        :class:`OpenSystemResult` with records in submission order.

        With a ``ledger`` (:class:`repro.attribution.AttributionLedger`)
        the loop reports its events to it — identical timings — and the
        result gains an ``attribution`` report.  Like every open-system
        run, the scheme needs an ``open_session``.
        """
        return self._run(arrivals, scheme, True, ledger=ledger)

    def scheme_records(self, arrivals, scheme):
        """Per-request records of one scheme over one stream, in
        submission order (:func:`~repro.api.schemes.loop_records`).
        Unknown scheme names raise listing the registered schemes."""
        return loop_records(scheme_from_name(scheme), arrivals, self.device,
                            self.policy, self.saturate)

    def run_stream(self, arrivals, scheme, sink_factory=None, ledger=None):
        """Streaming :meth:`run`: consume a *lazy* time-ordered arrival
        iterator incrementally, accumulate metrics in a record sink and
        never retain the stream — bounded memory at any request count.

        ``sink_factory`` makes the record sink (default
        :class:`~repro.metrics.sketches.StreamingRecordSink`; the
        contract is in :mod:`repro.metrics.sketches`), and the result is
        built from it (``records is None`` by default).  With a
        ``ledger`` the loop reports its events and finished records to
        it, and the result gains an ``attribution`` report — still
        bounded memory (the ledger is O(#tenants·#devices)).
        """
        return self._run(arrivals, scheme, False, sink_factory, ledger)

    def _loop(self, scheme_obj, ledger):
        return device_loop(scheme_obj, self.device, self.policy,
                           self.saturate, ledger)

    def _result(self, scheme, simulator, overall, device_sinks, held,
                migrated):
        return OpenSystemResult(scheme, self.device.name, overall)

    def run_all(self, arrivals, schemes=None):
        """All schemes over one stream: ``{scheme: OpenSystemResult}``.
        ``schemes=None`` means every registered scheme with an
        ``open_session``, resolved at call time — user registrations
        included."""
        if schemes is None:
            schemes = open_scheme_names()
        return {scheme_from_name(s).name: self.run(arrivals, s)
                for s in schemes}


# -- multi-device fleets ------------------------------------------------------

class FleetOpenSystemResult:
    """One scheme + placement policy over one stream on one fleet.

    Built from an ``overall`` record sink and ``device_sinks``, one per
    fleet member in fleet order.  ``overall`` aggregates every request
    fleet-wide; ``per_device`` maps device ids (only those that served
    at least one request) to their own :class:`OpenSystemResult`.  All
    slowdowns are normalised by the best isolated time across the fleet,
    so the heterogeneity cost of a placement decision is visible in
    ANTT/unfairness.

    ``decisions`` is the loop's :class:`~repro.sim.fleet.PlacedRequest`
    per arrival in stream order (``None`` on streaming runs, which do
    not retain them); ``migrations`` counts requests charged a migration
    penalty, ``rebalances`` how many times the re-balance hook moved a
    request after its initial placement.
    """

    def __init__(self, scheme, placement_name, fleet, overall, device_sinks,
                 decisions=None, migrations=0, rebalances=0):
        self.scheme = scheme
        self.placement = placement_name
        self.fleet_ids = list(fleet.ids)
        self.overall = OpenSystemResult(
            scheme, "fleet({})".format("+".join(fleet.ids)), overall)
        self.per_device = {
            device_id: OpenSystemResult(scheme, device_id, sink)
            for device_id, sink in zip(fleet.ids, device_sinks)
            if sink.count
        }
        self.decisions = decisions
        self.migrations = migrations
        self.rebalances = rebalances
        total = float(overall.count)
        self.device_share = {
            device_id: sink.count / total
            for device_id, sink in zip(fleet.ids, device_sinks)
        }

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


class FleetOpenSystemExperiment(_LoopExperiment):
    """Open-system arrival streams against a heterogeneous device fleet.

    The fleet runs in the drive loop
    (:class:`repro.sim.fleet.FleetSimulator`): every device's scheme
    session shares one event timeline and the placement policy is
    consulted at each arrival.  Two placement modes (``mode=``, see
    :data:`repro.api.placements.PLACEMENT_MODES`):

    * ``"auto"`` (default) — an offline policy runs in *estimate* mode
      (:class:`~repro.accelos.placement.OfflinePolicyAdapter`: routing
      against a single-server backlog estimate); an online policy gets
      live fleet state and the re-balance hook.
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

    _per_device = True

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
        return self._run(arrivals, scheme, True, ledger=ledger,
                         placement=placement, mode=mode, rebalance=rebalance)

    def run_stream(self, arrivals, scheme, placement, mode="auto",
                   rebalance=None, sink_factory=None, ledger=None):
        """Streaming :meth:`run`: consume a lazy time-ordered arrival
        iterator through the loop in bounded memory.

        Completed requests drain into the overall and per-device record
        sinks (``sink_factory``, as for
        :meth:`OpenSystemExperiment.run_stream`) as they finish, and the
        :class:`FleetOpenSystemResult` is built from them (``records``
        and ``decisions`` are ``None``).  With a ``ledger`` the loop
        reports its events and finished records to it, and the result
        gains an ``attribution`` report.
        """
        return self._run(arrivals, scheme, False, sink_factory, ledger,
                         placement=placement, mode=mode, rebalance=rebalance)

    def _loop(self, scheme_obj, ledger, placement, mode, rebalance):
        """Validate the placement settings and build the drive loop over
        the fleet's sessions."""
        check_placement_mode(mode)
        policy = placement_from_name(placement)
        is_online = isinstance(policy, OnlinePlacementPolicy)
        if rebalance in ("none",):
            rebalance = None
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

    def _result(self, scheme, simulator, overall, device_sinks, held,
                migrated):
        return FleetOpenSystemResult(
            scheme, simulator.policy.name, self.fleet, overall, device_sinks,
            decisions=None if held is None else [entry for entry, _ in held],
            migrations=migrated, rebalances=len(simulator.migrations))

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
