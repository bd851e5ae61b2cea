"""A heterogeneous fleet of simulated devices, and the one drive loop.

One :class:`~repro.sim.gpu.GPUSimulator` models one accelerator; a fleet
models the deployment reality of the ROADMAP's north star — many devices
of mixed speed and size serving one request stream.  Two pieces live
here:

* :class:`DeviceFleet` — the topology: N devices behind one placement
  boundary, each keeping its **own** simulator, allocator state and §3
  guarantees — nothing about single-device simulation changes;
* :class:`FleetSimulator` — the **one drive loop** every open-system
  run goes through: advance the devices to the next arrival, harvest
  what finished, place and submit the arrival.  Every device's session
  is merged onto one event timeline, the placement policy is consulted
  *at each arrival* against live per-device state, and a re-balance
  hook fires at completion/idle events so still-queued requests may
  migrate between devices (charged a migration penalty).  A single
  device is a one-member fleet with no policy; exact, streaming and
  attributed runs differ only in the record callback (the caller's
  sink) and the ledger observer attached.

The loop is deliberately scheme-agnostic: it drives duck-typed *device
sessions* (the incremental advance-to-next-event interface of
:meth:`repro.sim.gpu.GPUSimulator.open_begin` and friends, wrapped per
scheduling scheme by :mod:`repro.api.schemes`) and a duck-typed
*placement policy* (:mod:`repro.accelos.placement` defines the online
protocol and adapts offline policies to it), so this module stays below
both the accelos and api layers.

Invariants: a fleet is non-empty, device ids are unique, and a request is
simulated on exactly one device (conservation — a migrated request is
withdrawn from its old device before it is submitted to the new one, and
every placed request is harvested exactly once); devices never advance
past an arrival that could still be placed on them (causality); the
whole loop is deterministic — no RNG, ties broken by fleet index.
"""

from __future__ import annotations

from repro.errors import SchedulingError, SimulationError
from repro.sim.gpu import device_cost_scale


class FleetDevice:
    """One fleet member: a device spec plus its fleet-unique id.

    ``cost_scale`` is the factor turning reference (K20m) work-group costs
    into this device's costs — the fleet's measure of relative speed
    (bigger scale = slower device).
    """

    __slots__ = ("id", "device", "cost_scale")

    def __init__(self, device, device_id=None):
        self.id = device_id if device_id is not None else device.name
        self.device = device
        self.cost_scale = device_cost_scale(device)

    @property
    def relative_speed(self):
        """Device throughput relative to the reference device (K20m = 1.0
        per CU, scaled by the CU count)."""
        return self.device.num_cus / self.cost_scale

    def __repr__(self):
        return "<FleetDevice {} ({} CUs, {:.2f}x ref)>".format(
            self.id, self.device.num_cus, self.relative_speed)


class DeviceFleet:
    """N per-device simulators behind one placement boundary.

    Constructed from device specs or ``(id, spec)`` pairs:

    >>> fleet = DeviceFleet([nvidia_k20m(),
    ...                      ("slow", derated_device(nvidia_k20m(),
    ...                                              "K20m-derated", 0.5))])

    The fleet itself holds no scheduling state — per-device simulators are
    created fresh by whoever runs an experiment — so one fleet object can
    drive any number of independent experiments deterministically.
    """

    def __init__(self, devices):
        members = []
        for entry in devices:
            if isinstance(entry, FleetDevice):
                members.append(entry)
            elif isinstance(entry, tuple):
                device_id, device = entry
                members.append(FleetDevice(device, device_id))
            else:
                members.append(FleetDevice(entry))
        if not members:
            raise SimulationError("a fleet needs at least one device")
        ids = [m.id for m in members]
        if len(set(ids)) != len(ids):
            raise SimulationError(
                "fleet device ids must be unique, got {}".format(ids))
        self.members = members
        # id -> fleet index, precomputed once: index_of runs per arrival
        # (pinned requests, session routing), a linear scan per call made
        # fleet-size lookups O(N^2) over a stream
        self._index_by_id = {m.id: i for i, m in enumerate(members)}

    # -- container surface -------------------------------------------------

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __getitem__(self, index):
        return self.members[index]

    @property
    def ids(self):
        return [m.id for m in self.members]

    @property
    def devices(self):
        return [m.device for m in self.members]

    def index_of(self, device_id):
        try:
            return self._index_by_id[device_id]
        except KeyError:
            raise SimulationError(
                "no device {!r} in fleet {}".format(device_id, self.ids))

    def id_to_index(self):
        """``{device_id: fleet index}`` for pinned-placement lookups."""
        return dict(self._index_by_id)

    # -- properties the harness and benchmarks reason about ----------------

    @property
    def homogeneous(self):
        """True when every member's spec is identical — including memory
        bandwidth and firmware scheduler policy, which change simulated
        timing even at equal compute capacity."""
        first = self.members[0].device
        return all(m.device == first for m in self.members)

    def __repr__(self):
        return "<DeviceFleet {} devices: {}>".format(
            len(self.members), ", ".join(self.ids))


# -- closed-loop fleet co-simulation ------------------------------------------
#
# Device-session protocol (duck-typed; implemented per scheduling scheme
# in repro.api.schemes):
#
#   submit(key, arrival, effective_time)  one request enters this device
#   peek() -> float | None                next event time (None = drained)
#   step() -> (time, finished_delta)      process exactly one event
#   advance(limit, inclusive,             step() until the next event lies
#           stop_on_finish)               past limit (None = drain), or
#     -> (time, finished_delta) | None    after the first finishing event;
#                                         the last event's time and the
#                                         requests finished, None if idle
#   harvest() -> [(key, start, finish)]   finished since the last harvest,
#                                         dropped from the session
#   queued() -> [QueuedRequest]           withdrawable (not-yet-started)
#   withdraw(key) -> float                remove a queued request, return
#                                         its old effective arrival time
#   backlog_seconds(now) -> float         live outstanding estimated work
#   active_count() -> int                 admitted & unfinished requests
#
# Placement-policy protocol: the online protocol of
# repro.accelos.placement (reset / observe_arrival / choose /
# migration_penalty / placed / rebalance).  Offline policies are
# adapted there, never here.


class QueuedRequest:
    """One withdrawable queued request, as the re-balance hook sees it."""

    __slots__ = ("key", "name", "tenant", "effective_time")

    def __init__(self, key, name, tenant, effective_time):
        self.key = key
        self.name = name
        self.tenant = tenant
        self.effective_time = effective_time

    def __repr__(self):
        return "<QueuedRequest {} key={} eff={:.6f}>".format(
            self.name, self.key, self.effective_time)


class DeviceStatus:
    """Live snapshot of one device inside the closed loop."""

    __slots__ = ("index", "id", "relative_speed", "backlog_seconds",
                 "queued", "active_count")

    def __init__(self, index, device_id, relative_speed, backlog_seconds,
                 queued, active_count):
        self.index = index
        self.id = device_id
        self.relative_speed = relative_speed
        self.backlog_seconds = backlog_seconds
        self.queued = queued            # tuple of QueuedRequest
        self.active_count = active_count

    @property
    def queue_depth(self):
        return len(self.queued)

    def __repr__(self):
        return ("<DeviceStatus {} backlog={:.4f}s queue={} active={}>"
                .format(self.id, self.backlog_seconds, self.queue_depth,
                        self.active_count))


class FleetStatus:
    """Live snapshot of the whole fleet at one loop instant — what online
    placement policies observe (instead of the offline pre-pass's
    single-server backlog estimate).  ``estimate(name, index)`` is the
    kernel's isolated time on device ``index``, so re-balancers can price
    a candidate migration on its target device."""

    __slots__ = ("now", "devices", "estimate")

    def __init__(self, now, devices, estimate=None):
        self.now = now
        self.devices = devices          # tuple of DeviceStatus
        self.estimate = estimate

    def __len__(self):
        return len(self.devices)

    def __repr__(self):
        return "<FleetStatus t={:.6f} {} devices>".format(
            self.now, len(self.devices))


class MigrationOrder:
    """One re-balance decision: move a queued request between devices.

    ``penalty`` is the buffer-migration delay charged to the request (its
    effective arrival on the new device is ``max(now, old effective
    arrival) + penalty``).
    """

    __slots__ = ("key", "source", "target", "penalty")

    def __init__(self, key, source, target, penalty):
        if penalty < 0:
            raise SchedulingError("migration penalty must be non-negative")
        self.key = key
        self.source = source
        self.target = target
        self.penalty = float(penalty)

    def __repr__(self):
        return "<MigrationOrder key={} {}->{} (+{:.1f}ms)>".format(
            self.key, self.source, self.target, self.penalty * 1e3)


class PlacedRequest:
    """Final routing of one arrival through the closed loop.

    ``position`` is the request's key: its stream position, or its list
    index in an exact :meth:`FleetSimulator.run`.  ``index`` is the
    device that ultimately *served* the request (after any migrations),
    ``penalty`` the total migration delay it was charged, ``migrated``
    how many times the re-balance hook moved it.  An exact fleet result's
    ``decisions`` are these entries, in stream order.
    """

    __slots__ = ("position", "arrival", "index", "penalty", "pinned",
                 "migrated")

    def __init__(self, position, arrival, index, penalty, pinned):
        self.position = position
        self.arrival = arrival
        self.index = index
        self.penalty = float(penalty)
        self.pinned = pinned
        self.migrated = 0

    def __repr__(self):
        return "<PlacedRequest {} -> device {}{}>".format(
            self.arrival.name, self.index,
            " (+{:.1f}ms)".format(self.penalty * 1e3) if self.penalty
            else "")


class FleetSimulator:
    """The one drive loop of every open-system run.

    Merges every device session onto one global event timeline: advance
    the devices to the next arrival, harvest what finished, place and
    submit the arrival.  At each arrival the placement policy chooses a
    device against the **live** fleet state; after each completion (and
    whenever a device drains to idle) the policy's re-balance hook may
    migrate still-queued requests between devices.  ``policy=None`` is
    a lone device: every request goes to the single session, arrival
    pins are ignored and no placement policy is consulted — how a
    single-device experiment runs the same loop.

    ``sessions`` are per-device scheme sessions (see the protocol note
    above); ``policy`` speaks the online protocol; ``isolated`` holds
    one ``kernel name -> isolated seconds`` table per member (see
    :func:`repro.api.kernels.isolated_table`), the per-request service
    estimate of the policy's cost vector, ``FleetStatus.estimate`` and
    the ledger.  ``ledger`` is an optional observer
    (:class:`repro.attribution.AttributionLedger`): the loop reports
    every submit, migration and finish to it as it happens, then the
    finished request's record.

    Exact and streaming runs differ only in what the caller's
    ``on_record`` does with each harvested request: both entries
    (:meth:`run`, :meth:`run_stream`) harvest, so live state is bounded
    by the outstanding request set, never the stream length.

    Determinism: no RNG anywhere; the next event is the minimum over
    sessions of ``peek()``, ties broken by fleet index; arrivals at time
    ``t`` are placed before any device processes an event at exactly
    ``t`` (matching the arrival-first tie rule inside each device).
    """

    def __init__(self, fleet, sessions, policy, isolated, ledger=None):
        if not len(sessions) == len(isolated) == len(fleet):
            raise SimulationError(
                "need one device session and one isolated-time table per "
                "fleet member (got {} and {} for {} members)".format(
                    len(sessions), len(isolated), len(fleet)))
        if policy is None and len(fleet) != 1:
            raise SimulationError(
                "only a lone device runs without a placement policy")
        self.fleet = fleet
        self.sessions = list(sessions)
        self.policy = policy
        self._isolated = list(isolated)
        self._rebalance_enabled = False
        self.migrations = []            # executed MigrationOrders
        self.ledger = ledger

    def _cost(self, name, index):
        return self._isolated[index][name]

    def events_processed(self):
        """Total simulator events across device sessions (sessions without
        a counter — e.g. Elastic Kernels replay — contribute zero)."""
        return sum(getattr(session, "events_processed", 0)
                   for session in self.sessions)

    # -- the loop ----------------------------------------------------------

    def run(self, arrivals, on_record):
        """The exact entry: place and co-simulate a materialised list in
        ``(time, list index)`` order.  Each request is keyed by its list
        index, so ``entry.position`` in ``on_record`` is the arrival's
        position in ``arrivals``.  Returns the number of requests."""
        if not arrivals:
            raise SimulationError("empty arrival stream")
        order = sorted(range(len(arrivals)),
                       key=lambda i: (arrivals[i].time, i))
        return self._drive(((i, arrivals[i]) for i in order), on_record)

    def run_stream(self, arrivals, on_record):
        """The streaming entry: place and co-simulate one *lazy*
        time-ordered stream in bounded memory.

        ``arrivals`` is any iterable yielding
        :class:`~repro.workloads.arrivals.ArrivalRequest` in
        nondecreasing time order (the scenario ``iter_arrivals``
        contract — enforced here, since the iterator cannot be sorted
        without materialising it); each request is keyed by its stream
        position.  Returns the number of requests placed.
        """
        return self._drive(enumerate(arrivals), on_record)

    def _drive(self, keyed, on_record):
        """Advance, harvest, place — for every ``(key, arrival)``.

        Completed requests are handed to ``on_record(entry, start,
        finish)`` in deterministic completion-harvest order (global event
        order, ties by fleet index) and then dropped; ``on_record``
        returns the request's record, which the ledger observes.
        """
        policy = self.policy
        if policy is not None:
            policy.reset()
        self.migrations = []
        self._placed = {}               # key -> PlacedRequest, outstanding
        # policies that never read the live snapshot (the estimate-mode
        # adapter) or never re-balance skip the O(outstanding-work)
        # status walks entirely
        uses_status = getattr(policy, "uses_status", True)
        self._rebalance_enabled = policy is not None and getattr(
            policy, "wants_rebalance", True)
        id_to_index = self.fleet.id_to_index()
        count = 0
        last_time = None
        for key, arrival in keyed:
            if last_time is not None and arrival.time < last_time - 1e-12:
                raise SimulationError(
                    "streaming arrivals must be time-ordered: {:.6f} "
                    "after {:.6f}".format(arrival.time, last_time))
            last_time = arrival.time
            self._advance_before(arrival.time)
            self._harvest_finished(on_record)
            self._placed[key] = self._place_one(arrival, key, uses_status,
                                                id_to_index)
            count += 1
        if count == 0:
            raise SimulationError("empty arrival stream")
        self._advance_before(None)      # drain every device
        self._harvest_finished(on_record)
        if self._placed:
            raise SimulationError(
                "{} requests were placed but never harvested "
                "(conservation violated)".format(len(self._placed)))
        return count

    def _place_one(self, arrival, key, uses_status, id_to_index):
        """Consult the policy (if any) and submit one arrival."""
        policy = self.policy
        index, penalty, pinned = 0, 0.0, False
        if policy is not None:
            count = len(self.fleet)
            policy.observe_arrival(arrival)
            if arrival.device is not None:
                index = id_to_index.get(arrival.device)
                if index is None:
                    raise SchedulingError(
                        "arrival pinned to unknown device {!r}".format(
                            arrival.device))
                pinned = True
            else:
                costs = ([self._cost(arrival.name, j)
                          for j in range(count)]
                         if policy.uses_costs else [0.0] * count)
                index = policy.choose(
                    arrival,
                    self._status(arrival.time) if uses_status else None,
                    costs)
                if not 0 <= index < count:
                    raise SchedulingError(
                        "policy {} chose device {} of {}".format(
                            policy.name, index, count))
            penalty = policy.migration_penalty(arrival, index)
            policy.placed(arrival, index, penalty,
                          self._cost(arrival.name, index))
        self.sessions[index].submit(key, arrival, arrival.time + penalty)
        if self.ledger is not None:
            self.ledger.submit(key, arrival.name, arrival.tenant, index,
                               arrival.time, self._cost(arrival.name, index))
        return PlacedRequest(key, arrival, index, penalty, pinned)

    def _harvest_finished(self, on_record):
        """Drain every session's completed requests into ``on_record``
        and forget them (sessions are scanned in fleet index order, so
        the harvest order is deterministic)."""
        ledger = self.ledger
        for session in self.sessions:
            for key, start, finish in session.harvest():
                record = on_record(self._placed.pop(key), start, finish)
                if ledger is not None:
                    ledger.finish(key, start, finish)
                    ledger.observe_record(record)

    def _advance_before(self, time):
        """Process all device events strictly before ``time`` (None =
        drain everything), in global time order, firing the re-balance
        hook after completions and idle transitions.

        The event order is one event at a time from the earliest device,
        ties to the lower fleet index.  Devices only interact through the
        re-balance hook, so the earliest device runs in one batched
        ``advance`` up to its horizon: the arrival (exclusive) and every
        other device's next event — inclusive when that device has the
        higher fleet index, since the tie is then ours — stopping at the
        first finished request, where the hook may fire.
        """
        sessions = self.sessions
        rebalance = self._rebalance_enabled
        nexts = [session.peek() for session in sessions]
        while True:
            best = None
            best_time = None
            for j, next_time in enumerate(nexts):
                if next_time is not None and (best_time is None
                                              or next_time < best_time):
                    best, best_time = j, next_time
            if best is None or (time is not None and best_time >= time):
                return
            # scanning in index order, an equal time seen later never
            # loosens the bound: the arrival and lower indices come first
            limit, inclusive = time, False
            for j, next_time in enumerate(nexts):
                if j != best and next_time is not None \
                        and (limit is None or next_time < limit):
                    limit, inclusive = next_time, j > best
            session = sessions[best]
            event_time, finished = session.advance(limit, inclusive,
                                                   rebalance)
            nexts[best] = session.peek()
            if rebalance and (finished or nexts[best] is None):
                self._maybe_rebalance(event_time)
                nexts = [session.peek() for session in sessions]

    # -- live state & re-balancing -----------------------------------------

    def _status(self, now):
        views = []
        for j, (member, session) in enumerate(zip(self.fleet,
                                                  self.sessions)):
            # pinned requests are invisible to re-balancers: a device tag
            # is a hard constraint, the request must not be stolen away
            # (a list-built tuple: see AllocationMemo.groups_for_keyed)
            queued = tuple([entry for entry in session.queued()
                            if not self._placed[entry.key].pinned])
            views.append(DeviceStatus(
                j, member.id, member.relative_speed,
                session.backlog_seconds(now), queued,
                session.active_count()))
        return FleetStatus(now, tuple(views), self._cost)

    def _maybe_rebalance(self, now):
        orders = self.policy.rebalance(self._status(now))
        if not orders:
            return
        for migration in orders:
            if migration.source == migration.target:
                raise SchedulingError(
                    "re-balance order moves request {} onto its own "
                    "device {}".format(migration.key, migration.source))
            entry = self._placed.get(migration.key)
            if entry is None or entry.index != migration.source:
                raise SchedulingError(
                    "re-balance order for request {} does not match its "
                    "current device".format(migration.key))
            if entry.pinned:
                raise SchedulingError(
                    "re-balance order would move device-pinned request "
                    "{} off {}".format(migration.key,
                                       self.fleet[entry.index].id))
            old_effective = self.sessions[migration.source].withdraw(
                migration.key)
            effective = max(now, old_effective) + migration.penalty
            self.sessions[migration.target].submit(
                migration.key, entry.arrival, effective)
            entry.index = migration.target
            entry.penalty += migration.penalty
            entry.migrated += 1
            self.migrations.append(migration)
            if self.ledger is not None:
                self.ledger.migrate(migration.key, migration.source,
                                    migration.target, now,
                                    migration.penalty)
