"""Cross-device placement policies for a heterogeneous device fleet.

One accelOS instance arbitrates one accelerator (§3–§5); a deployment
serving heavy traffic runs a *fleet* of them.  Placement is the layer
above the per-device sharing algorithm: it decides **which device** serves
a request, after which that device's own §3 allocator decides **how much**
of the device the request gets.  The split keeps the paper's per-device
fairness guarantees intact — placement never bypasses an allocator, it
only routes work to one.

Two protocols live here:

* :class:`PlacementPolicy` — the **offline** protocol: ``choose`` a
  device from plain per-device load numbers.  Fast, simple, and blind
  to what actually happens on the devices.
* :class:`OnlinePlacementPolicy` — the **closed-loop** protocol driven
  per-arrival by :class:`repro.sim.fleet.FleetSimulator`, the one drive
  loop: ``observe`` arrivals, ``choose`` against live fleet state
  (:class:`~repro.sim.fleet.FleetStatus`), and optionally ``rebalance``
  still-queued requests between devices at completion/idle events.
  :class:`OfflinePolicyAdapter` runs any offline policy inside the loop
  — in *estimate* mode (``placement_mode`` ``"auto"``) its
  loads are a single-server backlog *estimate* kept from the placements
  themselves; in *live* mode the same ``choose`` logic sees real
  simulator backlog instead.

Offline policies, all deterministic (no RNG anywhere):

* :class:`RoundRobinPlacement` — cycle through the devices in order;
  ignores load and heterogeneity.  The baseline every fleet scheduler is
  measured against.
* :class:`LeastLoadedPlacement` — send the request where its estimated
  completion is earliest: outstanding weighted work (the device's backlog
  of estimated service seconds, a speed-normalised load measure) plus the
  request's own estimated service time on that device.  On an idle fleet
  this degenerates to fastest-device-first.
* :class:`AffinityPlacement` — least-loaded, but aware that a tenant's
  buffers live on the device that last served it: placing a tenant
  elsewhere charges a migration penalty (the buffer transfer), modelled as
  a delay between the request's arrival and its availability on the new
  device.  Trades load balance against data locality.

Online policies (closed-loop only): :class:`BurstAwareOnlinePlacement`
(queue-aware least-work with short-horizon burst detection) and
:class:`WorkStealingRebalance` (wraps any online policy with an idle
work-stealing re-balancer).

Requests pinned to a device (``arrival.device`` set by a device-tagged
trace) always go to that device; policies are only consulted for unpinned
requests, and the round-robin cursor does not advance on pinned ones.
Pinned placements still run :meth:`PlacementPolicy.migration_penalty`:
a pinned request whose tenant's buffers live elsewhere pays the transfer
(the pin forces the buffers to move) and re-homes the tenant — so a
pinned request can change which device a *later* unpinned request of the
same tenant is charged for leaving.  This is intended (locked by
regression tests): the home map tracks where the buffers physically are,
and a hard pin moves them like any other placement.

The policies operate on plain per-device load estimates, so the same
implementations drive both planes: the evaluation plane's
:class:`repro.sim.fleet.DeviceFleet` (seconds of estimated backlog) and
the functional plane's :class:`repro.accelos.fleet.FleetRuntime` (pending
request counts).  One asymmetry to know about: ``FleetRuntime`` consults
the policy only for an application's *first* session — locality is then
structural (buffers cannot move), so in the functional plane
:class:`AffinityPlacement` has no home to bias by and behaves exactly
like :class:`LeastLoadedPlacement`.  Migration trade-offs only exist in
the evaluation plane, where per-request placement is re-decided.
"""

from __future__ import annotations

from repro.errors import SchedulingError

# Default buffer-migration penalty charged by the affinity policy, in
# seconds: moving a tenant's working set (tens of MB) across a ~12 GB/s
# host link before the kernel can launch on the new device.
DEFAULT_MIGRATION_PENALTY = 2e-3


class PlacementPolicy:
    """Chooses a device index for each request.

    Subclasses implement :meth:`choose`; they may keep state (round-robin
    cursor, tenant homes) which :meth:`reset` clears so one policy object
    can place several independent streams reproducibly.
    """

    name = "abstract"
    # cost-blind policies (round-robin) set this False so streams are
    # placed without running the service-time estimator per device
    uses_costs = True

    def reset(self):
        """Forget all stream-local state (called before each stream)."""

    def choose(self, arrival, loads, costs):
        """Pick a device index for ``arrival``.

        ``loads[i]`` is device *i*'s outstanding estimated work (seconds of
        backlog in the simulation plane; pending request count in the
        runtime plane).  ``costs[i]`` is the request's own estimated
        service time on device *i* (zeros when no estimator is available).
        """
        raise NotImplementedError

    def migration_penalty(self, arrival, index):
        """Seconds of data-movement delay for serving ``arrival`` on
        ``index``; stateful policies update their locality maps here."""
        return 0.0


class RoundRobinPlacement(PlacementPolicy):
    """Cycle through devices in fleet order, blind to load and speed."""

    name = "round-robin"
    uses_costs = False

    def __init__(self):
        self._next = 0

    def reset(self):
        self._next = 0

    def choose(self, arrival, loads, costs):
        index = self._next % len(loads)
        self._next += 1
        return index


class LeastLoadedPlacement(PlacementPolicy):
    """Earliest-estimated-completion: min over devices of backlog + own
    service time.  Ties break toward the lower device index, keeping
    placement deterministic."""

    name = "least-loaded"

    def choose(self, arrival, loads, costs):
        finish = [load + cost for load, cost in zip(loads, costs)]
        return min(range(len(finish)), key=lambda i: (finish[i], i))


class AffinityPlacement(PlacementPolicy):
    """Least-loaded placement that charges for moving a tenant's buffers.

    A tenant's *home* is the device that last served it (set on first
    placement).  Serving a tenant away from home adds ``penalty`` seconds
    of buffer migration to the estimated completion — so the policy only
    migrates when the home device's backlog exceeds the transfer cost —
    and the migration re-homes the tenant.  Untenanted requests
    (``arrival.tenant is None``) key on the kernel name, a coarse proxy
    for "the same application keeps launching the same kernel".
    """

    name = "affinity"

    def __init__(self, penalty=DEFAULT_MIGRATION_PENALTY):
        if penalty < 0:
            raise SchedulingError("migration penalty must be non-negative")
        self.penalty = float(penalty)
        self._home = {}

    def reset(self):
        self._home = {}

    def _key(self, arrival):
        return arrival.tenant if arrival.tenant is not None else arrival.name

    def choose(self, arrival, loads, costs):
        home = self._home.get(self._key(arrival))
        finish = [
            load + cost + (0.0 if home in (None, i) else self.penalty)
            for i, (load, cost) in enumerate(zip(loads, costs))
        ]
        return min(range(len(finish)), key=lambda i: (finish[i], i))

    def migration_penalty(self, arrival, index):
        key = self._key(arrival)
        home = self._home.get(key)
        self._home[key] = index
        return 0.0 if home in (None, index) else self.penalty


# -- the closed-loop (online) protocol ----------------------------------------

class OnlinePlacementPolicy:
    """Chooses devices inside the closed-loop fleet co-simulation.

    Driven per-arrival by :class:`repro.sim.fleet.FleetSimulator`:

    * :meth:`observe_arrival` — every arrival (pinned ones included)
      passes through here first, so rate trackers see all traffic;
    * :meth:`choose` — pick a device for an unpinned arrival against the
      live :class:`~repro.sim.fleet.FleetStatus` (actual outstanding
      work, queue depths, active counts — not a backlog estimate);
    * :meth:`rebalance` — called after completions and idle transitions;
      may return :class:`~repro.sim.fleet.MigrationOrder`s migrating
      still-queued requests between devices (each charged its order's
      migration penalty).

    Like offline policies, online policies may keep state which
    :meth:`reset` clears, so one object can drive several independent
    streams reproducibly.  Determinism contract: no RNG; decisions are
    pure functions of the observed event history.
    """

    name = "abstract-online"
    uses_costs = True
    # policies that ignore the live snapshot (the estimate-mode adapter)
    # set this False so the loop can skip building it per arrival
    uses_status = True

    @property
    def wants_rebalance(self):
        """True when the policy overrides :meth:`rebalance` — the loop
        only snapshots fleet state at completion/idle events for
        policies that will actually read it."""
        return type(self).rebalance is not OnlinePlacementPolicy.rebalance

    def reset(self):
        """Forget all stream-local state (called before each stream)."""

    def observe_arrival(self, arrival):
        """Every arrival flows through here before placement."""

    def choose(self, arrival, status, costs):
        """Pick a device index for ``arrival``.

        ``status`` is the live :class:`~repro.sim.fleet.FleetStatus`;
        ``costs[i]`` the request's own estimated service time on device
        *i* (zeros when ``uses_costs`` is False).
        """
        raise NotImplementedError

    def migration_penalty(self, arrival, index):
        """Seconds of data-movement delay for serving ``arrival`` on
        ``index``; stateful policies update their locality maps here."""
        return 0.0

    def placed(self, arrival, index, penalty, cost):
        """Notification that ``arrival`` was routed (pinned ones too)."""

    def rebalance(self, status):
        """Migration orders at a completion/idle event (default: none)."""
        return ()


class OfflinePolicyAdapter(OnlinePlacementPolicy):
    """Runs an offline :class:`PlacementPolicy` inside the loop.

    ``mode="estimate"`` is offline placement: each device is modelled as
    a single server working through the estimated isolated service
    times of the requests routed to it, and ``choose`` sees that
    busy-until backlog — never the simulator's state.  It reproduces the
    historical pre-pass (kept as a test oracle) bit-identically.
    ``mode="live"`` feeds the same ``choose`` the fleet's real
    outstanding work instead: the cheapest way to make an existing
    policy load-aware in the closed loop.
    """

    def __init__(self, policy, mode="estimate"):
        if mode not in ("estimate", "live"):
            raise SchedulingError(
                "offline adapter mode must be 'estimate' or 'live', "
                "got {!r}".format(mode))
        self.policy = policy
        self.mode = mode
        self.name = policy.name
        self.uses_costs = policy.uses_costs
        # estimate mode never reads the live snapshot (loads come from
        # the replayed busy-until bookkeeping), so the loop may skip it
        self.uses_status = mode == "live"
        self._busy_until = {}

    def reset(self):
        self.policy.reset()
        self._busy_until = {}

    def choose(self, arrival, status, costs):
        if self.mode == "estimate":
            loads = [max(0.0, self._busy_until.get(j, 0.0) - arrival.time)
                     for j in range(len(costs))]
        else:
            loads = [d.backlog_seconds for d in status.devices]
        return self.policy.choose(arrival, loads, costs)

    def migration_penalty(self, arrival, index):
        return self.policy.migration_penalty(arrival, index)

    def placed(self, arrival, index, penalty, cost):
        if self.mode != "estimate":
            return
        start = max(self._busy_until.get(index, 0.0),
                    arrival.time + penalty)
        self._busy_until[index] = start + cost


class BurstAwareOnlinePlacement(OnlinePlacementPolicy):
    """Queue-aware least-work placement with short-horizon burst detection.

    Steady state: earliest-estimated-completion against **live** backlog
    (the device's actual outstanding estimated work, which under accelOS
    space sharing drains very differently from the offline single-server
    estimate) — min over devices of ``backlog + own service time``.

    Burst mode: the policy tracks the arrival rate over the last
    ``horizon`` arrivals; when it exceeds ``surge`` times the stream's
    long-run average, a burst is in progress.  Bursts are when placement
    decides fleet-wide fairness (ROADMAP, PR 4 observation): overflowing
    a surge onto a slow device gives those requests multiples of the
    fast-device service time — pure slowdown spread — while queueing on
    a fast device costs every burst request a little.  So during a burst
    the *extra* service time a slower device would add is weighted by
    ``slow_penalty``, biasing the overflow toward queueing on fast
    devices unless the slow device is genuinely idle enough to win by a
    margin.
    """

    name = "burst-aware"

    def __init__(self, horizon=8, surge=2.0, slow_penalty=4.0):
        if horizon < 2:
            raise SchedulingError("burst horizon needs >= 2 arrivals")
        if surge <= 1.0:
            raise SchedulingError("surge threshold must exceed 1.0")
        if slow_penalty < 0:
            raise SchedulingError("slow_penalty must be non-negative")
        self.horizon = int(horizon)
        self.surge = float(surge)
        self.slow_penalty = float(slow_penalty)
        self._recent = []
        self._first_time = None
        self._count = 0

    def reset(self):
        self._recent = []
        self._first_time = None
        self._count = 0

    def observe_arrival(self, arrival):
        if self._first_time is None:
            self._first_time = arrival.time
        self._count += 1
        self._recent.append(arrival.time)
        if len(self._recent) > self.horizon:
            self._recent.pop(0)

    def burst_factor(self, now):
        """Short-horizon arrival rate over the stream's long-run rate
        (1.0 until enough history has accumulated)."""
        if (self._count <= self.horizon
                or now <= self._first_time
                or len(self._recent) < 2):
            return 1.0
        span = now - self._recent[0]
        if span <= 0:
            return self.surge + 1.0   # several arrivals at one instant
        short_rate = (len(self._recent) - 1) / span
        long_rate = (self._count - 1) / (now - self._first_time)
        if long_rate <= 0:
            return 1.0
        return short_rate / long_rate

    def bursting(self, now):
        return self.burst_factor(now) > self.surge

    def choose(self, arrival, status, costs):
        loads = [d.backlog_seconds for d in status.devices]
        finish = [load + cost for load, cost in zip(loads, costs)]
        if self.bursting(arrival.time):
            best_cost = min(costs)
            finish = [f + (cost - best_cost) * self.slow_penalty
                      for f, cost in zip(finish, costs)]
        return min(range(len(finish)), key=lambda i: (finish[i], i))


class WorkStealingRebalance(OnlinePlacementPolicy):
    """Wraps an online policy with an idle work-stealing re-balancer.

    Placement decisions are delegated to ``inner`` (default: a
    :class:`BurstAwareOnlinePlacement`).  At every completion/idle event
    a device whose own queue is empty may steal the *youngest* queued
    (not-yet-started) request of a more backlogged device — youngest
    first because it has waited least, so redirecting it forfeits the
    least queueing progress.  A steal happens only when it pays even
    after the buffer transfer: projected completion on the thief
    (``backlog + penalty + service there``) must beat the source
    device's current backlog by ``margin`` times the transfer penalty.
    Stolen requests are charged ``penalty`` exactly like an affinity
    migration.
    """

    def __init__(self, inner=None, penalty=DEFAULT_MIGRATION_PENALTY,
                 margin=1.0, name="work-stealing"):
        if penalty < 0:
            raise SchedulingError("migration penalty must be non-negative")
        if margin < 0:
            raise SchedulingError("steal margin must be non-negative")
        self.inner = inner if inner is not None \
            else BurstAwareOnlinePlacement()
        self.penalty = float(penalty)
        self.margin = float(margin)
        self.name = name

    @property
    def uses_costs(self):
        return self.inner.uses_costs

    @property
    def uses_status(self):
        return self.inner.uses_status

    def reset(self):
        self.inner.reset()

    def observe_arrival(self, arrival):
        self.inner.observe_arrival(arrival)

    def choose(self, arrival, status, costs):
        return self.inner.choose(arrival, status, costs)

    def migration_penalty(self, arrival, index):
        return self.inner.migration_penalty(arrival, index)

    def placed(self, arrival, index, penalty, cost):
        self.inner.placed(arrival, index, penalty, cost)

    def rebalance(self, status):
        from repro.sim.fleet import MigrationOrder
        thieves = sorted(status.devices,
                         key=lambda d: (d.backlog_seconds, d.index))
        for thief in thieves:
            if thief.queue_depth:
                continue   # a device with its own queue never steals
            for source in sorted(status.devices,
                                 key=lambda d: (-d.backlog_seconds,
                                                d.index)):
                if source.index == thief.index or not source.queued:
                    continue
                prey = source.queued[-1]
                cost = status.estimate(prey.name, thief.index)
                projected = (thief.backlog_seconds + self.penalty + cost
                             + self.margin * self.penalty)
                if projected < source.backlog_seconds:
                    # one order per hook call: the next completion/idle
                    # event re-evaluates against fresh state
                    return (MigrationOrder(prey.key, source.index,
                                           thief.index, self.penalty),)
        return ()


def default_policies():
    """Compatibility alias for :func:`repro.api.placements.default_policies`.

    The registry above this module is the single source of policy-name
    truth; prefer importing from :mod:`repro.api.placements`.  Imported
    lazily — this layer must not depend on the api layer at import time.
    """
    from repro.api.placements import default_policies as registry_policies
    return registry_policies()
