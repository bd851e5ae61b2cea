"""The accounting ledger: sim events in, per-tenant attribution out.

:class:`AttributionLedger` is an observer of the drive loop
(:class:`repro.sim.fleet.FleetSimulator`): the loop reports submissions
(:meth:`submit`), migrations (:meth:`migrate`), completions
(:meth:`finish`) and finished records (:meth:`observe_record`) to it, in
nondecreasing event time per device, and it maintains three per-tenant
accounts:

* **Occupancy** — resident device-memory bytes per ``(device, tenant)``,
  charged from a request's submission to its completion using the
  functional plane's real buffer footprints
  (:func:`repro.attribution.footprint.kernel_footprint_bytes`), with a
  running byte·seconds integral and peak.  The conservation invariant —
  per-device tenant bytes sum *exactly* to the device's total resident
  bytes — is checked at every event, not just at the end.
* **Induced delay** — each request's queueing delay (start − arrival)
  decomposed over the tenants whose outstanding work was *ahead of it*
  on its device when it was submitted (the ahead-of-me snapshot:
  admission is arrival-ordered, so work already outstanding at submit is
  what the request waited behind).  Shares are proportional to estimated
  outstanding seconds; an empty snapshot self-charges the victim.  Per
  ``(victim, aggressor)`` pair the ledger keeps the total induced
  seconds and a bounded-memory :class:`~repro.metrics.sketches.TailSketch`
  of per-request induced delay, so the audit can quote "tenant A's burst
  cost tenant B X ms of p99".
* **Migration costs** — each re-balance penalty is charged to the tenant
  with the most outstanding estimated work on the *source* device (the
  tenant whose backlog triggered the move), the migrant itself when no
  other tenant is outstanding; ties break lexicographically.

Memory is O(#tenants·#devices) occupancy cells plus O(#tenants²)
induced-delay cells plus the outstanding request set — never the stream
length — so the ledger composes with the PR 7 streaming plane.
:meth:`report` freezes everything into a plain-data
:class:`AttributionReport` (picklable: result caches store it).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.attribution.footprint import kernel_footprint_bytes
from repro.attribution.provenance import tenant_label
from repro.errors import SimulationError
from repro.metrics.fairness import safe_share
from repro.metrics.sketches import TailSketch


class _Outstanding:
    """One submitted-but-unfinished request, as the ledger tracks it."""

    __slots__ = ("label", "name", "device", "arrival", "est_seconds",
                 "footprint", "ahead")

    label: str
    name: str
    device: int
    arrival: float
    est_seconds: float
    footprint: int
    ahead: Dict[str, float]

    def __init__(self, label: str, name: str, device: int, arrival: float,
                 est_seconds: float, footprint: int,
                 ahead: Dict[str, float]) -> None:
        self.label = label
        self.name = name
        self.device = device
        self.arrival = arrival
        self.est_seconds = est_seconds
        self.footprint = footprint
        self.ahead = ahead


class _TenantWork:
    """Per-tenant work totals (requests, estimated/busy/queued seconds)."""

    __slots__ = ("requests", "est_seconds", "busy_seconds",
                 "queueing_seconds")

    requests: int
    est_seconds: float
    busy_seconds: float
    queueing_seconds: float

    def __init__(self) -> None:
        self.requests = 0
        self.est_seconds = 0.0
        self.busy_seconds = 0.0
        self.queueing_seconds = 0.0

    def as_dict(self) -> Dict[str, float]:
        return {"requests": float(self.requests),
                "est_seconds": self.est_seconds,
                "busy_seconds": self.busy_seconds,
                "queueing_seconds": self.queueing_seconds}


class AttributionLedger:
    """Streaming per-tenant accounting over one closed-loop run.

    ``device_ids`` fixes the device axis (fleet ids, or the single
    device's name); ``footprint`` maps a kernel name to its resident
    byte count (the functional-plane default is right for the corpus;
    tests inject constants).  Event methods must be called in
    nondecreasing time per device — exactly the order
    :class:`~repro.sim.fleet.FleetSimulator` calls them in.
    """

    def __init__(self, device_ids: Sequence[str],
                 footprint: Callable[[str], int] = kernel_footprint_bytes
                 ) -> None:
        if not device_ids:
            raise SimulationError("attribution needs at least one device")
        self.device_ids: List[str] = list(device_ids)
        self._footprint = footprint
        count = len(self.device_ids)
        self._outstanding: Dict[Any, _Outstanding] = {}
        self._resident: List[Dict[str, int]] = [{} for _ in range(count)]
        self._resident_total: List[int] = [0] * count
        self._peak: List[Dict[str, int]] = [{} for _ in range(count)]
        self._byte_seconds: List[Dict[str, float]] = [{} for _ in
                                                      range(count)]
        self._clock: List[float] = [0.0] * count
        self._tenants: Dict[str, None] = {}     # insertion-ordered set
        self._induced_total: Dict[Tuple[str, str], float] = {}
        self._induced_sketch: Dict[Tuple[str, str], TailSketch] = {}
        self._work: Dict[str, _TenantWork] = {}
        self._migration_cost: Dict[str, float] = {}
        self._observed_count: Dict[str, int] = {}
        self._observed_queueing: Dict[str, float] = {}
        self.events = 0
        self.requests = 0
        self.migrations = 0

    # -- event intake ------------------------------------------------------

    def submit(self, key: Any, name: str, tenant: Optional[str],
               device_index: int, arrival_time: float,
               est_seconds: float) -> None:
        """One request enters ``device_index`` at ``arrival_time``.

        ``est_seconds`` is the caller's service estimate on that device
        (the fleet loop reads the kernel's isolated time) — the weight its
        outstanding work contributes to later arrivals' ahead-of-me
        snapshots.
        """
        if key in self._outstanding:
            raise SimulationError(
                "attribution ledger saw request key {!r} twice".format(key))
        label = tenant_label(tenant)
        self._tenants.setdefault(label, None)
        self._work.setdefault(label, _TenantWork())
        work = self._work[label]
        work.requests += 1
        work.est_seconds += float(est_seconds)
        ahead: Dict[str, float] = {}
        for entry in self._outstanding.values():
            if entry.device == device_index:
                ahead[entry.label] = ahead.get(entry.label, 0.0) \
                    + entry.est_seconds
        footprint = int(self._footprint(name))
        self._outstanding[key] = _Outstanding(
            label, name, device_index, float(arrival_time),
            float(est_seconds), footprint, ahead)
        self._advance(device_index, float(arrival_time))
        self._add_bytes(device_index, label, footprint)
        self.events += 1
        self.requests += 1

    def migrate(self, key: Any, source: int, target: int, time: float,
                penalty: float) -> None:
        """A queued request moves ``source`` → ``target`` at ``time``;
        the ``penalty`` seconds are charged to the source device's
        dominant tenant (the backlog that triggered the move)."""
        entry = self._outstanding.get(key)
        if entry is None or entry.device != source:
            raise SimulationError(
                "attribution ledger cannot migrate unknown request "
                "{!r} from device {}".format(key, source))
        self._advance(source, float(time))
        self._advance(target, float(time))
        self._add_bytes(source, entry.label, -entry.footprint)
        self._add_bytes(target, entry.label, entry.footprint)
        # the triggering tenant: most outstanding estimated work on the
        # source device, the migrant excluded; ties lexicographic; the
        # migrant itself when nothing else is outstanding there
        totals: Dict[str, float] = {}
        for other_key, other in self._outstanding.items():
            if other.device == source and other_key != key:
                totals[other.label] = totals.get(other.label, 0.0) \
                    + other.est_seconds
        if totals:
            aggressor = min(totals, key=lambda t: (-totals[t], t))
        else:
            aggressor = entry.label
        self._migration_cost[aggressor] = \
            self._migration_cost.get(aggressor, 0.0) + float(penalty)
        # the request now also waits behind the target device's
        # outstanding work; fold it into the ahead-of-me snapshot
        for other in self._outstanding.values():
            if other.device == target and other is not entry:
                entry.ahead[other.label] = \
                    entry.ahead.get(other.label, 0.0) + other.est_seconds
        entry.device = target
        self.events += 1
        self.migrations += 1

    def finish(self, key: Any, start: float, finish: float) -> None:
        """One request completes: close its occupancy interval and
        decompose its queueing delay over its ahead-of-me snapshot."""
        entry = self._outstanding.pop(key, None)
        if entry is None:
            raise SimulationError(
                "attribution ledger cannot finish unknown request "
                "{!r}".format(key))
        self._advance(entry.device, float(finish))
        self._add_bytes(entry.device, entry.label, -entry.footprint)
        delay = max(0.0, float(start) - entry.arrival)
        victim = entry.label
        work = self._work[victim]
        work.queueing_seconds += delay
        work.busy_seconds += max(0.0, float(finish) - float(start))
        total_ahead = sum(entry.ahead.values())
        # one observation per known aggressor (0-share when absent from
        # the snapshot), so each pair sketch covers the victim's whole
        # request population from the aggressor's first appearance on
        for aggressor in sorted(self._tenants):
            if total_ahead > 0.0:
                share = delay * safe_share(
                    entry.ahead.get(aggressor, 0.0), total_ahead)
            else:
                share = delay if aggressor == victim else 0.0
            pair = (victim, aggressor)
            self._induced_total[pair] = \
                self._induced_total.get(pair, 0.0) + share
            sketch = self._induced_sketch.get(pair)
            if sketch is None:
                sketch = self._induced_sketch[pair] = TailSketch()
            sketch.observe(share)
        self.events += 1

    def observe_record(self, record: Any) -> None:
        """One finished request's record (after its :meth:`finish`):
        per-tenant completed-request counts and queueing totals, for
        cross-checking the decomposition."""
        label = tenant_label(getattr(record, "tenant", None))
        self._observed_count[label] = self._observed_count.get(label, 0) + 1
        self._observed_queueing[label] = \
            self._observed_queueing.get(label, 0.0) \
            + float(record.queueing_delay)

    # -- occupancy internals ----------------------------------------------

    def _advance(self, device: int, time: float) -> None:
        """Integrate byte·seconds on ``device`` up to ``time`` (clamped
        monotone: harvest scan order may deliver same-time events a hair
        out of order across devices, never meaningfully backwards)."""
        now = max(time, self._clock[device])
        dt = now - self._clock[device]
        if dt > 0.0:
            integral = self._byte_seconds[device]
            for label, resident in self._resident[device].items():
                if resident:
                    integral[label] = integral.get(label, 0.0) \
                        + resident * dt
        self._clock[device] = now

    def _add_bytes(self, device: int, label: str, delta: int) -> None:
        resident = self._resident[device]
        value = resident.get(label, 0) + delta
        if value < 0:
            raise SimulationError(
                "attribution conservation violated: tenant {!r} resident "
                "bytes went negative on {}".format(
                    label, self.device_ids[device]))
        resident[label] = value
        self._resident_total[device] += delta
        peak = self._peak[device]
        if value > peak.get(label, 0):
            peak[label] = value
        self._byte_seconds[device].setdefault(label, 0.0)
        self._check_conservation(device)

    def _check_conservation(self, device: int) -> None:
        """Tenant bytes must sum *exactly* to the device total — checked
        at every event, in exact integer arithmetic."""
        total = sum(self._resident[device].values())
        if total != self._resident_total[device]:
            raise SimulationError(
                "attribution conservation violated on {}: per-tenant "
                "bytes sum to {} but {} bytes are resident".format(
                    self.device_ids[device], total,
                    self._resident_total[device]))

    # -- queries -----------------------------------------------------------

    def resident_by_tenant(self, device_index: int) -> Dict[str, int]:
        """Current resident bytes per tenant on one device (sorted)."""
        return {label: self._resident[device_index][label]
                for label in sorted(self._resident[device_index])}

    def total_resident(self, device_index: int) -> int:
        """Current total resident bytes on one device."""
        return self._resident_total[device_index]

    def tenants(self) -> List[str]:
        """Every tenant label seen so far, sorted."""
        return sorted(self._tenants)

    def state_cells(self) -> int:
        """Persistent accounting cells — the memory-bound witness: grows
        with #tenants·#devices + #tenants², never with request count."""
        return (sum(len(d) for d in self._byte_seconds)
                + sum(len(d) for d in self._resident)
                + sum(len(d) for d in self._peak)
                + len(self._induced_total) + len(self._induced_sketch)
                + len(self._work) + len(self._migration_cost)
                + len(self._observed_count) + len(self._observed_queueing))

    # -- the audit ---------------------------------------------------------

    def report(self) -> "AttributionReport":
        """Freeze the accounts into a plain-data audit report."""
        if self._outstanding:
            raise SimulationError(
                "{} requests still outstanding; the attribution report "
                "is only valid after the run drains".format(
                    len(self._outstanding)))
        horizon = max(self._clock) if self._clock else 0.0
        for device in range(len(self.device_ids)):
            self._advance(device, horizon)
        tenants = sorted(self._tenants)
        occupancy: Dict[str, Dict[str, Dict[str, float]]] = {}
        for index, device_id in enumerate(self.device_ids):
            per_tenant: Dict[str, Dict[str, float]] = {}
            for label in sorted(self._byte_seconds[index]):
                per_tenant[label] = {
                    "byte_seconds": self._byte_seconds[index][label],
                    "peak_bytes": float(self._peak[index].get(label, 0)),
                    "resident_bytes": float(
                        self._resident[index].get(label, 0)),
                }
            occupancy[device_id] = per_tenant
        byte_seconds_by_tenant = {
            label: sum(self._byte_seconds[index].get(label, 0.0)
                       for index in range(len(self.device_ids)))
            for label in tenants
        }
        total_byte_seconds = sum(byte_seconds_by_tenant.values())
        occupancy_share = {
            label: safe_share(byte_seconds_by_tenant[label],
                              total_byte_seconds)
            for label in tenants
        }
        induced_p99: Dict[str, Dict[str, float]] = {}
        induced_total: Dict[str, Dict[str, float]] = {}
        for victim in tenants:
            induced_p99[victim] = {}
            induced_total[victim] = {}
            for aggressor in tenants:
                pair = (victim, aggressor)
                induced_total[victim][aggressor] = \
                    self._induced_total.get(pair, 0.0)
                sketch = self._induced_sketch.get(pair)
                induced_p99[victim][aggressor] = \
                    sketch.summary().p99 if sketch is not None \
                    and sketch.count else 0.0
        return AttributionReport(
            devices=list(self.device_ids),
            tenants=tenants,
            occupancy=occupancy,
            occupancy_share=occupancy_share,
            induced_p99=induced_p99,
            induced_total=induced_total,
            work={label: self._work[label].as_dict() for label in tenants},
            migration_costs={label: self._migration_cost.get(label, 0.0)
                             for label in tenants},
            observed={label: {
                "requests": float(self._observed_count.get(label, 0)),
                "queueing_seconds":
                    self._observed_queueing.get(label, 0.0)}
                for label in sorted(self._observed_count)},
            requests=self.requests,
            migrations=self.migrations,
            makespan=horizon,
        )


class AttributionReport:
    """Plain-data audit of one attributed run (picklable, JSON-ready).

    ``induced_p99[victim][aggressor]`` is the p99 over the victim's
    requests of the delay seconds attributed to the aggressor —
    the fairness audit's "tenant A's burst cost tenant B X ms of p99";
    the diagonal is self-induced delay.  The three headline scalars
    back the METRICS registry entries:

    * :attr:`tenant_occupancy` — the largest tenant share of total
      byte·seconds (``tenant_occupancy`` metric);
    * :attr:`max_cross_tenant_induced_p99` — the largest off-diagonal
      induced p99 (``induced_delay_matrix`` metric);
    * :attr:`cross_tenant_induced_share` — the fraction of all queueing
      delay induced *across* tenants (``attribution_summary`` metric).
    """

    __slots__ = ("devices", "tenants", "occupancy", "occupancy_share",
                 "induced_p99", "induced_total", "work", "migration_costs",
                 "observed", "requests", "migrations", "makespan")

    devices: List[str]
    tenants: List[str]
    occupancy: Dict[str, Dict[str, Dict[str, float]]]
    occupancy_share: Dict[str, float]
    induced_p99: Dict[str, Dict[str, float]]
    induced_total: Dict[str, Dict[str, float]]
    work: Dict[str, Dict[str, float]]
    migration_costs: Dict[str, float]
    observed: Dict[str, Dict[str, float]]
    requests: int
    migrations: int
    makespan: float

    def __init__(self, devices: List[str], tenants: List[str],
                 occupancy: Dict[str, Dict[str, Dict[str, float]]],
                 occupancy_share: Dict[str, float],
                 induced_p99: Dict[str, Dict[str, float]],
                 induced_total: Dict[str, Dict[str, float]],
                 work: Dict[str, Dict[str, float]],
                 migration_costs: Dict[str, float],
                 observed: Dict[str, Dict[str, float]],
                 requests: int, migrations: int, makespan: float) -> None:
        self.devices = devices
        self.tenants = tenants
        self.occupancy = occupancy
        self.occupancy_share = occupancy_share
        self.induced_p99 = induced_p99
        self.induced_total = induced_total
        self.work = work
        self.migration_costs = migration_costs
        self.observed = observed
        self.requests = requests
        self.migrations = migrations
        self.makespan = makespan

    # -- headline scalars (the METRICS registry entries) -------------------

    @property
    def tenant_occupancy(self) -> float:
        """Largest tenant share of total byte·seconds (0 when empty)."""
        if not self.occupancy_share:
            return 0.0
        return max(self.occupancy_share.values())

    @property
    def max_cross_tenant_induced_p99(self) -> float:
        """Largest off-diagonal induced-delay p99, in seconds."""
        worst = 0.0
        for victim in self.tenants:
            for aggressor in self.tenants:
                if aggressor != victim:
                    value = self.induced_p99[victim][aggressor]
                    if value > worst:
                        worst = value
        return worst

    @property
    def cross_tenant_induced_share(self) -> float:
        """Fraction of all queueing delay induced across tenants."""
        cross = 0.0
        total = 0.0
        for victim in self.tenants:
            for aggressor in self.tenants:
                value = self.induced_total[victim][aggressor]
                total += value
                if aggressor != victim:
                    cross += value
        return safe_share(cross, total)

    def aggressor_ranking(self) -> List[Tuple[str, float]]:
        """Tenants ranked by total delay induced *on others*, worst
        first (ties lexicographic) — the audit's aggressor finder."""
        induced_on_others = {
            aggressor: sum(self.induced_total[victim][aggressor]
                           for victim in self.tenants
                           if victim != aggressor)
            for aggressor in self.tenants
        }
        return sorted(induced_on_others.items(),
                      key=lambda item: (-item[1], item[0]))

    def to_dict(self) -> Dict[str, Any]:
        """Canonical plain-data form (deterministic key order)."""
        return {
            "devices": list(self.devices),
            "tenants": list(self.tenants),
            "occupancy": self.occupancy,
            "occupancy_share": self.occupancy_share,
            "induced_p99": self.induced_p99,
            "induced_total": self.induced_total,
            "work": self.work,
            "migration_costs": self.migration_costs,
            "observed": self.observed,
            "requests": self.requests,
            "migrations": self.migrations,
            "makespan": self.makespan,
            "tenant_occupancy": self.tenant_occupancy,
            "max_cross_tenant_induced_p99":
                self.max_cross_tenant_induced_p99,
            "cross_tenant_induced_share": self.cross_tenant_induced_share,
        }

    def __repr__(self) -> str:
        return ("<AttributionReport {} tenants x {} devices, {} reqs, "
                "cross-share={:.2f}>".format(
                    len(self.tenants), len(self.devices), self.requests,
                    self.cross_tenant_induced_share))
