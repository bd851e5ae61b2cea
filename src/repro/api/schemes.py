"""First-class scheduling schemes behind one registry.

Historically every entry point re-implemented scheme dispatch with
string ``if/elif`` branches — the closed harness's ``_run_once``, the
open-system experiment's ``scheme_records``, the fleet path, every
benchmark.  Here a scheme is an *object* owning all of its execution
logic, and the registry is the single source of truth for which schemes
exist:

* :meth:`SchedulingScheme.open_session` — one device's incremental
  session, what the one drive loop
  (:class:`~repro.sim.fleet.FleetSimulator`) advances, harvests and
  submits to: the one open-system contract.  Single-device, fleet,
  streaming and attributed runs all drive it;
* :meth:`SchedulingScheme.run_closed` — one closed-batch repetition
  (everything submitted at t=0, the paper's §7.2 methodology);
* :meth:`SchedulingScheme.run_single` — single-kernel studies (fig. 15),
  optional — schemes without a single-kernel mode raise.

The paper's three schemes are pre-registered in report order:

* ``baseline`` — standard stack, firmware FIFO/exclusive scheduler;
* ``ek``       — Elastic Kernels' static merged launches (§7.3);
* ``accelos``  — the §3 sharing algorithm with §6.4 chunking.

A single device is a one-member fleet with no placement policy, and
:func:`loop_records` is its exact per-request records.
``register_scheme`` adds a user scheme; it then runs through every
harness (:class:`~repro.harness.open_system.OpenSystemExperiment`,
:class:`~repro.harness.open_system.FleetOpenSystemExperiment`,
:func:`~repro.harness.experiment.run_workload`), the declarative
``run(spec)`` driver and the golden-trace tooling unchanged, as far as
its capabilities reach: a scheme with no ``open_session`` raises on
every open-system run, and one with no ``run_closed`` on closed
batches, each naming the capable schemes.  See docs/API.md for the
extension recipe.
"""

from __future__ import annotations

import bisect

from repro.accelos.adaptive import SchedulingPolicy, effective_chunk
from repro.accelos.sharing import compute_allocations
from repro.api.kernels import (base_spec, chunk_for_profile, detailed_spec,
                               isolated_table, requirements_from_spec,
                               sharing_allocator)
from repro.api.registry import Registry
from repro.baselines.elastic_kernels import ElasticKernelsScheduler
from repro.errors import SimulationError
from repro.sim import (DeviceFleet, ExecutionMode, FleetSimulator,
                       GPUSimulator, QueuedRequest)
from repro.workloads.parboil import profile_by_name


class RequestRecord:
    """Timing of one request through the open system.

    ``tenant`` carries the arrival's tenant tag (``None`` for untagged
    streams) so tail metrics can report per-tenant breakdowns.
    """

    __slots__ = ("name", "arrival", "start", "finish", "isolated", "tenant")

    def __init__(self, name, arrival, start, finish, isolated, tenant=None):
        self.name = name
        self.arrival = arrival
        self.start = start
        self.finish = finish
        self.isolated = isolated
        self.tenant = tenant

    @property
    def turnaround(self):
        """Arrival-to-completion time (queueing + service)."""
        return self.finish - self.arrival

    @property
    def queueing_delay(self):
        """Arrival-to-first-dispatch time."""
        return self.start - self.arrival

    @property
    def slowdown(self):
        """Turnaround normalised by isolated execution time (IS_i)."""
        return self.turnaround / self.isolated

    def __repr__(self):
        return "<RequestRecord {} arr={:.4f} turn={:.4f}>".format(
            self.name, self.arrival, self.turnaround)


class GpuOpenSession:
    """One device's incremental open-system session (simulator-backed).

    The device-session protocol of
    :class:`repro.sim.fleet.FleetSimulator`, on top of the
    advance-to-next-event interface of
    :meth:`repro.sim.GPUSimulator.open_begin` — the closed-loop form of
    every scheme whose open system runs directly on the GPU simulator
    (baseline's firmware queue, accelOS's re-allocating sharing).
    ``build_spec(arrival, effective_time)`` turns one arrival into the
    scheme's :class:`~repro.sim.spec.KernelExecSpec`.
    """

    def __init__(self, device, mode, build_spec, allocator=None):
        self.device = device
        self._isolated = isolated_table(device)
        self._sim = GPUSimulator(device)
        self._sim.open_begin(mode, allocator=allocator)
        self._build = build_spec
        self._entries = {}            # key -> (arrival, run), insertion-
        self._finished_seen = 0       # ordered (= submission order)

    def submit(self, key, arrival, effective_time):
        spec = self._build(arrival, effective_time)
        # the run carries its key as the index, so a streaming harvest
        # can map finished runs back without a side table
        run = self._sim.open_submit(spec, index=key)
        self._entries[key] = (arrival, run)

    def peek(self):
        return self._sim.open_peek()

    def step(self):
        return self._sim.open_step(), self._newly_finished()

    def advance(self, limit=None, inclusive=False, stop_on_finish=False):
        time = self._sim.open_advance(limit, inclusive, stop_on_finish)
        return None if time is None else (time, self._newly_finished())

    def _newly_finished(self):
        finished = self._sim.finished_requests - self._finished_seen
        self._finished_seen = self._sim.finished_requests
        return finished

    @property
    def events_processed(self):
        """Simulator events processed so far (bench_engine's denominator)."""
        return self._sim.events_processed

    def queued(self):
        out = []
        for key, (arrival, run) in self._entries.items():
            if self._sim.open_withdrawable(run):
                out.append(QueuedRequest(key, arrival.name, arrival.tenant,
                                         run.spec.arrival_time))
        return out

    def withdraw(self, key):
        arrival, run = self._entries[key]
        self._sim.open_withdraw(run)
        del self._entries[key]
        return run.spec.arrival_time

    def harvest(self):
        """Completed requests since the last harvest, as ``(key, start,
        finish)`` tuples, dropped from the session and pruned from the
        simulator — the bounded-memory streaming contract."""
        out = []
        for run in self._sim.open_harvest():
            key = run.index
            del self._entries[key]
            out.append((key, run.start_time, run.finish_time))
        return out

    def backlog_seconds(self, now):
        isolated = self._isolated
        total = 0.0
        for arrival, run in self._entries.values():
            if run.finish_time is not None or run.total <= 0:
                continue
            remaining = (run.total - run.completed) / run.total
            total += isolated[arrival.name] * remaining
        return total

    def active_count(self):
        return sum(1 for _, run in self._entries.values()
                   if run.finish_time is None
                   and not self._sim.open_withdrawable(run))


class SteppedSession:
    """Base of a device session whose events come one at a time.

    A subclass provides ``peek()`` (the time of its next event, ``None``
    when idle) and ``step()`` (process that event, returning ``(time,
    requests finished by it)``); :meth:`advance` runs them up to the
    drive loop's horizon.  The subclass also provides the rest of the
    device-session protocol of :class:`repro.sim.fleet.FleetSimulator`:
    ``submit`` and ``harvest``, plus ``queued``, ``withdraw``,
    ``backlog_seconds`` and ``active_count`` for online placement
    policies and re-balancers, which read live state.
    """

    def advance(self, limit=None, inclusive=False, stop_on_finish=False):
        time = None
        finished = 0
        while True:
            next_time = self.peek()
            if next_time is None or (limit is not None and (
                    next_time > limit if inclusive else next_time >= limit)):
                break
            time, delta = self.step()
            finished += delta
            if stop_on_finish and delta:
                break
        return None if time is None else (time, finished)


class ElasticOpenSession(SteppedSession):
    """Elastic Kernels' closed-loop session: serialised merged launches.

    Exposes the same device-session protocol as
    :class:`GpuOpenSession`.  EK decides merges statically at launch:
    requests arriving while a merged launch runs cannot join it, so they
    queue until the device drains, then the queue head is packed into
    the next merged launch (arrival order, bounded by the merge width
    and static split floor).  The session alternates two event kinds: a
    *launch* (device idle, waiting queue non-empty — pack the queue head
    into a merged launch, simulate it as a closed batch) and the
    launch's *completion* (records become final, next launch may
    start).  Requests waiting for the device to drain are
    withdrawable — exactly the still-queued work a re-balancer may
    migrate.
    """

    def __init__(self, device):
        self.device = device
        self._isolated = isolated_table(device)
        self._scheduler = ElasticKernelsScheduler(device)
        self._waiting = []            # sorted (effective, seq, key, arrival)
        self._seq = 0
        self._now = 0.0
        self._busy_until = None
        self._inflight = 0
        self._inflight_keys = []
        self._harvestable = []
        self._results = {}

    def submit(self, key, arrival, effective_time):
        entry = (effective_time, self._seq, key, arrival)
        self._seq += 1
        bisect.insort(self._waiting, entry)

    def peek(self):
        if self._busy_until is not None:
            return self._busy_until
        if self._waiting:
            return max(self._now, self._waiting[0][0])
        return None

    def step(self):
        if self._busy_until is not None:
            time = self._busy_until
            self._now = max(self._now, time)
            self._busy_until = None
            finished, self._inflight = self._inflight, 0
            self._harvestable.extend(self._inflight_keys)
            self._inflight_keys = []
            return time, finished
        return self._launch(), 0

    def _launch(self):
        time = max(self._now, self._waiting[0][0])
        self._now = time
        eligible = [entry for entry in self._waiting
                    if entry[0] <= time + 1e-12]
        head = self._scheduler.pack(
            [base_spec(entry[3].name) for entry in eligible])[0]
        launched = eligible[:len(head.specs)]
        del self._waiting[:len(launched)]
        trace = GPUSimulator(self.device).run(
            self._scheduler.to_sim_specs(head))
        for entry, interval in zip(launched, trace.intervals):
            self._results[entry[2]] = (time + interval.start,
                                       time + interval.finish)
        self._busy_until = time + trace.makespan
        self._inflight = len(launched)
        self._inflight_keys = [entry[2] for entry in launched]
        return time

    def queued(self):
        return [QueuedRequest(key, arrival.name, arrival.tenant, effective)
                for effective, _seq, key, arrival in self._waiting]

    def withdraw(self, key):
        for position, entry in enumerate(self._waiting):
            if entry[2] == key:
                del self._waiting[position]
                return entry[0]
        raise SimulationError(
            "request {} is not queued on {}".format(key, self.device.name))

    def backlog_seconds(self, now):
        isolated = self._isolated
        total = sum(isolated[arrival.name]
                    for _eff, _seq, _key, arrival in self._waiting)
        if self._busy_until is not None:
            total += max(0.0, self._busy_until - now)
        return total

    def active_count(self):
        return self._inflight

    def harvest(self):
        """Completed requests since the last harvest, as ``(key, start,
        finish)`` tuples, dropped from the session (bounded memory)."""
        out = [(key, *self._results.pop(key)) for key in self._harvestable]
        self._harvestable = []
        return out


class SchedulingScheme:
    """One way of sharing a device among concurrent kernel requests.

    Stateless by contract: methods are pure functions of their arguments
    (device, stream, policy knobs), so one registered instance can serve
    every experiment concurrently and deterministically.  ``name`` is the
    registry key and report label; ``is_reference`` marks the standard
    stack every other scheme's improvements are measured against.
    """

    name = None
    description = ""
    is_reference = False

    # -- open system --------------------------------------------------------

    def open_session(self, device, policy=SchedulingPolicy.ADAPTIVE,
                     saturate=True):
        """One device's incremental open-system session: an object
        speaking the device-session protocol of
        :class:`repro.sim.fleet.FleetSimulator`, the one drive loop.
        Optional — schemes without one raise on every open-system run."""
        raise _missing_session_error(self)

    # -- closed batches ------------------------------------------------------

    def run_closed(self, names, device, jitter=None,
                   policy=SchedulingPolicy.ADAPTIVE, saturate=True):
        """One everything-at-t=0 repetition.

        Returns ``(turnarounds, intervals)`` with one entry per workload
        member, in input order; ``jitter`` is the per-kernel cost factor
        array of this repetition (``None`` = no jitter).
        """
        raise _missing_closed_error(self)

    # -- capabilities --------------------------------------------------------

    @property
    def supports_closed(self):
        """True when the scheme implements :meth:`run_closed`."""
        return type(self).run_closed is not SchedulingScheme.run_closed

    @property
    def supports_single(self):
        """True when the scheme implements :meth:`run_single`."""
        return type(self).run_single is not SchedulingScheme.run_single

    @property
    def supports_open_session(self):
        """True when the scheme implements :meth:`open_session` (every
        open-system run)."""
        return type(self).open_session is not SchedulingScheme.open_session

    # -- single-kernel studies ----------------------------------------------

    def run_single(self, name, device, policy=SchedulingPolicy.ADAPTIVE):
        """Single-kernel execution time at fine granularity (fig. 15).

        Returns ``(time, isolated_baseline_time)``.  Optional: schemes
        with no single-kernel mode keep this default, which raises.
        """
        raise SimulationError(
            "scheme {!r} has no single-kernel mode (schemes with one: "
            "{})".format(self.name, ", ".join(
                s for s in SCHEMES
                if SCHEMES.from_name(s).supports_single)))

    def __repr__(self):
        return "<{} {!r}>".format(type(self).__name__, self.name)


class BaselineScheme(SchedulingScheme):
    """The standard stack: unmodified kernels, firmware scheduler.

    Requests join the firmware scheduler's queue at arrival and dispatch
    in arrival order (FIFO drain-overlap or exclusive, per device).
    """

    name = "baseline"
    description = "standard OpenCL stack, firmware FIFO/exclusive scheduler"
    is_reference = True

    def open_records(self, arrivals, device,
                     policy=SchedulingPolicy.ADAPTIVE, saturate=True):
        return loop_records(self, arrivals, device, policy, saturate)

    def open_session(self, device, policy=SchedulingPolicy.ADAPTIVE,
                     saturate=True):
        return GpuOpenSession(
            device, ExecutionMode.HARDWARE,
            lambda arrival, time: base_spec(arrival.name).with_arrival(time))

    def run_closed(self, names, device, jitter=None,
                   policy=SchedulingPolicy.ADAPTIVE, saturate=True):
        trace = GPUSimulator(device).run([base_spec(n) for n in names],
                                         cost_jitter=jitter)
        return trace.turnarounds, [(iv.start, iv.finish)
                                   for iv in trace.intervals]

    def run_single(self, name, device, policy=SchedulingPolicy.ADAPTIVE):
        iso = GPUSimulator(device).run([detailed_spec(name)]).makespan
        return iso, iso


class AccelOSScheme(SchedulingScheme):
    """The paper's system: §3 sharing + §6 transformed kernels.

    Open-system runs re-run the sharing algorithm over the active request
    set on every arrival and completion; allocations grow immediately and
    shrink lazily at chunk boundaries (the re-allocation path
    generalising ``rebalance``).
    """

    name = "accelos"
    description = "§3 fair sharing, §6.4 adaptive chunking (the paper)"

    # -- spec construction ---------------------------------------------------

    def admission_spec(self, arrival, device,
                       policy=SchedulingPolicy.ADAPTIVE, saturate=True):
        """One request's spec: the Kernel Scheduler fixes the §6.4 dequeue
        chunk at admission (from the solo allocation); the physical group
        count itself is re-decided by the allocator as the active set
        changes."""
        base = base_spec(arrival.name)
        solo = compute_allocations([requirements_from_spec(base)], device,
                                   saturate=saturate)[0].groups
        chunk = effective_chunk(
            chunk_for_profile(profile_by_name(arrival.name), policy),
            base.total_groups, solo)
        return base.with_mode(ExecutionMode.ACCELOS, physical_groups=solo,
                              chunk=chunk).with_arrival(arrival.time)

    def batch_specs(self, names, device, policy=SchedulingPolicy.ADAPTIVE,
                    saturate=True):
        """Closed-batch specs: one §3 allocation across the whole batch."""
        specs = [base_spec(n) for n in names]
        allocations = compute_allocations(
            [requirements_from_spec(s) for s in specs], device,
            saturate=saturate)
        out = []
        for name, spec, allocation in zip(names, specs, allocations):
            chunk = effective_chunk(
                chunk_for_profile(profile_by_name(name), policy),
                spec.total_groups, allocation.groups)
            out.append(spec.with_mode(ExecutionMode.ACCELOS,
                                      physical_groups=allocation.groups,
                                      chunk=chunk))
        return out

    # -- execution -----------------------------------------------------------

    def open_records(self, arrivals, device,
                     policy=SchedulingPolicy.ADAPTIVE, saturate=True):
        return loop_records(self, arrivals, device, policy, saturate)

    def open_session(self, device, policy=SchedulingPolicy.ADAPTIVE,
                     saturate=True):
        # admission_spec is a pure function of the kernel name for a
        # fixed (device, policy, saturate) — everything but the arrival
        # time — so it is memoised per name: repeat requests skip the
        # solo allocation + chunk derivation.
        spec_cache = {}

        def build(arrival, time):
            spec = spec_cache.get(arrival.name)
            if spec is None:
                spec = self.admission_spec(arrival, device, policy=policy,
                                           saturate=saturate)
                spec_cache[arrival.name] = spec
            return spec.with_arrival(time)
        return GpuOpenSession(
            device, ExecutionMode.ACCELOS, build,
            allocator=sharing_allocator(device, saturate=saturate))

    def run_closed(self, names, device, jitter=None,
                   policy=SchedulingPolicy.ADAPTIVE, saturate=True):
        specs = self.batch_specs(names, device, policy=policy,
                                 saturate=saturate)
        trace = GPUSimulator(device).run(specs, cost_jitter=jitter)
        return trace.turnarounds, [(iv.start, iv.finish)
                                   for iv in trace.intervals]

    def run_single(self, name, device, policy=SchedulingPolicy.ADAPTIVE):
        spec = detailed_spec(name)
        iso = GPUSimulator(device).run([spec]).makespan
        allocation = compute_allocations([requirements_from_spec(spec)],
                                         device)[0]
        chunk = effective_chunk(
            chunk_for_profile(profile_by_name(name), policy),
            spec.total_groups, allocation.groups)
        accel = spec.with_mode(ExecutionMode.ACCELOS,
                               physical_groups=allocation.groups,
                               chunk=chunk)
        return GPUSimulator(device).run([accel]).makespan, iso


class ElasticKernelsScheme(SchedulingScheme):
    """Elastic Kernels (§7.3): static merging, serialised merged launches."""

    name = "ek"
    description = "Elastic Kernels: static merged launches, serialised"

    def open_records(self, arrivals, device,
                     policy=SchedulingPolicy.ADAPTIVE, saturate=True):
        return loop_records(self, arrivals, device, policy, saturate)

    def open_session(self, device, policy=SchedulingPolicy.ADAPTIVE,
                     saturate=True):
        return ElasticOpenSession(device)

    def run_closed(self, names, device, jitter=None,
                   policy=SchedulingPolicy.ADAPTIVE, saturate=True):
        scheduler = ElasticKernelsScheduler(device)
        groups = scheduler.pack([base_spec(n) for n in names])
        offset = 0.0
        turnarounds = [None] * len(names)
        intervals = [None] * len(names)
        cursor = 0
        for group in groups:
            specs = scheduler.to_sim_specs(group)
            group_jitter = jitter[cursor:cursor + len(specs)] \
                if jitter is not None else None
            # fresh simulator per merged launch: launches serialise
            trace = GPUSimulator(device).run(specs,
                                             cost_jitter=group_jitter)
            for local_index, iv in enumerate(trace.intervals):
                index = cursor + local_index
                turnarounds[index] = offset + iv.finish
                intervals[index] = (offset + iv.start, offset + iv.finish)
            offset += trace.makespan
            cursor += len(specs)
        return turnarounds, intervals


def _missing_closed_error(scheme):
    return SimulationError(
        "scheme {!r} has no closed-batch mode; implement run_closed, or "
        "pass schemes= explicitly (closed-capable: {})".format(
            scheme.name, ", ".join(closed_scheme_names())))


def _missing_session_error(scheme):
    return SimulationError(
        "scheme {!r} has no open_session, so it cannot serve arrival "
        "streams; implement open_session (session-capable: {})".format(
            scheme.name, ", ".join(open_scheme_names())))


def require_session(scheme):
    """Raise the actionable capability error unless ``scheme`` has a
    device session for the drive loop (every open-system run fails
    fast, before any simulation)."""
    if not scheme.supports_open_session:
        raise _missing_session_error(scheme)
    return scheme


def require_closed(scheme):
    """Raise the actionable capability error unless ``scheme`` can run
    closed batches (harness fail-fast, before any simulation)."""
    if not scheme.supports_closed:
        raise _missing_closed_error(scheme)
    return scheme


# -- the drive loop's record plumbing -----------------------------------------

def record_sink(isolated, observe):
    """The drive loop's ``on_record`` callback: build each finished
    request's :class:`RequestRecord` (slowdown denominator
    ``isolated(name)``), hand it to ``observe(entry, record)`` — the
    caller's sink — and return it for the ledger to observe."""
    def on_record(entry, start, finish):
        arrival = entry.arrival
        record = RequestRecord(arrival.name, arrival.time, start, finish,
                               isolated(arrival.name), tenant=arrival.tenant)
        observe(entry, record)
        return record
    return on_record


def device_loop(scheme, device, policy=SchedulingPolicy.ADAPTIVE,
                saturate=True, ledger=None):
    """The drive loop over one device's session, with no placement
    policy: a single device is a one-member fleet."""
    session = require_session(scheme).open_session(
        device, policy=policy, saturate=saturate)
    return FleetSimulator(DeviceFleet([device]), [session], None,
                          [isolated_table(device)], ledger=ledger)


def loop_records(scheme, arrivals, device, policy=SchedulingPolicy.ADAPTIVE,
                 saturate=True, ledger=None):
    """Exact records of one stream on one device, in the stream's
    submission order: the position-ordered sink of the drive loop."""
    records = [None] * len(arrivals)

    def observe(entry, record):
        records[entry.position] = record
    device_loop(scheme, device, policy, saturate, ledger).run(
        arrivals, record_sink(isolated_table(device).__getitem__, observe))
    return records


# -- registry -----------------------------------------------------------------

SCHEMES = Registry("scheme")


def register_scheme(scheme, replace=False):
    """Register a :class:`SchedulingScheme` (instance or zero-arg class).

    Returns the registered instance, so it doubles as a class decorator.
    """
    if isinstance(scheme, type):
        scheme = scheme()
    if not isinstance(scheme, SchedulingScheme):
        raise SimulationError(
            "schemes must subclass SchedulingScheme, got {!r}".format(
                type(scheme).__name__))
    SCHEMES.register(scheme.name, scheme, replace=replace)
    return scheme


def unregister_scheme(name):
    """Remove a registered scheme (tests clean up their toys)."""
    SCHEMES.unregister(name)


def scheme_from_name(scheme):
    """Resolve a scheme name (or pass a scheme instance through).

    Unknown names raise listing every registered scheme, so harnesses and
    benchmarks can never drift from the registry.
    """
    if isinstance(scheme, SchedulingScheme):
        return scheme
    return SCHEMES.from_name(scheme)


def scheme_names():
    """All registered scheme names, in registration (= report) order."""
    return SCHEMES.names()


def open_scheme_names():
    """Registered schemes that can serve open-system arrival streams
    (those with an ``open_session``) — the live default of
    :meth:`OpenSystemExperiment.run_all`."""
    return tuple(n for n in SCHEMES
                 if SCHEMES.from_name(n).supports_open_session)


def closed_scheme_names():
    """Registered schemes that can run closed batches — the live default
    of :func:`repro.harness.sweep.run_sweep` (an open-system-only user
    scheme must not break closed sweeps)."""
    return tuple(n for n in SCHEMES
                 if SCHEMES.from_name(n).supports_closed)


def reference_scheme():
    """The scheme improvements are measured against (the standard stack)."""
    for name in SCHEMES:
        entry = SCHEMES.from_name(name)
        if entry.is_reference:
            return entry
    raise SimulationError("no reference scheme registered")


register_scheme(BaselineScheme)
register_scheme(ElasticKernelsScheme)
register_scheme(AccelOSScheme)

# The paper's report order: reference first, then the comparison systems.
BUILTIN_SCHEMES = scheme_names()
assert BUILTIN_SCHEMES == ("baseline", "ek", "accelos")
