"""The GPU timing simulator.

Three execution modes over one event-driven core:

* **hardware** — unmodified kernels under the firmware scheduler.  Work
  groups are statically assigned round-robin to compute units (paper
  fig. 3a) and dispatch in strict kernel order subject to the device's
  policy (FIFO drain-overlap or exclusive).
* **accelos** — each kernel launches its reduced set of physical work
  groups; every physical group loops, atomically drawing chunks of virtual
  groups from the kernel's shared Virtual NDRange (fig. 3b).  Each dequeue
  costs :data:`~repro.sim.spec.SCHED_OP_OVERHEAD`, amortised by §6.4
  chunking.  Resources stay bound to the kernel until it finishes (§2.5).
* **elastic** — Elastic Kernels: physical groups receive a *static*
  pre-assignment of virtual groups (strided), so load imbalance is frozen
  at launch; no dequeue overhead, no adaptation.

Batches come in two shapes:

* :meth:`GPUSimulator.run` — a **closed batch**: every request is submitted
  at t=0 and the simulation drains it.
* :meth:`GPUSimulator.run_open` — an **open system**: requests enter the
  event loop at per-spec ``arrival_time``s; for software-scheduled kernels
  the sharing policy is re-run over the currently-active set on every
  arrival and completion (the proper re-allocation path that the closed
  batch ``rebalance`` flag only approximates).

Two pieces of hardware physics the evaluation depends on:

* **Sub-linear occupancy scaling.**  WG costs are expressed at full per-CU
  residency; with ``k`` co-resident WGs of the same kernel on a CU, each WG
  runs at ``occ = max(k, sat*k_max) / k_max`` of its full-occupancy cost
  (saturating throughput at ``sat`` of maximum occupancy).  This is why
  space sharing pays off: a kernel at 1/K residency is *not* K times
  slower.
* **Bandwidth roofline.**  Every resident WG demands memory bandwidth at
  its occupancy-corrected rate; oversubscription stretches in-flight WG
  costs proportionally (applied at dispatch).

WG costs in specs are for the reference device (K20m CU); other devices
scale them by relative per-CU throughput.

**Inputs:** a batch of :class:`~repro.sim.spec.KernelExecSpec` (one
execution mode per batch) plus, for accelOS open-system runs, an
``allocator(active_specs) -> [groups]`` callback wrapping the §3 sharing
algorithm.  **Outputs:** an :class:`~repro.sim.trace.ExecutionTrace` of
per-kernel intervals.  **Invariants:** one simulator simulates one device
(fleets compose simulators — :mod:`repro.sim.fleet`); simulation is
deterministic (no RNG; noise enters only through explicit ``cost_jitter``);
in open-system accelOS runs the allocator is re-run on *every* admission
and *every* request completion, allocations grow immediately and shrink
lazily at chunk boundaries, and resident work groups are never preempted
mid-chunk; every admitted request finishes or the run raises.

**Slots:** every placed physical work group of a software-scheduled run
is one :class:`_Slot` record, created when it is placed and dropped when
it retires.  In between it is the payload of its one pending chunk
event, and it carries its CU, its occupancy factor, its bandwidth demand
and the size of the chunk in flight.

**Event loop:** :meth:`GPUSimulator.open_advance` runs every mode.  It
processes each mode's common event inline: an accelOS slot's completion
that draws its next chunk, an Elastic Kernels slot's completion that
draws its next statically assigned group, and every firmware work
group's completion: one of the dispatch window's owner restarts the
owner's next queued group on its CU in place, any other releases its CU
and goes to the one firmware dispatcher,
:meth:`GPUSimulator._hw_dispatch`.  Every other event goes
to :meth:`GPUSimulator.open_step`, and the event sequence is the one
``open_step`` alone produces.

**Placement:** a software slot takes the CU with the most free
threads that fits it, the earliest on ties.  A closed batch's slots
and a rebalance grant scan every CU
(:meth:`GPUSimulator._admit_slot`); an open run's grow places its
slots as one wave from a heap of the CUs that fit
(:meth:`GPUSimulator._grow_run`); and a pending pass after a retire
tries the freed CU alone, the only one that can take a queued slot
(:meth:`GPUSimulator._place_pending_slots`).
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush, heapreplace
from itertools import accumulate
from math import isnan

from repro.errors import SimulationError
from repro.sim.contention import BandwidthTracker
from repro.sim.engine import (ARRIVAL_TIER, EVENT_TIER, NAN_TIME_ERROR,
                              PAST_TIME_ERROR, EventQueue)
from repro.sim.hw_sched import scheduler_for
from repro.sim.resources import CUState, per_cu_residency
from repro.sim.spec import ExecutionMode
from repro.sim.trace import ExecutionTrace, KernelInterval

# K20m per-CU throughput; spec costs are expressed against this.
_REFERENCE_CU_RATE = 384 * 706.0

# Firmware/driver handoff latency between consecutive kernels' dispatch
# windows (grid setup, channel switch).  This is why even two small kernels
# that would fit together mostly serialise on the standard stack.
KERNEL_HANDOFF_LATENCY = 90e-6

# Relative float margin of GPUSimulator.open_finish_bound's estimate:
# event times are sums of rounded additions, so a chain of n events can
# fall below the exact sum by about n * 1.1e-16 of its magnitude; 1e-9
# covers chains of millions of events and costs no measurable lookahead.
FINISH_BOUND_MARGIN = 1e-9


def device_cost_scale(device):
    """Multiplier turning reference WG costs into this device's costs."""
    rate = device.flops_per_cycle_per_cu * device.clock_mhz
    return _REFERENCE_CU_RATE / rate


def per_cu_residency_cap(spec, device):
    """Maximum WGs of ``spec`` resident on one CU (at least one)."""
    return max(1, per_cu_residency(spec, device))


def chunk_work_table(costs, chunk):
    """The work of every ``chunk``-wide dequeue window of ``costs``,
    indexed by ``base // chunk``.

    Each entry is ``float(costs[base:base + chunk].sum())``, the exact
    value a per-draw slice sum returns (a prefix-sum or reshaped sum
    could change numpy's summation order, hence bits); the last window
    may be short.  One-group windows are the costs themselves.
    """
    if chunk == 1:
        return costs.tolist()
    return [float(costs[base:base + chunk].sum())
            for base in range(0, len(costs), chunk)]


class _KernelRun:
    """Mutable per-kernel simulation state."""

    def __init__(self, index, spec, device, cost_scale, costs=None,
                 chunk_work=None):
        self.index = index
        self.spec = spec
        # ``costs``/``chunk_work`` let open-system submits share one
        # scaled cost array (and its chunk-work table) across every run
        # of the same profile; both default to per-run state.
        self.costs = spec.wg_costs * cost_scale if costs is None else costs
        if chunk_work is None and spec.mode == ExecutionMode.ACCELOS:
            chunk_work = chunk_work_table(self.costs, spec.chunk)
        self.chunk_work = chunk_work   # accelOS: work per dequeue window
        self.total = spec.total_groups
        self.k_max = per_cu_residency_cap(spec, device)
        self.completed = 0
        self.resident = 0
        self.start_time = None
        self.finish_time = None
        self.dispatch_done_time = None
        # hardware mode: static round-robin CU queues of WG indices
        self.cu_queues = None
        self.k_steady = None           # steady-state per-CU residency
        self.pending_count = self.total
        self.cu_resident = {}
        self.dispatch_ready_time = None
        # software modes
        self.next_vgroup = 0
        self.slots_to_place = 0
        self.live_slots = 0
        self.slot_assignments = None   # elastic: per-slot deques
        self.slot_counter = 0          # monotonic source of slot indices
        # open-system state
        self.active = False            # has the request arrived yet?
        self.shrink_slots = 0          # live slots to retire at chunk bounds
        self.withdrawn = False         # migrated away before starting
        # per-run view of _pending_slots, kept instead of scanning it
        self.pending_slots = 0         # live queued-slot entries of this run
        self.pending_drop = 0          # queued entries tombstoned by a shrink
        # per-WG residency footprint, computed once (registers_per_group is
        # a derived property) — read by the placement loops
        self.footprint = (spec.wg_threads, spec.registers_per_group,
                          spec.local_mem_per_wg)
        # chunk-draw constants, hoisted for the dequeue loop
        self.chunk_size = spec.chunk
        self.overhead = spec.sched_overhead
        # occupancy_factor(k) per co-residency k, filled on slot
        # activation (the factor depends only on k for a fixed spec)
        self.occ_cache = {}
        # read by GPUSimulator.open_finish_bound only, filled lazily:
        # (remaining-work suffix table, least occupancy factor), and the
        # time of the last in-flight chunk once the queue is drained
        self.work_floor = None
        self.drain_finish = None

    @property
    def finished(self):
        return self.completed >= self.total

    def mode_done(self):
        """For accelOS runs: is the shared virtual-group queue drained?
        (A pending slot whose queue is empty never needs placement.)"""
        if self.spec.mode == ExecutionMode.ACCELOS:
            return self.next_vgroup >= self.total
        return False

    def occupancy_factor(self, k):
        """Per-WG cost factor with ``k`` co-resident WGs on a CU."""
        k_sat = self.spec.sat_occupancy * self.k_max
        return max(k, k_sat) / self.k_max

    def mark_start(self, now):
        if self.start_time is None:
            self.start_time = now

    def mark_dispatch_done(self, now):
        if self.dispatch_done_time is None:
            self.dispatch_done_time = now


class _Slot:
    """One placed physical work group of a software-scheduled run.

    Created when the slot is placed on ``cu`` and dropped when it
    retires; in between it is the payload of its one pending chunk
    event.  ``index`` is the slot's number within its run (Elastic
    Kernels' static assignment), ``occ``/``rate`` its occupancy factor
    and bandwidth demand, fixed at activation, and ``done`` the virtual
    groups of the chunk in flight.
    """

    __slots__ = ("run", "cu", "index", "occ", "rate", "done")

    def __init__(self, run, cu, index):
        self.run = run
        self.cu = cu
        self.index = index
        self.occ = None
        self.rate = None
        self.done = 0


class GPUSimulator:
    """Simulates kernel execution requests on one device.

    ``rebalance`` enables the extension the paper lists as future work
    (§2.5 admits a kernel "cannot leverage additional resources that may be
    released if other kernel executions terminate first"): when a software-
    scheduled slot retires in a *closed* batch, the freed capacity is
    re-granted as extra slots to co-scheduled kernels that still have
    undrained virtual-group queues.  Off by default — the paper's accelOS
    binds allocations for a kernel's lifetime, and the evaluation benches
    quantify what that costs.  Open-system runs generalise this hook: they
    always re-run the sharing policy (the ``allocator``) over the active
    set on every arrival and completion.
    """

    def __init__(self, device, rebalance=False):
        self.device = device
        self.hardware_scheduler = scheduler_for(device)
        self.rebalance = rebalance
        self._open = False
        self._allocator = None
        # Per-event observer: ``event_observer(time, payload)`` is called
        # once for every event, before it is processed, by open_step and
        # by open_advance's inline arms alike; attaching one does not
        # change which path handles an event.  A chunk event's payload
        # is its slot record (``_Slot``: ``payload.run`` is the request),
        # a firmware completion's ``(run, cu, wg, rate)``; open_step has
        # already popped the event, while open_advance's inline arms
        # still hold it at the heap's root.
        self.event_observer = None

    # -- public -----------------------------------------------------------

    def run(self, specs, cost_jitter=None):
        """Simulate a closed batch; all specs must share one execution mode.

        ``cost_jitter`` optionally scales each kernel's costs by a per-run
        factor (array of len(specs)), modelling run-to-run system noise for
        the paper's 20-repetition averaging.
        """
        mode = self._check_batch(specs)
        if any(s.arrival_time > 0 for s in specs):
            raise SimulationError(
                "closed batches submit everything at t=0; "
                "use run_open for per-spec arrival times")
        self._setup(specs, cost_jitter)
        self._open = False
        self._allocator = None
        # open_step/open_advance dispatch on these (the closed batch
        # runs through the same loop)
        self._open_mode = self._software_mode = mode

        if mode == ExecutionMode.HARDWARE:
            self._run_hardware()
        else:
            self._run_software(mode)
        return self._collect_trace(mode)

    def run_open(self, specs, allocator=None):
        """Simulate an open system: specs enter at their ``arrival_time``.

        * **hardware** mode: a kernel joins the firmware scheduler's queue
          at its arrival time; dispatch order is arrival order under the
          device's policy (FIFO drain-overlap or exclusive).
        * **accelos** mode: arrivals pass FIFO admission control — a
          request is only admitted while the minimum (one-group)
          allocations of everything already admitted still fit the device;
          a burst beyond that waits in the arrival queue (queueing delay)
          until completions free capacity.  On every admission *and* every
          request completion the ``allocator`` callback —
          ``allocator(active_specs) -> [groups]``, normally wrapping the §3
          sharing algorithm — is re-run over the admitted kernels whose
          virtual-group queues are still undrained.  Targets above a
          kernel's live slot count grow it immediately (or queue slots when
          per-CU packing is fragmented); targets below shrink it lazily at
          chunk boundaries, since resident work groups cannot be preempted
          mid-chunk.
        * **elastic** mode is rejected: statically merged kernels cannot
          join a running launch — replay serialised merged launches instead
          (see :mod:`repro.harness.open_system`).

        Returns an :class:`ExecutionTrace` whose intervals carry arrival
        times, so turnaround and queueing delay are per-request.
        """
        mode = self._check_batch(specs)
        self.open_begin(mode, allocator=allocator)
        # FIFO priority is arrival order (ties broken by submission order).
        order = sorted(range(len(specs)),
                       key=lambda i: (specs[i].arrival_time, i))
        for i in order:
            self.open_submit(specs[i], index=i)
        self.open_drain()
        return self.open_trace()

    # -- incremental open-system interface ------------------------------------
    #
    # The advance-to-next-event core :meth:`run_open` is built on, exposed
    # so a fleet co-simulation (:class:`repro.sim.fleet.FleetSimulator`)
    # can merge several devices onto one timeline: submit requests as the
    # placement loop decides them, advance each device only as far as the
    # global clock allows, observe live state between events, and withdraw
    # still-queued requests for cross-device migration.  A batch
    # ``run_open`` is exactly ``open_begin`` + sorted ``open_submit`` +
    # ``open_drain`` + ``open_trace`` — one code path, so the incremental
    # and batch forms cannot drift apart.

    def open_begin(self, mode, allocator=None):
        """Start an empty open-system run accepting incremental submits."""
        if mode == ExecutionMode.ELASTIC:
            raise SimulationError(
                "elastic kernels cannot join a running merged launch; "
                "replay serialised merged launches instead "
                "(harness.open_system)")
        if mode == ExecutionMode.ACCELOS and allocator is None:
            raise SimulationError(
                "accelos open-system runs need an allocator callback")
        self._setup([], None)
        self._open = True
        self._allocator = allocator
        self._open_mode = mode
        self._software_mode = mode
        self._pending_slots = deque()
        self._admission_queue = deque()

    def open_submit(self, spec, index=None):
        """Add one request to the running open system.

        Submissions must come in arrival order (the FIFO contract of
        :meth:`run_open`); the spec's ``arrival_time`` must not precede
        the simulator's clock.  Returns the mutable run handle, whose
        ``start_time``/``finish_time`` carry the request's timing once
        simulated.
        """
        if spec.mode != self._open_mode:
            raise SimulationError(
                "open run is in {} mode, got a {} spec".format(
                    self._open_mode, spec.mode))
        if spec.arrival_time < self.events.now - 1e-12:
            raise SimulationError(
                "request {} would arrive in the simulated past "
                "({} < {})".format(spec.name, spec.arrival_time,
                                   self.events.now))
        first = self._live_submissions == 0
        self._live_submissions += 1
        run_index = index if index is not None else len(self.runs)
        # Streams re-submit the same profile (one shared wg_costs array
        # per kernel) thousands of times; scale it once per simulator and
        # share the scaled array — and its chunk-work table per chunk
        # size — across those runs.  Both are read-only downstream and
        # hold exactly what per-run state would.
        entry = self._costs_cache.get(id(spec.wg_costs))
        if entry is None or entry[0] is not spec.wg_costs:
            entry = (spec.wg_costs, spec.wg_costs * self._cost_scale, {},
                     {})
            self._costs_cache[id(spec.wg_costs)] = entry
        chunk_work = None
        if spec.mode == ExecutionMode.ACCELOS:
            tables = entry[2]
            chunk_work = tables.get(spec.chunk)
            if chunk_work is None:
                chunk_work = tables[spec.chunk] = chunk_work_table(
                    entry[1], spec.chunk)
        run = _KernelRun(run_index, spec, self.device, self._cost_scale,
                         costs=entry[1], chunk_work=chunk_work)
        # Keep the run list sorted by (arrival, submission order): it IS
        # the FIFO priority order of the hardware dispatch window and the
        # allocator's iteration order.  Plain arrival-order submission
        # (the batch path, and a fleet loop without migration) appends;
        # only a migrated request re-homed behind later submissions needs
        # the insertion scan.
        at = len(self.runs)
        while at > 0 and self.runs[at - 1].spec.arrival_time \
                > spec.arrival_time:
            at -= 1
        self.runs.insert(at, run)
        # a run inserted ahead of a dispatch cursor pulls it back
        self._hw_head = min(self._hw_head, at)
        self._hw_settled = min(self._hw_settled, at)
        if self._open_mode == ExecutionMode.HARDWARE:
            self._build_cu_queues(run)
            if first:
                # The first arrival finds an idle device: its grid is set
                # up by its submission, so it dispatches at arrival
                # without a handoff window (mirroring the closed batch's
                # first kernel).  Later kernels pay the handoff when they
                # take over the dispatch window.
                run.dispatch_ready_time = spec.arrival_time
            self.events.push(spec.arrival_time, None, tier=ARRIVAL_TIER)
        else:
            self.events.push(spec.arrival_time, ("arrival", run),
                             tier=ARRIVAL_TIER)
            heappush(self._arrival_times, spec.arrival_time)
        self._bound = None
        return run

    def open_peek(self):
        """The next event's time, or None when the device is drained."""
        return self.events.peek_time()

    def open_finish_bound(self):
        """A lower bound on the time of the next event that finishes a
        request or leaves the device idle (None when it is idle now).

        A fleet runs its other devices up to this bound without looking
        at this one (:meth:`repro.sim.fleet.FleetSimulator._advance_before`).
        Firmware runs return the next event's time.  For accelOS runs
        the bound rests on four facts about this engine:

        (a) a request finishes only in :meth:`_retire_slot`, when its
            last live slot retires with its virtual-group queue drained;
        (b) a run not yet admitted can only be admitted by
            :meth:`_admit_arrivals`, which runs at an arrival event,
            after a finish or on a withdraw: each is a point this bound
            already stops at (the first two) or one that recomputes it
            (a withdraw), so runs not yet admitted are skipped;
        (c) an admitted run's slot target changes only in
            :meth:`_reallocate` (at an arrival, a finish or a withdraw),
            so until then the run works on at most ``live_slots +
            pending_slots`` slots at once;
        (d) every chunk takes at least ``chunk_work × occ_min +
            overhead``, where ``occ_min = max(1, sat_occupancy·k_max) /
            k_max`` is the least occupancy factor, and the bandwidth
            stretch is at least 1.

        So an admitted run whose queue is drained finishes exactly at
        the latest of its in-flight chunk events.  That time is fixed
        from then on; one heap pass over the runs drained since the
        last bound finds it, and it is kept on the run.  An undrained
        run finishes no earlier than the next event plus its remaining
        chunk work (from a suffix-sum table per profile and chunk size,
        kept beside the chunk-work table) spread over ``max(1, live +
        pending)`` slots.  A pending arrival event caps the bound at its
        time, and the next event's time is a floor.  The estimate is
        shrunk by :data:`FINISH_BOUND_MARGIN` of its magnitude: each
        event time is one rounded addition, so a chain of ``n`` events
        drifts from the exact sum by at most about ``n`` ulps.

        The bound is cached until the device processes an event, takes
        a submission or gives one up.  It only reads the engine's
        state; the event loop does no work for it.
        """
        heap = self.events._heap
        if not heap:
            return None
        now = heap[0][0]
        if self._open_mode != ExecutionMode.ACCELOS:
            return now
        cached = self._bound
        if cached is not None and cached[0] == self.events_processed:
            return cached[1]
        bound = self._arrival_times[0] if self._arrival_times else None
        drained = {}                    # runs drained since the last bound
        for run in self._live_active:
            if run.next_vgroup >= run.total:
                finish = run.drain_finish
                if finish is None:
                    drained[run] = now
                    continue
            else:
                floor = run.work_floor
                if floor is None:
                    floor = run.work_floor = (self._work_suffix(run),
                                              run.occupancy_factor(1))
                suffix, occ_min = floor
                index = run.next_vgroup // run.chunk_size
                slots = run.live_slots + run.pending_slots
                gap = ((suffix[index] * occ_min
                        + (len(suffix) - 1 - index) * run.overhead)
                       / (slots if slots > 1 else 1))
                finish = now + gap - (abs(now) + abs(gap)) \
                    * FINISH_BOUND_MARGIN
            if bound is None or finish < bound:
                bound = finish
        if drained:
            for entry in heap:
                slot = entry[3]
                if slot.__class__ is _Slot and slot.run in drained \
                        and entry[0] > drained[slot.run]:
                    drained[slot.run] = entry[0]
            for run, finish in drained.items():
                run.drain_finish = finish
                if bound is None or finish < bound:
                    bound = finish
        if bound is None or bound < now:
            bound = now
        self._bound = (self.events_processed, bound)
        return bound

    def _work_suffix(self, run):
        """``run``'s chunk-work suffix sums: entry ``i`` is the work of
        windows ``i`` onward, with a trailing 0.  Shared per profile and
        chunk size through ``_costs_cache``, built on first use (per run
        when the cache keeps no entry, as in the test-side reference
        engine)."""
        entry = self._costs_cache.get(id(run.spec.wg_costs))
        tables = entry[3] if entry is not None else {}
        suffix = tables.get(run.chunk_size)
        if suffix is None:
            suffix = list(accumulate(reversed(run.chunk_work)))
            suffix.reverse()
            suffix.append(0.0)
            tables[run.chunk_size] = suffix
        return suffix

    def open_step(self):
        """Process exactly one event; returns its simulation time."""
        time, payload = self.events.pop()
        self.events_processed += 1
        if self.event_observer is not None:
            self.event_observer(time, payload)
        if self._open_mode == ExecutionMode.HARDWARE:
            self._process_hw_event(payload)
        else:
            self._process_software_event(payload)
        return time

    def open_advance(self, limit=None, inclusive=False, stop_on_finish=False):
        """Process events in time order up to ``limit``.

        An event at exactly ``limit`` is processed only when
        ``inclusive``; ``limit=None`` runs until the device drains.  With
        ``stop_on_finish`` the call returns right after the first event
        that finishes a request (a fleet's re-balance point).  Returns
        the time of the last event processed, or None if there was none.

        This is the event loop of all three execution modes.  Nearly
        every event is a work group (or chunk) completion whose handling
        is short, so the loop does the common ones inline, with
        :meth:`EventQueue.push`'s checks, the observer call and the
        event count:

        * a software slot's completion draws its next chunk (accelOS:
          from the shared virtual-group queue; Elastic Kernels: its next
          statically assigned group), and the slot's next event replaces
          the heap's root (one ``heapreplace`` sift, which pops in the
          same order as a pop then a push because every key ``(time,
          tier, seq)`` is unique).  A slot that retires instead (queue
          drained, or an accelOS shrink pending) is popped and goes to
          :meth:`_retire_slot`;
        * a firmware work group's completion of the dispatch window's
          owner (``_hw_partial``), when the owner is ``runs[_hw_head]``
          and its queue on the freed CU is non-empty and shorter than
          its pending count, restarts in place: the owner fit no queued
          group there before, so exactly the freed footprint fits one,
          at the same ``cu_resident`` count.  The CU release and admit
          and ``cu_resident``'s −1/+1 are skipped, since their integers
          net to zero; ``remove_rate`` (with its negative-demand guard),
          then the add and the stretch of :meth:`_start_hw_wgs`, run in
          that order; and the group's event replaces the heap's root.
          Keep this arm in step with :meth:`_complete_hw_wg` and
          :meth:`_start_hw_wgs`;
        * any other firmware completion is popped, releases its CU
          (:meth:`_complete_hw_wg`) and calls :meth:`_hw_dispatch` with
          it, whose early exits skip the dispatch pass when it would
          start nothing or only the window owner's groups on that CU.

        Every other event (a dispatch kick, a software arrival) goes to
        :meth:`open_step`; the event sequence is the one
        :meth:`open_step` alone produces.
        """
        events = self.events
        heap = events._heap
        counter = events._counter
        step = self.open_step
        accelos = self._software_mode == ExecutionMode.ACCELOS
        bandwidth = self.bandwidth
        capacity = bandwidth.capacity
        observer = self.event_observer
        finished = self.finished_requests
        time = None
        while heap:
            # a software chunk event's payload is its slot record (a
            # firmware completion's is a tuple)
            next_time, _, _, slot = heap[0]
            if limit is not None and (next_time > limit if inclusive
                                      else next_time >= limit):
                break
            if slot.__class__ is _Slot:
                time = next_time
                now = events.now
                if next_time > now:
                    now = events.now = next_time
                self.events_processed += 1
                if observer is not None:
                    observer(next_time, slot)
                run = slot.run
                run.completed += slot.done
                if accelos:
                    base = run.next_vgroup
                    if base < run.total and run.shrink_slots == 0:
                        # The accelOS arm of _draw_chunk, inlined with
                        # the bandwidth stretch (BandwidthTracker._stretch)
                        # and EventQueue.push; keep the copies (here, in
                        # the Elastic Kernels arm below and in
                        # _start_slot) in step.  A slot that draws
                        # finishes no request.
                        chunk = run.chunk_size
                        end = base + chunk
                        if end > run.total:
                            end = run.total
                        run.next_vgroup = end
                        slot.done = end - base
                        demand = bandwidth.demand
                        if demand <= capacity:
                            stretch = 1.0
                        else:
                            resident = bandwidth.resident
                            if (resident == 0
                                    or slot.rate <= capacity / resident):
                                stretch = 1.0
                            else:
                                stretch = demand / capacity
                        at = now + (run.chunk_work[base // chunk] * slot.occ
                                    * stretch + run.overhead)
                        if not at >= now - 1e-12:   # NaN or in the past
                            raise SimulationError(
                                NAN_TIME_ERROR if isnan(at)
                                else PAST_TIME_ERROR.format(at, now))
                        heapreplace(heap,
                                    (at, EVENT_TIER, next(counter), slot))
                        continue
                    # the slot retires: its queue drained, or a shrink is
                    # pending (the accelOS retire arms of _draw_chunk)
                    heappop(heap)
                    if base < run.total:
                        run.shrink_slots -= 1
                else:
                    queue = run.slot_assignments[slot.index]
                    if queue:
                        # The Elastic Kernels arm of _draw_chunk (no
                        # dequeue overhead), inlined likewise.
                        work = float(run.costs[queue.popleft()])
                        slot.done = 1
                        demand = bandwidth.demand
                        if demand <= capacity:
                            stretch = 1.0
                        else:
                            resident = bandwidth.resident
                            if (resident == 0
                                    or slot.rate <= capacity / resident):
                                stretch = 1.0
                            else:
                                stretch = demand / capacity
                        at = now + work * slot.occ * stretch
                        if not at >= now - 1e-12:   # NaN or in the past
                            raise SimulationError(
                                NAN_TIME_ERROR if isnan(at)
                                else PAST_TIME_ERROR.format(at, now))
                        heapreplace(heap,
                                    (at, EVENT_TIER, next(counter), slot))
                        continue
                    # the slot's static assignment is drained
                    heappop(heap)
                self._retire_slot(slot)
            # a tuple payload outside accelOS runs is a firmware
            # completion (an Elastic Kernels run, a closed batch, has no
            # arrival events): _process_hw_event's completion arm, inlined
            elif not accelos and slot.__class__ is tuple:
                time = next_time
                now = events.now
                if next_time > now:
                    now = events.now = next_time
                self.events_processed += 1
                if observer is not None:
                    observer(next_time, slot)
                run, cu, _, rate = slot
                queue = run.cu_queues[cu.index]
                if (run is self._hw_partial and queue
                        and len(queue) < run.pending_count
                        and self.runs[self._hw_head] is run):
                    # The owner restarts in place: _complete_hw_wg and
                    # _hw_dispatch's exit (a) fused (see the docstring).
                    # The run keeps pending groups, so it finishes
                    # nothing and keeps the window.
                    run.completed += 1
                    run.pending_count -= 1
                    bandwidth.remove_rate(rate)
                    wg = queue.popleft()
                    k = run.cu_resident[cu.index]
                    if k < run.k_steady:
                        k = run.k_steady
                    occ = run.occ_cache.get(k)
                    if occ is None:
                        occ = run.occ_cache[k] = run.occupancy_factor(k)
                    rate = run.spec.mem_rate_per_wg / occ
                    demand = bandwidth.demand = bandwidth.demand + rate
                    resident = bandwidth.resident = bandwidth.resident + 1
                    if demand <= capacity or rate <= capacity / resident:
                        stretch = 1.0
                    else:
                        stretch = demand / capacity
                    at = now + float(run.costs[wg]) * occ * stretch
                    if not at >= now - 1e-12:   # NaN or in the past
                        raise SimulationError(
                            NAN_TIME_ERROR if isnan(at)
                            else PAST_TIME_ERROR.format(at, now))
                    heapreplace(heap, (at, EVENT_TIER, next(counter),
                                       (run, cu, wg, rate)))
                    continue
                heappop(heap)
                self._complete_hw_wg(run, cu, rate)
                self._hw_dispatch(cu)
            else:
                time = step()
            if stop_on_finish and self.finished_requests != finished:
                break
        return time

    def open_advance_before(self, time):
        """Process every event strictly before ``time`` (the causality
        boundary of an arrival: a device may not run ahead of a request
        that could still be submitted to it)."""
        self.open_advance(time)

    def open_drain(self):
        """Process all remaining events (no further submissions)."""
        self.open_advance()

    def open_trace(self):
        """The finished run's :class:`ExecutionTrace` (raises if any
        admitted request never finished)."""
        if self._harvested:
            raise SimulationError(
                "open_trace needs the full run list, but finished runs "
                "were pruned by open_harvest; a streaming consumer must "
                "collect timings from the harvested runs instead")
        if self._open_mode != ExecutionMode.HARDWARE:
            self._check_software_drained()
        return self._collect_trace(self._open_mode)

    def open_harvest(self):
        """Finished runs since the last harvest, pruned from the run list.

        The bounded-memory contract of streaming open-system runs: once a
        request finishes, its timing is final, and every scheduling
        decision (FIFO/exclusive eligibility, admission fits, the
        allocator's active set) treats finished runs exactly like absent
        ones — so removing them from ``self.runs`` is observationally
        equivalent and keeps both memory *and* per-event scan cost bounded
        by the live set.  Callers take ownership of the returned runs
        (``start_time``/``finish_time``/``index`` are final); batch-style
        ``open_trace`` is unavailable after the first non-empty harvest.
        """
        harvested = []
        while self._finished_runs:
            run = self._finished_runs.popleft()
            self._remove_run(run)
            harvested.append(run)
        if harvested:
            self._harvested = True
        return harvested

    def open_withdrawable(self, run):
        """May ``run`` still be withdrawn (migrated to another device)?

        Only before the device commits resources: a software-scheduled
        request is withdrawable until admission control activates it, a
        hardware request until the firmware begins its grid setup.
        """
        if run.withdrawn:
            return False
        if self._open_mode == ExecutionMode.HARDWARE:
            return (run.start_time is None
                    and (run.dispatch_ready_time is None
                         or self.events.now + 1e-15 < run.spec.arrival_time))
        return not run.active

    def open_withdraw(self, run):
        """Remove a still-queued request (it migrates to another device).

        The run must be :meth:`open_withdrawable`; its pending arrival
        event (if any) becomes a no-op.  Withdrawing may unblock the
        admission queue (software modes) or the dispatch window
        (hardware), so both are re-checked.
        """
        if not self.open_withdrawable(run):
            raise SimulationError(
                "request {} cannot be withdrawn: it already started on "
                "this device".format(run.spec.name))
        run.withdrawn = True
        self._remove_run(run)
        self._live_submissions -= 1
        self._bound = None
        if self._open_mode == ExecutionMode.HARDWARE:
            # a blocked successor may now own the dispatch window: kick
            # the dispatcher at the current time
            self.events.push(self.events.now, None)
        else:
            if run in self._admission_queue:
                self._admission_queue.remove(run)
            if self._admit_arrivals():
                self._reallocate()

    def _remove_run(self, run):
        """Drop ``run`` from the run list, keeping the dispatch cursors
        on the runs they pointed at."""
        at = self.runs.index(run)
        del self.runs[at]
        if at < self._hw_head:
            self._hw_head -= 1
        if at < self._hw_settled:
            self._hw_settled -= 1

    # -- shared setup / teardown ----------------------------------------------

    def _check_batch(self, specs):
        if not specs:
            raise SimulationError("empty batch")
        modes = {s.mode for s in specs}
        if len(modes) > 1:
            raise SimulationError("mixed execution modes in one batch")
        return modes.pop()

    def _setup(self, specs, cost_jitter):
        scale = device_cost_scale(self.device)
        runs = []
        for i, spec in enumerate(specs):
            jitter = 1.0 if cost_jitter is None else float(cost_jitter[i])
            runs.append(_KernelRun(i, spec, self.device, scale * jitter))
        self.events = EventQueue()
        self.cus = [CUState(i, self.device) for i in range(self.device.num_cus)]
        self.bandwidth = BandwidthTracker(self.device)
        self.runs = runs
        self._cost_scale = scale
        self.finished_requests = 0
        # events popped off the queue — the denominator of events/sec in
        # benchmarks/bench_engine.py
        self.events_processed = 0
        # running state the per-event decisions read instead of scanning
        # self.runs and _pending_slots
        self._adm_threads = 0          # admission footprint of active,
        self._adm_lmem = 0             # unfinished software runs
        self._adm_regs = 0
        self._live_active = {}         # admitted unfinished runs, in
        #                                admission order == self.runs order
        # id(spec.wg_costs) -> (wg_costs, scaled costs,
        # {chunk size: chunk-work table}, {chunk size: its suffix sums,
        # built by the first finish bound that reads them}); holding the
        # key array pins its id, so entries cannot collide
        self._costs_cache = {}
        # open-system finish bound: the times of the pending arrival
        # events (a heap), and the last bound with the event count it
        # was computed at (None after a submit or a withdraw)
        self._arrival_times = []
        self._bound = None
        # resource footprint -> live queued-slot entries with it: the index
        # over _pending_slots that lets a placement pass stop as soon as
        # every queued footprint is known-unplaceable
        self._pending_footprints = {}
        # open-system streaming support: finished runs queue here until
        # the owner harvests (and thereby prunes) them
        self._finished_runs = deque()
        self._harvested = False
        # submissions minus withdrawals — what len(self.runs) would be
        # had no finished run been pruned; open_submit's first-arrival
        # rule keys on it so harvesting cannot change dispatch timing
        self._live_submissions = 0
        # firmware dispatch cursors into self.runs: no run before
        # _hw_head has pending groups, and no run before _hw_settled
        # blocks its successors under the device's policy
        self._hw_head = 0
        self._hw_settled = 0
        # the run whose dispatch pass ended the previous firmware event
        # with groups still pending (None when that event ended otherwise)
        self._hw_partial = None

    def _collect_trace(self, mode):
        intervals = []
        for run in sorted(self.runs, key=lambda r: r.index):
            if run.finish_time is None:
                raise SimulationError(
                    "kernel {} never finished (resources too small?)".format(
                        run.spec.name))
            intervals.append(KernelInterval(
                run.spec.name, run.start_time, run.finish_time,
                run.dispatch_done_time, float(run.costs.sum()),
                run.spec.arrival_time))
        return ExecutionTrace(intervals, self.device.name, mode)

    # -- hardware mode --------------------------------------------------------

    def _run_hardware(self):
        for run in self.runs:
            self._build_cu_queues(run)
        self.runs[0].dispatch_ready_time = 0.0
        self._hw_dispatch()
        self.open_advance()

    def _build_cu_queues(self, run):
        """Assign ``run``'s WGs round-robin to static per-CU queues."""
        num_cus = self.device.num_cus
        run.cu_queues = [deque(range(cu, run.total, num_cus))
                         for cu in range(num_cus)]
        # the kernel's steady-state per-CU residency (see _start_hw_wgs)
        run.k_steady = min(run.k_max, -(-run.total // num_cus))

    def _process_hw_event(self, payload):
        if payload is None:
            self._hw_dispatch()
        else:
            run, cu, wg, rate = payload
            self._complete_hw_wg(run, cu, rate)
            self._hw_dispatch(cu)

    def _hw_dispatch(self, freed_cu=None):
        """Start every WG the firmware policy lets start now.

        ``freed_cu`` is the CU a WG completion just released.  When the
        run that reaches the CU pass is the one whose previous pass
        ended with groups still pending (the dispatch window's owner),
        every other CU either had no queued WG of it or could not fit
        one then, and has only lost capacity since; so only ``freed_cu``
        is tried.

        Four early exits skip the pass (and the cursor update, which
        stays lazy: both cursors are monotone, so the next pass advances
        them to the same runs): (a) the owner is the head run and its
        queue on ``freed_cu`` cannot drain it, so it keeps the window
        and starts groups on that CU only (:meth:`open_advance` restarts
        a completion of the owner's own group in place instead, so this
        exit serves other runs' completions and :meth:`open_step`'s);
        (b) no run has pending groups; (c) there is no owner and the
        first pending run waits for its arrival or its handoff window;
        (d) there is no owner and the run at the settled cursor, before
        the head cursor, blocks its successors (the exclusive policy
        while the oldest unfinished kernel runs): every run with pending
        groups sits behind it, so none is eligible.  Under FIFO no run
        before the head cursor has pending groups, so none blocks and
        (d) never fires.  A stale head cursor falls through to the pass.
        """
        now = self.events.now
        runs = self.runs
        head = self._hw_head
        owner = self._hw_partial
        if owner is not None:
            if (freed_cu is not None and head < len(runs)
                    and runs[head] is owner
                    and len(owner.cu_queues[freed_cu.index])
                    < owner.pending_count):
                self._start_hw_wgs(owner, freed_cu, now)     # (a)
                return
        elif head == len(runs):
            return                                           # (b)
        else:                                                # (c)
            waiting = runs[head]
            ready = waiting.dispatch_ready_time
            if (waiting.pending_count
                    and (now + 1e-15 < waiting.spec.arrival_time
                         or (ready is not None and now + 1e-15 < ready))):
                return
            settled = self._hw_settled
            if (settled < head
                    and self.hardware_scheduler.blocks(runs[settled])):
                return                                       # (d)
        head, settled = self._hw_cursors()
        self._hw_partial = None
        for index in range(head, len(runs)):
            run = runs[index]
            if run.pending_count == 0:
                continue
            if not self.hardware_scheduler.eligible(index, runs, settled):
                break  # kernel order is strict; later kernels are blocked too
            if now + 1e-15 < run.spec.arrival_time:
                break  # not submitted yet; its arrival event will wake us
            if run.dispatch_ready_time is None:
                # this kernel just became eligible: the firmware needs a
                # handoff window before its grid starts dispatching
                run.dispatch_ready_time = now + KERNEL_HANDOFF_LATENCY
                self.events.push(run.dispatch_ready_time, None)
                break
            if now + 1e-15 < run.dispatch_ready_time:
                break
            cus = self.cus
            if run is owner and freed_cu is not None:
                cus = (freed_cu,)
            queues = run.cu_queues
            for cu in cus:
                if queues[cu.index]:
                    self._start_hw_wgs(run, cu, now)
            if run.pending_count > 0:
                self._hw_partial = run
                break  # this kernel still owns the dispatch window

    def _hw_cursors(self):
        """Move the dispatch cursors forward past every run that no
        longer has pending groups (``_hw_head``) or no longer blocks its
        successors (``_hw_settled``); returns ``(head, settled)``."""
        runs = self.runs
        count = len(runs)
        head = self._hw_head
        while head < count and runs[head].pending_count == 0:
            head += 1
        blocks = self.hardware_scheduler.blocks
        settled = self._hw_settled
        while settled < count and not blocks(runs[settled]):
            settled += 1
        self._hw_head = head
        self._hw_settled = settled
        return head, settled

    def _start_hw_wgs(self, run, cu, now):
        """Start ``run``'s groups queued on ``cu`` while they fit there.

        The wave is admitted in one step: the count that fits is the
        least of the queue's length, the free slots and each free
        resource over the run's footprint (a zero footprint never
        binds), and the CU's integers, ``cu_resident``, ``resident``
        and ``pending_count`` change once.  Each group is then rated in
        turn, as :meth:`CUState.admit`, :meth:`BandwidthTracker.stretch`
        and ``add_rate`` and :meth:`EventQueue.push` one at a time
        would: its co-residency ``k`` rises by one per group, and its
        demand is added, and its stretch taken, before the next group's.
        :meth:`open_advance`'s in-place restart copies the rating of one
        group; keep the two in step.
        """
        queue = run.cu_queues[cu.index]
        threads, regs, lmem = run.footprint
        # the wave: every queued group that fits the CU now (a zero
        # footprint never binds, as in the one-group fit test)
        count = len(queue)
        if cu.slots_free < count:
            count = cu.slots_free
        if threads > 0 and cu.threads_free // threads < count:
            count = cu.threads_free // threads
        if regs > 0 and cu.registers_free // regs < count:
            count = cu.registers_free // regs
        if lmem > 0 and cu.local_mem_free // lmem < count:
            count = cu.local_mem_free // lmem
        if count <= 0:
            return
        cu.threads_free -= threads * count
        cu.registers_free -= regs * count
        cu.local_mem_free -= lmem * count
        cu.slots_free -= count
        cu_resident = run.cu_resident
        k = cu_resident.get(cu.index, 0)
        cu_resident[cu.index] = k + count
        run.resident += count
        run.pending_count -= count
        # a run's first pass may find no CU with room, so its first
        # group can start on a later completion's freed CU
        if run.start_time is None:
            run.start_time = now
        if run.pending_count == 0:
            run.mark_dispatch_done(now)
        k_steady = run.k_steady
        occ_cache = run.occ_cache
        costs = run.costs
        rate_per_wg = run.spec.mem_rate_per_wg
        bandwidth = self.bandwidth
        capacity = bandwidth.capacity
        demand = bandwidth.demand
        resident = bandwidth.resident
        heap = self.events._heap
        counter = self.events._counter
        for _ in range(count):
            wg = queue.popleft()
            k += 1
            # Rate the WG at the kernel's steady-state residency (bounded
            # by how much work the kernel has at all): WG durations in
            # this model are lifetime averages, so neither ramp-up nor
            # drain-tail instants get a transient speed boost — the
            # software-scheduled modes rate their slots the same way,
            # keeping the comparison symmetric.
            level = k if k > k_steady else k_steady
            occ = occ_cache.get(level)
            if occ is None:
                occ = occ_cache[level] = run.occupancy_factor(level)
            rate = rate_per_wg / occ
            # each group's demand is added, and its stretch taken, in
            # turn: one sum over the wave would round differently
            demand = demand + rate
            resident += 1
            if demand <= capacity or rate <= capacity / resident:
                stretch = 1.0
            else:
                stretch = demand / capacity
            at = now + float(costs[wg]) * occ * stretch
            if not at >= now - 1e-12:   # NaN or in the past
                raise SimulationError(NAN_TIME_ERROR if isnan(at)
                                      else PAST_TIME_ERROR.format(at, now))
            heappush(heap, (at, EVENT_TIER, next(counter),
                            (run, cu, wg, rate)))
        bandwidth.demand = demand
        bandwidth.resident = resident

    def _complete_hw_wg(self, run, cu, rate):
        # inlined cu.release(run.spec) via the cached footprint;
        # open_advance's in-place restart folds this into a start, so
        # keep the two in step
        threads, regs, lmem = run.footprint
        cu.threads_free += threads
        cu.registers_free += regs
        cu.local_mem_free += lmem
        cu.slots_free += 1
        self.bandwidth.remove_rate(rate)
        run.cu_resident[cu.index] -= 1
        run.resident -= 1
        run.completed += 1
        if run.finished:
            run.finish_time = self.events.now
            self.finished_requests += 1
            if self._open:
                self._finished_runs.append(run)

    # -- software-scheduled modes (accelOS / Elastic Kernels) ---------------------

    def _run_software(self, mode):
        # All kernels are admitted together: the sharing algorithm (or EK's
        # static merge) guarantees the combined allocation fits the device.
        for run in self.runs:
            run.slots_to_place = run.spec.physical_groups
            run.slot_counter = run.spec.physical_groups
            run.active = True
            run.mark_start(0.0)
            if mode == ExecutionMode.ELASTIC:
                slots = run.spec.physical_groups
                run.slot_assignments = [deque(range(s, run.total, slots))
                                        for s in range(slots)]

        self._pending_slots = deque()
        self._place_software_slots()
        self.open_advance()
        self._check_software_drained()

    def _process_software_event(self, payload):
        if payload.__class__ is _Slot:
            payload.run.completed += payload.done
            self._draw_chunk(payload)
            return
        run = payload[1]     # ("arrival", run)
        # arrival events pop in time order, so this one is the earliest
        heappop(self._arrival_times)
        if run.withdrawn:
            return  # migrated to another device before arriving
        self._admission_queue.append(run)
        if self._admit_arrivals():
            self._reallocate()

    def _admit_arrivals(self):
        """FIFO admission control for open-system arrivals.

        The §3 algorithm guarantees nothing if even one group per kernel
        exceeds the device (sharing raises), so a request only joins the
        active set while the minimum allocations of everything already
        admitted — finished requests excepted — plus its own still fit;
        the rest of a burst waits in arrival order and is admitted as
        completions free capacity.  Returns True if anything was admitted.
        """
        admitted = False
        while self._admission_queue:
            if not self._admission_fits(self._admission_queue[0]):
                break
            run = self._admission_queue.popleft()
            run.active = True
            # incremental admission accounting + the live-active set
            # (admission order is arrival order, which is self.runs order)
            spec = run.spec
            self._adm_threads += spec.wg_threads
            self._adm_lmem += spec.local_mem_per_wg
            self._adm_regs += spec.registers_per_group
            self._live_active[run] = None
            admitted = True
        return admitted

    def _admission_fits(self, candidate):
        # running int totals of the admitted, unfinished footprint
        # (updated on admit and finish)
        spec = candidate.spec
        return (self._adm_threads + spec.wg_threads
                <= self.device.max_threads
                and (self._adm_lmem + spec.local_mem_per_wg
                     <= self.device.total_local_mem)
                and (self._adm_regs + spec.registers_per_group
                     <= self.device.total_registers))

    def _check_software_drained(self):
        for run in self.runs:
            if run.finish_time is None and run.total == 0:
                run.finish_time = 0.0
        if any(run.finish_time is None for run in self.runs):
            raise SimulationError(
                "software-scheduled batch deadlocked: slots could never be "
                "placed (allocation exceeds per-CU packing)")

    def _place_software_slots(self):
        """Place physical WGs on CUs, interleaved across kernels.

        The device-level allocation is feasible by construction, but per-CU
        packing can fragment; slots that do not fit immediately queue and
        are placed as other slots retire — the same waiting non-resident
        work groups experience on hardware.  Round-robin interleaving makes
        sure every kernel gets resident slots from the start.

        Placement is three-phase: admit every slot first (through
        :meth:`_admit_slot`), then compute each slot's occupancy factor
        and bandwidth demand from the final per-CU residency, then draw
        the first chunks — so co-placed slots of one kernel see a
        consistent occupancy.
        """
        placements = []
        max_slots = max((run.slots_to_place for run in self.runs), default=0)
        for slot_index in range(max_slots):
            for run in self.runs:
                if slot_index >= run.slots_to_place:
                    continue
                slot = self._admit_slot(run, slot_index)
                if slot is None:
                    self._pending_slots.append((run, slot_index))
                    run.pending_slots += 1
                    self._pending_inc(run)
                    continue
                placements.append(slot)
        for run in self.runs:
            run.slots_to_place = 0

        bandwidth = self.bandwidth
        for slot in placements:
            run = slot.run
            k = run.cu_resident[slot.cu.index]
            occ = run.occ_cache.get(k)
            if occ is None:
                occ = run.occ_cache[k] = run.occupancy_factor(k)
            slot.occ = occ
            slot.rate = run.spec.mem_rate_per_wg / occ
            bandwidth.add_rate(slot.rate)
        for slot in placements:
            self._draw_chunk(slot)

    # -- open-system re-allocation ------------------------------------------

    def _reallocate(self):
        """Re-run the sharing policy over the currently-active request set.

        Called on every arrival and every request completion — the proper
        re-allocation path that generalises the closed-batch ``rebalance``
        hook.  The allocator returns a physical-group target per active
        kernel with an undrained virtual-group queue; targets are
        reconciled against the kernel's current slots by growing
        immediately (queueing when per-CU packing is fragmented) and
        shrinking lazily at chunk boundaries, since resident work groups
        are never preempted mid-chunk.
        """
        # the live-active set holds the admitted runs in admission order,
        # which is self.runs order (finished runs leave it at finish time)
        active = [run for run in self._live_active if not run.mode_done()]
        if not active:
            return
        targets = self._allocator([run.spec for run in active])
        if len(targets) != len(active):
            raise SimulationError(
                "allocator returned {} targets for {} active kernels".format(
                    len(targets), len(active)))
        for run, target in zip(active, targets):
            remaining = run.total - run.next_vgroup
            target = max(1, min(int(target), remaining))
            pending = run.pending_slots
            effective = run.live_slots - run.shrink_slots + pending
            if target > effective:
                self._grow_run(run, target - effective)
            elif target < effective:
                self._shrink_run(run, effective - target, pending)

    def _grow_run(self, run, count):
        """Give ``run`` ``count`` more slots: cancel pending shrinks
        first, then place the rest as one wave, queueing what does not
        fit.

        The wave scans the CUs once and keeps those that fit the run's
        footprint in a heap keyed ``(-threads_free, index)``, so each
        slot takes the CU :meth:`_admit_slot`'s scan would pick (the
        most free threads, earliest index on ties); the CU is re-keyed
        after the admit, or dropped once the footprint no longer fits.
        A slot whose start went through :meth:`_draw_chunk` may have
        retired at once (its run's queue is drained: with ``chunk > 1``
        a re-plan can give a run more slots than it has chunks left),
        freeing its CU and running a pending pass, so the heap is then
        rebuilt.  A failed placement changes nothing, so once the heap
        is empty every later slot would fail too: the rest queue
        unscanned.
        """
        revived = min(count, run.shrink_slots)
        run.shrink_slots -= revived
        count -= revived
        if count <= 0:
            return
        threads, regs, lmem = run.footprint
        fitting = None
        while count:
            if fitting is None:
                fitting = [(-cu.threads_free, cu.index, cu) for cu in self.cus
                           if cu.threads_free >= threads
                           and cu.slots_free >= 1
                           and cu.registers_free >= regs
                           and cu.local_mem_free >= lmem]
                heapify(fitting)
            if not fitting:
                break
            # _admit_slot's update, on the heap's top; keep in step
            cu = fitting[0][2]
            free = cu.threads_free = cu.threads_free - threads
            cu.registers_free -= regs
            cu.local_mem_free -= lmem
            cu.slots_free -= 1
            if (free >= threads and cu.slots_free >= 1
                    and cu.registers_free >= regs
                    and cu.local_mem_free >= lmem):
                heapreplace(fitting, (-free, cu.index, cu))
            else:
                heappop(fitting)
            run.cu_resident[cu.index] = run.cu_resident.get(cu.index, 0) + 1
            run.resident += 1
            run.live_slots += 1
            slot = _Slot(run, cu, run.slot_counter)
            run.slot_counter += 1
            count -= 1
            if self._start_slot(slot):
                fitting = None
        for _ in range(count):
            self._pending_slots.append((run, run.slot_counter))
            run.slot_counter += 1
            run.pending_slots += 1
            self._pending_inc(run)

    def _pending_inc(self, run):
        footprint = run.footprint
        counts = self._pending_footprints
        counts[footprint] = counts.get(footprint, 0) + 1

    def _pending_dec(self, run, count=1):
        footprint = run.footprint
        counts = self._pending_footprints
        left = counts[footprint] - count
        if left:
            counts[footprint] = left
        else:
            del counts[footprint]

    def _shrink_run(self, run, count, pending):
        # drop queued (never-placed) slots first: they hold no resources
        if pending:
            # Tombstone instead of rebuilding the deque: the run's earliest
            # queued entries are discarded when they are next popped.
            dropped = min(count, run.pending_slots)
            run.pending_slots -= dropped
            run.pending_drop += dropped
            count -= dropped
            if dropped:
                self._pending_dec(run, dropped)
        # retire the rest at chunk boundaries; never shrink the last live
        # slot while the virtual-group queue is undrained
        run.shrink_slots = min(run.shrink_slots + count,
                               max(0, run.live_slots - 1))

    # -- slot lifecycle ------------------------------------------------------

    def _admit_slot(self, run, slot_index, cus=None):
        """Admit slot ``slot_index`` of ``run`` on the freest CU of
        ``cus`` (default: every CU) that fits it (the most free threads,
        earliest index on ties) and return the new slot, not yet
        activated; None, changing nothing, if no CU fits.

        The fit test of :meth:`CUState.fits` and the update of
        :meth:`CUState.admit`, with the footprint read once from the
        run and the admit-time recheck dropped (the scan just proved
        the fit).  Closed batches and rebalance grants scan every CU; a
        pending pass passes the CU its retire freed.  A grow's wave copies the update onto
        the CU its heap picked; keep the two in step.
        """
        threads, regs, lmem = run.footprint
        cu = None
        best_free = -1
        for cand in self.cus if cus is None else cus:
            free = cand.threads_free
            if (free > best_free and free >= threads
                    and cand.slots_free >= 1
                    and cand.registers_free >= regs
                    and cand.local_mem_free >= lmem):
                cu = cand
                best_free = free
        if cu is None:
            return None
        cu.threads_free = best_free - threads
        cu.registers_free -= regs
        cu.local_mem_free -= lmem
        cu.slots_free -= 1
        run.cu_resident[cu.index] = run.cu_resident.get(cu.index, 0) + 1
        run.resident += 1
        run.live_slots += 1
        return _Slot(run, cu, slot_index)

    def _try_place_slot(self, run, slot_index, cus=None):
        """Place slot ``slot_index`` of ``run`` on ``cus`` through
        :meth:`_admit_slot` and activate it; False if no CU fits."""
        slot = self._admit_slot(run, slot_index, cus)
        if slot is None:
            return False
        self._start_slot(slot)
        return True

    def _start_slot(self, slot):
        """Start ``slot``, admitted after its batch's start (a grow, a
        pending pass or a rebalance grant): rate it at its CU's
        co-residency, add its bandwidth demand and draw its first chunk.

        Returns True when the draw went through :meth:`_draw_chunk`
        (an Elastic Kernels run, or a drained or shrinking accelOS run),
        which may have retired the slot at once: its CU is then free
        again, and queued slots may have been placed.
        """
        run = slot.run
        events = self.events
        now = events.now
        if run.start_time is None:   # inlined mark_start
            run.start_time = now
        # the activation of _place_software_slots and the accelOS draw
        # of _draw_chunk, inlined with BandwidthTracker.add_rate and
        # EventQueue.push; keep the copies (here and in open_advance) in
        # step
        k = run.cu_resident[slot.cu.index]
        occ = run.occ_cache.get(k)
        if occ is None:
            occ = run.occ_cache[k] = run.occupancy_factor(k)
        slot.occ = occ
        rate = slot.rate = run.spec.mem_rate_per_wg / occ
        bandwidth = self.bandwidth
        demand = bandwidth.demand = bandwidth.demand + rate
        resident = bandwidth.resident = bandwidth.resident + 1
        base = run.next_vgroup
        if (self._software_mode != ExecutionMode.ACCELOS
                or base >= run.total or run.shrink_slots > 0):
            self._draw_chunk(slot)
            return True
        chunk = run.chunk_size
        end = base + chunk
        if end > run.total:
            end = run.total
        run.next_vgroup = end
        slot.done = end - base
        capacity = bandwidth.capacity
        if demand <= capacity or rate <= capacity / resident:
            stretch = 1.0
        else:
            stretch = demand / capacity
        at = now + (run.chunk_work[base // chunk] * occ * stretch
                    + run.overhead)
        if not at >= now - 1e-12:   # NaN or in the past
            raise SimulationError(NAN_TIME_ERROR if isnan(at)
                                  else PAST_TIME_ERROR.format(at, now))
        heappush(events._heap, (at, EVENT_TIER, next(events._counter), slot))
        return False

    def _place_pending_slots(self, cus):
        """Place queued slots, in queue order, on ``cus`` (None: every
        CU).

        Between passes no live queued footprint fits any CU: a pass
        ends with every remaining live footprint failed, a slot is
        queued only after its footprint failed on every CU (a batch's
        placement, a grow), and in between resources only shrink,
        except at the retire that calls the next pass.  So
        :meth:`_retire_slot` passes the freed CU alone, which places
        exactly what a scan of every CU would.
        """
        if not self._pending_slots:
            return
        still_pending = deque()
        # Free capacity only shrinks within one pass (successful
        # placements consume resources, failures change nothing), so a
        # resource footprint that failed once keeps failing — skip its
        # repeats instead of rescanning.  Pure pruning of known-failing
        # attempts: placement order and outcomes are unchanged.
        unplaceable = set()
        while self._pending_slots:
            run, slot_index = self._pending_slots.popleft()
            if run.pending_drop:
                # tombstoned by a shrink
                run.pending_drop -= 1
                continue
            if run.mode_done():
                run.pending_slots -= 1
                self._pending_dec(run)
                continue
            footprint = run.footprint
            if footprint in unplaceable:
                still_pending.append((run, slot_index))
                continue
            if not self._try_place_slot(run, slot_index, cus):
                unplaceable.add(footprint)
                still_pending.append((run, slot_index))
                if len(unplaceable) == len(self._pending_footprints):
                    # every live queued footprint is known-unplaceable:
                    # the rest of this pass could only skip or re-append
                    # entries unchanged, so keep them in place (tombstones
                    # and drained runs left behind are discarded by a
                    # later pass, exactly as a skipped entry would be)
                    break
            else:
                run.pending_slots -= 1
                self._pending_dec(run)
        still_pending.extend(self._pending_slots)
        self._pending_slots = still_pending

    def _draw_chunk(self, slot):
        """A slot is idle: pull its next chunk of virtual groups (or retire).

        The entry point of every draw that the inline draws of
        :meth:`open_advance` and :meth:`_start_slot` do not make: a
        closed batch's first chunks, a slot placed onto a drained or
        shrinking accelOS run or onto an Elastic Kernels run, and a
        chunk event processed by :meth:`open_step` itself.
        """
        run = slot.run
        if self._software_mode == ExecutionMode.ACCELOS:
            base = run.next_vgroup
            if base >= run.total:
                self._retire_slot(slot)
                return
            if run.shrink_slots > 0:
                # a re-allocation shrank this kernel: hand the slot back
                run.shrink_slots -= 1
                self._retire_slot(slot)
                return
            # open_advance and _start_slot inline this arm; keep the
            # copies in step
            chunk = run.chunk_size
            end = base + chunk
            if end > run.total:
                end = run.total
            run.next_vgroup = end
            work = run.chunk_work[base // chunk]
            overhead = run.overhead
            slot.done = end - base
        else:  # ELASTIC: frozen per-slot assignment, no dequeue cost
            # open_advance inlines this arm; keep the copies in step
            queue = run.slot_assignments[slot.index]
            if not queue:
                self._retire_slot(slot)
                return
            work = float(run.costs[queue.popleft()])
            overhead = 0.0
            slot.done = 1
        stretch = self.bandwidth.stretch_resident(slot.rate)
        cost = work * slot.occ * stretch + overhead
        self.events.push(self.events.now + cost, slot)

    def _retire_slot(self, slot):
        """Hand ``slot``'s CU resources and bandwidth back, place queued
        slots into them, and finish the run if this was its last slot."""
        run = slot.run
        cu = slot.cu
        # inlined cu.release(run.spec) via the cached footprint
        threads, regs, lmem = run.footprint
        cu.threads_free += threads
        cu.registers_free += regs
        cu.local_mem_free += lmem
        cu.slots_free += 1
        self.bandwidth.remove_rate(slot.rate)
        run.cu_resident[cu.index] -= 1
        run.resident -= 1
        run.live_slots -= 1
        if self._pending_slots:
            # only the freed CU can take a queued slot (see
            # _place_pending_slots)
            self._place_pending_slots((cu,))
        if self.rebalance and not self._open:
            self._grant_freed_capacity()
        if run.live_slots or run.finish_time is not None \
                or self._has_pending_work(run):
            return
        if (run.spec.mode == ExecutionMode.ACCELOS
                and run.next_vgroup < run.total):
            return
        now = self.events.now
        run.finish_time = now
        run.mark_dispatch_done(now)
        self.finished_requests += 1
        if self._open:
            # a finished run leaves the admission footprint and the
            # live-active set before the queue is re-checked
            spec = run.spec
            self._adm_threads -= spec.wg_threads
            self._adm_lmem -= spec.local_mem_per_wg
            self._adm_regs -= spec.registers_per_group
            self._live_active.pop(run, None)
            self._finished_runs.append(run)
            self._admit_arrivals()
            self._reallocate()

    def _grant_freed_capacity(self):
        """Future-work extension: hand freed capacity to unfinished kernels.

        Grants one extra slot per call to the co-scheduled accelOS kernel
        with the most remaining virtual groups that still fits — a minimal
        dynamic re-allocation policy on top of the paper's design.  The
        open-system path supersedes this with a full re-run of the sharing
        policy (:meth:`_reallocate`).
        """
        candidates = [
            run for run in self.runs
            if run.spec.mode == ExecutionMode.ACCELOS and not run.mode_done()
            and run.next_vgroup + run.live_slots * run.spec.chunk
            < run.total
        ]
        if not candidates:
            return
        starved = max(candidates,
                      key=lambda r: r.total - r.next_vgroup)
        slot_index = starved.slot_counter
        starved.slot_counter += 1
        self._try_place_slot(starved, slot_index)

    def _has_pending_work(self, run):
        return run.pending_slots > 0 and not run.mode_done()
