"""The software-scheduled slot lifecycle: forced ties and live invariants.

Every placed work group of an accelOS or Elastic Kernels run is one slot
record (``repro.sim.gpu._Slot``) and the payload of its one pending chunk
event.  Three checks guard that lifecycle:

* **Forced ties.**  Identical kernels (same profile, hence same chunk)
  submitted in bursts at identical times make chunk completions
  coincide, so the heap's insertion counter decides the pop order at
  every step.  The engine (inline draws that replace the heap's root,
  inline first draws at placement) must match the one-event reference
  oracle bit for bit, records and engine event counts alike: accelOS
  and Elastic Kernels open sessions, Elastic Kernels closed batches,
  whose merged launches each run on a fresh simulator, and accelOS
  closed batches, with and without the ``rebalance`` extension.
* **Slot placement.**  Every CU of a device is alike, so a placement
  scan that broke ties toward a later CU would mirror the schedule and
  leave every timing unchanged; the CU of every slot event is compared
  with the oracle's scan instead, in closed batches and in accelOS open
  bursts.  An open run's grow places its slots as one wave from a heap
  of the CUs that fit, and a pending pass after a retire tries only the
  freed CU; the open property also compares the CU of every slot
  started, since a slot that retires as it starts has no event, and
  :class:`PlacementCountingSimulator` shows each of those paths runs.
  An Elastic Kernels batch whose extra slots retire as a pass starts
  them compares the CU of every slot retired.
* **Slot invariants.**  :class:`SlotCheckedSimulator` enumerates the
  live slots from the heap's slot payloads before every event and after
  every advance, and checks each CU's free capacity, the bandwidth
  tracker and every run's slot counters against them, that no live
  queued slot fits any CU, the queued-slot counts and the admission
  totals: over the golden streams and a work-stealing fleet.
"""

import json
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro.api.schemes as schemes
from repro.api import DeviceEntry, ExperimentSpec, run
from repro.api.kernels import base_spec, sharing_allocator
from repro.api.schemes import SCHEMES
from repro.baselines.elastic_kernels import ElasticKernelsScheduler
from repro.cl import nvidia_k20m
from repro.sim import ExecutionMode, GPUSimulator, KernelExecSpec
from repro.sim.gpu import _Slot
from repro.workloads import trace_arrivals

from tests.oracles import (ReferenceGPUSimulator, reference_engine,
                           swapped_engine)
from tests.test_engine_fastpath import (_burst_run, _quarter_k20m,
                                        _trace_payload)
from tests.test_engine_goldens import stream_records

GOLDEN_DIR = Path(__file__).parent / "goldens"


class SlotCheckedSimulator(GPUSimulator):
    """A :class:`GPUSimulator` whose event observer checks, before every
    event of a software-scheduled run and after every advance, that the
    engine's running state matches its live slots:

    * each slot is pending at most once on the heap;
    * per CU, capacity minus the live slots' footprints equals the free
      threads, registers, local memory and slots, none negative;
    * the bandwidth tracker holds one resident entry per live slot, and
      its demand is their rates' sum (within the relative tolerance of
      ``BandwidthTracker.remove_rate``);
    * each run's ``live_slots``, ``resident`` and ``cu_resident`` count
      its live slots;
    * no footprint of a live queued slot fits any CU, the precondition
      of a pending pass that tries only the CU a retire freed (a live
      queued slot is an entry that is not tombstoned, of a run whose
      virtual-group queue is not drained);
    * each run's ``pending_slots`` counts its entries in the pending
      deque that are not tombstoned (its first ``pending_drop``), and
      ``_pending_footprints`` equals their recount per footprint (a
      drained run's entries stay counted until a pass discards them);
    * the admission totals ``_adm_threads``, ``_adm_lmem`` and
      ``_adm_regs`` equal their sums over ``_live_active``.

    Failures name the device, the event time and the run.  ``checks``
    counts the states checked, ``withdrawals`` the requests withdrawn
    (migrated away)."""

    checks = 0
    withdrawals = 0

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.event_observer = self._before_event

    def _before_event(self, time, payload):
        self._check_slots(time, payload if isinstance(payload, _Slot)
                          else None)

    def open_advance(self, limit=None, inclusive=False, stop_on_finish=False):
        time = super().open_advance(limit, inclusive, stop_on_finish)
        self._check_slots(self.events.now, None)
        return time

    def open_withdraw(self, run):
        type(self).withdrawals += 1
        super().open_withdraw(run)

    def _fail(self, time, what, run=None):
        where = "" if run is None else " (run {} {})".format(
            run.index, run.spec.name)
        raise AssertionError("{} at t={!r}{}: {}".format(
            self.device.name, time, where, what))

    def _check_slots(self, time, current):
        """``current`` is the slot whose chunk event is about to be
        processed: the inline draw still holds it on the heap, while
        ``open_step`` has already popped it."""
        if self._software_mode == ExecutionMode.HARDWARE:
            return
        live = [entry[3] for entry in self.events._heap
                if isinstance(entry[3], _Slot)]
        pending = Counter(map(id, live))
        for slot in live:
            if pending[id(slot)] > 1:
                self._fail(time, "slot {} is pending twice".format(
                    slot.index), slot.run)
        if current is not None and id(current) not in pending:
            live.append(current)

        device = self.device
        used = {cu.index: [0, 0, 0, 0] for cu in self.cus}
        for slot in live:
            threads, regs, lmem = slot.run.footprint
            footprint = used[slot.cu.index]
            footprint[0] += threads
            footprint[1] += regs
            footprint[2] += lmem
            footprint[3] += 1
        for cu in self.cus:
            threads, regs, lmem, slots = used[cu.index]
            want = (device.max_threads_per_cu - threads,
                    device.registers_per_cu - regs,
                    device.local_mem_per_cu - lmem,
                    device.max_wgs_per_cu - slots)
            got = (cu.threads_free, cu.registers_free, cu.local_mem_free,
                   cu.slots_free)
            if got != want or min(got) < 0:
                self._fail(time, "CU {} has (threads, registers, local "
                           "memory, slots) free {}, its {} live slots "
                           "leave {}".format(cu.index, got, slots, want))

        bandwidth = self.bandwidth
        if bandwidth.resident != len(live):
            self._fail(time, "bandwidth tracker holds {} resident work "
                       "groups for {} live slots".format(
                           bandwidth.resident, len(live)))
        rates = sum(slot.rate for slot in live)
        if abs(bandwidth.demand - rates) > 1e-6 * bandwidth.capacity:
            self._fail(time, "bandwidth demand {!r} bytes/s, the live "
                       "slots' rates sum to {!r}".format(
                           bandwidth.demand, rates))

        by_run = {}
        for slot in live:
            by_run.setdefault(slot.run, []).append(slot)
        runs = list(self.runs)
        runs += [run for run in by_run if run not in runs]
        for run in runs:
            slots = by_run.get(run, [])
            per_cu = dict(Counter(slot.cu.index for slot in slots))
            resident = {cu: n for cu, n in run.cu_resident.items() if n}
            if (run.live_slots, run.resident, resident) \
                    != (len(slots), len(slots), per_cu):
                self._fail(time, "live_slots {}, resident {}, cu_resident "
                           "{}; its live slots: {} on CUs {}".format(
                               run.live_slots, run.resident, resident,
                               len(slots), per_cu), run)
        self._check_queue(time)
        self._check_admission(time)
        type(self).checks += 1

    def _check_queue(self, time):
        entries = Counter(run for run, _ in self._pending_slots)
        footprints = Counter()
        for run, count in entries.items():
            # a shrink tombstones a run's earliest entries
            queued = count - run.pending_drop
            if queued < 0 or run.pending_slots != queued:
                self._fail(time, "pending_slots {} with {} entries queued, "
                           "{} of them tombstoned".format(
                               run.pending_slots, count, run.pending_drop),
                           run)
            if queued:
                footprints[run.footprint] += queued
            if queued and not run.mode_done():
                threads, regs, lmem = run.footprint
                fitting = [cu.index for cu in self.cus
                           if cu.threads_free >= threads
                           and cu.slots_free >= 1
                           and cu.registers_free >= regs
                           and cu.local_mem_free >= lmem]
                if fitting:
                    self._fail(time, "{} queued slots of footprint {} fit "
                               "CUs {}".format(queued, run.footprint,
                                               fitting), run)
        if dict(footprints) != self._pending_footprints:
            self._fail(time, "_pending_footprints {}, the queued entries "
                       "recount {}".format(self._pending_footprints,
                                           dict(footprints)))

    def _check_admission(self, time):
        active = list(self._live_active)
        want = (sum(run.spec.wg_threads for run in active),
                sum(run.spec.local_mem_per_wg for run in active),
                sum(run.spec.registers_per_group for run in active))
        got = (self._adm_threads, self._adm_lmem, self._adm_regs)
        if got != want:
            self._fail(time, "admission totals (threads, local memory, "
                       "registers) {}, the {} live active runs sum to "
                       "{}".format(got, len(active), want))


def _checked(thunk):
    """``thunk()`` on the slot-checked engine; asserts the checks ran."""
    checks = SlotCheckedSimulator.checks
    with swapped_engine(SlotCheckedSimulator):
        result = thunk()
    assert SlotCheckedSimulator.checks > checks
    return result


# -- forced ties: identical kernels in identical-time bursts ------------------

TIE_PROFILE = st.sampled_from(("sgemm", "bfs", "spmv", "stencil",
                                "histo_main", "mri-q_ComputeQ"))
TIE_DEVICE = st.sampled_from((nvidia_k20m, _quarter_k20m))


@settings(max_examples=30, deadline=None)
@given(
    name=TIE_PROFILE,
    first=st.integers(min_value=2, max_value=6),
    second=st.integers(min_value=2, max_value=6),
    gap=st.sampled_from((5e-5, 2e-4, 1e-3, 5e-3)),
    device_factory=TIE_DEVICE,
    scheme=st.sampled_from(("accelos", "ek")),
)
def test_forced_ties_match_the_one_event_oracle(name, first, second, gap,
                                                device_factory, scheme):
    """Two bursts of one profile, each at a single arrival instant: every
    slot of a burst starts together and draws equal-length chunks (or,
    under Elastic Kernels, equal static shares), so completions tie
    throughout.  The engine must pop them in the oracle's order."""
    entries = [(name, 0.0)] * first + [(name, gap)] * second
    arrivals = trace_arrivals(entries)
    device = device_factory()
    engine = _burst_run(device, arrivals, scheme)
    with reference_engine():
        reference = _burst_run(device_factory(), arrivals, scheme)
    assert engine == reference
    assert _checked(lambda: _burst_run(device_factory(), arrivals,
                                       scheme)) == engine
    assert engine[1] > len(entries)


def _closed_batch(device, names, scheme, rebalance):
    """Each launch of a closed batch: its intervals, end time and engine
    event count.  Elastic Kernels replays its merged launches back to
    back; accelOS runs one launch on the batch's §3 allocation."""
    if scheme == "accelos":
        specs = SCHEMES.from_name("accelos").batch_specs(names, device)
        simulator = schemes.GPUSimulator(device, rebalance=rebalance)
        trace = simulator.run(specs)
        return [([(iv.start, iv.finish) for iv in trace.intervals],
                 trace.makespan, simulator.events_processed)]
    scheduler = ElasticKernelsScheduler(device)
    launches = []
    offset = 0.0
    for group in scheduler.pack([base_spec(name) for name in names]):
        intervals, offset, events = schemes._replay_launch(
            device, scheduler, group, offset)
        launches.append((intervals, offset, events))
    return launches


@settings(max_examples=30, deadline=None)
@given(
    name=TIE_PROFILE,
    other=TIE_PROFILE,
    count=st.integers(min_value=1, max_value=6),
    others=st.integers(min_value=0, max_value=3),
    device_factory=TIE_DEVICE,
    scheme=st.sampled_from(("ek", "accelos")),
    rebalance=st.booleans(),
)
def test_ek_closed_batches_match_the_one_event_oracle(name, other, count,
                                                      others,
                                                      device_factory,
                                                      scheme, rebalance):
    """A closed batch of identical kernels (plus a few of a second
    profile) starts its slots together on equal shares (Elastic
    Kernels' static split, accelOS's equal chunks), so their draws tie
    at every step.  An accelOS batch's allocation can exceed what one
    CU pass places, so slots queue at placement; with ``rebalance``
    every retire also grants freed capacity to the most starved
    kernel."""
    rebalance = rebalance and scheme == "accelos"
    names = [name] * count + [other] * others
    engine = _closed_batch(device_factory(), names, scheme, rebalance)
    with reference_engine():
        reference = _closed_batch(device_factory(), names, scheme,
                                  rebalance)
    assert engine == reference
    assert _checked(lambda: _closed_batch(device_factory(), names, scheme,
                                          rebalance)) == engine
    assert all(events > 0 for _, _, events in engine)


def _slot_events(simulator_class, device, names, scheme, rebalance):
    """``(time, run index, slot index, CU index)`` of every slot event
    of a closed batch (Elastic Kernels: its first merged launch)."""
    if scheme == "accelos":
        specs = SCHEMES.from_name("accelos").batch_specs(names, device)
    else:
        scheduler = ElasticKernelsScheduler(device)
        group = next(iter(scheduler.pack([base_spec(n) for n in names])))
        specs = scheduler.to_sim_specs(group)
    events = []

    def observe(time, payload):
        if isinstance(payload, _Slot):
            events.append((time, payload.run.index, payload.index,
                           payload.cu.index))
    simulator = simulator_class(device, rebalance=rebalance)
    simulator.event_observer = observe
    simulator.run(specs)
    return events


@settings(max_examples=20, deadline=None)
@given(
    names=st.lists(TIE_PROFILE, min_size=1, max_size=5),
    device_factory=TIE_DEVICE,
    scheme=st.sampled_from(("ek", "accelos")),
    rebalance=st.booleans(),
)
def test_slots_land_on_the_cus_the_reference_scan_picks(names,
                                                        device_factory,
                                                        scheme, rebalance):
    """Each slot, placed at the batch's start, from the pending queue or
    by a ``rebalance`` grant, takes the CU with the most free threads,
    the earliest on ties, as the oracle's ``_freest_cu`` does."""
    rebalance = rebalance and scheme == "accelos"
    engine = _slot_events(GPUSimulator, device_factory(), names, scheme,
                          rebalance)
    assert engine
    assert engine == _slot_events(ReferenceGPUSimulator, device_factory(),
                                  names, scheme, rebalance)


# -- the slot invariants over the golden streams ------------------------------

@pytest.mark.parametrize("fixture, scheme", [
    ("trace_accelos.json", "accelos"),
    ("trace_ek.json", "ek"),
])
def test_slot_invariants_hold_on_the_golden_traces(fixture, scheme):
    stored = json.loads((GOLDEN_DIR / fixture).read_text(encoding="utf-8"))
    assert _checked(lambda: _trace_payload(nvidia_k20m(), scheme)) == stored


@pytest.mark.parametrize("scenario", ("steady", "bursty", "heavy-tailed",
                                      "multi-tenant"))
def test_slot_invariants_hold_on_the_golden_streams(scenario):
    """The accelOS families of ``tests/goldens/engine_streams.json`` at
    the highest load, where re-plans shrink runs and queue slots."""
    family = "{}/accelos/1.3".format(scenario)
    golden = json.loads((GOLDEN_DIR / "engine_streams.json").read_text(
        encoding="utf-8"))["streams"][family]
    assert _checked(lambda: stream_records(family)) == golden


def test_slot_invariants_hold_on_a_work_stealing_fleet():
    """A K20m and a half-clock quarter K20m under overload, the shape of
    the benchmark's ``fleet-steal`` workload: the slow device's
    admission queue fills and the fast one steals from it, so requests
    are withdrawn from one simulator and submitted to the other."""
    spec = ExperimentSpec(
        scenario="multi-tenant", schemes=("accelos",), loads=(12.0,),
        seeds=(2,), count=100,
        devices=(DeviceEntry(id="fast", base="nvidia-k20m"),
                 DeviceEntry(id="slow", base="nvidia-k20m",
                             clock_scale=0.5, cu_scale=0.25)),
        placements=("burst-aware",), rebalance="work-stealing",
        metrics_mode="streaming")
    withdrawals = SlotCheckedSimulator.withdrawals
    checked = _checked(lambda: run(spec, cache=False).to_json())
    assert SlotCheckedSimulator.withdrawals > withdrawals
    assert checked == run(spec, cache=False).to_json()


# -- open-stream slot placement: waves and freed-CU passes --------------------

# (threads, registers per thread, local memory per group) of a kernel:
# on the K20m (2048 threads, 65,536 registers, 48 KiB and 16 groups per
# CU) the slots, the registers, the local memory or the threads bind
OPEN_FOOTPRINTS = {
    "slots": (64, 0, 0),
    "registers": (192, 40, 0),
    "local-memory": (256, 0, 8192),
    "threads": (512, 16, 1024),
}


def _open_kernel(binding, groups, chunk, tied, arrival):
    """An accelOS request whose footprint ``binding`` binds its per-CU
    residency; ``tied`` gives every group one cost, so slots of
    identical kernels complete together."""
    threads, regs, lmem = OPEN_FOOTPRINTS[binding]
    costs = [2e-5 * (1 + (0 if tied else i % 5)) for i in range(groups)]
    # an open run's slot count is the allocator's, not physical_groups
    return KernelExecSpec("{}-{}-{}".format(binding, groups, chunk),
                          threads, costs, 2e9, regs, lmem,
                          mode=ExecutionMode.ACCELOS, physical_groups=1,
                          chunk=chunk, arrival_time=arrival)


def _open_specs(bursts, tied):
    """``bursts`` of ``(binding, groups, chunk)`` kernels, each burst
    arriving at one instant, ``gap`` after the previous one."""
    specs, now = [], 0.0
    for kernels, gap in bursts:
        now += gap
        specs += [_open_kernel(binding, groups, chunk, tied, now)
                  for binding, groups, chunk in kernels]
    return specs


def _open_slot_events(simulator, specs, closed=False):
    """Of one open run on ``simulator``: ``(time, run index, slot index,
    CU index)`` of every slot event and of every slot started (a slot
    that retires as it starts has no event), and the intervals.

    ``closed`` runs one closed batch instead and lists every slot
    retired in place of those started: the engine draws a batch's
    first chunks without starting its slots one by one."""
    events, started = [], []

    def observe(time, payload):
        if isinstance(payload, _Slot):
            events.append((time, payload.run.index, payload.index,
                           payload.cu.index))
    observer = simulator.event_observer
    if observer is not None:
        def both(time, payload):
            observer(time, payload)
            observe(time, payload)
        simulator.event_observer = both
    else:
        simulator.event_observer = observe
    # the oracle starts a placed slot through _activate_slot and
    # _draw_chunk, the engine through _start_slot
    if closed:
        hook = "_retire_slot"
    elif isinstance(simulator, ReferenceGPUSimulator):
        hook = "_activate_slot"
    else:
        hook = "_start_slot"
    start = getattr(simulator, hook)

    def record(slot):
        started.append((simulator.events.now, slot.run.index, slot.index,
                        slot.cu.index))
        return start(slot)
    setattr(simulator, hook, record)
    trace = simulator.run(specs) if closed else simulator.run_open(
        specs, allocator=sharing_allocator(simulator.device))
    return events, started, [(iv.name, iv.arrival, iv.start, iv.finish)
                             for iv in trace.intervals]


class PlacementCountingSimulator(SlotCheckedSimulator):
    """The slot-checked engine, counting the placement paths an open
    run takes: ``waves`` lists the slots each grow started (its wave),
    ``rebuilds`` the wave slots started after an earlier slot of the
    same wave retired at once (the heap rebuilt), and ``freed_passes``
    the pending passes after a retire that placed a slot (``"placed"``)
    or none (``"failed"``)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.waves = []
        self.rebuilds = 0
        self.freed_passes = Counter()
        self.started = 0
        # one [slots started, last start retired] per open placement
        # call (a grow, or None for a pass): nested calls stack up
        self._placing = []

    def _grow_run(self, run, count):
        self._placing.append([0, False])
        try:
            super()._grow_run(run, count)
        finally:
            self.waves.append(self._placing.pop()[0])

    def _place_pending_slots(self, cus):
        self._placing.append(None)
        started = self.started
        try:
            super()._place_pending_slots(cus)
        finally:
            self._placing.pop()
        if cus is not None:
            self.freed_passes["placed" if self.started > started
                              else "failed"] += 1

    def _start_slot(self, slot):
        self.started += 1
        wave = self._placing[-1] if self._placing else None
        if wave is not None and wave[1]:
            self.rebuilds += 1
        drew = super()._start_slot(slot)
        if wave is not None:
            wave[0] += 1
            wave[1] = drew
        return drew


OPEN_KERNEL = st.tuples(st.sampled_from(sorted(OPEN_FOOTPRINTS)),
                        st.sampled_from((1, 3, 13, 40, 150)),
                        st.sampled_from((1, 2, 4, 8)))


@settings(max_examples=40, deadline=None)
@given(
    bursts=st.lists(st.tuples(
        st.lists(OPEN_KERNEL, min_size=1, max_size=4),
        st.sampled_from((0.0, 0.0, 3e-5, 2e-4))),
        min_size=1, max_size=3),
    copies=st.integers(min_value=1, max_value=3),
    tied=st.booleans(),
    device_factory=TIE_DEVICE,
)
def test_open_slots_land_on_the_cus_the_reference_scan_picks(
        bursts, copies, tied, device_factory):
    """Every slot of an accelOS open run, started by a grow's wave or a
    pending pass, takes the CU the oracle's per-slot ``_freest_cu``
    scan picks, at the same time, and every slot event matches.
    ``copies`` repeats each burst's kernels, so identical footprints
    tie on free threads; ``chunk > 1`` lets a re-plan give a run more
    slots than it has chunks left, and those retire at once."""
    bursts = [(kernels * copies, gap) for kernels, gap in bursts]
    specs = _open_specs(bursts, tied)
    engine = _open_slot_events(GPUSimulator(device_factory()), specs)
    assert engine[0] and engine[1]
    assert engine == _open_slot_events(
        ReferenceGPUSimulator(device_factory()), specs)
    assert _open_slot_events(SlotCheckedSimulator(device_factory()),
                             specs) == engine


@pytest.mark.parametrize("device_factory", (nvidia_k20m, _quarter_k20m))
def test_open_placement_paths_run(device_factory):
    """The shortcuts the property above compares do run on a pinned
    stream: waves of several slots, a wave whose heap is rebuilt after
    a slot retired at once, and freed-CU passes that place a slot and
    ones that place none."""
    bursts = [([("slots", 150, 8), ("registers", 40, 1),
                ("threads", 150, 4), ("local-memory", 13, 2)] * 2, 0.0),
              ([("registers", 150, 1), ("slots", 40, 8)] * 2, 2e-4)]
    specs = _open_specs(bursts, tied=True)
    counted = PlacementCountingSimulator(device_factory())
    engine = _open_slot_events(counted, specs)
    assert engine == _open_slot_events(
        ReferenceGPUSimulator(device_factory()), specs)
    assert max(counted.waves) >= 2
    assert counted.rebuilds > 0
    assert counted.freed_passes["placed"] > 0
    assert counted.freed_passes["failed"] > 0


class RetireCountingSimulator(PlacementCountingSimulator):
    """Also counts, in ``retired_in_pass``, the slots a pending pass
    started that retired at once (no chunk event left on the heap)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.retired_in_pass = 0

    def _start_slot(self, slot):
        in_pass = bool(self._placing) and self._placing[-1] is None
        drew = super()._start_slot(slot)
        if in_pass and not any(entry[3] is slot
                               for entry in self.events._heap):
            self.retired_in_pass += 1
        return drew


@pytest.mark.parametrize("device_factory", (nvidia_k20m, _quarter_k20m))
def test_ek_freed_cu_passes_match_the_oracle(device_factory):
    """An Elastic Kernels run with more slots than groups gives its last
    slots empty static assignments.  Queued behind the first wave, each
    of them retires as soon as a pass after a retire starts it, which
    hands back only the CU it took: a pass that tries the freed CU
    alone still places every slot where the oracle's scan of every CU
    places it."""
    def kernel(name, threads, groups, lmem, slots):
        return KernelExecSpec(name, threads,
                              [2e-5 * (1 + i % 3) for i in range(groups)],
                              2e9, 16, lmem, mode=ExecutionMode.ELASTIC,
                              physical_groups=slots)
    specs = [kernel("wide", 1024, 30, 0, 40),
             kernel("narrow", 512, 8, 1024, 12)]
    counted = RetireCountingSimulator(device_factory())
    engine = _open_slot_events(counted, specs, closed=True)
    assert engine == _open_slot_events(
        ReferenceGPUSimulator(device_factory()), specs, closed=True)
    assert counted.freed_passes["placed"] > 0
    assert counted.retired_in_pass > 0
