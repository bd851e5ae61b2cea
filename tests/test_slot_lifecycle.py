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
  with the oracle's scan instead.
* **Slot invariants.**  :class:`SlotCheckedSimulator` enumerates the
  live slots from the heap's slot payloads before every event and after
  every advance, and checks each CU's free capacity, the bandwidth
  tracker and every run's slot counters against them.
"""

import json
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro.api.schemes as schemes
from repro.api.kernels import base_spec
from repro.api.schemes import SCHEMES
from repro.baselines.elastic_kernels import ElasticKernelsScheduler
from repro.cl import nvidia_k20m
from repro.sim import ExecutionMode, GPUSimulator
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
      its live slots.

    Failures name the device, the event time and the run.  ``checks``
    counts the states checked."""

    checks = 0

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
        type(self).checks += 1


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
