"""A/B equivalence suite: the event engine against its reference oracle.

The open-system engine decides every event from incremental state
(admission totals, the allocation memo, indexed pending slots).  The
original per-event scans live on as a test-side oracle,
``tests.oracles.reference_engine()``, which swaps a reference simulator
and the memo-less literal §3 allocator into the scheme layer.  The
contract is **zero behavioural drift**: the engine and the oracle must
produce bit-identical traces, records, and metrics on *every* stream,
not just the benchmarked one.  This suite pins that contract

* against the four committed golden traces (each must equal the
  fixture, not merely each other),
* across randomised scenario x scheme x load draws (hypothesis), on a
  FIFO (K20m) and an exclusive (R9 295X2) device,
* through the firmware dispatcher's other entry points: baseline
  closed batches, a harvesting baseline stream (finished runs pruned
  from under the dispatch cursors), and baseline work-stealing fleets
  (hardware-mode withdraws and sorted re-inserts),
* through withdraw/migration interleavings (work-stealing fleets,
  where runs are withdrawn from one device mid-flight and replayed
  on another),
* through the spec driver (``run(spec)`` on the committed smoke spec
  must reproduce the committed result golden on both),

pins the firmware dispatch cursors to a scan at every hardware event
(``CursorCheckedSimulator``), and pins the allocator itself:
``compute_allocations`` must equal the literal oracle on random
weighted and equal-weight mixes, and
``AllocationMemo`` must be order-insensitive and bounded, with exact hit/miss
bookkeeping, and must equal the literal oracle on corpus multisets of up
to 40 kernels, whatever their order.
"""

import json
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import repro.accelos.sharing as sharing
from repro.accelos.sharing import (AllocationMemo, KernelRequirements,
                                   compute_allocations, requirement_key)
from repro.api import ExperimentSpec, run, schemes
from repro.api.kernels import base_spec, sharing_allocator
from repro.api.schemes import SCHEMES
from repro.cl import amd_r9_295x2, derated_device, nvidia_k20m
from repro.errors import SchedulingError
from repro.harness import FleetOpenSystemExperiment, OpenSystemExperiment
from repro.sim import DeviceFleet, ExecutionMode, GPUSimulator, KernelExecSpec
from repro.sim.gpu import KERNEL_HANDOFF_LATENCY
from repro.workloads import PROFILE_NAMES, from_name, trace_arrivals

from tests.oracles import (FIRMWARE_ELIGIBLE, ReferenceGPUSimulator,
                           reference_allocations, reference_engine,
                           swapped_engine)
from tests.test_engine_goldens import work_stealing_result

GOLDEN_DIR = Path(__file__).parent / "goldens"

TRACE_SEED = 5
TRACE_COUNT = 6
TRACE_LOAD = 1.0


def _trace_payload(device, scheme):
    """Same shape as tests/test_golden_traces.py builds the fixtures."""
    stream = from_name("steady", seed=TRACE_SEED, load=TRACE_LOAD,
                       count=TRACE_COUNT, device=device)
    records = OpenSystemExperiment(device).scheme_records(stream, scheme)
    return [[r.name, r.arrival, r.start, r.finish] for r in records]


# -- the four committed golden traces, on the engine and the oracle -----------

@pytest.mark.parametrize("fixture, device_factory, scheme", [
    ("trace_fifo_baseline.json", nvidia_k20m, "baseline"),
    ("trace_exclusive_baseline.json", amd_r9_295x2, "baseline"),
    ("trace_accelos.json", nvidia_k20m, "accelos"),
    ("trace_ek.json", nvidia_k20m, "ek"),
])
def test_both_paths_reproduce_the_golden_trace(fixture, device_factory,
                                               scheme):
    stored = json.loads((GOLDEN_DIR / fixture).read_text(encoding="utf-8"))
    engine = _trace_payload(device_factory(), scheme)
    with reference_engine():
        reference = _trace_payload(device_factory(), scheme)
    assert engine == stored, "engine drifted from golden " + fixture
    assert reference == stored, \
        "reference oracle drifted from golden " + fixture


# -- randomised scenario x scheme x load draws --------------------------------

SCENARIO = st.sampled_from(("steady", "bursty", "diurnal", "heavy-tailed",
                             "heavy-lognormal", "multi-tenant"))
LOAD = st.sampled_from((0.5, 0.9, 1.3))
SEED = st.integers(min_value=0, max_value=2**16)
# the two firmware policies: FIFO drain-overlap and exclusive
FIRMWARE_DEVICE = st.sampled_from((nvidia_k20m, amd_r9_295x2))


def _quarter_k20m():
    return derated_device(nvidia_k20m(), "K20m-quarter", clock_scale=0.5,
                          cu_scale=0.25)


def _stream_timings(device, stream, scheme):
    records = OpenSystemExperiment(device).scheme_records(stream, scheme)
    return [(r.name, r.arrival, r.start, r.finish) for r in records]


@settings(max_examples=16, deadline=None)
@given(scenario=SCENARIO, scheme=st.sampled_from(("baseline", "ek",
                                                  "accelos")),
       load=LOAD, seed=SEED, device_factory=FIRMWARE_DEVICE)
def test_random_streams_are_path_invariant(scenario, scheme, load, seed,
                                           device_factory):
    device = device_factory()
    stream = from_name(scenario, seed=seed, load=load, count=24,
                       device=device)
    engine = _stream_timings(device, stream, scheme)
    with reference_engine():
        reference = _stream_timings(device, stream, scheme)
    assert engine == reference


# -- the firmware dispatcher's other entry points -----------------------------

class CursorCheckedSimulator(GPUSimulator):
    """Recomputes both firmware dispatch cursors by scanning the run
    list, at every dispatch pass and after every submit, withdraw and
    harvest; after every dispatch pass, checks that the run left owning
    the dispatch window has no queued WG that fits a CU.

    ``open_advance`` processes most completions inline, with no
    dispatch pass, so the event observer checks both again before every
    event, inline or stepped, and ``open_advance`` after its last one:
    the cursors may lag, but never lead, the scan, and the window's
    owner can start no queued WG.  Failures name the device, the time
    and the run index.  ``checks`` counts the dispatch-time cursor
    comparisons, ``inline_checks`` the events checked that did not go
    through ``open_step``."""

    checks = 0
    inline_checks = 0

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.event_observer = self._before_event
        self._stepping = False

    def _scan(self):
        """``(first run with pending groups, first blocking run)``."""
        eligible = FIRMWARE_ELIGIBLE[self.device.scheduler_policy]
        runs = self.runs
        head = next((i for i, run in enumerate(runs)
                     if run.pending_count > 0), len(runs))
        # a run blocks iff a kernel queued right behind it may not
        # dispatch
        settled = next((i for i, run in enumerate(runs)
                        if not eligible(1, (run,))), len(runs))
        return head, settled

    def _fail(self, cursor, got, want, when):
        raise AssertionError(
            "{} on {} at t={!r} ({}): cursor at run index {}, a scan of "
            "{} runs finds run index {}".format(
                cursor, self.device.name, self.events.now, when, got,
                len(self.runs), want))

    def _hw_cursors(self):
        head, settled = super()._hw_cursors()
        want_head, want_settled = self._scan()
        if head != want_head:
            self._fail("_hw_head", head, want_head, "dispatch")
        if settled != want_settled:
            self._fail("_hw_settled", settled, want_settled, "dispatch")
        type(self).checks += 1
        return head, settled

    def _hw_dispatch(self, freed_cu=None):
        super()._hw_dispatch(freed_cu)
        self._check_owner("dispatch, freed CU {}".format(
            None if freed_cu is None else freed_cu.index))

    def _check_owner(self, when):
        """The run owning the dispatch window (after a full or a
        freed-CU pass) can start no queued WG on any CU."""
        run = self._hw_partial
        if run is None:
            return
        for cu in self.cus:
            if run.cu_queues[cu.index] and cu.fits(run.spec):
                raise AssertionError(
                    "{} at t={!r} ({}): run index {} ({}) left WGs queued "
                    "on CU {} that fit there".format(
                        self.device.name, self.events.now, when,
                        self.runs.index(run), run.spec.name, cu.index))

    def _before_event(self, time, payload):
        if self._open_mode != ExecutionMode.HARDWARE:
            return
        self._check_bounds("event")
        self._check_owner("event")
        if not self._stepping:
            type(self).inline_checks += 1

    def open_step(self):
        self._stepping = True
        try:
            return super().open_step()
        finally:
            self._stepping = False

    def open_advance(self, limit=None, inclusive=False, stop_on_finish=False):
        time = super().open_advance(limit, inclusive, stop_on_finish)
        self._check_bounds("advance")
        self._check_owner("advance")
        return time

    def _check_bounds(self, when):
        """Between events the cursors may lag, but never lead, the scan."""
        if self._open_mode != ExecutionMode.HARDWARE:
            return
        want_head, want_settled = self._scan()
        if self._hw_head > want_head:
            self._fail("_hw_head", self._hw_head, want_head, when)
        if self._hw_settled > want_settled:
            self._fail("_hw_settled", self._hw_settled, want_settled, when)

    def open_submit(self, spec, index=None):
        run = super().open_submit(spec, index=index)
        self._check_bounds("submit " + spec.name)
        return run

    def open_withdraw(self, run):
        super().open_withdraw(run)
        self._check_bounds("withdraw " + run.spec.name)

    def open_harvest(self):
        harvested = super().open_harvest()
        self._check_bounds("harvest")
        return harvested


def _on_all_engines(thunk):
    """``thunk()`` on the engine, the reference oracle and the cursor-
    checked engine; asserts all three agree and the checks ran."""
    engine = thunk()
    with reference_engine():
        reference = thunk()
    checks = CursorCheckedSimulator.checks
    inline_checks = CursorCheckedSimulator.inline_checks
    with swapped_engine(CursorCheckedSimulator):
        checked = thunk()
    assert CursorCheckedSimulator.checks > checks
    assert CursorCheckedSimulator.inline_checks > inline_checks
    assert reference == engine
    assert checked == engine
    return engine


@settings(max_examples=16, deadline=None)
@given(scenario=SCENARIO, load=LOAD, seed=SEED,
       device_factory=FIRMWARE_DEVICE)
def test_dispatch_cursors_match_a_scan(scenario, load, seed,
                                       device_factory):
    device = device_factory()
    stream = from_name(scenario, seed=seed, load=load, count=24,
                       device=device)
    _on_all_engines(lambda: _stream_timings(device, stream, "baseline"))


@settings(max_examples=20, deadline=None)
@given(
    names=st.lists(st.sampled_from(PROFILE_NAMES), min_size=1, max_size=6),
    jittered=st.booleans(),
    device_factory=FIRMWARE_DEVICE,
)
def test_baseline_closed_batches_are_path_invariant(names, jittered,
                                                    device_factory):
    device = device_factory()
    jitter = ([1.0 + 0.05 * (i % 3 - 1) for i in range(len(names))]
              if jittered else None)
    baseline = SCHEMES.from_name("baseline")
    _on_all_engines(lambda: baseline.run_closed(names, device,
                                                jitter=jitter))


@pytest.mark.parametrize("device_factory", [nvidia_k20m, amd_r9_295x2])
def test_harvesting_baseline_stream_is_path_invariant(device_factory):
    """Streaming metrics harvest finished runs, so ``open_harvest``
    removes runs from in front of the dispatch cursors."""
    device = device_factory()
    stream = from_name("bursty", seed=2016, load=1.3, count=60,
                       device=device)
    _on_all_engines(lambda: repr(vars(OpenSystemExperiment(
        device).run_stream(iter(stream), "baseline"))))


@pytest.mark.parametrize("entry", ["run", "run_stream"])
@pytest.mark.parametrize("device_factory", [nvidia_k20m, amd_r9_295x2])
def test_baseline_work_stealing_fleet_is_path_invariant(device_factory,
                                                        entry):
    """Round-robin placement overloads a quarter-size device, so work
    stealing withdraws queued baseline requests from its firmware queue
    and re-inserts them into the other device's run list by arrival."""
    def fleet_run():
        base = device_factory()
        fleet = DeviceFleet([
            ("fast", base),
            ("slow", derated_device(base, "quarter", clock_scale=0.5,
                                    cu_scale=0.25)),
        ])
        stream = from_name("multi-tenant", seed=2016, load=1.5, count=48,
                           device=base)
        arrivals = iter(stream) if entry == "run_stream" else stream
        return getattr(FleetOpenSystemExperiment(fleet), entry)(
            arrivals, "baseline", "round-robin", mode="online",
            rebalance="work-stealing")
    result = fleet_run()
    assert result.migrations > 0
    _on_all_engines(lambda: repr(vars(fleet_run())))


# -- same-instant bursts through the loop's firmware arm ----------------------

def _burst_run(device, arrivals, scheme="baseline"):
    """Records and the engine event count of one exact run."""
    experiment = OpenSystemExperiment(device)
    result = experiment.run(arrivals, scheme)
    records = [(r.name, r.arrival, r.start, r.finish)
               for r in result.records]
    return records, experiment.events_processed


def _closed_burst_run(device, names):
    """Intervals and the engine event count of one closed batch, on the
    scheme layer's simulator (the one the oracles swap)."""
    simulator = schemes.GPUSimulator(device)
    trace = simulator.run([base_spec(name) for name in names])
    intervals = [(iv.name, iv.start, iv.finish, iv.dispatch_done)
                 for iv in trace.intervals]
    return intervals, simulator.events_processed


@settings(max_examples=30, deadline=None)
@given(
    # each burst's profiles arrive together, the burst's gap after the
    # previous one (0: the same instant)
    bursts=st.lists(st.tuples(
        st.lists(st.sampled_from(PROFILE_NAMES), min_size=1, max_size=4),
        st.sampled_from((0.0, 0.0, 5e-5, 2e-4, 1e-3))),
        min_size=1, max_size=3),
    closed=st.booleans(),
    device_factory=st.sampled_from((nvidia_k20m, amd_r9_295x2,
                                    _quarter_k20m)),
)
# the owner of the dispatch window finds no CU with room when its
# handoff window opens, so its first group starts on a later
# completion's freed CU, inline
@example(bursts=[(["mri-q_ComputePhiMag"] * 2, 0.0),
                 (["mri-q_ComputePhiMag"] * 2, 0.0)],
         closed=False, device_factory=_quarter_k20m)
def test_same_instant_firmware_bursts_match_the_one_event_oracle(
        bursts, closed, device_factory):
    """Bursts of mixed profiles under the firmware scheduler, each at a
    single arrival instant, or all of them as one closed batch: kernels
    queue behind each other and their groups complete together, so
    ``open_advance`` resolves most completions inline (a freed CU for
    the dispatch window's owner, no pending groups, a handoff window
    still closed) while the heap's counter breaks the ties.  Records or
    intervals and engine event counts must equal the one-event oracle's,
    and the cursor checks must hold, on the FIFO K20m, the exclusive
    R9 295X2 and a quarter K20m."""
    entries, now = [], 0.0
    for names, gap in bursts:
        now += gap
        entries += [(name, now) for name in names]
    if closed:
        _, events = _on_all_engines(lambda: _closed_burst_run(
            device_factory(), [name for name, _ in entries]))
    else:
        arrivals = trace_arrivals(entries)
        _, events = _on_all_engines(
            lambda: _burst_run(device_factory(), arrivals))
    assert events > len(entries)


def test_completion_as_the_handoff_window_opens_dispatches_at_once():
    """A 26-group kernel of 1024-thread groups (two per K20m CU)
    dispatches whole at t=0, so the one-group kernel behind it gets its
    handoff window, open at ``KERNEL_HANDOFF_LATENCY``.  The first
    kernel's group 0 completes before that, and its group 13 exactly
    then, ahead of the dispatch kick.  That completion finds the window
    open, so the second kernel's group starts on the freed CU at once,
    stretched by the bandwidth the first kernel's 24 resident groups
    still demand (each group demands a tenth of the device's)."""
    rate = nvidia_k20m().mem_bw_gbs * 1e8

    def batch(simulator):
        trace = simulator(nvidia_k20m()).run([
            KernelExecSpec("first", 1024, [KERNEL_HANDOFF_LATENCY / 2]
                           + [KERNEL_HANDOFF_LATENCY] * 25, rate, 16, 0),
            KernelExecSpec("second", 1024, [KERNEL_HANDOFF_LATENCY], rate,
                           16, 0)])
        return [(iv.start, iv.finish) for iv in trace.intervals]
    intervals = batch(GPUSimulator)
    start, finish = intervals[1]
    assert start == KERNEL_HANDOFF_LATENCY
    assert finish == pytest.approx(KERNEL_HANDOFF_LATENCY * (1 + 25 / 10))
    assert intervals == batch(ReferenceGPUSimulator)


# -- withdraw/migration interleavings -----------------------------------------

def _assert_fleet_runs_match(label, seed):
    engine = work_stealing_result(seed, label)
    with reference_engine():
        reference = work_stealing_result(seed, label)
    assert repr(vars(engine)) == repr(vars(reference))
    assert engine.overall.antt == reference.overall.antt
    assert engine.migrations == reference.migrations
    assert engine.rebalances == reference.rebalances
    return engine


@pytest.mark.parametrize("seed", [2016, 7, 23])
def test_work_stealing_migrations_are_path_invariant(seed):
    """Work stealing withdraws queued runs from a busy device and
    replays them elsewhere — the interleaving that exercises
    ``open_withdraw`` tombstones against the indexed pending state."""
    _assert_fleet_runs_match("work-stealing", seed)


def test_migrating_fleet_is_path_invariant():
    """A quarter-size device far past saturation: its admission queue
    is stolen from, and its 20-kernel active sets oversubscribe the
    one-group clamp, so its re-plans take the allocator's shrink
    loop."""
    assert _assert_fleet_runs_match("migrating", 2016).migrations > 0


# -- the committed smoke spec through the driver ------------------------------

def test_spec_smoke_golden_holds_under_both_paths():
    spec = ExperimentSpec.from_json(
        (GOLDEN_DIR / "spec_smoke.json").read_text(encoding="utf-8"))
    golden = json.loads(
        (GOLDEN_DIR / "spec_smoke_result.json").read_text(encoding="utf-8"))
    expected = {cell["cell"]["scheme"]: cell["metrics"]
                for cell in golden["cells"]}

    def metric_cells(results):
        return {scheme: {metric: results.metric(metric, scheme=scheme)
                         for metric in metrics}
                for scheme, metrics in expected.items()}

    engine = metric_cells(run(spec, cache=False))
    with reference_engine():
        reference = metric_cells(run(spec, cache=False))
    assert engine == expected
    assert reference == expected


# -- the allocator against the literal §3 algorithm ---------------------------

REQUIREMENT = st.builds(
    KernelRequirements,
    name=st.sampled_from(("bfs", "sgemm", "histo", "mri-q", "sad", "spmv")),
    wg_threads=st.sampled_from((32, 64, 128, 192, 256)),
    local_mem_bytes=st.sampled_from((0, 512, 2048, 4096)),
    registers_per_thread=st.sampled_from((8, 16, 24, 32)),
    total_groups=st.integers(min_value=1, max_value=400),
)


@st.composite
def allocator_inputs(draw, requirement=REQUIREMENT, min_size=1, max_size=8):
    """A requirement mix, plus a ``share_ratio`` in two draws of three:
    integer weights (ties between kernels) or arbitrary floats."""
    requirements = draw(st.lists(requirement, min_size=min_size,
                                 max_size=max_size))
    weight = draw(st.sampled_from((
        None,
        st.integers(min_value=1, max_value=4),
        st.floats(min_value=0.05, max_value=20.0),
    )))
    if weight is None:
        return requirements, None
    return requirements, draw(st.lists(weight, min_size=len(requirements),
                                       max_size=len(requirements)))


@settings(max_examples=300, deadline=None)
@given(
    inputs=allocator_inputs(),
    device_factory=st.sampled_from((nvidia_k20m, amd_r9_295x2)),
    saturate=st.booleans(),
)
def test_allocator_matches_the_literal_algorithm(inputs, device_factory,
                                                 saturate):
    requirements, share_ratio = inputs
    device = device_factory()
    expected = reference_allocations(requirements, device,
                                     saturate=saturate,
                                     share_ratio=share_ratio)
    got = compute_allocations(requirements, device, saturate=saturate,
                              share_ratio=share_ratio)
    assert [a.groups for a in got] == [a.groups for a in expected]
    assert all(a.requirements is r for a, r in zip(got, requirements))


# -- the memo itself ----------------------------------------------------------

def _mix():
    return [
        KernelRequirements("histo", 128, 2048, 16, 120),
        KernelRequirements("sgemm", 256, 0, 32, 300),
        KernelRequirements("bfs", 64, 512, 8, 80),
    ]


def test_memo_results_match_compute_allocations():
    device = nvidia_k20m()
    memo = AllocationMemo(device)
    requirements = _mix()
    groups = memo.groups_for(requirements)
    expected = [a.groups
                for a in compute_allocations(requirements, device)]
    assert list(groups) == expected


def test_memo_hit_and_miss_bookkeeping():
    memo = AllocationMemo(nvidia_k20m())
    requirements = _mix()
    memo.groups_for(requirements)
    assert (memo.misses, memo.hits) == (1, 0)
    memo.groups_for(requirements)
    assert (memo.misses, memo.hits) == (1, 1)
    memo.groups_for(requirements[:2])       # novel multiset: a miss
    assert (memo.misses, memo.hits) == (2, 1)


def test_memo_at_capacity_evicts_the_oldest_entry(monkeypatch):
    """A full memo drops its oldest multiset; asking for it again is a
    miss that computes the same answer."""
    monkeypatch.setattr(sharing, "MEMO_CAPACITY", 2)
    device = nvidia_k20m()
    memo = AllocationMemo(device)
    requirements = _mix()
    sets = [requirements, requirements[:2], requirements[1:]]
    first = [memo.groups_for(reqs) for reqs in sets]
    assert len(memo._groups_by_set) == 2 and memo.misses == 3
    memo.groups_for(sets[2])                # still held: a hit
    assert (memo.misses, memo.hits) == (3, 1)
    assert memo.groups_for(sets[0]) == first[0]
    assert (memo.misses, len(memo._groups_by_set)) == (4, 2)
    assert first == [[a.groups for a in compute_allocations(reqs, device)]
                     for reqs in sets]


# the active set behind the first memo/direct disagreement of the parent
# allocator: 20 kernels on the quarter K20m of the "migrating" fleet
# (name, wg_threads, local_mem_bytes, registers_per_thread, total_groups)
QUARTER_MIX = [
    ("bfs", 512, 0, 23, 256), ("mri-gridding_binning", 256, 0, 19, 256),
    ("mri-gridding_splitRearrange", 256, 0, 21, 192),
    ("mri-gridding_gridding", 256, 0, 29, 768),
    ("histo_prescan", 128, 1024, 39, 64),
    ("histo_intermediates", 512, 0, 17, 128), ("bfs", 512, 0, 23, 256),
    ("histo_prescan", 128, 1024, 39, 64),
    ("mri-gridding_reorder", 256, 0, 13, 256),
    ("mri-gridding_splitSort", 256, 2048, 55, 384),
    ("spmv", 256, 0, 21, 512), ("mri-gridding_binning", 256, 0, 19, 256),
    ("mri-gridding_scan_inter1", 256, 0, 17, 8),
    ("sad_larger_calc_16", 128, 0, 13, 32),
    ("sad_larger_calc_8", 128, 0, 13, 64), ("sad_calc_8", 128, 0, 24, 384),
    ("histo_final", 512, 0, 13, 64), ("histo_final", 512, 0, 13, 64),
    ("mri-gridding_uniformAdd", 256, 0, 13, 96),
    ("histo_main", 512, 0, 19, 96),
]


def test_shrink_ties_break_by_name():
    """The clamp oversubscribes this mix, and the shrink loop's largest
    footprints tie across names (two groups of 128 threads each).  Taking
    the first in list order made the answer depend on the order, so the
    memo (which computes on the sorted order) disagreed with a direct
    call on the arrival order."""
    device = _quarter_k20m()
    mix = [KernelRequirements(*fields) for fields in QUARTER_MIX]
    by_key = sorted(mix, key=requirement_key)

    def groups(requirements):
        return sorted((requirement_key(a.requirements), a.groups)
                      for a in compute_allocations(requirements, device))
    assert groups(mix) == groups(by_key)
    assert list(AllocationMemo(device).groups_for(mix)) \
        == [a.groups for a in compute_allocations(mix, device)]


def _groups_or_error(allocate, requirements, device, saturate,
                     share_ratio):
    try:
        allocations = allocate(requirements, device, saturate=saturate,
                               share_ratio=share_ratio)
    except SchedulingError:
        return SchedulingError
    return [a.groups for a in allocations]


# fleet-scale draws: corpus footprints from the migrating fleet's active
# sets mixed with arbitrary REQUIREMENT ones, so one name can carry two
# footprints and tie with itself
FLEET_REQUIREMENT = st.one_of(
    st.sampled_from(sorted(set(QUARTER_MIX))).map(
        lambda fields: KernelRequirements(*fields)),
    REQUIREMENT)


@settings(max_examples=300, deadline=None)
@given(
    inputs=allocator_inputs(FLEET_REQUIREMENT, min_size=10, max_size=30),
    device_factory=st.sampled_from((_quarter_k20m, nvidia_k20m)),
    saturate=st.booleans(),
)
@example(inputs=([KernelRequirements("histo_main", 512, 0, 19, 96)] * 30,
                 None),
         device_factory=_quarter_k20m, saturate=True)
def test_allocator_matches_the_literal_algorithm_at_fleet_scale(
        inputs, device_factory, saturate):
    """10-30 kernels: hundreds of one-group grants and long shrink runs,
    where the heap's tie order decides every step.  A mix the one-group
    clamp oversubscribes must raise in both."""
    requirements, share_ratio = inputs
    device = device_factory()
    assert _groups_or_error(compute_allocations, requirements, device,
                            saturate, share_ratio) \
        == _groups_or_error(reference_allocations, requirements, device,
                            saturate, share_ratio)


@settings(max_examples=200, deadline=None)
@given(
    requirements=st.lists(
        st.sampled_from(sorted(set(QUARTER_MIX))).map(
            lambda fields: KernelRequirements(*fields)),
        min_size=10, max_size=30),
    shuffle_seed=st.randoms(use_true_random=False),
)
def test_allocator_is_permutation_equivariant(requirements, shuffle_seed):
    """Each requirement gets the same groups whatever the list order
    (up to swapping requirements with equal keys).  Long mixes on the
    small device oversubscribe the one-group clamp, so the shrink loop
    runs into thread ties between different names — the memo answers
    every permutation from one sorted computation."""
    device = _quarter_k20m()
    shuffled = list(requirements)
    shuffle_seed.shuffle(shuffled)

    def groups_by_requirement(mix):
        try:
            allocations = compute_allocations(mix, device)
        except SchedulingError:
            return None
        return sorted((requirement_key(a.requirements), a.groups)
                      for a in allocations)

    assert groups_by_requirement(shuffled) \
        == groups_by_requirement(requirements)


# corpus-style draws for the memo: one name maps to exactly one
# footprint (the memo's documented precondition — engine requirements
# come from a fixed kernel corpus, so equal names mean equal keys).
# The keys are the migrating fleet's, plus keys with no registers, or
# with local memory as the binding constraint.
MEMO_CORPUS = sorted(set(QUARTER_MIX) | {
    ("copy_no_regs", 256, 0, 0, 128), ("stencil_no_regs", 64, 4096, 0, 40),
    ("tpacf", 256, 13312, 30, 201)})


@settings(max_examples=100, deadline=None)
@given(
    multisets=st.lists(
        st.integers(min_value=1, max_value=40).flatmap(
            lambda k: st.lists(st.sampled_from(MEMO_CORPUS),
                               min_size=k, max_size=k)),
        min_size=1, max_size=3),
    device_factory=st.sampled_from((nvidia_k20m, amd_r9_295x2,
                                    _quarter_k20m)),
    saturate=st.booleans(),
    shuffle_seed=st.randoms(use_true_random=False),
)
@example(multisets=[QUARTER_MIX, QUARTER_MIX[:7]],
         device_factory=_quarter_k20m, saturate=True,
         shuffle_seed=random.Random(0))
def test_memo_is_order_insensitive(multisets, device_factory, saturate,
                                   shuffle_seed):
    """One memo answers up to three corpus multisets of up to 40
    kernels, each in three orders.  The first order is a miss, computed
    on the sorted keys with the memo's base-share table (shared across
    the multisets, at each one's K); the other orders are hits.  Every
    answer must equal the literal algorithm on that order (replay is
    undetectable), and a mix the one-group clamp oversubscribes must
    raise in both."""
    device = device_factory()
    memo = AllocationMemo(device, saturate=saturate)

    def memo_groups(requirements):
        try:
            return memo.groups_for(requirements)
        except SchedulingError:
            return SchedulingError

    for fields in multisets:
        requirements = [KernelRequirements(*key) for key in fields]
        for turn in range(3):
            misses = memo.misses
            expected = _groups_or_error(reference_allocations, requirements,
                                        device, saturate, None)
            assert memo_groups(requirements) == expected
            if turn and expected is not SchedulingError:
                assert memo.misses == misses    # a permutation is a hit
            shuffle_seed.shuffle(requirements)


def test_base_shares_are_kept_per_kernel_count():
    """A key's base share depends on how many kernels share the device:
    sgemm alone gets the whole device, beside bfs half of it.  Without
    saturation the base share is the answer, so a table keyed by the
    requirement alone would hand the first K's share to the second."""
    device = nvidia_k20m()
    sgemm = KernelRequirements("sgemm", 256, 0, 32, 300)
    bfs = KernelRequirements("bfs", 64, 512, 8, 80)
    for sets in ([[sgemm], [sgemm, bfs]], [[sgemm, bfs], [sgemm]]):
        memo = AllocationMemo(device, saturate=False)
        for requirements in sets:
            expected = reference_allocations(requirements, device,
                                             saturate=False)
            assert memo.groups_for(requirements) \
                == [a.groups for a in expected]
        assert memo.misses == 2
    alone = reference_allocations([sgemm], device, saturate=False)
    paired = reference_allocations([sgemm, bfs], device, saturate=False)
    assert alone[0].groups != paired[0].groups


def test_memo_miss_rejects_what_kernel_requirements_rejects():
    """The miss path builds no KernelRequirements, so it checks their
    two invariants itself, with the same messages, and stores nothing
    for a rejected set: asking again raises again."""
    allocate = sharing_allocator(nvidia_k20m())
    no_threads = KernelExecSpec("empty", 0, [1e-4] * 4, 0.0, 16, 0)
    for _ in range(2):
        with pytest.raises(SchedulingError,
                           match="^work-group size must be positive$"):
            allocate([base_spec("sgemm"), no_threads])
    with pytest.raises(SchedulingError,
                       match="^kernel must have at least one work group$"):
        allocate.memo.groups_for_keyed([("none", 64, 0, 16, 0)], None)
    memo = allocate.memo
    assert memo.hits == 0 and not memo._groups_by_set and not memo._keys
