"""Property-based tests: allocator/scheduler invariants under every
registered traffic scenario (hypothesis over seeds and offered loads).

Five invariant families the scenario engine must never violate, whatever
the traffic shape:

* **device capacity** — every allocation the §3 sharing policy hands the
  open-system simulator fits the device (threads, local memory, registers)
  and grants every active kernel at least one group;
* **weighted shares** — `share_ratio` weighting is preserved within the
  integer work-group granularity;
* **work conservation** — a request only waits while the device is busy
  serving others (no idle device with a non-empty queue), and every
  virtual group of every request is eventually executed exactly once;
* **determinism** — the same (scenario, seed, load) replays bit-for-bit,
  stream and simulation both;
* **tenant relabelling** — renaming the tenants of a stream through a
  bijection only renames the per-tenant metrics and ledger rows.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.accelos.sharing import KernelRequirements, compute_allocations
from repro.api.schemes import BUILTIN_SCHEMES, scheme_from_name
from repro.attribution import AttributionLedger
from repro.attribution.provenance import tenant_label
from repro.cl import derated_device, nvidia_k20m
from repro.harness.experiment import isolated_time
from repro.harness.open_system import (FleetOpenSystemExperiment,
                                       OpenSystemExperiment,
                                       sharing_allocator)
from repro.sim import DeviceFleet, GPUSimulator
from repro.sim.gpu import KERNEL_HANDOFF_LATENCY
from repro.workloads import SCENARIOS, ArrivalRequest, from_name, scenario
from repro.workloads.parboil import PROFILE_NAMES

from tests.test_streaming_equivalence import SUMMATION_RTOL

DEVICE = nvidia_k20m()

STREAM_COUNT = 8  # requests per generated stream (kept small: these run
                  # under hypothesis, many examples per property)

SEEDS = st.integers(min_value=0, max_value=10**6)
LOADS = st.floats(min_value=0.3, max_value=2.5)


def stream_for(scenario_name, seed, load, count=STREAM_COUNT):
    return from_name(scenario_name, seed=seed, load=load, count=count,
                     device=DEVICE)


# -- stream-shape invariants --------------------------------------------------

@pytest.mark.parametrize("scenario_name", sorted(SCENARIOS))
@given(seed=SEEDS, load=LOADS)
@settings(max_examples=10, deadline=None)
def test_streams_well_formed(scenario_name, seed, load):
    stream = stream_for(scenario_name, seed, load, count=16)
    assert len(stream) == 16
    times = [a.time for a in stream]
    assert times == sorted(times)
    assert all(t >= 0.0 for t in times)
    model = scenario(scenario_name)
    assert all(a.name in model.names for a in stream)
    if scenario_name == "multi-tenant":
        assert all(a.tenant is not None for a in stream)
        assert len(set(a.tenant for a in stream)) > 1
    else:
        assert all(a.tenant is None for a in stream)


@pytest.mark.parametrize("scenario_name", sorted(SCENARIOS))
@given(seed=SEEDS, load=LOADS)
@settings(max_examples=6, deadline=None)
def test_same_seed_same_stream(scenario_name, seed, load):
    assert stream_for(scenario_name, seed, load) \
        == stream_for(scenario_name, seed, load)


# -- allocator invariants under every scenario --------------------------------

def spying_allocator(device):
    """The §3 allocator wrapped to record every (specs, targets) decision."""
    inner = sharing_allocator(device)
    calls = []

    def allocate(specs):
        targets = inner(specs)
        calls.append((list(specs), list(targets)))
        return targets

    return allocate, calls


@pytest.mark.parametrize("scenario_name", sorted(SCENARIOS))
@given(seed=SEEDS, load=LOADS)
@settings(max_examples=5, deadline=None)
def test_allocations_fit_device_under_scenario_traffic(scenario_name, seed,
                                                       load):
    arrivals = stream_for(scenario_name, seed, load)
    accelos = scheme_from_name("accelos")
    specs = [accelos.admission_spec(a, DEVICE) for a in arrivals]
    allocator, calls = spying_allocator(DEVICE)
    sim = GPUSimulator(DEVICE)
    sim.run_open(specs, allocator=allocator)

    assert calls  # re-allocation ran at least once
    for active_specs, targets in calls:
        assert len(targets) == len(active_specs)
        assert all(t >= 1 for t in targets)
        threads = sum(t * s.wg_threads
                      for t, s in zip(targets, active_specs))
        local_mem = sum(t * s.local_mem_per_wg
                        for t, s in zip(targets, active_specs))
        registers = sum(t * s.registers_per_group
                        for t, s in zip(targets, active_specs))
        assert threads <= DEVICE.max_threads
        assert local_mem <= DEVICE.total_local_mem
        assert registers <= DEVICE.total_registers

    # every virtual group executed exactly once, everything drained
    for run in sim.runs:
        assert run.completed == run.total
        assert run.resident == 0
        assert run.live_slots == 0
    # all compute units handed back
    for cu in sim.cus:
        assert cu.threads_free == DEVICE.max_threads_per_cu


# -- weighted shares within work-group granularity ----------------------------

@st.composite
def weighted_requirements(draw):
    k = draw(st.integers(min_value=2, max_value=6))
    reqs, weights = [], []
    for i in range(k):
        # thread-bound kernels (no local memory, light registers, huge
        # grids) so the §3 thread share is the binding constraint and the
        # granularity bound below is exact
        reqs.append(KernelRequirements(
            name="k{}".format(i),
            wg_threads=draw(st.sampled_from([64, 128, 256, 512])),
            local_mem_bytes=0,
            registers_per_thread=4,
            total_groups=4096,
        ))
        weights.append(draw(st.floats(min_value=0.25, max_value=4.0)))
    return reqs, weights


@given(weighted_requirements())
@settings(max_examples=40, deadline=None)
def test_weighted_shares_preserved_within_group_granularity(case):
    reqs, weights = case
    allocations = compute_allocations(reqs, DEVICE, saturate=False,
                                      share_ratio=weights)
    # the base §3 allocation rounds each weighted thread share down to a
    # whole number of work groups: normalised shares may differ by at most
    # one group's thread footprint (scaled by the weight)
    per_weight = [(a.threads / w, r.wg_threads / w)
                  for a, r, w in zip(allocations, reqs, weights)]
    for (share_i, step_i) in per_weight:
        for (share_j, step_j) in per_weight:
            assert abs(share_i - share_j) <= max(step_i, step_j) + 1e-9


# -- work conservation: no idle device with a non-empty queue -----------------

@pytest.mark.parametrize("scheme", ["baseline", "accelos"])
@given(seed=SEEDS)
@settings(max_examples=6, deadline=None)
def test_no_idle_device_while_requests_wait(scheme, seed):
    arrivals = stream_for("bursty", seed, load=1.5)
    records = OpenSystemExperiment(DEVICE).scheme_records(arrivals, scheme)
    busy = sorted((r.start, r.finish) for r in records)
    # per-request firmware handoff windows are legitimate idle time
    tolerance = len(records) * KERNEL_HANDOFF_LATENCY + 1e-9
    for record in records:
        wait_start, wait_end = record.arrival, record.start
        if wait_end - wait_start <= tolerance:
            continue
        covered = 0.0
        cursor = wait_start
        for start, finish in busy:
            lo = max(cursor, start)
            hi = min(wait_end, finish)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        # the device was serving other requests for essentially the whole
        # time this one queued
        assert covered >= (wait_end - wait_start) - tolerance


# -- end-to-end determinism ---------------------------------------------------

@pytest.mark.parametrize("scenario_name", sorted(SCENARIOS))
def test_simulation_deterministic_per_scenario(scenario_name):
    arrivals = stream_for(scenario_name, seed=42, load=1.2)
    experiment = OpenSystemExperiment(DEVICE)
    first = experiment.run(arrivals, "accelos")
    second = experiment.run(stream_for(scenario_name, seed=42, load=1.2),
                            "accelos")
    assert [r.finish for r in first.records] \
        == [r.finish for r in second.records]
    assert first.slowdown_tails == second.slowdown_tails
    assert first.queueing_tails == second.queueing_tails
    assert first.tenant_slowdown_tails == second.tenant_slowdown_tails


@pytest.mark.parametrize("scenario_name", sorted(SCENARIOS))
def test_name_restriction_reaches_every_substream(scenario_name):
    """from_name(..., names=...) must constrain composite scenarios too —
    multi-tenant child scenarios draw kernels of their own."""
    pool = ("bfs", "sgemm")
    stream = from_name(scenario_name, seed=4, load=1.0, count=12,
                       device=DEVICE, names=pool)
    assert all(a.name in pool for a in stream)


def test_restriction_keeps_demand_weighting():
    """Restricting a weighted scenario conditions the weights on the
    surviving pool instead of degrading to uniform: a restricted
    heavy-tailed stream must differ from the restricted steady control."""
    from repro.workloads import scenario as make_scenario

    pool = ("bfs", "sgemm", "lbm")
    heavy = make_scenario("heavy-tailed")
    heavy.restrict_names(pool)
    assert heavy.weights is not None
    assert heavy.weights != pytest.approx([1 / 3] * 3)
    assert sum(heavy.weights) == pytest.approx(1.0)
    heavy_stream = from_name("heavy-tailed", seed=4, load=1.0, count=20,
                             device=DEVICE, names=pool)
    steady_stream = from_name("steady", seed=4, load=1.0, count=20,
                              device=DEVICE, names=pool)
    assert heavy_stream != steady_stream


def test_restriction_conditions_duplicate_names_correctly():
    """Pools may repeat a name (demand ties); restriction must condition
    on aggregated per-name mass, not drop all but one duplicate."""
    from repro.workloads import PoissonScenario

    s = PoissonScenario(names=["bfs", "bfs", "sgemm"],
                        weights=[0.25, 0.25, 0.5])
    assert s.mix_weights() == pytest.approx({"bfs": 0.5, "sgemm": 0.5})
    s.restrict_names(["bfs", "sgemm"])
    assert s.mix_weights() == pytest.approx({"bfs": 0.5, "sgemm": 0.5})


def test_restriction_to_unknown_kernel_rejected_for_weighted():
    from repro.errors import SimulationError
    from repro.workloads import scenario as make_scenario

    heavy = make_scenario("heavy-tailed")
    with pytest.raises(SimulationError, match="unknown kernel"):
        heavy.restrict_names(["bfs", "no-such-kernel"])


def test_mmpp_stationary_start_delivers_rate():
    """The ON/OFF chain starts in its stationary distribution: short
    streams must deliver close to the nominal rate (a deterministic OFF
    start prepended ~one OFF sojourn, inflating the mean span to the
    N-th arrival by ~40% at N=10).  Deterministic over a fixed seed set."""
    from repro.workloads import MMPPScenario

    rate, count = 100.0, 10
    spans = [MMPPScenario().generate(rate, count, seed=s)[-1].time
             for s in range(200)]
    ratio = (sum(spans) / len(spans)) / (count / rate)
    # residual upward bias is inherent to clustered arrivals at small N;
    # the deterministic-OFF-start bug sat at ~1.39
    assert 0.85 < ratio < 1.30


def test_restriction_to_unknown_kernel_rejected_for_unweighted():
    """The unweighted path must validate too — otherwise unknown names
    surface later as a raw KeyError deep inside load calibration."""
    from repro.errors import SimulationError
    from repro.workloads import scenario as make_scenario

    steady = make_scenario("steady")
    with pytest.raises(SimulationError, match="unknown kernel"):
        steady.restrict_names(["bfs", "no-such-kernel"])


def test_restriction_cannot_expand_a_narrowed_pool():
    """'Restrict' means restrict: names outside the scenario's current
    pool are rejected on the unweighted path as well."""
    from repro.errors import SimulationError
    from repro.workloads import PoissonScenario

    narrow = PoissonScenario(names=["bfs"])
    with pytest.raises(SimulationError, match="unknown kernel"):
        narrow.restrict_names(["sgemm"])


def test_mixed_type_tenant_ids_are_handled():
    """Deterministic ordering must not crash on comparison-incompatible
    tenant id types (sorted by str everywhere)."""
    from repro.metrics import per_tenant_tails
    from repro.workloads import MultiTenantScenario

    stream = MultiTenantScenario({1: 1.0, "a": 2.0}).generate(50.0, 8,
                                                              seed=0)
    assert len(stream) == 8
    assert set(a.tenant for a in stream) == {1, "a"}
    # equal weights force a remainder tie in the largest-remainder
    # apportionment: the tie-break must sort by str too
    tied = MultiTenantScenario({1: 1.0, "a": 1.0}).generate(50.0, 3, seed=0)
    assert len(tied) == 3
    records = OpenSystemExperiment(DEVICE).scheme_records(stream,
                                                          "baseline")
    split = per_tenant_tails(records)
    assert set(split) == {1, "a"}


def test_composite_mix_weights_reach_children():
    """Load calibration must see the traffic a composite actually
    generates: a multi-tenant scenario whose only tenant draws one kernel
    has that kernel's demand, not the corpus-uniform mean."""
    from repro.workloads import (MultiTenantScenario, PoissonScenario,
                                 reference_demand)

    composite = MultiTenantScenario(
        {"big": (1.0, PoissonScenario(names=["lbm"]))})
    assert composite.mix_weights() == {"lbm": 1.0}
    assert composite.mean_demand() == pytest.approx(reference_demand("lbm"))

    blended = MultiTenantScenario({
        "a": (1.0, PoissonScenario(names=["lbm"])),
        "b": (3.0, PoissonScenario(names=["bfs"])),
    })
    mix = blended.mix_weights()
    assert mix["lbm"] == pytest.approx(0.25)
    assert mix["bfs"] == pytest.approx(0.75)


def test_fleet_arrival_rate_for_load_weighted_mix():
    """The fleet load helper honours mix weights like its single-device
    counterpart: an all-on-one-kernel mix matches the solo-name rate."""
    from repro.harness.open_system import fleet_arrival_rate_for_load
    from repro.sim import DeviceFleet

    fleet = DeviceFleet([("a", nvidia_k20m()), ("b", nvidia_k20m())])
    names = ("bfs", "lbm")
    weighted = fleet_arrival_rate_for_load(1.0, fleet, names=names,
                                           weights=(0.0, 1.0))
    solo = fleet_arrival_rate_for_load(1.0, fleet, names=("lbm",))
    uniform = fleet_arrival_rate_for_load(1.0, fleet, names=names)
    assert weighted == pytest.approx(solo)
    assert weighted < uniform


def test_arrival_rate_for_load_weighted_mix():
    """The shared load->rate helper honours mix weights: a mix
    concentrated on a longer kernel needs a lower rate for the same
    offered load."""
    from repro.harness.open_system import arrival_rate_for_load

    names = ("bfs", "lbm")
    uniform = arrival_rate_for_load(1.0, DEVICE, names=names)
    all_long = arrival_rate_for_load(1.0, DEVICE, names=names,
                                     weights=(0.0, 1.0))
    solo_long = arrival_rate_for_load(1.0, DEVICE, names=("lbm",))
    assert all_long == pytest.approx(solo_long)
    assert all_long < uniform
    with pytest.raises(Exception):
        arrival_rate_for_load(1.0, DEVICE, names=names, weights=(1.0,))


def test_heavy_tailed_weights_split_ties():
    """Kernels with tied reference demand share their bin's mass instead
    of the earlier one silently dropping to weight zero."""
    from repro.workloads import heavy_tailed_weights

    names, weights = heavy_tailed_weights(["bfs", "bfs", "sgemm", "lbm"])
    by_name = {}
    for name, weight in zip(names, weights):
        by_name.setdefault(name, []).append(weight)
    assert all(w > 0 for w in weights)
    # the duplicated kernel's two entries carry equal, positive mass
    assert by_name["bfs"][0] == pytest.approx(by_name["bfs"][1])
    assert sum(weights) == pytest.approx(1.0)


def test_isolated_time_cache_consistency():
    """Scenario streams reuse the harness's isolated-time denominator: the
    cached value must match a fresh simulation (guards cache poisoning)."""
    fresh = GPUSimulator(DEVICE)
    name = scenario("steady").names[0]
    from repro.harness.experiment import _base_spec
    assert isolated_time(name, DEVICE) \
        == fresh.run([_base_spec(name)]).makespan


# -- tenant relabelling (metamorphic) ------------------------------------------

FLEET = DeviceFleet([("fast", nvidia_k20m()),
                     ("slow", derated_device(nvidia_k20m(), "K20m-half",
                                             clock_scale=0.5))])

# every metric of a result that does not split by tenant: bit-equal
# under any relabelling
OVERALL_METRICS = ("count", "antt", "stp", "unfairness", "mean_turnaround",
                   "mean_queueing_delay", "makespan", "slowdown_tails",
                   "queueing_tails")


@st.composite
def relabelled_streams(draw):
    """A multi-tenant stream, the same stream with its tenants renamed
    through a drawn bijection onto fresh labels (whose sort order is the
    drawn permutation), and the ledger-label map of that bijection."""
    stream = stream_for("multi-tenant", draw(SEEDS), draw(LOADS), count=12)
    tenants = sorted({a.tenant for a in stream}, key=str)
    order = draw(st.permutations(range(len(tenants))))
    fresh = {t: "relabelled-{}".format(k) for t, k in zip(tenants, order)}
    assert not set(fresh.values()) & set(PROFILE_NAMES)
    relabelled = [ArrivalRequest(a.name, a.time, fresh[a.tenant], a.device)
                  for a in stream]
    return stream, relabelled, {tenant_label(t): label
                                for t, label in fresh.items()}


def assert_result_relabelled(original, relabelled, labels, context):
    for metric in OVERALL_METRICS:
        assert getattr(relabelled, metric) == getattr(original, metric), \
            (metric,) + context
    assert relabelled.tenant_slowdown_tails == {
        labels[t]: tails
        for t, tails in original.tenant_slowdown_tails.items()}, context
    if original.records is not None:
        assert [(r.name, r.arrival, r.start, r.finish, r.isolated,
                 r.tenant) for r in relabelled.records] \
            == [(r.name, r.arrival, r.start, r.finish, r.isolated,
                 labels[r.tenant]) for r in original.records], context


def assert_ledger_relabelled(original, relabelled, labels, context):
    """Every per-tenant ledger row is the original one, renamed.  The
    report's byte·seconds total and cross-tenant share are sums over
    tenants in label order, so relabelling reorders them: those (and the
    shares and maximum built from the total) agree within
    ``SUMMATION_RTOL``."""
    a, b = original.attribution, relabelled.attribution

    def renamed(rows):
        return {labels[t]: row for t, row in rows.items()}

    assert b.tenants == sorted(labels[t] for t in a.tenants), context
    assert b.occupancy == {device: renamed(rows)
                           for device, rows in a.occupancy.items()}, context
    for matrix in ("induced_p99", "induced_total"):
        assert getattr(b, matrix) == {
            labels[victim]: renamed(row)
            for victim, row in getattr(a, matrix).items()}, \
            (matrix,) + context
    for rows in ("work", "migration_costs", "observed"):
        assert getattr(b, rows) == renamed(getattr(a, rows)), \
            (rows,) + context
    for field in ("devices", "requests", "migrations", "makespan",
                  "max_cross_tenant_induced_p99"):
        assert getattr(b, field) == getattr(a, field), (field,) + context
    assert b.occupancy_share == pytest.approx(
        renamed(a.occupancy_share), rel=SUMMATION_RTOL), context
    for field in ("tenant_occupancy", "cross_tenant_induced_share"):
        assert getattr(b, field) == pytest.approx(
            getattr(a, field), rel=SUMMATION_RTOL), (field,) + context


def audited_single(stream, scheme, exact):
    ledger = AttributionLedger([DEVICE.name])
    experiment = OpenSystemExperiment(DEVICE)
    if exact:
        return experiment.run(stream, scheme, ledger=ledger)
    return experiment.run_stream(iter(stream), scheme, ledger=ledger)


def audited_fleet(stream, scheme, placement, exact):
    ledger = AttributionLedger(FLEET.ids)
    experiment = FleetOpenSystemExperiment(FLEET)
    if exact:
        return experiment.run(stream, scheme, placement, ledger=ledger)
    return experiment.run_stream(iter(stream), scheme, placement,
                                 ledger=ledger)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "streaming"])
@pytest.mark.parametrize("scheme", BUILTIN_SCHEMES)
@given(case=relabelled_streams())
@settings(max_examples=6, deadline=None)
def test_tenant_relabelling_permutes_single_device_metrics(scheme, exact,
                                                           case):
    stream, relabelled, labels = case
    original = audited_single(stream, scheme, exact)
    renamed = audited_single(relabelled, scheme, exact)
    context = (scheme, exact, sorted(labels.items()))
    assert_result_relabelled(original, renamed, labels, context)
    assert_ledger_relabelled(original, renamed, labels, context)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "streaming"])
@pytest.mark.parametrize("placement", ["round-robin", "least-loaded"])
@given(case=relabelled_streams(), scheme=st.sampled_from(BUILTIN_SCHEMES))
@settings(max_examples=6, deadline=None)
def test_tenant_relabelling_permutes_fleet_metrics(placement, exact, case,
                                                   scheme):
    stream, relabelled, labels = case
    original = audited_fleet(stream, scheme, placement, exact)
    renamed = audited_fleet(relabelled, scheme, placement, exact)
    context = (scheme, placement, exact, sorted(labels.items()))
    assert_result_relabelled(original.overall, renamed.overall, labels,
                             context)
    assert renamed.per_device.keys() == original.per_device.keys()
    for device_id, result in original.per_device.items():
        assert_result_relabelled(result, renamed.per_device[device_id],
                                 labels, (device_id,) + context)
    assert renamed.device_share == original.device_share, context
    assert_ledger_relabelled(original, renamed, labels, context)
