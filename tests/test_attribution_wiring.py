"""Wiring tests for the attribution plane: the ledger rides along with
real runs without changing them, exact and streaming runs agree on the
audit, and attribution stays pay-for-what-you-use end to end."""

import tracemalloc

import pytest

from repro.api import ExperimentSpec, run
from repro.attribution import AttributionLedger
from repro.cl import derated_device, nvidia_k20m
from repro.harness import FleetOpenSystemExperiment, OpenSystemExperiment
from repro.metrics.sketches import StreamingRecordSink
from repro.sim import DeviceFleet
from repro.workloads import scenarios

COUNT = 24
SEED = 11
LOAD = 1.2


def device():
    return nvidia_k20m()


def fleet():
    return DeviceFleet([
        ("fast", nvidia_k20m()),
        ("slow", derated_device(nvidia_k20m(), "K20m-derated", 0.5)),
    ])


def arrivals(count=COUNT, device_obj=None):
    return scenarios.from_name("multi-tenant", seed=SEED, load=LOAD,
                               count=count,
                               device=device_obj or device())


def record_tuples(records):
    return [(r.name, r.tenant, r.arrival, r.start, r.finish)
            for r in records]


# -- pay-for-what-you-use -------------------------------------------------


def test_attributed_run_changes_nothing_but_the_audit():
    """The same stream with and without a ledger produces identical
    records and metrics — attribution observes, never steers."""
    dev = device()
    stream = arrivals(device_obj=dev)
    plain = OpenSystemExperiment(dev).run(stream, "accelos")
    audited = OpenSystemExperiment(dev).run(
        stream, "accelos", ledger=AttributionLedger([dev.name]))
    assert record_tuples(audited.records) == record_tuples(plain.records)
    assert audited.antt == plain.antt
    assert audited.unfairness == plain.unfairness
    assert not hasattr(plain, "attribution")
    assert audited.attribution.requests == COUNT


def test_attributed_fleet_run_changes_nothing_but_the_audit():
    flt = fleet()
    stream = list(arrivals(device_obj=flt.devices[0]))
    plain = FleetOpenSystemExperiment(fleet()).run(
        stream, "accelos", "least-loaded", mode="online")
    audited = FleetOpenSystemExperiment(flt).run(
        stream, "accelos", "least-loaded", mode="online",
        ledger=AttributionLedger(flt.ids))
    assert record_tuples(audited.overall.records) \
        == record_tuples(plain.overall.records)
    assert audited.overall.antt == plain.overall.antt
    assert audited.attribution.requests == COUNT
    assert audited.attribution.devices == list(flt.ids)


# -- exact and streaming runs agree on the audit --------------------------


def test_single_device_exact_and_streaming_audits_agree():
    dev = device()
    exact_ledger = AttributionLedger([dev.name])
    stream_ledger = AttributionLedger([dev.name])
    exact = OpenSystemExperiment(dev).run(
        arrivals(device_obj=dev), "accelos", ledger=exact_ledger)
    streamed = OpenSystemExperiment(dev).run_stream(
        iter(arrivals(device_obj=dev)), "accelos", ledger=stream_ledger)
    assert exact.attribution.to_dict() == streamed.attribution.to_dict()
    # both population accounts cover the full stream
    observed = exact.attribution.observed
    assert sum(int(o["requests"]) for o in observed.values()) == COUNT


def test_fleet_exact_and_streaming_audits_agree():
    flt = fleet()
    stream = list(arrivals(device_obj=flt.devices[0]))
    exact = FleetOpenSystemExperiment(flt).run(
        stream, "accelos", "least-loaded", mode="online",
        ledger=AttributionLedger(flt.ids))
    flt2 = fleet()
    streamed = FleetOpenSystemExperiment(flt2).run_stream(
        iter(stream), "accelos", "least-loaded", mode="online",
        ledger=AttributionLedger(flt2.ids))
    assert exact.attribution.to_dict() == streamed.attribution.to_dict()


class _RecordingSink:
    """A record sink that is not a StreamingRecordSink: it keeps every
    record it observes and delegates the metric surface to one."""

    _METRICS = ("count", "reduce")

    def __init__(self):
        self.seen = []
        self._metrics = StreamingRecordSink()

    def observe(self, record):
        self.seen.append(record)
        self._metrics.observe(record)

    def __getattr__(self, name):
        if name in self._METRICS:
            return getattr(self._metrics, name)
        raise AttributeError(name)


def test_custom_sink_streaming_run_still_feeds_the_ledger():
    """The ledger observes every finished record whatever sink the run
    uses: a streaming run with a custom sink reports the whole observed
    population, not just the submit/finish accounts."""
    count = 40
    dev = device()
    sinks = []

    def factory():
        sinks.append(_RecordingSink())
        return sinks[-1]

    streamed = OpenSystemExperiment(dev).run_stream(
        iter(arrivals(count=count, device_obj=dev)), "accelos",
        sink_factory=factory, ledger=AttributionLedger([dev.name]))
    assert len(sinks[0].seen) == count
    report = streamed.attribution
    assert report.requests == count
    assert sum(int(o["requests"]) for o in report.observed.values()) \
        == count
    for tenant in report.tenants:
        assert report.observed[tenant]["requests"] \
            == report.work[tenant]["requests"]


def test_observed_population_matches_ledger_work_accounts():
    """The sink-hook cross-check: per-tenant completed counts and
    queueing totals seen by observe_record match the event-ledger's own
    work accounts."""
    dev = device()
    ledger = AttributionLedger([dev.name])
    OpenSystemExperiment(dev).run(arrivals(device_obj=dev), "accelos",
                                  ledger=ledger)
    report = ledger.report()
    for tenant in report.tenants:
        assert report.observed[tenant]["requests"] \
            == report.work[tenant]["requests"]
        assert report.observed[tenant]["queueing_seconds"] \
            == pytest.approx(report.work[tenant]["queueing_seconds"])


# -- the declarative surface ----------------------------------------------


def test_spec_attribution_defaults_off_and_separates_cache_keys():
    plain = ExperimentSpec()
    audited = ExperimentSpec(attribution=True)
    assert plain.attribution is False
    assert plain.cell_inputs()["attribution"] is False
    assert audited.cell_inputs()["attribution"] is True
    assert plain.cell_inputs() != audited.cell_inputs()


def test_old_spec_json_round_trips_with_attribution_off():
    """A spec serialised before the attribution field existed must load
    with the audit off — old experiment files stay valid."""
    old = ExperimentSpec(count=8).to_dict()
    del old["attribution"]
    spec = ExperimentSpec.from_dict(old)
    assert spec.attribution is False
    assert spec.to_dict()["attribution"] is False


def test_driver_attaches_audit_only_when_asked():
    spec = ExperimentSpec(
        scenario="multi-tenant", schemes=("accelos",), loads=(LOAD,),
        seeds=(SEED,), count=12, attribution=True,
        metrics=("antt", "tenant_occupancy"))
    audited = run(spec).get(scheme="accelos")
    assert audited.attribution.requests == 12
    plain_spec = ExperimentSpec(
        scenario="multi-tenant", schemes=("accelos",), loads=(LOAD,),
        seeds=(SEED,), count=12, metrics=("antt",))
    plain = run(plain_spec).get(scheme="accelos")
    assert not hasattr(plain, "attribution")


def test_attribution_metrics_require_the_flag():
    from repro.errors import SimulationError
    with pytest.raises(SimulationError, match="attribution"):
        ExperimentSpec(metrics=("antt", "tenant_occupancy"))


# -- the memory bound -----------------------------------------------------


def synthetic_events(ledger, count):
    """Drive ``count`` requests from 3 tenants over the ledger's devices
    with a bounded in-flight population (the streaming regime)."""
    devices = len(ledger.device_ids)
    for i in range(count):
        tenant = ("batch", "interactive", "background")[i % 3]
        ledger.submit(i, "k", tenant, i % devices, float(i), 1.0)
        if i >= 4:                        # keep <= 4 outstanding
            ledger.finish(i - 4, float(i), i + 1.0)
    for i in range(max(0, count - 4), count):
        ledger.finish(i, float(count), count + 1.0)


def measured_ledger_peak(count):
    tracemalloc.start()
    try:
        ledger = AttributionLedger(["d0", "d1"],
                                   footprint=lambda name: 64)
        synthetic_events(ledger, count)
        report = ledger.report()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.requests == count
    return peak


def test_ledger_memory_is_bounded_not_linear():
    """O(#tenants·#devices) accounting: 8x the requests must not cost
    meaningfully more memory (sketches and cells, never the stream)."""
    small = measured_ledger_peak(1_000)
    large = measured_ledger_peak(8_000)
    assert large < small * 2.0, (small, large)
    assert large < 4 * 1024 * 1024, large


def test_ledger_state_cells_stay_constant_through_a_real_run():
    """state_cells() — the cell-count witness — is identical after a
    12-request and a 24-request run of the same scenario."""
    sizes = []
    for count in (12, 24):
        dev = device()
        ledger = AttributionLedger([dev.name])
        OpenSystemExperiment(dev).run(
            arrivals(count=count, device_obj=dev), "accelos",
            ledger=ledger)
        sizes.append(ledger.state_cells())
    assert sizes[0] == sizes[1]
