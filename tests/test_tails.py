"""Tests for the tail-latency metrics plane (metrics/tails.py) and its
wiring through the open-system and fleet harnesses."""

import math

import pytest

from repro.accelos.placement import LeastLoadedPlacement
from repro.cl import nvidia_k20m
from repro.api.schemes import RequestRecord
from repro.harness.open_system import (FleetOpenSystemExperiment,
                                       OpenSystemExperiment)
from repro.metrics import (per_tenant_tails, percentile, request_tails,
                           tail_summary)
from repro.sim import DeviceFleet
from repro.workloads import from_name


def record(slowdown, tenant=None, queueing=0.0):
    """A RequestRecord with the given slowdown and queueing delay
    (arrival 0, isolated time 1.0, so turnaround == slowdown)."""
    assert queueing <= slowdown
    return RequestRecord("k", 0.0, queueing, slowdown, 1.0, tenant=tenant)


# -- percentile: hand-computed cases ------------------------------------------

def test_percentile_odd_count():
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert percentile(values, 50) == 3.0
    # rank (5-1)*0.95 = 3.8 -> 4 + 0.8*(5-4)
    assert percentile(values, 95) == pytest.approx(4.8)
    # rank 3.96 -> 4 + 0.96
    assert percentile(values, 99) == pytest.approx(4.96)
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 5.0


def test_percentile_even_count():
    values = [1.0, 2.0, 3.0, 4.0]
    # rank (4-1)*0.5 = 1.5 -> midpoint of 2 and 3
    assert percentile(values, 50) == 2.5
    # rank 2.85 -> 3 + 0.85
    assert percentile(values, 95) == pytest.approx(3.85)


def test_percentile_ties():
    values = [2.0, 2.0, 2.0, 5.0]
    assert percentile(values, 50) == 2.0
    # rank 2.25 -> 2 + 0.25*(5-2)
    assert percentile(values, 75) == pytest.approx(2.75)


def test_percentile_single_element():
    for q in (0, 50, 95, 99, 100):
        assert percentile([7.0], q) == 7.0


def test_percentile_unsorted_input():
    assert percentile([5.0, 1.0, 3.0, 2.0, 4.0], 50) == 3.0


def test_percentile_validation():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], -1)
    with pytest.raises(ValueError):
        percentile([1.0], 101)
    with pytest.raises(ValueError):
        percentile([1.0, float("nan")], 50)


# -- TailSummary --------------------------------------------------------------

def test_tail_summary_hand_computed():
    s = tail_summary([1.0, 2.0, 3.0, 4.0, 5.0])
    assert s.count == 5
    assert s.mean == 3.0
    assert s.p50 == 3.0
    assert s.p95 == pytest.approx(4.8)
    assert s.p99 == pytest.approx(4.96)
    assert s.max == 5.0
    assert s.max_over_mean == pytest.approx(5.0 / 3.0)


def test_tail_summary_percentiles_monotone():
    s = tail_summary([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0])
    assert s.p50 <= s.p95 <= s.p99 <= s.max


def test_tail_summary_all_zero_population():
    s = tail_summary([0.0, 0.0])
    assert s.max_over_mean == 1.0


def test_tail_summary_as_dict_round_trip():
    s = tail_summary([1.0, 10.0])
    d = s.as_dict()
    assert d["count"] == 2
    assert d["p50"] == 5.5
    assert d["max_over_mean"] == pytest.approx(10.0 / 5.5)
    assert s == tail_summary([1.0, 10.0])
    assert s != tail_summary([1.0, 11.0])


def test_tail_summary_rejects_empty():
    with pytest.raises(ValueError):
        tail_summary([])


# -- per-tenant split ---------------------------------------------------------

def test_per_tenant_split_hand_computed():
    records = [record(1.0, "a"), record(3.0, "a"),
               record(2.0, "b"), record(10.0, "b"), record(4.0, "b")]
    split = per_tenant_tails(records)
    assert sorted(split) == ["a", "b"]
    assert split["a"].count == 2
    assert split["a"].p50 == 2.0      # midpoint of 1 and 3
    assert split["b"].count == 3
    assert split["b"].p50 == 4.0      # median of 2, 4, 10
    assert split["b"].max == 10.0


def test_per_tenant_split_untagged_grouped_under_none():
    records = [record(1.0), record(2.0), record(5.0, "a")]
    split = per_tenant_tails(records)
    assert set(split) == {None, "a"}
    assert split[None].count == 2
    assert split["a"].count == 1


def test_request_tails_triple():
    records = [record(1.0, queueing=0.5), record(3.0, queueing=1.5)]
    slowdown, queueing, tenants = request_tails(records)
    assert slowdown.p50 == 2.0
    assert queueing.p50 == 1.0
    assert list(tenants) == [None]


# -- harness wiring -----------------------------------------------------------

def test_open_system_result_exposes_tails():
    device = nvidia_k20m()
    stream = from_name("multi-tenant", seed=3, load=1.0, count=10,
                       device=device)
    result = OpenSystemExperiment(device).run(stream, "accelos")
    # the result's tails are exactly the tails of its record population
    assert result.slowdown_tails \
        == tail_summary([r.slowdown for r in result.records])
    assert result.queueing_tails \
        == tail_summary([r.queueing_delay for r in result.records])
    assert result.p99_slowdown == result.slowdown_tails.p99
    # every arriving tenant appears in the breakdown, and the per-tenant
    # populations partition the records
    tenants = result.tenant_slowdown_tails
    assert set(tenants) == set(a.tenant for a in stream)
    assert sum(s.count for s in tenants.values()) == len(result.records)


def test_fleet_tail_aggregation():
    device = nvidia_k20m()
    fleet = DeviceFleet([("a", nvidia_k20m()), ("b", nvidia_k20m())])
    stream = from_name("multi-tenant", seed=3, load=1.0, count=12,
                       device=device)
    result = FleetOpenSystemExperiment(fleet).run(stream, "accelos",
                                                  LeastLoadedPlacement())
    # fleet-wide tails == tails over the union of per-device records
    assert result.slowdown_tails \
        == tail_summary([r.slowdown for r in result.overall.records])
    assert result.p99_slowdown == result.overall.slowdown_tails.p99
    # per-device populations partition the fleet population
    assert sum(r.slowdown_tails.count for r in result.per_device.values()) \
        == result.slowdown_tails.count
    # the fleet max is attained on some device
    assert result.slowdown_tails.max == pytest.approx(max(
        r.slowdown_tails.max for r in result.per_device.values()))
    # tenant breakdown survives placement across devices
    assert set(result.tenant_slowdown_tails) \
        == set(a.tenant for a in stream)


def test_fleet_tenant_counts_conserved():
    fleet = DeviceFleet([("a", nvidia_k20m()), ("b", nvidia_k20m())])
    stream = from_name("multi-tenant", seed=9, load=1.5, count=12,
                       device=fleet[0].device)
    result = FleetOpenSystemExperiment(fleet).run(stream, "baseline",
                                                  LeastLoadedPlacement())
    by_tenant = result.tenant_slowdown_tails
    arriving = {}
    for a in stream:
        arriving[a.tenant] = arriving.get(a.tenant, 0) + 1
    assert {t: s.count for t, s in by_tenant.items()} == arriving


def test_nan_guard_in_percentile_is_reachable():
    with pytest.raises(ValueError):
        percentile([math.nan], 99)


def test_nan_rejected_anywhere_in_population():
    """sorted() leaves NaN wherever it started (all comparisons false), so
    the guard must scan the whole population, not just the extremes."""
    with pytest.raises(ValueError):
        percentile([1.0, math.nan, 2.0], 50)
    with pytest.raises(ValueError):
        percentile([math.nan, 1.0, 2.0], 50)
