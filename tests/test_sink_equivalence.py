"""Exact sink ≡ streaming sink on the same loop.

Every open-system run fills record sinks through one harness body; exact
and streaming runs differ only in which sink they fill.  The metamorphic
property below runs each drawn stream both ways on the same drive loop,
for every built-in scheme, on one device and on a two-member fleet, and
checks that the two results agree:

* bit for bit where both sinks compute the same order statistics or
  extremes: ``count``, ``makespan``, ``unfairness``, each tail's
  p50/p95/p99/max (overall, per tenant, per device), ``device_share``,
  ``migrations`` and ``rebalances``.  The streams hold at most
  ``EXACT_COUNT`` requests, so the streaming quantiles are exact;
* within ``SUMMATION_RTOL`` where only the summation order differs
  (the streaming sink sums in completion order, the exact sink in
  submission order): ANTT, STP and the means.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import placement_names
from repro.api.schemes import BUILTIN_SCHEMES
from repro.cl import derated_device, nvidia_k20m
from repro.harness import FleetOpenSystemExperiment, OpenSystemExperiment
from repro.metrics.sketches import EXACT_COUNT
from repro.sim import DeviceFleet
from repro.workloads import trace_arrivals

from tests.test_streaming_equivalence import SUMMATION_RTOL

KERNELS = ("sgemm", "bfs", "spmv", "stencil", "cutcp", "tpacf")
TENANTS = ("t0", "t1", "t2")
# inter-arrival gaps are whole quanta, so simultaneous arrivals occur
QUANTUM = 5e-4


def fleet():
    return DeviceFleet([
        ("fast", nvidia_k20m()),
        ("slow", derated_device(nvidia_k20m(), "K20m-derated",
                                clock_scale=0.5, cu_scale=0.25)),
    ])


@st.composite
def streams(draw):
    count = draw(st.integers(1, EXACT_COUNT))
    entries = []
    time = 0.0
    for _ in range(count):
        time += draw(st.integers(0, 8)) * QUANTUM
        entries.append((draw(st.sampled_from(KERNELS)), time,
                        draw(st.sampled_from(TENANTS))))
    return trace_arrivals(entries)


def tail_fields(summary):
    return (summary.count, summary.p50, summary.p95, summary.p99,
            summary.max)


def check_result(exact, streamed, context):
    assert streamed.records is None and streamed.slowdowns is None
    for metric in ("count", "makespan", "unfairness"):
        assert getattr(streamed, metric) == getattr(exact, metric), \
            (metric,) + context
    for metric in ("antt", "stp", "mean_turnaround", "mean_queueing_delay"):
        assert getattr(streamed, metric) == pytest.approx(
            getattr(exact, metric), rel=SUMMATION_RTOL), (metric,) + context
    tails = {"slowdown": (exact.slowdown_tails, streamed.slowdown_tails),
             "queueing": (exact.queueing_tails, streamed.queueing_tails)}
    assert list(streamed.tenant_slowdown_tails) \
        == list(exact.tenant_slowdown_tails), context
    for tenant, summary in exact.tenant_slowdown_tails.items():
        tails[tenant] = (summary, streamed.tenant_slowdown_tails[tenant])
    for label, (want, got) in tails.items():
        assert tail_fields(got) == tail_fields(want), (label,) + context
        assert got.mean == pytest.approx(want.mean, rel=SUMMATION_RTOL), \
            (label,) + context


@settings(max_examples=15, deadline=None)
@given(scheme=st.sampled_from(BUILTIN_SCHEMES), stream=streams())
def test_single_device_exact_sink_equals_streaming_sink(scheme, stream):
    experiment = OpenSystemExperiment(nvidia_k20m())
    exact = experiment.run(stream, scheme)
    streamed = experiment.run_stream(iter(stream), scheme)
    check_result(exact, streamed, (scheme, len(stream)))


@settings(max_examples=15, deadline=None)
@given(scheme=st.sampled_from(BUILTIN_SCHEMES), stream=streams(),
       placement=st.sampled_from(placement_names()),
       rebalance=st.sampled_from((None, "work-stealing")))
def test_fleet_exact_sink_equals_streaming_sink(scheme, stream, placement,
                                                rebalance):
    # re-balancing needs live-state placement; "online" adapts offline
    # policies to it
    mode = "auto" if rebalance is None else "online"
    experiment = FleetOpenSystemExperiment(fleet())
    exact = experiment.run(stream, scheme, placement, mode=mode,
                           rebalance=rebalance)
    streamed = experiment.run_stream(iter(stream), scheme, placement,
                                     mode=mode, rebalance=rebalance)
    context = (scheme, placement, rebalance, len(stream))
    assert streamed.decisions is None
    assert [d.position for d in exact.decisions] == list(range(len(stream)))
    for metric in ("device_share", "migrations", "rebalances"):
        assert getattr(streamed, metric) == getattr(exact, metric), \
            (metric,) + context
    check_result(exact.overall, streamed.overall, context)
    assert list(streamed.per_device) == list(exact.per_device), context
    for device_id, result in exact.per_device.items():
        check_result(result, streamed.per_device[device_id],
                     (device_id,) + context)
