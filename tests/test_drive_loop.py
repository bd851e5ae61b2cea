"""The one drive loop: a single device is a one-member fleet.

Every open-system run goes through ``repro.sim.fleet.FleetSimulator``;
a single-device experiment drives its one session with no placement
policy.  The metamorphic property below pins that equivalence from the
outside: a one-member ``FleetOpenSystemExperiment`` under any registered
placement reproduces ``OpenSystemExperiment`` on the same stream — every
record, ANTT, STP, unfairness and tail — for every built-in scheme, on
both firmware policies (K20m FIFO, R9 295X2 exclusive), on every traffic
scenario.
"""

import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import placement_names
from repro.api.schemes import BUILTIN_SCHEMES
from repro.cl import amd_r9_295x2, nvidia_k20m
from repro.errors import SimulationError
from repro.harness import FleetOpenSystemExperiment, OpenSystemExperiment
from repro.sim import DeviceFleet
from repro.workloads import SCENARIOS, from_name

DEVICES = {"k20m": nvidia_k20m, "r9-295x2": amd_r9_295x2}


def record_fields(records):
    return [(r.name, r.tenant, r.arrival, r.start, r.finish, r.isolated)
            for r in records]


@settings(max_examples=60, deadline=None)
@given(scheme=st.sampled_from(BUILTIN_SCHEMES),
       device=st.sampled_from(sorted(DEVICES)),
       scenario=st.sampled_from(sorted(SCENARIOS)),
       placement=st.sampled_from(placement_names()),
       seed=st.integers(0, 2**16),
       load=st.sampled_from((0.5, 1.0, 2.0)),
       count=st.integers(1, 16))
def test_one_member_fleet_equals_single_device(scheme, device, scenario,
                                               placement, seed, load,
                                               count):
    dev = DEVICES[device]()
    stream = from_name(scenario, seed=seed, load=load, count=count,
                       device=dev)
    single = OpenSystemExperiment(dev).run(stream, scheme)
    fleet = FleetOpenSystemExperiment(DeviceFleet([dev])).run(
        stream, scheme, placement).overall
    context = (scheme, device, scenario, placement, seed, load, count)
    assert record_fields(fleet.records) == record_fields(single.records), \
        context
    for metric in ("antt", "stp", "unfairness", "mean_turnaround",
                   "mean_queueing_delay", "makespan", "slowdown_tails",
                   "queueing_tails", "tenant_slowdown_tails"):
        assert getattr(fleet, metric) == getattr(single, metric), \
            (metric,) + context


# -- the one run body ---------------------------------------------------------

KINDS = ("single", "fleet")


def _experiment(kind):
    """A fresh experiment and the placement arguments its runs take."""
    if kind == "single":
        return OpenSystemExperiment(nvidia_k20m()), ()
    flt = DeviceFleet([("a", nvidia_k20m()), ("b", amd_r9_295x2())])
    return FleetOpenSystemExperiment(flt), ("least-loaded",)


def _stream(seed, count):
    return from_name("multi-tenant", seed=seed, load=1.0, count=count,
                     device=nvidia_k20m())


def _streamed_events(kind, stream):
    experiment, placement = _experiment(kind)
    experiment.run_stream(iter(stream), "accelos", *placement)
    return experiment.events_processed


@pytest.mark.parametrize("kind", KINDS)
def test_exact_run_sets_events_processed(kind):
    """``run`` reports its engine event count, like ``run_stream``."""
    stream = _stream(1, 6)
    experiment, placement = _experiment(kind)
    experiment.run(stream, "accelos", *placement)
    assert experiment.events_processed \
        == _streamed_events(kind, stream) > 0


@pytest.mark.parametrize("kind", KINDS)
def test_exact_run_replaces_an_earlier_stream_count(kind):
    short, long = _stream(1, 6), _stream(2, 12)
    experiment, placement = _experiment(kind)
    experiment.run_stream(iter(short), "accelos", *placement)
    experiment.run(long, "accelos", *placement)
    assert experiment.events_processed \
        == _streamed_events(kind, long) != _streamed_events(kind, short)


@pytest.mark.parametrize("mode, message", [
    ("bogus", "unknown placement mode 'bogus' (valid: auto, online)"),
    ("offline", "placement mode 'offline' was retired: use 'auto'"),
], ids=["bogus", "offline"])
def test_streaming_fleet_mode_errors(mode, message):
    """An invalid mode gets the invalid-mode error; the retired offline
    mode gets the error pointing to 'auto'."""
    experiment, placement = _experiment("fleet")
    with pytest.raises(SimulationError, match=re.escape(message)):
        experiment.run_stream(iter(_stream(1, 6)), "accelos", *placement,
                              mode=mode)
