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

from hypothesis import given, settings, strategies as st

from repro.api import placement_names
from repro.api.schemes import BUILTIN_SCHEMES
from repro.cl import amd_r9_295x2, nvidia_k20m
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
