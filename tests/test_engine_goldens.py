"""Engine goldens: stream families frozen from the reference engine.

``tests/goldens/engine_streams.json`` holds what the scan-based
reference engine produced for the A/B suite's stream families at fixed
seeds, recorded before that engine left ``src``:

* ``streams`` — per-request ``(name, arrival, start, finish)`` for each
  scenario x scheme x load on one K20m, 24 requests per stream;
* ``fleet`` — ``repr(vars(result))`` of work-stealing fleet runs, plus
  their full-precision headline metrics: the A/B suite's fleet at three
  seeds, and an overloaded fleet whose queues really are stolen from
  (withdraw/migration interleavings).

These tests replay every family through the one engine in ``src`` and
demand exact equality.  Regenerate (deliberately, with the commit that
moves the behaviour) through the test-side reference oracle:

    PYTHONPATH=src python -m pytest tests/test_engine_goldens.py \
        --regen-goldens
"""

import json
from pathlib import Path

import pytest

from repro.cl import derated_device, nvidia_k20m
from repro.harness import FleetOpenSystemExperiment, OpenSystemExperiment
from repro.sim import DeviceFleet
from repro.workloads import from_name

from tests.oracles import reference_engine
from tests.test_golden_traces import _environment_hint, record_numpy_version

GOLDEN = Path(__file__).parent / "goldens" / "engine_streams.json"

SCENARIOS = ("steady", "bursty", "diurnal", "heavy-tailed",
             "heavy-lognormal", "multi-tenant")
SCHEMES = ("baseline", "ek", "accelos")
LOADS = (0.5, 0.9, 1.3)
STREAM_SEED = 2016
STREAM_COUNT = 24
FLEET_SEEDS = (2016, 7, 23)
# (label, seed): the A/B suite's fleet at every seed, plus one run that
# migrates
FLEET_RUNS = [("work-stealing", seed) for seed in FLEET_SEEDS] \
    + [("migrating", 2016)]

FAMILIES = ["{}/{}/{}".format(scenario, scheme, load)
            for scenario in SCENARIOS for scheme in SCHEMES
            for load in LOADS]


def stream_records(family):
    """``[[name, arrival, start, finish], ...]`` of one stream family."""
    scenario, scheme, load = family.split("/")
    device = nvidia_k20m()
    stream = from_name(scenario, seed=STREAM_SEED, load=float(load),
                       count=STREAM_COUNT, device=device)
    records = OpenSystemExperiment(device).scheme_records(stream, scheme)
    return [[r.name, r.arrival, r.start, r.finish] for r in records]


def stealing_fleet():
    return DeviceFleet([
        ("fast", nvidia_k20m()),
        ("slow", derated_device(nvidia_k20m(), "K20m-derated", 0.4)),
    ])


def quarter_fleet():
    return DeviceFleet([
        ("fast", nvidia_k20m()),
        ("slow", derated_device(nvidia_k20m(), "K20m-quarter",
                                clock_scale=0.5, cu_scale=0.25)),
    ])


def work_stealing_result(seed, label="work-stealing"):
    """A work-stealing fleet run: queued requests are withdrawn from the
    busy device and replayed on the other one.  ``"migrating"`` loads a
    quarter-size slow device far past saturation, so its admission queue
    is stolen from (13 migrations at seed 2016)."""
    if label == "migrating":
        fleet, load, count, placement = quarter_fleet(), 12.0, 150, \
            "burst-aware"
    else:
        fleet, load, count, placement = stealing_fleet(), 1.5, 48, \
            "least-loaded"
    stream = from_name("multi-tenant", seed=seed, load=load, count=count,
                       device=nvidia_k20m())
    experiment = FleetOpenSystemExperiment(fleet)
    return experiment.run_stream(iter(stream), "accelos", placement,
                                 mode="online", rebalance="work-stealing")


def fleet_payload(result):
    """``repr(vars(result))`` plus the headline metrics at full
    precision (the repr rounds the per-device summaries)."""
    parts = [("overall", result.overall)] + sorted(result.per_device.items())
    return {
        "repr": repr(vars(result)),
        "metrics": {key: [part.antt, part.stp, part.unfairness,
                          part.makespan, part.mean_turnaround,
                          part.mean_queueing_delay]
                    for key, part in parts},
    }


def golden_payload():
    return {
        "streams": {family: stream_records(family) for family in FAMILIES},
        "fleet": {"{}/{}".format(label, seed):
                  fleet_payload(work_stealing_result(seed, label))
                  for label, seed in FLEET_RUNS},
    }


def render(payload):
    """The fixture text: one record per line, keys in sorted order."""
    lines = ["{", '  "fleet": {']
    fleet = sorted(payload["fleet"].items())
    for i, (key, entry) in enumerate(fleet):
        comma = "," if i < len(fleet) - 1 else ""
        lines.append("    {}: {}{}".format(json.dumps(key),
                                           json.dumps(entry, sort_keys=True),
                                           comma))
    lines += ["  },", '  "streams": {']
    streams = sorted(payload["streams"].items())
    for i, (family, records) in enumerate(streams):
        lines.append("    {}: [".format(json.dumps(family)))
        lines += ["      {}{}".format(json.dumps(r),
                                      "," if j < len(records) - 1 else "")
                  for j, r in enumerate(records)]
        lines.append("    ]{}".format("," if i < len(streams) - 1 else ""))
    lines += ["  }", "}"]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def golden(request):
    if request.config.getoption("--regen-goldens"):
        with reference_engine():
            GOLDEN.write_text(render(golden_payload()), encoding="utf-8")
        record_numpy_version()
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_family(golden):
    assert sorted(golden["streams"]) == sorted(FAMILIES)
    assert sorted(golden["fleet"]) \
        == sorted("{}/{}".format(label, seed) for label, seed in FLEET_RUNS)
    assert all(len(records) == STREAM_COUNT
               for records in golden["streams"].values())


@pytest.mark.parametrize("family", FAMILIES)
def test_stream_family_replays_golden(golden, family):
    assert stream_records(family) == golden["streams"][family], \
        "engine drifted from the frozen reference on " + family \
        + _environment_hint()


@pytest.mark.parametrize("label, seed", FLEET_RUNS)
def test_work_stealing_fleet_replays_golden(golden, label, seed):
    result = work_stealing_result(seed, label)
    if label == "migrating":
        assert result.migrations > 0
    assert fleet_payload(result) \
        == golden["fleet"]["{}/{}".format(label, seed)]
