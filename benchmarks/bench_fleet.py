"""Fleet evaluation: cross-device placement on homogeneous and
heterogeneous fleets.

Beyond the paper (which arbitrates a single accelerator), this bench
scales the open-system methodology to a *fleet*: a multi-tenant request
stream is placed across devices by each registered placement policy,
every device runs its own §3 allocator, and fleet-wide
STP/ANTT/unfairness/queueing delay are reported alongside the per-device
split.  The whole campaign is one declarative
:class:`repro.api.ExperimentSpec` per fleet — topology (derated
heterogeneity included), placement grid, placement mode and re-balance
config are data, not wiring.

Expected shape of the results:

* on a **homogeneous** fleet, round-robin is near-optimal (it is exactly
  load balancing), so least-loaded only ties it;
* on a **heterogeneous** fleet (fast + derated slow device), round-robin
  sends half the stream to the slow device regardless of backlog — its
  queue grows and fleet ANTT suffers — while least-loaded placement
  routes by estimated completion and wins on ANTT (the acceptance
  criterion of the PR 2 subsystem);
* affinity placement trades a little balance for locality: migrations are
  rare and bounded by the penalty;
* under **bursty multi-tenant** traffic live state earns its keep:
  the offline estimate misjudges how fast an accelOS device drains (it
  assumes serial service; §3 space sharing drains concurrently), so the
  burst-aware *online* policy — live backlog + burst detection —
  restores accelOS's fleet-wide unfairness edge over the standard stack
  that PR 4 observed being lost (the ROADMAP open item this subsystem
  resolves), without regressing ANTT or tail slowdown.

Doubles as the CI perf-trajectory probe:

    python benchmarks/bench_fleet.py --smoke --json BENCH_fleet.json

emits a deterministic JSON report (same seed => bit-identical file) with
the placement sweep per fleet and the burst-aware closed-loop campaign.
"""

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):  # CLI invocation: make src/ importable
    sys.path.insert(0, str(REPO_ROOT / "src"))

import pytest

from repro.api import (ExperimentSpec, build_device, build_stream,
                       placement_from_name, placement_names, run)
from repro.harness import FleetOpenSystemExperiment, format_table
from repro.sim import DeviceFleet

STREAM_LENGTH = 32
SMOKE_STREAM_LENGTH = 12
SEED = 2016
LOAD = 1.0
SCHEME = "accelos"
SCENARIO = "multi-tenant"

# the burst campaign: the same bursty multi-tenant scenario pushed past
# fleet saturation, where placement decides fleet-wide fairness
BURST_LOAD = 1.5
BURST_STREAM_LENGTH = 48
BURST_SCHEMES = ("baseline", "accelos")
BURST_PLACEMENTS = ("least-loaded", "burst-aware")

FLEETS = {
    "homogeneous 2x K20m": (
        {"id": "k20m-0", "base": "nvidia-k20m"},
        {"id": "k20m-1", "base": "nvidia-k20m"},
    ),
    "heterogeneous fast+slow": (
        {"id": "fast", "base": "nvidia-k20m"},
        {"id": "slow", "base": "nvidia-k20m",
         "clock_scale": 0.4, "cu_scale": 0.5},
    ),
}


def spec_for(fleet_name, schemes=(SCHEME,), placements=None,
             scenario_name=SCENARIO, count=STREAM_LENGTH, seed=SEED,
             load=LOAD):
    return ExperimentSpec(
        scenario=scenario_name,
        schemes=schemes,
        loads=(load,),
        seeds=(seed,),
        count=count,
        devices=FLEETS[fleet_name],
        placements=placements if placements is not None
        else placement_names(),
        metrics=("unfairness", "stp", "antt", "mean_queueing_delay"),
    )


def burst_spec(count=BURST_STREAM_LENGTH, seed=SEED, load=BURST_LOAD):
    """The closed-loop campaign: offline least-loaded vs burst-aware
    online placement, baseline vs accelOS, on the fast+slow fleet under
    bursty multi-tenant traffic (one declarative spec)."""
    return ExperimentSpec(
        scenario=SCENARIO,
        schemes=BURST_SCHEMES,
        loads=(load,),
        seeds=(seed,),
        count=count,
        devices=FLEETS["heterogeneous fast+slow"],
        placements=BURST_PLACEMENTS,
        metrics=("unfairness", "antt", "p99_slowdown"),
    )


def placement_report(count=STREAM_LENGTH, seed=SEED, load=LOAD):
    """{fleet: {placement: metrics}} for the placement sweep."""
    report = {}
    for fleet_name in FLEETS:
        results = run(spec_for(fleet_name, count=count, seed=seed,
                               load=load))
        per_placement = {}
        for placement in placement_names():
            result = results.get(placement=placement)
            per_placement[placement] = {
                "unfairness": result.overall.unfairness,
                "stp": result.overall.stp,
                "antt": result.overall.antt,
                "mean_queueing_delay": result.overall.mean_queueing_delay,
                "migrations": result.migrations,
                "rebalances": result.rebalances,
                "device_share": dict(result.device_share),
            }
        report[fleet_name] = per_placement
    return report


def burst_report(count=BURST_STREAM_LENGTH, seed=SEED, load=BURST_LOAD):
    """{scheme: {placement: metrics}} for the closed-loop campaign."""
    results = run(burst_spec(count=count, seed=seed, load=load))
    return {
        scheme: {
            placement: {
                "unfairness": results.unfairness(scheme=scheme,
                                                 placement=placement),
                "antt": results.antt(scheme=scheme, placement=placement),
                "p99_slowdown": results.p99_slowdown(scheme=scheme,
                                                     placement=placement),
            }
            for placement in BURST_PLACEMENTS
        }
        for scheme in BURST_SCHEMES
    }


def burst_rows(report):
    return [[scheme, placement, metrics["unfairness"], metrics["antt"],
             metrics["p99_slowdown"]]
            for scheme, per_placement in report.items()
            for placement, metrics in per_placement.items()]


@pytest.mark.parametrize("fleet_name", list(FLEETS))
def test_fleet_placement_sweep(benchmark, emit, fleet_name):
    results = run(spec_for(fleet_name))

    rows = []
    for placement in placement_names():
        result = results.get(placement=placement)
        share = " ".join("{}={:.0%}".format(device_id, fraction)
                         for device_id, fraction
                         in result.device_share.items())
        rows.append([placement, result.overall.unfairness,
                     result.overall.stp, result.overall.antt,
                     result.overall.mean_queueing_delay * 1e3,
                     result.migrations, share])
    emit(format_table(
        ["placement", "unfairness", "STP", "ANTT", "queue delay (ms)",
         "migrations", "device share"],
        rows,
        title="Fleet placement sweep — {} ({} {} requests, load {}, seed {})"
        .format(fleet_name, STREAM_LENGTH, SCHEME, LOAD, SEED)))

    # the timed probe keeps the pre-port target exactly: one scheme under
    # one placement over a pre-built fleet and stream — spec plumbing
    # (validation, device build, calibration, stream generation) stays
    # outside the measured region.  build_stream is the driver's own
    # stream derivation, so the probe simulates the same workload as the
    # asserted results above.
    spec = spec_for(fleet_name)
    fleet = DeviceFleet([(entry.id, build_device(entry))
                         for entry in spec.devices])
    stream = build_stream(spec, LOAD, SEED, 0, fleet=fleet)
    benchmark(FleetOpenSystemExperiment(fleet).run, stream, SCHEME,
              placement_from_name("least-loaded"))

    least_loaded = results.get(placement="least-loaded")
    round_robin = results.get(placement="round-robin")
    if "heterogeneous" in fleet_name:
        # the acceptance criterion: load-aware placement beats blind
        # round-robin on ANTT when devices differ in speed
        assert least_loaded.overall.antt < round_robin.overall.antt
    else:
        # on identical devices round-robin IS load balancing: least-loaded
        # must stay in the same ballpark, not unlock anything
        assert least_loaded.overall.antt \
            < round_robin.overall.antt * 1.25

    # conservation: every request served exactly once, on some device
    for _, result in results:
        assert len(result.overall.records) == STREAM_LENGTH
        assert sum(len(r.records) for r in result.per_device.values()) \
            == STREAM_LENGTH

    # determinism: the whole campaign is a pure function of the spec
    again = run(spec_for(fleet_name, placements=("least-loaded",)))
    assert again.antt(placement="least-loaded") == least_loaded.overall.antt
    assert [r.finish for r in again.records(placement="least-loaded")] \
        == [r.finish for r in least_loaded.overall.records]


def test_fleet_schemes_ranked(emit):
    """accelOS keeps its single-device ranking when scaled to a fleet.

    Steady traffic: the ranking claim mirrors the single-device bench.
    """
    results = run(spec_for("heterogeneous fast+slow",
                           schemes=("baseline", "ek", "accelos"),
                           placements=("least-loaded",),
                           scenario_name="steady"))
    rows = [[scheme, results.unfairness(scheme=scheme),
             results.stp(scheme=scheme), results.antt(scheme=scheme),
             results.metric("mean_queueing_delay", scheme=scheme) * 1e3]
            for scheme in ("baseline", "ek", "accelos")]
    emit(format_table(
        ["scheme", "unfairness", "STP", "ANTT", "queue delay (ms)"],
        rows,
        title="Fleet schemes — heterogeneous fast+slow, least-loaded "
              "placement"))
    assert results.unfairness(scheme="accelos") \
        < results.unfairness(scheme="baseline")
    assert results.antt(scheme="accelos") < results.antt(scheme="ek")


def test_fleet_schemes_ranked_under_bursty_multi_tenant(emit):
    """The rankings that survive realistic traffic, pinned by CI.

    Under bursty multi-tenant surges on a fast+slow fleet, accelOS still
    wins on ANTT and tail slowdown against both baselines — but its
    *unfairness* edge over the standard stack does NOT survive (the
    fleet-wide slowdown spread is dominated by which device a burst
    lands on, not by per-device sharing; see ROADMAP open items).  This
    test asserts the former so a regression is visible, and documents
    the latter instead of pretending it holds.
    """
    results = run(spec_for("heterogeneous fast+slow",
                           schemes=("baseline", "ek", "accelos"),
                           placements=("least-loaded",)))
    rows = [[scheme, results.unfairness(scheme=scheme),
             results.antt(scheme=scheme),
             results.p99_slowdown(scheme=scheme)]
            for scheme in ("baseline", "ek", "accelos")]
    emit(format_table(
        ["scheme", "unfairness", "ANTT", "p99 slowdown"],
        rows,
        title="Fleet schemes — heterogeneous, bursty multi-tenant "
              "traffic"))
    assert results.antt(scheme="accelos") < results.antt(scheme="baseline")
    assert results.antt(scheme="accelos") < results.antt(scheme="ek")
    assert results.p99_slowdown(scheme="accelos") \
        < results.p99_slowdown(scheme="baseline")


def test_burst_aware_online_restores_unfairness_edge(emit):
    """The resolution of the ROADMAP open item pinned by the test above.

    PR 4 observed that under bursty multi-tenant traffic on the fast+slow
    fleet, accelOS's *unfairness* edge over the standard stack does not
    survive offline placement: fleet-wide slowdown spread is dominated by
    which device a burst lands on.  With the closed loop's burst-aware
    online policy (live backlog + burst detection), accelOS's unfairness
    edge over the baseline is restored — and the online policy never
    regresses accelOS's ANTT or p99 against static least-loaded.

    The whole campaign is one JSON-serializable ExperimentSpec through
    ``repro.api.run`` (the acceptance criterion's reproduction path).
    """
    spec = burst_spec()
    report = burst_report()
    emit(format_table(
        ["scheme", "placement", "unfairness", "ANTT", "p99 slowdown"],
        burst_rows(report),
        title="Closed-loop fleet — heterogeneous fast+slow, bursty "
              "multi-tenant traffic, load {}".format(BURST_LOAD)))

    accel_online = report["accelos"]["burst-aware"]
    accel_static = report["accelos"]["least-loaded"]
    # the restored edge: fleet-wide unfairness beats the standard stack
    # under either placement, and the policy also beats accelOS's own
    # static placement
    assert accel_online["unfairness"] \
        < report["baseline"]["least-loaded"]["unfairness"]
    assert accel_online["unfairness"] \
        < report["baseline"]["burst-aware"]["unfairness"]
    assert accel_online["unfairness"] < accel_static["unfairness"]
    # no regression against static least-loaded on the headline metrics
    assert accel_online["antt"] <= accel_static["antt"]
    assert accel_online["p99_slowdown"] <= accel_static["p99_slowdown"]

    # the campaign reproduces through the serialized spec byte-for-byte
    replayed = run(ExperimentSpec.from_json(spec.to_json()))
    assert replayed.unfairness(scheme="accelos", placement="burst-aware") \
        == accel_online["unfairness"]
    assert replayed.p99_slowdown(scheme="accelos",
                                 placement="burst-aware") \
        == accel_online["p99_slowdown"]


# -- CLI entry point (CI perf trajectory) -------------------------------------

def render(placements, bursts, count, burst_count, seed):
    tables = []
    for fleet_name, per_placement in placements.items():
        rows = [[placement, m["unfairness"], m["stp"], m["antt"],
                 m["mean_queueing_delay"] * 1e3, m["migrations"],
                 m["rebalances"]]
                for placement, m in per_placement.items()]
        tables.append(format_table(
            ["placement", "unfairness", "STP", "ANTT",
             "queue delay (ms)", "migrations", "rebalances"],
            rows,
            title="Fleet placement sweep — {} ({} {} requests, load {}, "
                  "seed {})".format(fleet_name, count, SCHEME, LOAD, seed)))
    tables.append(format_table(
        ["scheme", "placement", "unfairness", "ANTT", "p99 slowdown"],
        burst_rows(bursts),
        title="Closed-loop campaign — bursty multi-tenant, load {}, {} "
              "requests, seed {}".format(BURST_LOAD, burst_count, seed)))
    return "\n\n".join(tables)


def json_report(placements, bursts, count, burst_count, seed):
    """Deterministic JSON document (stable key order, plain floats)."""
    return json.dumps({
        "seed": seed,
        "placement_sweep": {
            "scheme": SCHEME, "scenario": SCENARIO, "load": LOAD,
            "count": count, "fleets": placements,
        },
        "closed_loop": {
            "scenario": SCENARIO, "load": BURST_LOAD,
            "count": burst_count, "schemes": bursts,
        },
    }, sort_keys=True, indent=2) + "\n"


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="fleet placement sweep + closed-loop burst campaign")
    parser.add_argument("--smoke", action="store_true",
                        help="small streams for CI ({} requests)".format(
                            SMOKE_STREAM_LENGTH))
    parser.add_argument("--json", metavar="PATH",
                        help="write the machine-readable report here "
                             "(e.g. BENCH_fleet.json)")
    parser.add_argument("--count", type=int, default=None,
                        help="requests per stream (default {})".format(
                            STREAM_LENGTH))
    parser.add_argument("--seed", type=int, default=SEED)
    args = parser.parse_args(argv)

    count = args.count if args.count is not None else \
        (SMOKE_STREAM_LENGTH if args.smoke else STREAM_LENGTH)
    burst_count = args.count if args.count is not None else \
        (SMOKE_STREAM_LENGTH if args.smoke else BURST_STREAM_LENGTH)
    placements = placement_report(count=count, seed=args.seed)
    bursts = burst_report(count=burst_count, seed=args.seed)
    print(render(placements, bursts, count, burst_count, args.seed))
    if args.json:
        document = json_report(placements, bursts, count, burst_count,
                               args.seed)
        Path(args.json).write_text(document, encoding="utf-8")
        print("wrote {}".format(args.json))
    return 0


if __name__ == "__main__":
    sys.exit(main())
