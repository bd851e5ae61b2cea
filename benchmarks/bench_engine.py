"""Event-engine fast-path regression bench: speedup with zero drift.

The open-system event loop runs on incremental admission accounting,
an allocation memo over the active requirement multiset, and indexed
pending-slot bookkeeping (see ``docs/PERFORMANCE.md``).  The original
reference scans and the literal §3 allocator live on as a test-side
oracle: ``tests.oracles.reference_engine()`` swaps them into the scheme
layer.  This bench pins two claims about the engine (the fast path)
against that oracle (the reference path) on a **10^5-request** bursty
multi-tenant stream:

* **zero behavioural drift** — the fast and reference paths produce
  *byte-identical* results (``repr(vars(result))`` equality, covering
  every metric, tail, and per-device share), asserted in-bench for a
  single-device leg and a heterogeneous-fleet leg;
* **a speedup floor** — the fast path must process the stream at a
  minimum multiple of the reference path's events/sec (3x on the full
  10^5-request run, a conservative 1.8x on the CI smoke).  The floor
  is only *enforced* when ``os.cpu_count()`` meets a minimum — shared
  single-core CI runners time too noisily to gate a merge on — but the
  measured verdict is always recorded.

Doubles as the CI engine probe:

    python benchmarks/bench_engine.py --smoke --json BENCH_engine.json

emits a deterministic JSON report (same seed => bit-identical file).
Wall-clock seconds and the raw speedup ratio are deliberately
*excluded* from the JSON — they vary run to run — the report carries
the event counts, the metric values, the identity verdicts, and the
floor pass/fail booleans instead.
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):  # CLI invocation: make src/ importable
    sys.path.insert(0, str(REPO_ROOT / "src"))
if str(REPO_ROOT) not in sys.path:  # the tests.oracles package
    sys.path.insert(0, str(REPO_ROOT))

from repro.cl import nvidia_k20m
from repro.harness import (FleetOpenSystemExperiment, OpenSystemExperiment,
                           format_table)

from legs import (BURST_FACTOR, LOAD, PLACEMENT, SCENARIO, SCHEME, SEED,
                  SMALL_KERNELS, WARMUP_COUNT, arrival_iter, build_fleet)
from tests.oracles import reference_engine

FULL_COUNT = 100_000
SMOKE_COUNT = 20_000
FULL_FLEET_COUNT = 100_000
SMOKE_FLEET_COUNT = 10_000

# speedup floors (events/sec fast over events/sec reference).  The
# full-scale floor is the PR's acceptance bar; the smoke floor is
# deliberately looser — memo hit rates rise with stream length, so the
# short CI stream underestimates the full-scale ratio.
FULL_SPEEDUP_FLOOR = 3.0
SMOKE_SPEEDUP_FLOOR = 1.8
# fewer cores than this and the floor is recorded but not enforced
# (timing on shared single-core runners is too noisy to gate on)
MIN_CPUS_TO_ENFORCE = 2

_WARMED = False


def _warm_up():
    """Populate the interpreter-lifetime caches (kernel profiles,
    isolated-time memos) before any timed leg, so both the fast and the
    reference measurements pay identical first-touch costs (none)."""
    global _WARMED
    if _WARMED:
        return
    OpenSystemExperiment(nvidia_k20m()).run_stream(
        arrival_iter(WARMUP_COUNT), SCHEME)
    FleetOpenSystemExperiment(build_fleet()).run_stream(
        arrival_iter(WARMUP_COUNT), SCHEME, PLACEMENT)
    _WARMED = True


def _timed_device_run(count, seed):
    experiment = OpenSystemExperiment(nvidia_k20m())
    start = time.perf_counter()
    result = experiment.run_stream(arrival_iter(count, seed=seed), SCHEME)
    wall = time.perf_counter() - start
    return result, experiment.events_processed, wall


def _timed_fleet_run(count, seed):
    experiment = FleetOpenSystemExperiment(build_fleet())
    start = time.perf_counter()
    result = experiment.run_stream(arrival_iter(count, seed=seed),
                                   SCHEME, PLACEMENT)
    wall = time.perf_counter() - start
    return result, experiment.events_processed, wall


def ab_leg(label, runner, count, seed=SEED):
    """One A/B leg: fast run, reference run, identity + timing.

    Returns ``(report, timing)`` — the deterministic part and the
    wall-clock part, kept separate so the JSON stays byte-stable.
    """
    _warm_up()
    fast_result, fast_events, fast_wall = runner(count, seed)
    with reference_engine():
        ref_result, ref_events, ref_wall = runner(count, seed)
    identical = repr(vars(fast_result)) == repr(vars(ref_result))
    if fast_events != ref_events:
        # both paths pop the same event sequence; a count drift means
        # the fast path changed *what* the engine does, not just how
        identical = False
    speedup = ((fast_events / fast_wall) / (ref_events / ref_wall)
               if fast_wall > 0 and ref_wall > 0 else float("inf"))
    report = {
        "leg": label,
        "count": count,
        "seed": seed,
        "events_processed": fast_events,
        "identical": bool(identical),
        "metrics": {
            "antt": fast_result.antt,
            "stp": fast_result.stp,
            "unfairness": fast_result.unfairness,
            "p99_slowdown": fast_result.slowdown_tails.p99,
            "makespan": fast_result.makespan,
        },
    }
    timing = {
        "leg": label,
        "fast_wall": fast_wall,
        "ref_wall": ref_wall,
        "fast_events_per_sec": fast_events / fast_wall,
        "ref_events_per_sec": ref_events / ref_wall,
        "speedup": speedup,
    }
    return report, timing


def engine_report(device_count, fleet_count, floor, seed=SEED):
    """Both legs + the floor verdict: ``(report, timings)``."""
    device_report, device_timing = ab_leg(
        "single-device", _timed_device_run, device_count, seed=seed)
    fleet_report, fleet_timing = ab_leg(
        "fleet", _timed_fleet_run, fleet_count, seed=seed)
    report = {
        "scenario": SCENARIO, "scheme": SCHEME, "placement": PLACEMENT,
        "load": LOAD, "burst_factor": BURST_FACTOR,
        "kernels": list(SMALL_KERNELS),
        "legs": [device_report, fleet_report],
        "floor": {
            "speedup_floor": floor,
            "min_cpus_to_enforce": MIN_CPUS_TO_ENFORCE,
            # the floor is judged on the single-device leg: the fleet
            # leg interleaves placement-policy cost that the engine
            # fast path does not claim to speed up
            "floor_met": bool(device_timing["speedup"] >= floor),
        },
    }
    return report, [device_timing, fleet_timing]


def check_engine(report, timings):
    """The CI gate: identity always, the speedup floor when enforced."""
    for leg in report["legs"]:
        if not leg["identical"]:
            raise AssertionError(
                "fast path diverged from the reference path on the "
                "{} leg — behavioural drift".format(leg["leg"]))
    floor = report["floor"]
    enforced = (os.cpu_count() or 1) >= floor["min_cpus_to_enforce"]
    if enforced and not floor["floor_met"]:
        raise AssertionError(
            "fast path below the {}x events/sec floor: {!r}".format(
                floor["speedup_floor"],
                [(t["leg"], t["speedup"]) for t in timings]))


# -- pytest entry points (explicit invocation only: bench_* files are
# -- not collected by the tier-1 run) -----------------------------------------

def test_engine_fast_path_smoke(emit):
    report, timings = engine_report(SMOKE_COUNT, SMOKE_FLEET_COUNT,
                                    SMOKE_SPEEDUP_FLOOR)
    check_engine(report, timings)
    emit(render(report, timings))
    assert all(leg["identical"] for leg in report["legs"])


# -- CLI entry point (CI engine probe) ----------------------------------------

def render(report, timings):
    rows = []
    timing_of = {t["leg"]: t for t in timings}
    for leg in report["legs"]:
        timing = timing_of[leg["leg"]]
        rows.append([
            leg["leg"], leg["count"], leg["events_processed"],
            "%.1f" % timing["fast_wall"], "%.1f" % timing["ref_wall"],
            "%.0f" % timing["fast_events_per_sec"],
            "%.0f" % timing["ref_events_per_sec"],
            "%.2f" % timing["speedup"], leg["identical"],
        ])
    floor = report["floor"]
    return format_table(
        ["leg", "requests", "events", "fast (s)", "ref (s)",
         "fast ev/s", "ref ev/s", "speedup", "identical"],
        rows,
        title="Engine fast path A/B — {} {}, load {}x{} (floor {}x, "
              "met: {})".format(SCHEME, SCENARIO, LOAD, BURST_FACTOR,
                                floor["speedup_floor"],
                                floor["floor_met"]))


def json_report(report):
    """Deterministic JSON document (stable key order, plain floats;
    wall-clock and raw speedup excluded by design — see module
    docstring)."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="event-engine fast-path regression probe")
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run ({} device + {} fleet requests, "
                             "{}x floor)".format(SMOKE_COUNT,
                                                 SMOKE_FLEET_COUNT,
                                                 SMOKE_SPEEDUP_FLOOR))
    parser.add_argument("--json", metavar="PATH",
                        help="write the machine-readable report here "
                             "(e.g. BENCH_engine.json)")
    parser.add_argument("--seed", type=int, default=SEED)
    args = parser.parse_args(argv)

    if args.smoke:
        counts = (SMOKE_COUNT, SMOKE_FLEET_COUNT)
        floor = SMOKE_SPEEDUP_FLOOR
    else:
        counts = (FULL_COUNT, FULL_FLEET_COUNT)
        floor = FULL_SPEEDUP_FLOOR
    report, timings = engine_report(counts[0], counts[1], floor,
                                    seed=args.seed)
    print(render(report, timings))
    if args.json:
        Path(args.json).write_text(json_report(report))
        print("\nwrote {}".format(args.json))
    check_engine(report, timings)
    return 0


if __name__ == "__main__":
    sys.exit(main())
