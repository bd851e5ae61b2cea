"""Million-request streaming evaluation: lazy arrivals, sketch metrics,
bounded memory.

The paper evaluates schedulers over streams small enough to hold every
request record in memory.  This bench pins the PR 7 scaling plane: a
**10^6-request** bursty multi-tenant stream is placed across a
heterogeneous fleet through the closed loop, with arrivals generated
lazily (``TrafficScenario.iter_arrivals``) and metrics accumulated by
online sketches (:mod:`repro.metrics.sketches`) — no request list is
ever materialised, so peak memory is a function of the *in-flight*
population, not of stream length.

Two claims are pinned:

* **bounded memory** — tracemalloc peak during the streaming run stays
  under a fixed budget that does not grow with the request count (the
  smoke run measures a 10x smaller stream alongside and asserts the
  peak does not scale with it);
* **sketch fidelity** — a spec-driven ``metrics_mode="streaming"`` run
  reproduces the exact-mode ANTT/STP/unfairness bit-for-bit up to
  summation order (these are plain accumulators), with p50/p95/p99
  within the sketch's relative accuracy α of the exact ones.  The leg
  streams more requests than the sketch keeps exactly, so its
  quantiles come from the log buckets.

The workload is the §8.5 small-kernel regime (requests small enough
that hundreds stack on one device — the population that makes 10^6
requests tractable and the in-flight set interesting), shaped by the
bursty multi-tenant scenario pushed past fleet saturation.

Doubles as the CI scale probe:

    python benchmarks/bench_scale.py --smoke --json BENCH_scale.json

emits a deterministic JSON report (same seed => bit-identical file).
Raw tracemalloc peaks are deliberately *excluded* from the JSON — they
vary with allocator details across interpreter builds — the report
carries the budget and a pass/fail boolean instead.
"""

import argparse
import json
import sys
import tracemalloc
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):  # CLI invocation: make src/ importable
    sys.path.insert(0, str(REPO_ROOT / "src"))

import pytest

from repro.api import ExperimentSpec, run
from repro.harness import FleetOpenSystemExperiment, format_table
from repro.metrics import EXACT_COUNT, RELATIVE_ACCURACY

from legs import (BURST_FACTOR, LOAD, PLACEMENT, SCENARIO, SCHEME, SEED,
                  SMALL_KERNELS, WARMUP_COUNT, arrival_iter, build_fleet)

SCALE_COUNT = 1_000_000
SMOKE_COUNT = 100_000
SMOKE_BASELINE_COUNT = 10_000

# peak tracemalloc budget for the streaming run: generous headroom over
# the observed in-flight working set (single-digit MB at any n), tight
# enough that materialising a 10^5-request record list blows it
MEMORY_BUDGET_BYTES = 32 * 1024 * 1024
# smoke sublinearity gate: 10x the requests must not cost anywhere near
# 10x the peak (the in-flight population, not n, sets the working set)
MEMORY_SCALE_FACTOR = 3.0

# the spec-driven fidelity leg: small on purpose (it runs the exact
# path too, which materialises records), but past the sketch's exact
# buffer, so the α bound is what it checks
FIDELITY_COUNT = 1024
assert FIDELITY_COUNT > EXACT_COUNT
QUANTILE_METRICS = ("p50_slowdown", "p95_slowdown", "p99_slowdown")

FIDELITY_SPEC = dict(
    scenario=SCENARIO,
    schemes=(SCHEME,),
    loads=(LOAD,),
    seeds=(SEED,),
    count=FIDELITY_COUNT,
    devices=(
        {"id": "fast", "base": "nvidia-k20m"},
        {"id": "slow", "base": "nvidia-k20m",
         "clock_scale": 0.5, "cu_scale": 1.0},
    ),
    placements=(PLACEMENT,),
    metrics=("antt", "stp", "unfairness") + QUANTILE_METRICS,
)


_WARMED = False


def _warm_up():
    """Populate the interpreter-lifetime caches (kernel profiles,
    isolated-time memos) outside the traced region, so the measured
    peak reflects the streaming plane, not first-touch cache fills."""
    global _WARMED
    if _WARMED:
        return
    FleetOpenSystemExperiment(build_fleet()).run_stream(
        arrival_iter(WARMUP_COUNT), SCHEME, PLACEMENT)
    _WARMED = True


def streaming_run(count, seed=SEED):
    """One measured streaming fleet run: ``(result, peak_bytes)``."""
    _warm_up()
    fleet = build_fleet()
    experiment = FleetOpenSystemExperiment(fleet)
    tracemalloc.start()
    try:
        result = experiment.run_stream(arrival_iter(count, seed=seed),
                                       SCHEME, PLACEMENT)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def scale_report(count, seed=SEED, baseline_count=None):
    """The scale leg: metrics of the big streaming run + memory verdict."""
    result, peak = streaming_run(count, seed=seed)
    report = {
        "scenario": SCENARIO, "scheme": SCHEME, "placement": PLACEMENT,
        "load": LOAD, "burst_factor": BURST_FACTOR, "seed": seed,
        "count": count,
        "kernels": list(SMALL_KERNELS),
        "metrics": {
            "antt": result.antt,
            "stp": result.stp,
            "unfairness": result.unfairness,
            "mean_queueing_delay": result.mean_queueing_delay,
            "p50_slowdown": result.slowdown_tails.p50,
            "p95_slowdown": result.slowdown_tails.p95,
            "p99_slowdown": result.slowdown_tails.p99,
            "max_slowdown": result.slowdown_tails.max,
            "makespan": result.makespan,
            "migrations": result.migrations,
            "rebalances": result.rebalances,
            "device_share": dict(result.device_share),
        },
        "memory": {
            "budget_bytes": MEMORY_BUDGET_BYTES,
            "within_budget": bool(peak < MEMORY_BUDGET_BYTES),
        },
    }
    peaks = {count: peak}
    if baseline_count is not None:
        _, small_peak = streaming_run(baseline_count, seed=seed)
        peaks[baseline_count] = small_peak
        report["memory"]["baseline_count"] = baseline_count
        report["memory"]["scale_factor_budget"] = MEMORY_SCALE_FACTOR
        report["memory"]["sublinear"] = bool(
            peak < small_peak * MEMORY_SCALE_FACTOR)
    return report, peaks


def fidelity_report(seed=SEED):
    """Exact vs streaming metrics for the same spec (the fidelity leg)."""
    exact = run(ExperimentSpec(**FIDELITY_SPEC))
    streaming = run(ExperimentSpec(metrics_mode="streaming",
                                   **FIDELITY_SPEC))
    legs = {}
    for label, results in (("exact", exact), ("streaming", streaming)):
        legs[label] = {name: results.metric(name)
                       for name in FIDELITY_SPEC["metrics"]}
    return {
        "count": FIDELITY_COUNT,
        "seed": seed,
        "relative_accuracy": RELATIVE_ACCURACY,
        "legs": legs,
    }


def check_memory(report, peaks):
    """The CI gate: raise if the streaming run left bounded memory."""
    memory = report["memory"]
    if not memory["within_budget"]:
        raise AssertionError(
            "streaming peak {} bytes exceeds the {}-byte budget".format(
                max(peaks.values()), memory["budget_bytes"]))
    if "sublinear" in memory and not memory["sublinear"]:
        raise AssertionError(
            "streaming peak scales with the request count: {!r}".format(
                peaks))


def check_fidelity(report):
    exact = report["legs"]["exact"]
    streaming = report["legs"]["streaming"]
    for name in ("antt", "stp", "unfairness"):
        if abs(streaming[name] - exact[name]) \
                > 1e-9 * max(1.0, abs(exact[name])):
            raise AssertionError(
                "streaming {} diverged from exact: {!r} vs {!r}".format(
                    name, streaming[name], exact[name]))
    # the quantiles are bucket estimates: within α of the exact ones,
    # with float rounding the only slack (as in tests/test_sketches.py)
    for name in QUANTILE_METRICS:
        if abs(streaming[name] - exact[name]) \
                > (RELATIVE_ACCURACY + 1e-12) * exact[name]:
            raise AssertionError(
                "streaming {} outside the sketch's relative accuracy "
                "{}: {!r} vs exact {!r}".format(
                    name, RELATIVE_ACCURACY, streaming[name],
                    exact[name]))


# -- pytest entry points (explicit invocation only: bench_* files are
# -- not collected by the tier-1 run) -----------------------------------------

def test_streaming_scale_smoke(emit):
    report, peaks = scale_report(20_000, baseline_count=5_000)
    check_memory(report, peaks)
    metrics = report["metrics"]
    emit(format_table(
        ["count", "ANTT", "unfairness", "p99 slowdown", "peak (MB)"],
        [[count, metrics["antt"], metrics["unfairness"],
          metrics["p99_slowdown"], peaks[count] / 1e6]
         for count in sorted(peaks)],
        title="Streaming scale smoke — {} {} requests".format(
            SCHEME, SCENARIO)))
    assert metrics["antt"] > 1.0
    assert 0 < metrics["p50_slowdown"] <= metrics["p99_slowdown"] \
        <= metrics["max_slowdown"]
    # determinism: the streaming plane is a pure function of the seed
    again, _ = streaming_run(20_000)
    assert again.antt == metrics["antt"]
    assert again.p99_slowdown == metrics["p99_slowdown"]


def test_streaming_matches_exact_through_the_spec(emit):
    report = fidelity_report()
    check_fidelity(report)
    emit(format_table(
        ["leg", "ANTT", "STP", "unfairness", "p99 slowdown"],
        [[label, m["antt"], m["stp"], m["unfairness"], m["p99_slowdown"]]
         for label, m in report["legs"].items()],
        title="Spec-driven exact vs streaming — {} requests".format(
            FIDELITY_COUNT)))


# -- CLI entry point (CI scale trajectory) ------------------------------------

def render(scale, fidelity, peaks):
    metrics = scale["metrics"]
    tables = [format_table(
        ["count", "ANTT", "STP", "unfairness", "p99 slowdown",
         "peak (MB)", "within budget"],
        [[count,
          metrics["antt"] if count == scale["count"] else "",
          metrics["stp"] if count == scale["count"] else "",
          metrics["unfairness"] if count == scale["count"] else "",
          metrics["p99_slowdown"] if count == scale["count"] else "",
          peaks[count] / 1e6,
          scale["memory"]["within_budget"] if count == scale["count"]
          else ""]
         for count in sorted(peaks)],
        title="Streaming scale — {} {} requests, {} + {}, load {}x{}"
        .format(scale["count"], SCENARIO, SCHEME, PLACEMENT, LOAD,
                BURST_FACTOR))]
    tables.append(format_table(
        ["leg", "ANTT", "STP", "unfairness", "p99 slowdown"],
        [[label, m["antt"], m["stp"], m["unfairness"], m["p99_slowdown"]]
         for label, m in fidelity["legs"].items()],
        title="Spec-driven exact vs streaming — {} requests".format(
            fidelity["count"])))
    return "\n\n".join(tables)


def json_report(scale, fidelity):
    """Deterministic JSON document (stable key order, plain floats;
    raw memory peaks excluded by design — see module docstring)."""
    return json.dumps({
        "scale": scale,
        "fidelity": fidelity,
    }, sort_keys=True, indent=2) + "\n"


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="million-request streaming evaluation probe")
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run ({} requests + a {}-request "
                             "memory baseline)".format(
                                 SMOKE_COUNT, SMOKE_BASELINE_COUNT))
    parser.add_argument("--json", metavar="PATH",
                        help="write the machine-readable report here "
                             "(e.g. BENCH_scale.json)")
    parser.add_argument("--count", type=int, default=None,
                        help="requests in the scale run (default {})".format(
                            SCALE_COUNT))
    parser.add_argument("--seed", type=int, default=SEED)
    args = parser.parse_args(argv)

    count = args.count if args.count is not None else \
        (SMOKE_COUNT if args.smoke else SCALE_COUNT)
    baseline = SMOKE_BASELINE_COUNT if args.smoke else None
    scale, peaks = scale_report(count, seed=args.seed,
                                baseline_count=baseline)
    fidelity = fidelity_report(seed=args.seed)
    print(render(scale, fidelity, peaks))
    check_memory(scale, peaks)
    check_fidelity(fidelity)
    if args.json:
        document = json_report(scale, fidelity)
        Path(args.json).write_text(document, encoding="utf-8")
        print("wrote {}".format(args.json))
    return 0


if __name__ == "__main__":
    sys.exit(main())
