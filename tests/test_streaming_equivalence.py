"""Lazy/eager equivalence goldens: the streaming plane changes memory,
never results.

Three locks:

* every registered scenario's ``iter_arrivals`` yields the bit-identical
  arrival sequence ``generate`` materialises (same RNG draw order, same
  merge order for multi-tenant streams) — and does so lazily;
* the driver's ``build_stream_iter`` is the lazy twin of
  ``build_stream`` for both spec topologies;
* a ``metrics_mode="streaming"`` run of the checked-in CI smoke spec
  reproduces the exact-mode golden (``tests/goldens/spec_smoke_result
  .json``) — ANTT/STP/unfairness to summation-order precision, and the
  percentile metrics too, because the smoke population is far below the
  sketch warm-up buffer where estimates are exact.
"""

import dataclasses
import itertools
import json
from pathlib import Path

import pytest

from repro.api import ExperimentSpec, build_device, run
from repro.api.driver import build_stream, build_stream_iter
from repro.sim import DeviceFleet
from repro.workloads import SCENARIOS, from_name, iter_from_name, scenario

GOLDEN_DIR = Path(__file__).parent / "goldens"

SUMMATION_RTOL = 1e-9  # exact-up-to-summation-order metric agreement


# -- scenario-level lazy/eager equivalence ------------------------------------

@pytest.mark.parametrize("scenario_name", sorted(SCENARIOS))
@pytest.mark.parametrize("seed", [0, 7, 2016])
def test_iter_arrivals_bit_identical_to_generate(scenario_name, seed):
    model = scenario(scenario_name)
    rate = 400.0
    eager = model.generate(rate, 64, seed=seed)
    lazy = list(model.iter_arrivals(rate, 64, seed=seed))
    assert lazy == eager
    # bit-identical, not merely equal: timestamps are float-exact
    assert [a.time for a in lazy] == [a.time for a in eager]
    assert [(a.name, a.tenant, a.device) for a in lazy] \
        == [(a.name, a.tenant, a.device) for a in eager]


@pytest.mark.parametrize("scenario_name", sorted(SCENARIOS))
def test_iter_arrivals_is_lazy_and_deterministic(scenario_name):
    model = scenario(scenario_name)
    stream = model.iter_arrivals(300.0, 10**9, seed=1)
    # a 10^9-request stream materialised would hang the test: taking a
    # prefix must be O(prefix)
    prefix = list(itertools.islice(stream, 8))
    assert len(prefix) == 8
    # same seed, fresh iterator => bit-identical prefix (the stream is
    # a pure function of (rate, count, seed), consumed incrementally)
    again = list(itertools.islice(
        model.iter_arrivals(300.0, 10**9, seed=1), 8))
    assert [a.time for a in again] == [a.time for a in prefix]
    assert [(a.name, a.tenant) for a in again] \
        == [(a.name, a.tenant) for a in prefix]


@pytest.mark.parametrize("load", [0.5, 1.5])
def test_iter_from_name_matches_from_name(load):
    for name in sorted(SCENARIOS):
        eager = from_name(name, seed=11, load=load, count=48)
        lazy = list(iter_from_name(name, seed=11, load=load, count=48))
        assert lazy == eager


# -- driver-level lazy/eager equivalence --------------------------------------

def test_build_stream_iter_matches_build_stream_single_device():
    spec = ExperimentSpec(scenario="multi-tenant", schemes=("accelos",),
                          loads=(1.2,), seeds=(3,), count=40)
    device = build_device(spec.devices[0])
    eager = build_stream(spec, 1.2, 3, 0, device=device)
    lazy = list(build_stream_iter(spec, 1.2, 3, 0, device=device))
    assert lazy == eager


def test_build_stream_iter_matches_build_stream_fleet():
    spec = ExperimentSpec(
        scenario="bursty", schemes=("accelos",), loads=(1.0,), seeds=(5,),
        count=40,
        devices=({"id": "a", "base": "nvidia-k20m"},
                 {"id": "b", "base": "nvidia-k20m", "clock_scale": 0.5}),
        placements=("least-loaded",))
    fleet = DeviceFleet([(e.id, build_device(e)) for e in spec.devices])
    eager = build_stream(spec, 1.0, 5, 0, fleet=fleet)
    lazy = list(build_stream_iter(spec, 1.0, 5, 0, fleet=fleet))
    assert lazy == eager


# -- streaming mode vs the checked-in exact golden ----------------------------

def _golden_cells():
    document = json.loads(
        (GOLDEN_DIR / "spec_smoke_result.json").read_text(encoding="utf-8"))
    return {cell["cell"]["scheme"]: cell["metrics"]
            for cell in document["cells"]}


def test_streaming_run_reproduces_exact_smoke_golden():
    spec = ExperimentSpec.from_json(
        (GOLDEN_DIR / "spec_smoke.json").read_text(encoding="utf-8"))
    assert spec.metrics_mode == "exact"  # the golden pins the exact plane
    streaming = run(dataclasses.replace(spec, metrics_mode="streaming"))
    golden = _golden_cells()
    for scheme, expected in golden.items():
        for metric in ("antt", "stp", "unfairness", "mean_queueing_delay"):
            assert streaming.metric(metric, scheme=scheme) \
                == pytest.approx(expected[metric], rel=SUMMATION_RTOL), \
                (scheme, metric)
        # 6 requests sit inside the sketch warm-up buffer: the
        # percentile is exact there too, not a P2 estimate
        assert streaming.metric("p99_slowdown", scheme=scheme) \
            == pytest.approx(expected["p99_slowdown"], rel=SUMMATION_RTOL)


def test_streaming_mode_round_trips_through_spec_json():
    spec = ExperimentSpec(scenario="steady", schemes=("accelos",),
                          loads=(1.0,), seeds=(7,), count=6,
                          metrics_mode="streaming")
    replayed = ExperimentSpec.from_json(spec.to_json())
    assert replayed == spec
    a = run(spec)
    b = run(replayed)
    assert a.antt() == b.antt()
    assert a.p99_slowdown() == b.p99_slowdown()


def test_streaming_fleet_run_matches_exact_metrics():
    base = dict(
        scenario="multi-tenant", schemes=("accelos",), loads=(1.2,),
        seeds=(9,), count=48,
        devices=({"id": "fast", "base": "nvidia-k20m"},
                 {"id": "slow", "base": "nvidia-k20m",
                  "clock_scale": 0.5}),
        placements=("least-loaded", "burst-aware"),
        metrics=("antt", "stp", "unfairness", "p99_slowdown"))
    exact = run(ExperimentSpec(**base))
    streaming = run(ExperimentSpec(metrics_mode="streaming", **base))
    for placement in base["placements"]:
        for metric in ("antt", "stp", "unfairness", "p99_slowdown"):
            assert streaming.metric(metric, placement=placement) \
                == pytest.approx(exact.metric(metric, placement=placement),
                                 rel=SUMMATION_RTOL), (placement, metric)


def test_streaming_rejects_offline_placement_mode():
    from repro.errors import SimulationError
    with pytest.raises(SimulationError, match="'offline' was retired"):
        ExperimentSpec(
            scenario="steady", schemes=("accelos",), count=6,
            devices=({"id": "a", "base": "nvidia-k20m"},
                     {"id": "b", "base": "nvidia-k20m"}),
            placements=("least-loaded",),
            placement_mode="offline", metrics_mode="streaming")
