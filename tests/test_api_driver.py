"""The declarative driver: ``run(spec)`` end to end.

Four contracts:

* **pure re-plumbing** — a spec naming the historical scenario/seed/load
  points reproduces the pre-API golden traces bit-identically (the
  redesign moved wiring, not numbers);
* **streaming** — ``iter_runs`` yields ``(cell, result)`` pairs
  incrementally, in deterministic grid order;
* **extensibility** — a user-registered toy scheme runs through
  ``run(spec)``, the open-system harness and the golden-trace entry path
  with no other changes;
* **CLI** — ``python -m repro.api.run`` reproduces the checked-in smoke
  result byte for byte (the same diff CI enforces).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import (ExperimentSpec, RequestRecord, SchedulingScheme,
                       arrival_rate_for_load, fleet_arrival_rate_for_load,
                       isolated_time, iter_runs, register_scheme, run,
                       scheme_names, unregister_scheme)
from repro.api.driver import stream_seed
from repro.cl import nvidia_k20m
from repro.errors import SimulationError
from repro.harness.open_system import OpenSystemExperiment
from repro.sim.fleet import DeviceFleet
from repro.workloads import from_name

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).parent / "goldens"

# the pre-API golden-trace grid (tests/test_golden_traces.py)
TRACE_SEED = 5
TRACE_COUNT = 6
TRACE_LOAD = 1.0


def trace_spec(base, scheme):
    return ExperimentSpec(
        scenario="steady", schemes=(scheme,), loads=(TRACE_LOAD,),
        seeds=(TRACE_SEED,), count=TRACE_COUNT,
        devices=({"id": base, "base": base},))


# -- pure re-plumbing: pre-port goldens reproduce through run(spec) -----------

@pytest.mark.parametrize("fixture, base, scheme", [
    ("trace_fifo_baseline.json", "nvidia-k20m", "baseline"),
    ("trace_exclusive_baseline.json", "amd-r9-295x2", "baseline"),
    ("trace_accelos.json", "nvidia-k20m", "accelos"),
    ("trace_ek.json", "nvidia-k20m", "ek"),
])
def test_run_spec_reproduces_pre_port_goldens(fixture, base, scheme):
    """Bit-identical per-request completion times vs the pre-port goldens:
    the API redesign must be a pure re-plumbing."""
    results = run(trace_spec(base, scheme))
    payload = [[r.name, r.arrival, r.start, r.finish]
               for r in results.records(scheme=scheme)]
    stored = json.loads((GOLDEN_DIR / fixture).read_text(encoding="utf-8"))
    assert payload == stored


def test_spec_streams_match_from_name_bit_for_bit():
    """The driver's stream construction is the scenario engine's."""
    spec = trace_spec("nvidia-k20m", "baseline")
    from repro.api import build_stream
    device = nvidia_k20m()
    ours = build_stream(spec, TRACE_LOAD, TRACE_SEED, 0, device=device)
    theirs = from_name("steady", seed=TRACE_SEED, load=TRACE_LOAD,
                       count=TRACE_COUNT, device=device)
    assert [(a.name, a.time) for a in ours] \
        == [(a.name, a.time) for a in theirs]


# -- streaming and grid shape --------------------------------------------------

def test_iter_runs_yields_incrementally_in_grid_order():
    spec = ExperimentSpec(scenario="steady", loads=(0.8, 1.2), seeds=(3,),
                          count=4)
    stream = iter_runs(spec)
    first_cell, first_result = next(stream)  # nothing else ran yet
    assert (first_cell.scheme, first_cell.load) == (spec.schemes[0], 0.8)
    assert first_result.records
    rest = list(stream)
    assert len(rest) == spec.cell_count() - 1
    assert [c.load for c, _ in rest][-1] == 1.2


def test_run_is_deterministic_and_serializable():
    spec = ExperimentSpec(scenario="bursty", loads=(1.0,), seeds=(2,),
                          count=5)
    a, b = run(spec), run(spec)
    assert a.to_json() == b.to_json()
    document = json.loads(a.to_json())
    assert document["spec"] == spec.to_dict()
    assert len(document["cells"]) == spec.cell_count()


def test_repetitions_derive_independent_streams():
    spec = ExperimentSpec(scenario="steady", loads=(1.0,), seeds=(4,),
                          count=5, repetitions=2)
    results = run(spec)
    assert len(results) == spec.cell_count()
    rep0 = results.records(scheme="accelos", repetition=0)
    rep1 = results.records(scheme="accelos", repetition=1)
    # repetition 0 is the seed verbatim (historical streams reproduce);
    # repetition 1 draws a derived child seed => a different stream
    assert stream_seed(4, 0) == 4 and stream_seed(4, 1) != 4
    assert [r.arrival for r in rep0] != [r.arrival for r in rep1]


def test_fleet_spec_runs_per_placement():
    spec = ExperimentSpec(
        scenario="steady", schemes=("accelos",), loads=(1.0,), seeds=(1,),
        count=6,
        devices=({"id": "fast", "base": "nvidia-k20m"},
                 {"id": "slow", "base": "nvidia-k20m",
                  "clock_scale": 0.5, "cu_scale": 0.5}),
        placements=("round-robin", "least-loaded"))
    results = run(spec)
    assert len(results) == 2
    for placement in spec.placements:
        result = results.get(placement=placement)
        assert set(result.fleet_ids) == {"fast", "slow"}
        assert len(result.overall.records) == 6


def test_resultset_get_requires_unique_match():
    spec = ExperimentSpec(scenario="steady", loads=(1.0,), seeds=(1,),
                          count=4)
    results = run(spec)
    with pytest.raises(SimulationError, match="narrow the criteria"):
        results.get(load=1.0)
    with pytest.raises(SimulationError, match="no result cell"):
        results.get(scheme="accelos", load=9.9)


# -- user-registered schemes everywhere ----------------------------------------

class ToyScheme(SchedulingScheme):
    """Strict one-at-a-time service in arrival order (test toy)."""

    name = "toy-serial"

    def open_records(self, arrivals, device, **knobs):
        free_at = 0.0
        records = [None] * len(arrivals)
        order = sorted(range(len(arrivals)),
                       key=lambda i: (arrivals[i].time, i))
        for i in order:
            a = arrivals[i]
            start = max(free_at, a.time)
            service = isolated_time(a.name, device)
            records[i] = RequestRecord(a.name, a.time, start,
                                       start + service, service,
                                       tenant=a.tenant)
            free_at = start + service
        return records


@pytest.fixture
def toy_scheme():
    scheme = register_scheme(ToyScheme)
    try:
        yield scheme
    finally:
        unregister_scheme(scheme.name)


def test_registered_toy_scheme_runs_through_run_spec(toy_scheme):
    assert "toy-serial" in scheme_names()
    spec = ExperimentSpec(scenario="steady",
                          schemes=("baseline", "toy-serial"),
                          loads=(1.0,), seeds=(5,), count=6)
    results = run(spec)
    toy = results.get(scheme="toy-serial")
    assert len(toy.records) == 6
    # one-at-a-time service never overlaps: starts are non-decreasing and
    # each request starts no earlier than the previous one finished
    ordered = sorted(toy.records, key=lambda r: r.start)
    for earlier, later in zip(ordered, ordered[1:]):
        assert later.start >= earlier.finish - 1e-12
    # and it shows up in the serialized report like any built-in
    assert any(c.scheme == "toy-serial"
               for c, _ in results.select(scheme="toy-serial"))


def test_registered_toy_scheme_runs_through_golden_trace_harness(toy_scheme):
    """The golden-trace entry path (OpenSystemExperiment.scheme_records)
    accepts the registered toy exactly like a built-in."""
    device = nvidia_k20m()
    stream = from_name("steady", seed=TRACE_SEED, load=TRACE_LOAD,
                       count=TRACE_COUNT, device=device)
    records = OpenSystemExperiment(device).scheme_records(stream,
                                                          "toy-serial")
    assert len(records) == TRACE_COUNT
    assert [r.name for r in records] == [a.name for a in stream]


def test_run_all_default_includes_user_registered_scheme(toy_scheme):
    """run_all's scheme default resolves the live registry at call time,
    so a user scheme registered after harness import is not dropped."""
    device = nvidia_k20m()
    stream = from_name("steady", seed=1, load=1.0, count=3, device=device)
    results = OpenSystemExperiment(device).run_all(stream)
    assert set(results) == {"baseline", "ek", "accelos", "toy-serial"}


def test_open_only_scheme_cannot_break_closed_sweeps(toy_scheme):
    """The toy implements only open_records: closed-sweep defaults skip
    it (capability-filtered), and asking for it explicitly raises the
    actionable capability error, not a bare NotImplementedError."""
    from repro.api import closed_scheme_names, open_scheme_names
    from repro.harness import run_workload
    assert "toy-serial" in open_scheme_names()
    assert "toy-serial" not in closed_scheme_names()
    assert not toy_scheme.supports_closed and toy_scheme.supports_open
    with pytest.raises(SimulationError,
                       match="no closed-batch mode") as excinfo:
        run_workload(("bfs", "sgemm"), "toy-serial", nvidia_k20m())
    assert "accelos" in str(excinfo.value)  # lists capable schemes


def test_open_records_only_scheme_needs_a_session_beyond_one_device(
        toy_scheme):
    """The toy implements open_records but no open_session: exact
    single-device runs work, while fleet, streaming and attributed runs
    raise the capability error naming the session-capable schemes."""
    from repro.attribution import AttributionLedger
    from repro.harness import FleetOpenSystemExperiment
    from repro.sim import DeviceFleet
    device = nvidia_k20m()
    stream = from_name("steady", seed=1, load=1.0, count=3, device=device)
    assert len(OpenSystemExperiment(device).run(stream,
                                                "toy-serial").records) == 3
    fleet = DeviceFleet([("a", nvidia_k20m()), ("b", nvidia_k20m())])
    runs = [
        lambda: FleetOpenSystemExperiment(fleet).run(stream, "toy-serial",
                                                     "round-robin"),
        lambda: FleetOpenSystemExperiment(fleet).run_stream(
            iter(stream), "toy-serial", "round-robin"),
        lambda: OpenSystemExperiment(device).run_stream(iter(stream),
                                                        "toy-serial"),
        lambda: OpenSystemExperiment(device).run(
            stream, "toy-serial", ledger=AttributionLedger([device.name])),
    ]
    for attempt in runs:
        with pytest.raises(SimulationError,
                           match="has no open_session") as excinfo:
            attempt()
        for name in ("baseline", "ek", "accelos"):
            assert name in str(excinfo.value)


def test_unknown_scheme_error_lists_registered_names():
    device = nvidia_k20m()
    stream = from_name("steady", seed=1, load=1.0, count=3, device=device)
    with pytest.raises(SimulationError, match="unknown scheme") as excinfo:
        OpenSystemExperiment(device).scheme_records(stream, "fifo2")
    message = str(excinfo.value)
    for name in ("baseline", "ek", "accelos"):
        assert name in message


def test_spec_validation_sees_user_registered_scheme(toy_scheme):
    spec = ExperimentSpec(schemes=("toy-serial",), count=4)
    assert spec.schemes == ("toy-serial",)


def test_registered_metric_selectable_in_spec_and_report():
    from repro.api import register_metric, unregister_metric
    register_metric("mean_slowdown", lambda r: r.slowdown_tails.mean)
    try:
        spec = ExperimentSpec(scenario="steady", schemes=("baseline",),
                              loads=(1.0,), seeds=(1,), count=4,
                              metrics=("antt", "mean_slowdown"))
        results = run(spec)
        document = json.loads(results.to_json())
        assert "mean_slowdown" in document["cells"][0]["metrics"]
        assert results.metric("mean_slowdown", scheme="baseline") > 0
    finally:
        unregister_metric("mean_slowdown")
    with pytest.raises(SimulationError, match="unknown metric"):
        ExperimentSpec(metrics=("mean_slowdown",))


def test_derated_device_names_encode_scales_not_ids():
    """Two different deratings reusing one fleet id must not share the
    name-keyed calibration caches (isolated times, chunks)."""
    from repro.api import DeviceEntry, build_device
    a = build_device(DeviceEntry(id="slow", base="nvidia-k20m",
                                 clock_scale=0.4, cu_scale=0.5))
    b = build_device(DeviceEntry(id="slow", base="nvidia-k20m",
                                 clock_scale=0.8))
    assert a.name != b.name
    assert isolated_time("bfs", a) != isolated_time("bfs", b)
    # equal deratings share one name (and so one cache entry) by design
    c = build_device(DeviceEntry(id="other", base="nvidia-k20m",
                                 clock_scale=0.8))
    assert c.name == b.name


# -- load-calibration dedup ----------------------------------------------------

def test_fleet_rate_delegates_to_single_device_calibration():
    """A one-device fleet offers exactly the single-device rate, and an
    N-homogeneous fleet offers N times it (shared mean-service helper)."""
    device = nvidia_k20m()
    single = arrival_rate_for_load(1.3, device)
    one = DeviceFleet([("a", nvidia_k20m())])
    two = DeviceFleet([("a", nvidia_k20m()), ("b", nvidia_k20m())])
    assert fleet_arrival_rate_for_load(1.3, one) == pytest.approx(single)
    assert fleet_arrival_rate_for_load(1.3, two) \
        == pytest.approx(2 * single)
    names = ("bfs", "sgemm")
    weighted = arrival_rate_for_load(0.7, device, names=names,
                                     weights=(3.0, 1.0))
    assert fleet_arrival_rate_for_load(0.7, one, names=names,
                                       weights=(3.0, 1.0)) \
        == pytest.approx(weighted)


def test_cli_module_import_cannot_break_run_callable():
    """Importing the CLI submodule shadows the package's ``run``
    attribute with the module; the module is callable, so repro.api.run
    keeps working as the driver either way."""
    import repro.api
    import repro.api.run as cli  # shadows repro.api.run with the module
    assert repro.api.run is cli
    spec = ExperimentSpec(scenario="steady", schemes=("baseline",),
                          loads=(1.0,), seeds=(1,), count=3)
    results = repro.api.run(spec)  # the module delegates to the driver
    assert len(results) == 1


# -- the CLI (the CI smoke step's in-repo guard) -------------------------------

def test_cli_reproduces_checked_in_smoke_result(tmp_path):
    out = tmp_path / "result.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    subprocess.run(
        [sys.executable, "-m", "repro.api.run",
         str(GOLDEN_DIR / "spec_smoke.json"), "--out", str(out),
         "--quiet"],
        check=True, cwd=REPO_ROOT, env=env)
    golden = (GOLDEN_DIR / "spec_smoke_result.json").read_text(
        encoding="utf-8")
    assert out.read_text(encoding="utf-8") == golden
