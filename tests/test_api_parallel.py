"""Parallel, cached experiment driver (``run(spec, workers=, cache_dir=)``).

Covers the determinism contract (parallel `to_json` bit-identical to
serial for exact and streaming specs), the content-addressed result
cache (hit/miss/resume, corrupt entry => recompute, changed spec field
=> miss, the stream-seed collision regression), the serial fallback when
no process pool is available, and the driver-plane bugfixes (caller name
in calibration errors, partial progress surfaced on mid-grid failure).
"""

import concurrent.futures
import multiprocessing
import os
import pickle
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.api import ExperimentSpec, ResultCache, cell_key, run, warm_caches
from repro.api import driver as driver_mod
from repro.api.cache import CACHE_FORMAT
from repro.api.driver import (_grid_cells, build_stream, build_stream_iter,
                              iter_runs, stream_seed)
from repro.api.kernels import isolated_table
from repro.api.results import validate_result_surface
from repro.api.spec import Cell
from repro.errors import SimulationError

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = REPO_ROOT / "tests" / "goldens"

EXACT_SPEC = dict(scenario="steady", schemes=("baseline", "accelos"),
                  loads=(1.0,), seeds=(7,), count=5)
FLEET_DEVICES = ({"id": "fast", "base": "nvidia-k20m"},
                 {"id": "slow", "base": "nvidia-k20m", "clock_scale": 0.5})
FLEET_SPEC = dict(scenario="bursty", schemes=("accelos",), loads=(1.0,),
                  seeds=(3,), count=8, devices=FLEET_DEVICES,
                  placements=("least-loaded", "round-robin"))
STREAMING_SPEC = dict(scenario="bursty", schemes=("baseline", "accelos"),
                      loads=(1.0,), seeds=(3,), count=8,
                      devices=FLEET_DEVICES, placements=("least-loaded",),
                      metrics_mode="streaming")


# -- parallel-vs-serial equivalence -------------------------------------------

def test_parallel_matches_serial_exact_single_device():
    spec = ExperimentSpec(**EXACT_SPEC)
    assert run(spec, workers=4).to_json() == run(spec, workers=1).to_json()


def test_parallel_matches_serial_exact_fleet():
    spec = ExperimentSpec(**FLEET_SPEC)
    assert run(spec, workers=4).to_json() == run(spec, workers=1).to_json()


def test_parallel_matches_serial_streaming_fleet():
    # streaming cells must regenerate their single-use, unpicklable
    # arrival iterators inside the worker process
    spec = ExperimentSpec(**STREAMING_SPEC)
    assert run(spec, workers=4).to_json() == run(spec, workers=1).to_json()


def test_parallel_merge_preserves_grid_order():
    spec = ExperimentSpec(**FLEET_SPEC)
    serial_cells = [cell for cell, _ in iter_runs(spec)]
    parallel_cells = [cell for cell, _ in iter_runs(spec, workers=4)]
    assert parallel_cells == serial_cells


def test_workers_must_be_a_positive_integer():
    spec = ExperimentSpec(**EXACT_SPEC)
    for bad in (0, -1, 1.5, True, "4"):
        with pytest.raises(SimulationError, match="workers"):
            list(iter_runs(spec, workers=bad))


# -- serial fallback when no pool is available --------------------------------

def test_pool_unavailable_falls_back_to_serial(monkeypatch):
    def no_pool(*args, **kwargs):
        raise OSError("process pools are not available here")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    spec = ExperimentSpec(**EXACT_SPEC)
    assert run(spec, workers=4).to_json() == run(spec, workers=1).to_json()


# -- the result cache ----------------------------------------------------------

def test_cache_cold_run_stores_every_cell(tmp_path):
    spec = ExperimentSpec(**EXACT_SPEC)
    store = ResultCache(tmp_path / "cache")
    run(spec, cache_dir=store)
    assert store.stores == spec.cell_count()
    assert store.hits == 0
    assert len(store) == spec.cell_count()


def test_cache_warm_run_recomputes_nothing(tmp_path, monkeypatch):
    spec = ExperimentSpec(**EXACT_SPEC)
    store = ResultCache(tmp_path / "cache")
    first = run(spec, cache_dir=store)

    def exploding_run_cell(self, cell):
        raise AssertionError("warm run must not re-simulate any cell")

    monkeypatch.setattr(driver_mod._SpecRunner, "run_cell",
                        exploding_run_cell)
    second = run(spec, cache_dir=store)
    assert store.hits == spec.cell_count()
    assert second.to_json() == first.to_json()


def test_cache_accepts_a_directory_path(tmp_path):
    spec = ExperimentSpec(**EXACT_SPEC)
    first = run(spec, cache_dir=tmp_path / "cache")
    second = run(spec, cache_dir=str(tmp_path / "cache"))
    assert second.to_json() == first.to_json()


def test_no_cache_flag_disables_lookups_and_stores(tmp_path):
    spec = ExperimentSpec(**EXACT_SPEC)
    store = ResultCache(tmp_path / "cache")
    run(spec, cache_dir=store, cache=False)
    assert store.hits == store.misses == store.stores == 0
    assert len(store) == 0


def test_corrupt_cache_entry_is_recomputed(tmp_path):
    spec = ExperimentSpec(**EXACT_SPEC)
    store = ResultCache(tmp_path / "cache")
    first = run(spec, cache_dir=store)
    victim = next(iter(sorted(store.directory.glob("*.pkl"))))
    victim.write_bytes(b"not a pickle")
    second = run(spec, cache_dir=store)
    assert store.rejected == 1
    assert store.stores == spec.cell_count() + 1  # the one recompute
    assert second.to_json() == first.to_json()


def test_foreign_entry_under_the_right_name_is_rejected(tmp_path):
    # a well-formed pickle whose key payload does not match the digest's
    # (hash collision, or a file copied between caches) must recompute
    spec = ExperimentSpec(**EXACT_SPEC)
    store = ResultCache(tmp_path / "cache")
    run(spec, cache_dir=store)
    victim = next(iter(sorted(store.directory.glob("*.pkl"))))
    victim.write_bytes(pickle.dumps({"key": {"forged": True},
                                     "result": object()}))
    run(spec, cache_dir=store)
    assert store.rejected == 1


def test_changed_spec_field_misses_the_cache(tmp_path):
    base = ExperimentSpec(**EXACT_SPEC)
    store = ResultCache(tmp_path / "cache")
    run(base, cache_dir=store)
    changed = ExperimentSpec(**dict(EXACT_SPEC, count=base.count + 1))
    run(changed, cache_dir=store)
    assert store.hits == 0
    assert store.stores == base.cell_count() + changed.cell_count()


def test_metric_selection_does_not_invalidate_the_cache(tmp_path):
    # metrics pick what a report prints, not what a cell computes
    base = ExperimentSpec(**EXACT_SPEC)
    store = ResultCache(tmp_path / "cache")
    run(base, cache_dir=store)
    reselected = ExperimentSpec(**dict(EXACT_SPEC, metrics=("antt", "stp")))
    run(reselected, cache_dir=store)
    assert store.hits == base.cell_count()


def test_cache_key_payload_pins_format_and_versions():
    spec = ExperimentSpec(**FLEET_SPEC)
    cell = next(iter(driver_mod._grid_cells(spec)))
    digest, payload = cell_key(spec, cell)
    assert len(digest) == 64
    assert payload["format"] == CACHE_FORMAT
    assert payload["cell"] == cell.to_dict()
    assert payload["spec"] == spec.cell_inputs()
    assert set(payload["versions"]) == {"scenario", "scheme", "placement"}
    # deterministic: same inputs, same digest
    assert cell_key(spec, cell)[0] == digest


# -- the stream-seed collision regression --------------------------------------

def test_cache_key_uses_raw_seed_repetition_pair():
    # construct a genuine collision: seed B's repetition 0 replays the
    # exact stream of seed A's repetition 1 (stream_seed draws 32-bit
    # child seeds, so such pairs exist; this one is pinned)
    seed_a = 0
    seed_b = stream_seed(seed_a, 1)
    assert seed_b != seed_a
    assert stream_seed(seed_a, 1) == stream_seed(seed_b, 0)

    spec_a = ExperimentSpec(scenario="steady", schemes=("baseline",),
                            loads=(1.0,), seeds=(seed_a,), count=4,
                            repetitions=2)
    spec_b = ExperimentSpec(scenario="steady", schemes=("baseline",),
                            loads=(1.0,), seeds=(seed_b,), count=4)
    cell_a = Cell(scheme="baseline", load=1.0, seed=seed_a, repetition=1)
    cell_b = Cell(scheme="baseline", load=1.0, seed=seed_b, repetition=0)

    # the two cells replay the same arrival stream ...
    from repro.api import build_device
    device = build_device(spec_a.devices[0])
    stream_a = build_stream(spec_a, 1.0, seed_a, 1, device=device)
    stream_b = build_stream(spec_b, 1.0, seed_b, 0, device=device)
    assert [(a.name, a.time) for a in stream_a] \
        == [(b.name, b.time) for b in stream_b]

    # ... yet must never share a cache slot: the key holds the raw
    # (seed, repetition) pair, not the derived stream seed
    assert cell_key(spec_a, cell_a)[0] != cell_key(spec_b, cell_b)[0]


# -- mid-grid failure: flush-as-you-go + partial progress ----------------------

def test_mid_grid_failure_keeps_completed_cells_and_reports_progress(
        tmp_path, monkeypatch):
    spec = ExperimentSpec(**EXACT_SPEC)  # 2 cells
    store = ResultCache(tmp_path / "cache")
    original = driver_mod._SpecRunner.run_cell
    calls = {"n": 0}

    def flaky(self, cell):
        calls["n"] += 1
        if calls["n"] == 2:
            raise RuntimeError("device fell off the bus")
        return original(self, cell)

    monkeypatch.setattr(driver_mod._SpecRunner, "run_cell", flaky)
    with pytest.raises(RuntimeError) as excinfo:
        run(spec, cache_dir=store)

    notes = "\n".join(getattr(excinfo.value, "__notes__", []))
    assert "1/2" in notes  # partial progress surfaced
    assert str(store.directory) in notes  # and where the cells live
    assert store.stores == 1  # the completed cell was flushed pre-crash

    # resume: the cached cell is reused, only the lost one recomputes
    monkeypatch.setattr(driver_mod._SpecRunner, "run_cell", original)
    resumed = run(spec, cache_dir=store)
    assert store.hits == 1
    assert len(resumed) == spec.cell_count()


def test_failure_on_a_resumed_grid_notes_the_cells_reused(
        tmp_path, monkeypatch):
    """Cells cached by an earlier run are cache hits, not stores: the
    note of a resumed run that fails again counts them as reused."""
    spec = ExperimentSpec(**EXACT_SPEC)  # 2 cells
    failing = _grid_cells(spec)[1]
    store = ResultCache(tmp_path / "cache")
    original = driver_mod._SpecRunner.run_cell

    def fails_on_the_second_cell(self, cell):
        if cell == failing:
            raise RuntimeError("device fell off the bus")
        return original(self, cell)

    monkeypatch.setattr(driver_mod._SpecRunner, "run_cell",
                        fails_on_the_second_cell)
    with pytest.raises(RuntimeError):
        run(spec, cache_dir=store)
    with pytest.raises(RuntimeError) as excinfo:
        run(spec, cache_dir=store)
    notes = "\n".join(getattr(excinfo.value, "__notes__", []))
    assert "after 1/2 cells merged in grid order" in notes
    assert "reused 1 cached cells and stored 0 more" in notes
    assert (store.hits, store.stores) == (1, 1)


def test_failure_without_cache_still_notes_progress(monkeypatch):
    spec = ExperimentSpec(**EXACT_SPEC)

    def always_fails(self, cell):
        raise RuntimeError("boom")

    monkeypatch.setattr(driver_mod._SpecRunner, "run_cell", always_fails)
    with pytest.raises(RuntimeError) as excinfo:
        run(spec)
    notes = "\n".join(getattr(excinfo.value, "__notes__", []))
    assert "0/2" in notes
    assert "cache" not in notes  # no cache => no resume hint


@pytest.mark.skipif(
    multiprocessing.get_start_method(allow_none=False) != "fork",
    reason="the failing cell is injected by patching the parent before "
           "the pool forks")
def test_parallel_failure_note_counts_cells_stored_beyond_the_merge(
        tmp_path, monkeypatch):
    """Under workers=2 the merge stops at the first failed cell in grid
    order, but the pool has already finished and stored later cells: the
    note reports both numbers."""
    spec = ExperimentSpec(**dict(EXACT_SPEC, seeds=(7, 8)))  # 4 cells
    failing = _grid_cells(spec)[1]
    store = ResultCache(tmp_path / "cache")
    original = driver_mod._SpecRunner.run_cell

    def fails_after_the_others_are_stored(self, cell):
        if cell != failing:
            return original(self, cell)
        # the other three cells run on the second worker; wait until the
        # parent has flushed them to the cache, then fail
        deadline = time.monotonic() + 120
        while len(store) < 3 and time.monotonic() < deadline:
            time.sleep(0.05)
        raise RuntimeError("device fell off the bus")

    monkeypatch.setattr(driver_mod._SpecRunner, "run_cell",
                        fails_after_the_others_are_stored)
    with pytest.raises(RuntimeError) as excinfo:
        run(spec, workers=2, cache_dir=store)
    notes = "\n".join(getattr(excinfo.value, "__notes__", []))
    assert "after 1/4 cells merged in grid order" in notes
    assert "reused 0 cached cells and stored 3 more" in notes
    assert store.stores == 3 and len(store) == 3


# -- calibration-error caller name (bugfix) ------------------------------------

def test_stream_model_error_names_the_actual_caller():
    spec = ExperimentSpec(**EXACT_SPEC)
    with pytest.raises(SimulationError,
                       match=r"build_stream needs exactly one"):
        build_stream(spec, 1.0, 7, 0)
    with pytest.raises(SimulationError,
                       match=r"build_stream_iter needs exactly one"):
        build_stream_iter(spec, 1.0, 7, 0)


# -- per-process cache warm-up --------------------------------------------------

def test_warm_caches_populates_what_the_spec_touches():
    spec = ExperimentSpec(**EXACT_SPEC)
    sizes = warm_caches(spec)
    assert sizes["specs"] >= 1
    assert sizes["chunks"] >= 1
    from repro.api import build_device
    from repro.workloads.scenarios import scenario
    table = isolated_table(build_device(spec.devices[0]))
    for name in scenario(spec.scenario).mix_weights():
        assert name in table


# -- the CLI flags --------------------------------------------------------------

def test_cli_workers_and_cache_reproduce_the_golden(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    golden = (GOLDEN_DIR / "spec_smoke_result.json").read_text(
        encoding="utf-8")
    for attempt in ("cold", "warm"):  # second pass resolves from cache
        out = tmp_path / "result_{}.json".format(attempt)
        subprocess.run(
            [sys.executable, "-m", "repro.api.run",
             str(GOLDEN_DIR / "spec_smoke.json"), "--out", str(out),
             "--quiet", "--workers", "2",
             "--cache-dir", str(tmp_path / "cache")],
            check=True, cwd=REPO_ROOT, env=env)
        assert out.read_text(encoding="utf-8") == golden, attempt
    assert list((tmp_path / "cache").glob("*.pkl"))


# -- cached-result surface validation -------------------------------------------

def test_validate_result_surface_accepts_real_results_rejects_stubs():
    spec = ExperimentSpec(**dict(EXACT_SPEC, schemes=("baseline",)))
    (_, result), = iter_runs(spec)
    assert validate_result_surface(result, spec.metrics)
    assert not validate_result_surface(object(), spec.metrics)
    assert validate_result_surface(object(), ())  # nothing demanded
