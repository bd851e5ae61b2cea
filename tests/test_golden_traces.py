"""Golden-trace regression tests: bit-level drift detection.

Each golden fixture under ``tests/goldens/`` snapshots the exact output of
one deterministic pipeline — arrival-stream generation or per-request
completion times of one scheme over one small scenario — as JSON.  Python
serialises floats via ``repr`` (shortest round-tripping form), so loading
a fixture reproduces the original doubles bit-for-bit and plain ``==``
comparison catches *any* numeric drift, however small.

Two fixture families:

* ``arrivals_*`` — the PR 1 (untagged Poisson) and PR 2 (tenant-tagged)
  arrival streams.  These prove the scenario engine rides on top of the
  existing generators without perturbing them: any extra RNG draw,
  reordering or formula change in ``workloads/arrivals.py`` fails here.
* ``trace_*`` — per-request ``(name, arrival, start, finish)`` for one
  small steady-scenario stream under each scheme/firmware pairing: FIFO
  drain-overlap (NVIDIA-like) and exclusive (AMD-like) firmware baselines,
  the §3 sharing scheme, and Elastic Kernels' serialised merged launches.

Regenerating
------------

When an *intentional* timing-model change shifts these numbers, rerun

    PYTHONPATH=src python -m pytest tests/test_golden_traces.py \
        --regen-goldens

and commit the fixture diff together with the change that caused it — the
diff is the reviewable record of the behaviour shift.  A golden test never
silently regenerates: without the flag, drift fails the build.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.cl import amd_r9_295x2, nvidia_k20m
from repro.harness.open_system import OpenSystemExperiment
from repro.workloads import from_name, periodic_arrivals, poisson_arrivals

GOLDEN_DIR = Path(__file__).parent / "goldens"
METADATA = GOLDEN_DIR / "METADATA.json"

STREAM_SEED = 2016
STREAM_COUNT = 20
STREAM_RATE = 200.0

TRACE_SEED = 5
TRACE_COUNT = 6
TRACE_LOAD = 1.0


def _environment_hint():
    """Blame line for drift that comes from the environment, not the repo:
    numpy's NEP 19 allows Generator stream changes in feature releases, so
    a numpy bump alone can move every seeded draw."""
    if not METADATA.exists():
        return ""
    recorded = json.loads(METADATA.read_text(encoding="utf-8"))
    if recorded.get("numpy") == np.__version__:
        return ""
    return (" NOTE: fixtures were generated with numpy {} but this run "
            "uses numpy {} — NEP 19 permits RNG stream changes between "
            "feature releases, so the drift may be environmental; match "
            "the numpy version or regenerate.".format(
                recorded.get("numpy"), np.__version__))


def record_numpy_version():
    """Stamp the current numpy version into METADATA.json (other notes
    there, such as which generator wrote each fixture, are kept)."""
    recorded = (json.loads(METADATA.read_text(encoding="utf-8"))
                if METADATA.exists() else {})
    recorded["numpy"] = np.__version__
    METADATA.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")


def check_golden(name, payload, regen):
    """Compare ``payload`` against the stored fixture (or rewrite it)."""
    path = GOLDEN_DIR / name
    if regen:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
        record_numpy_version()
    if not path.exists():
        pytest.fail("golden fixture {} missing — generate it with "
                    "--regen-goldens and commit it".format(name))
    stored = json.loads(path.read_text(encoding="utf-8"))
    assert stored == payload, (
        "bit-level drift against golden {} — if the change is intentional, "
        "regenerate with --regen-goldens and commit the diff.{}".format(
            name, _environment_hint()))


# -- arrival streams (PR 1 / PR 2 formats stay frozen) ------------------------

def test_untagged_poisson_stream_matches_golden(regen_goldens):
    stream = poisson_arrivals(STREAM_RATE, STREAM_COUNT, seed=STREAM_SEED)
    payload = [[a.name, a.time] for a in stream]
    assert all(a.tenant is None and a.device is None for a in stream)
    check_golden("arrivals_pr1_poisson.json", payload, regen_goldens)


def test_tenant_tagged_stream_matches_golden(regen_goldens):
    stream = poisson_arrivals(STREAM_RATE, STREAM_COUNT, seed=STREAM_SEED,
                              tenants=3)
    payload = [[a.name, a.time, a.tenant] for a in stream]
    check_golden("arrivals_pr2_tenants.json", payload, regen_goldens)


def test_tagging_never_perturbs_deterministic_streams():
    """Tenant tagging must not move deterministic (RNG-free) arrivals —
    the periodic generator's times are a pure function of the interval.
    (For the Poisson generator tagged streams legitimately differ — tenant
    draws share the RNG — which is why the untagged golden above is the
    PR 1 compatibility anchor.)"""
    untagged = periodic_arrivals(0.25, STREAM_COUNT, names=("bfs", "sgemm"))
    tagged = periodic_arrivals(0.25, STREAM_COUNT, names=("bfs", "sgemm"),
                               tenants=2)
    assert [(a.name, a.time) for a in untagged] \
        == [(a.name, a.time) for a in tagged]


def test_scenario_stream_matches_golden(regen_goldens):
    stream = from_name("multi-tenant", seed=TRACE_SEED, load=TRACE_LOAD,
                       count=TRACE_COUNT, device=nvidia_k20m())
    payload = [[a.name, a.time, a.tenant] for a in stream]
    check_golden("arrivals_scenario_multi_tenant.json", payload,
                 regen_goldens)


# -- per-scheme completion-time traces ----------------------------------------

def _trace_payload(device, scheme):
    stream = from_name("steady", seed=TRACE_SEED, load=TRACE_LOAD,
                       count=TRACE_COUNT, device=device)
    records = OpenSystemExperiment(device).scheme_records(stream, scheme)
    return [[r.name, r.arrival, r.start, r.finish] for r in records]


@pytest.mark.parametrize("fixture, device_factory, scheme", [
    ("trace_fifo_baseline.json", nvidia_k20m, "baseline"),
    ("trace_exclusive_baseline.json", amd_r9_295x2, "baseline"),
    ("trace_accelos.json", nvidia_k20m, "accelos"),
    ("trace_ek.json", nvidia_k20m, "ek"),
])
def test_scheme_trace_matches_golden(fixture, device_factory, scheme,
                                     regen_goldens):
    check_golden(fixture, _trace_payload(device_factory(), scheme),
                 regen_goldens)
