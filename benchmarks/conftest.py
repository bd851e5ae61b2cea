"""Shared infrastructure for the figure/table reproduction benchmarks.

Every benchmark module regenerates one table or figure from the paper's
evaluation (§8).  Sweeps are computed once per session and shared; each
benchmark also times one representative workload execution through
pytest-benchmark so `--benchmark-only` runs measure the harness itself.

Sweep sizes: all 625 pairwise workloads (as in the paper), plus random
4-/8-kernel samples sized by ``REPRO_SWEEP_SCALE`` (default 96 each; the
paper used 16384 and 32768 — set the scale accordingly on a big machine).
"""

from __future__ import annotations

import pytest

from repro.cl import amd_r9_295x2, nvidia_k20m
from repro.harness import run_sweep, summarize
from repro.harness.sweep import sweep_scale
from repro.workloads import pairwise_workloads, random_workloads

BENCH_REPETITIONS = 2


def bench_sample_count():
    return 96 * sweep_scale()


DEVICES = {
    "NVIDIA K20m": nvidia_k20m,
    "AMD R9 295X2": amd_r9_295x2,
}

_cache = {}


def sweep_summary(device_name, request_count):
    """Summarised sweep for one device and request size (cached)."""
    key = (device_name, request_count)
    if key not in _cache:
        device = DEVICES[device_name]()
        if request_count == 2:
            workloads = pairwise_workloads()
        else:
            workloads = random_workloads(request_count, bench_sample_count())
        results = run_sweep(workloads, device,
                            repetitions=BENCH_REPETITIONS)
        _cache[key] = summarize(results)
    return _cache[key]


@pytest.fixture(scope="session")
def devices():
    return DEVICES


@pytest.fixture
def emit(capsys):
    """Print a reproduction table straight to the terminal."""
    def _emit(text):
        with capsys.disabled():
            print("\n" + text)
    return _emit
