"""The §8.5 small-kernel leg shared by the engine and scale benches and
the hot-path profiler.

Requests small enough that a device keeps a deep concurrent population
— the regime where per-event engine cost dominates (and 10^6 requests
stay tractable) — drawn from the bursty multi-tenant scenario pushed
past saturation, placed across a K20m and a half-clock K20m.
``benchmarks/bench_engine.py``, ``benchmarks/bench_scale.py`` and
``tools/profile_hotpath.py`` all stream exactly this leg, so their
numbers describe one workload.
"""

from repro.cl import derated_device, nvidia_k20m
from repro.sim import DeviceFleet
from repro.workloads import calibrated_model

SEED = 2016
LOAD = 0.8
BURST_FACTOR = 1.4  # push the calibrated rate past saturation
SCENARIO = "multi-tenant"
SCHEME = "accelos"
PLACEMENT = "least-loaded"
# untraced requests that fill the interpreter-lifetime caches (kernel
# profiles, isolated-time tables) before anything is measured
WARMUP_COUNT = 2_000

SMALL_KERNELS = (
    "mri-gridding_scan_inter1", "mri-q_ComputePhiMag",
    "sad_larger_calc_16", "histo_final", "mri-gridding_scan_L1",
    "sad_larger_calc_8", "mri-gridding_uniformAdd", "histo_prescan",
)


def build_fleet():
    return DeviceFleet([
        ("fast", nvidia_k20m()),
        ("slow", derated_device(nvidia_k20m(), "K20m-derated", 0.5)),
    ])


def arrival_iter(count, seed=SEED):
    """The lazy bursty multi-tenant stream (fresh single-use iterator)."""
    model, rate = calibrated_model(SCENARIO, load=LOAD,
                                   names=list(SMALL_KERNELS))
    return model.iter_arrivals(rate * BURST_FACTOR, count, seed=seed)
