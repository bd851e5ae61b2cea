"""Run one workload under one scheme on one device (closed batches).

Schemes are first-class registry objects (:mod:`repro.api.schemes`) —
``baseline`` / ``ek`` / ``accelos`` pre-registered, user schemes welcome
— and this harness dispatches every run through
:func:`repro.api.schemes.scheme_from_name`, so the registry is the
single source of truth for what a scheme name means.

The accelOS path uses the *real* pipeline outputs: the dequeue chunk comes
from the JIT transformation of the actual kernel (instruction-count keyed,
§6.4) and resource demands from the compiled kernel's static analysis.

Each workload is executed ``repetitions`` times with small per-run cost
jitter and the mean execution times are reported, mirroring the paper's
20-repetition averaging (§7.2).
"""

from __future__ import annotations

import numpy as np

from repro.accelos.adaptive import SchedulingPolicy
from repro.api.kernels import isolated_time
from repro.api.schemes import (BUILTIN_SCHEMES, require_closed,
                               scheme_from_name)
from repro.metrics import (antt, individual_slowdowns, stp,
                           system_unfairness)
from repro.metrics.overlap import execution_overlap
from repro.util import make_rng

# The built-in scheme trio, in the paper's report order — always exactly
# these three, whatever else gets registered.  Harness entry points that
# default to "every scheme" (run_all, run_sweep) resolve the live
# registry at call time instead, so user registrations are included.
SCHEMES = BUILTIN_SCHEMES

DEFAULT_REPETITIONS = 3
JITTER_SIGMA = 0.01


class WorkloadResult:
    """Metrics of one workload under one scheme."""

    def __init__(self, workload, scheme, device_name, turnarounds,
                 intervals, isolated_times):
        self.workload = tuple(workload)
        self.scheme = scheme
        self.device_name = device_name
        self.turnarounds = turnarounds
        self.intervals = intervals
        self.isolated_times = isolated_times
        self.slowdowns = individual_slowdowns(turnarounds, isolated_times)
        self.unfairness = system_unfairness(self.slowdowns)
        self.makespan = max(turnarounds)
        self.antt = antt(self.slowdowns)
        self.stp = stp(self.slowdowns)
        self.overlap = execution_overlap(intervals)

    def __repr__(self):
        return ("<WorkloadResult {} {}: U={:.2f} T={:.4f}>"
                .format(self.scheme, "+".join(self.workload),
                        self.unfairness, self.makespan))


def run_workload(names, scheme, device, repetitions=DEFAULT_REPETITIONS,
                 policy=SchedulingPolicy.ADAPTIVE, saturate=True, seed=0):
    """Run a workload ``repetitions`` times; metrics on mean times."""
    names = list(names)
    # fail fast with the capability error before simulating anything
    scheme_obj = require_closed(scheme_from_name(scheme))
    iso = [isolated_time(n, device) for n in names]
    sums = np.zeros(len(names))
    interval_sums = np.zeros((len(names), 2))
    rng = make_rng("jitter", scheme_obj.name, device.name, seed, *names)
    for _ in range(repetitions):
        jitter = np.exp(rng.normal(0.0, JITTER_SIGMA, size=len(names)))
        turnarounds, intervals = scheme_obj.run_closed(
            names, device, jitter=jitter, policy=policy, saturate=saturate)
        sums += np.asarray(turnarounds)
        interval_sums += np.asarray(intervals)
    mean_turnarounds = (sums / repetitions).tolist()
    mean_intervals = [tuple(row) for row in interval_sums / repetitions]
    return WorkloadResult(names, scheme_obj.name, device.name,
                          mean_turnarounds, mean_intervals, iso)


def run_single_kernel(name, device, policy=SchedulingPolicy.ADAPTIVE,
                      scheme="accelos"):
    """Single-kernel execution time under a scheme (fig. 15 and §8.5).

    Returns ``(time, isolated_baseline_time)``.  Both sides run at the fine
    virtual-group granularity of real Parboil grids.  Schemes without a
    single-kernel mode (e.g. ``ek``) raise.
    """
    return scheme_from_name(scheme).run_single(name, device, policy=policy)
