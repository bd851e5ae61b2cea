"""Sweep campaigns: many workloads x schemes, aggregated (figs. 9-14).

Sweep sizes default to laptop scale; ``REPRO_SWEEP_SCALE`` (read by
:func:`sweep_scale`) multiplies the figure benchmarks' random 4-/8-kernel
samples toward the paper's 16384/32768.
"""

from __future__ import annotations

import os

import numpy as np

from repro.api.schemes import closed_scheme_names, reference_scheme
from repro.harness.experiment import DEFAULT_REPETITIONS, run_workload
from repro.metrics import fairness_improvement, throughput_speedup, worst_antt


def sweep_scale():
    """The ``REPRO_SWEEP_SCALE`` multiplier of the sweep sizes (at least
    1; default 1)."""
    return max(1, int(os.environ.get("REPRO_SWEEP_SCALE", "1")))


def run_sweep(workloads, device, schemes=None,
              repetitions=DEFAULT_REPETITIONS):
    """Run every workload under every scheme.

    Returns ``{scheme: [WorkloadResult]}`` with matching workload order.
    ``schemes=None`` means every registered *closed-capable* scheme,
    resolved at call time — user registrations included, but an
    open-system-only scheme cannot break a closed sweep.
    """
    if schemes is None:
        schemes = closed_scheme_names()
    results = {scheme: [] for scheme in schemes}
    for workload in workloads:
        for scheme in schemes:
            results[scheme].append(
                run_workload(workload, scheme, device,
                             repetitions=repetitions))
    return results


class SweepSummary:
    """Aggregates a sweep into the numbers the paper's figures report."""

    def __init__(self, results):
        self.results = results
        reference = reference_scheme().name
        base = results[reference]
        self.count = len(base)

        self.avg_unfairness = {
            scheme: float(np.mean([r.unfairness for r in rows]))
            for scheme, rows in results.items()
        }
        self.fairness_improvements = {}
        self.throughput_speedups = {}
        for scheme, rows in results.items():
            if scheme == reference:
                continue
            self.fairness_improvements[scheme] = [
                fairness_improvement(b.unfairness, r.unfairness)
                for b, r in zip(base, rows)
            ]
            self.throughput_speedups[scheme] = [
                throughput_speedup(b.makespan, r.makespan)
                for b, r in zip(base, rows)
            ]
        self.avg_overlap = {
            scheme: float(np.mean([r.overlap for r in rows]))
            for scheme, rows in results.items()
        }
        self.avg_stp = {
            scheme: float(np.mean([r.stp for r in rows]))
            for scheme, rows in results.items()
        }
        self.avg_antt = {
            scheme: float(np.mean([r.antt for r in rows]))
            for scheme, rows in results.items()
        }
        self.worst_antt = {
            scheme: worst_antt([r.antt for r in rows])
            for scheme, rows in results.items()
        }

    def avg_fairness_improvement(self, scheme):
        return float(np.mean(self.fairness_improvements[scheme]))

    def avg_throughput_speedup(self, scheme):
        return float(np.mean(self.throughput_speedups[scheme]))

    def negative_fairness_fraction(self, scheme):
        values = self.fairness_improvements[scheme]
        return sum(1 for v in values if v < 1.0) / len(values)


def summarize(results):
    return SweepSummary(results)
