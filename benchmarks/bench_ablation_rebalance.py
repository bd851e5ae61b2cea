"""Ablation (paper §2.5 / §10 future work): rebalancing freed allocations.

The paper admits that an accelOS kernel "cannot leverage additional
resources that may be released if other kernel executions terminate first"
and leaves better software scheduling as future work.  This bench quantifies
the cost of that limitation by comparing bound allocations against the
simulator's slot-rebalancing extension on the standard random workloads.
"""

import numpy as np
import pytest

from benchmarks.conftest import DEVICES
from repro.api import scheme_from_name
from repro.harness import format_table, isolated_time
from repro.sim import GPUSimulator
from repro.workloads import random_workloads


def run_batch(names, device, rebalance):
    specs = scheme_from_name("accelos").batch_specs(list(names), device)
    sim = GPUSimulator(device, rebalance=rebalance)
    return sim.run(specs)


@pytest.mark.parametrize("device_name", ["NVIDIA K20m"])
def test_ablation_rebalancing(benchmark, emit, device_name):
    device = DEVICES[device_name]()
    rows = []
    gains = []
    for k in (2, 4, 8):
        workloads = random_workloads(k, 24, seed=7)
        bound_makespans = []
        rebal_makespans = []
        rebal_unfairness = []
        bound_unfairness = []
        for workload in workloads:
            iso = [isolated_time(n, device) for n in workload]
            bound = run_batch(workload, device, rebalance=False)
            rebal = run_batch(workload, device, rebalance=True)
            bound_makespans.append(bound.makespan)
            rebal_makespans.append(rebal.makespan)
            bound_is = [t / i for t, i in zip(bound.turnarounds, iso)]
            rebal_is = [t / i for t, i in zip(rebal.turnarounds, iso)]
            bound_unfairness.append(max(bound_is) / min(bound_is))
            rebal_unfairness.append(max(rebal_is) / min(rebal_is))
        gain = float(np.mean(np.array(bound_makespans)
                             / np.array(rebal_makespans)))
        gains.append(gain)
        rows.append([k, gain,
                     float(np.mean(bound_unfairness)),
                     float(np.mean(rebal_unfairness))])
    emit(format_table(
        ["requests", "throughput gain from rebalancing",
         "U bound (paper design)", "U rebalanced"],
        rows,
        title="Ablation §2.5 ({}) — re-granting freed slots (the paper's "
              "future work) vs lifetime-bound allocations".format(
                  device_name)))

    benchmark(run_batch, random_workloads(4, 1, seed=7)[0], device, True)

    # rebalancing can only help throughput (work conservation)
    assert all(g >= 0.99 for g in gains)
    # and the paper's limitation is real: there is something to gain
    assert max(gains) > 1.02
