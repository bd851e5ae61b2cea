"""Mini evaluation sweep: fairness and throughput across request sizes.

A reduced version of the paper's §8 campaign (figs. 9, 12, 13): random 2-,
4- and 8-kernel workloads on both simulated platforms, under all three
schemes.  Takes about a minute; raise SAMPLES to grow it.

Run:  python examples/fair_sweep.py
"""

from repro.cl import amd_r9_295x2, nvidia_k20m
from repro.harness import format_table, run_sweep, summarize
from repro.workloads import random_workloads

SAMPLES = 32


def main():
    for device in (nvidia_k20m(), amd_r9_295x2()):
        rows = []
        for k in (2, 4, 8):
            workloads = random_workloads(k, SAMPLES)
            summary = summarize(run_sweep(workloads, device, repetitions=2))
            rows.append([
                k,
                summary.avg_unfairness["baseline"],
                summary.avg_unfairness["accelos"],
                summary.avg_fairness_improvement("accelos"),
                summary.avg_throughput_speedup("accelos"),
                "{:.0f}%".format(100 * summary.avg_overlap["accelos"]),
            ])
        print(format_table(
            ["requests", "U standard", "U accelOS", "fairness improvement",
             "throughput speedup", "overlap"],
            rows,
            title="{} - {} random workloads per size".format(
                device.name, SAMPLES)))
        print()


if __name__ == "__main__":
    main()
