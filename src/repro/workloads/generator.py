"""Workload generation (paper §7.2).

* all 25 x 25 = 625 pairwise combinations,
* randomly sampled 4-kernel and 8-kernel combinations (the paper samples
  16384 and 32768 respectively; sample sizes here are parameters so the
  default benchmark run stays laptop-sized while ``REPRO_SWEEP_SCALE``
  restores paper-scale sweeps),
* the 13 alphabetic pairs of fig. 11.
"""

from __future__ import annotations

import itertools

from repro.util import make_rng
from repro.workloads.parboil import PROFILE_NAMES


def pairwise_workloads():
    """All ordered kernel pairs: 25 x 25 = 625 workloads (paper §7.2)."""
    return [(a, b) for a, b in itertools.product(PROFILE_NAMES, repeat=2)]


def random_workloads(size, count, seed=2016):
    """``count`` random ``size``-kernel workloads (with replacement across
    workloads, without replacement within one workload when possible)."""
    rng = make_rng("workloads", size, count, seed)
    names = list(PROFILE_NAMES)
    workloads = []
    for _ in range(count):
        if size <= len(names):
            picks = rng.choice(len(names), size=size, replace=False)
        else:
            picks = rng.choice(len(names), size=size, replace=True)
        workloads.append(tuple(names[i] for i in picks))
    return workloads


def alphabetic_pairs():
    """The 13 pairs of fig. 11: each benchmark with its alphabetic neighbor
    (the 25th kernel wraps around to the first)."""
    names = list(PROFILE_NAMES)
    pairs = [(names[i], names[i + 1]) for i in range(0, len(names) - 1, 2)]
    pairs.append((names[-1], names[0]))
    return pairs
