"""Unit tests for the §3 resource sharing algorithm."""

import pytest

from repro.accelos.sharing import (Allocation, KernelRequirements,
                                   compute_allocations, thread_imbalance)
from repro.cl import nvidia_k20m, amd_r9_295x2
from repro.errors import SchedulingError


def req(name="k", wg=256, lmem=0, regs=16, groups=1000):
    return KernelRequirements(name, wg, lmem, regs, groups)


def total_threads(allocations):
    return sum(a.threads for a in allocations)


def test_requirements_validate():
    with pytest.raises(SchedulingError):
        req(wg=0)
    with pytest.raises(SchedulingError):
        req(groups=0)


def test_single_kernel_gets_whole_device():
    dev = nvidia_k20m()
    allocs = compute_allocations([req()], dev)
    assert allocs[0].threads <= dev.max_threads
    # saturation should push it to the thread limit (registers permit)
    assert allocs[0].threads == dev.max_threads


def test_equal_kernels_get_equal_shares():
    dev = nvidia_k20m()
    allocs = compute_allocations([req("a"), req("b")], dev)
    assert allocs[0].groups == allocs[1].groups
    assert thread_imbalance(allocs) == 0


def test_thread_constraint_holds():
    dev = nvidia_k20m()
    for k in (2, 4, 8):
        allocs = compute_allocations([req(str(i)) for i in range(k)], dev)
        assert total_threads(allocs) <= dev.max_threads


def test_local_memory_constraint_holds():
    dev = nvidia_k20m()
    allocs = compute_allocations(
        [req("a", lmem=16 * 1024), req("b", lmem=24 * 1024)], dev)
    lmem = sum(a.local_mem for a in allocs)
    assert lmem <= dev.total_local_mem


def test_register_constraint_holds():
    dev = nvidia_k20m()
    allocs = compute_allocations(
        [req("a", regs=120), req("b", regs=100)], dev)
    regs = sum(a.registers for a in allocs)
    assert regs <= dev.total_registers


def test_binding_constraint_is_min_of_three():
    dev = nvidia_k20m()
    # huge local memory per group makes L the binding constraint:
    # y = L / (K * m) = 624K / (2 * 48K) = 6 groups (before saturation)
    heavy = req("lmem-bound", wg=64, lmem=48 * 1024, regs=4)
    allocs = compute_allocations([heavy, req("other")], dev, saturate=False)
    assert allocs[0].groups == dev.total_local_mem // (2 * 48 * 1024)


def test_allocation_never_exceeds_original_groups():
    dev = nvidia_k20m()
    tiny = req("tiny", groups=3)
    allocs = compute_allocations([tiny, req("big")], dev)
    assert allocs[0].groups == 3


def test_saturation_gives_leftovers_to_big_kernels():
    dev = nvidia_k20m()
    tiny = req("tiny", groups=2)
    big = req("big", groups=10_000)
    unsat = compute_allocations([tiny, big], dev, saturate=False)
    sat = compute_allocations([tiny, big], dev, saturate=True)
    assert sat[1].groups > unsat[1].groups
    assert total_threads(sat) <= dev.max_threads


def test_saturation_keeps_constraints():
    dev = amd_r9_295x2()
    reqs = [req(str(i), wg=128 * (1 + i % 3), regs=20 + i, groups=500)
            for i in range(8)]
    allocs = compute_allocations(reqs, dev)
    assert total_threads(allocs) <= dev.max_threads
    assert sum(a.registers for a in allocs) <= dev.total_registers


def test_every_kernel_gets_at_least_one_group():
    dev = nvidia_k20m()
    reqs = [req(str(i)) for i in range(8)]
    allocs = compute_allocations(reqs, dev)
    assert all(a.groups >= 1 for a in allocs)


def test_share_ratio_weights_allocation():
    dev = nvidia_k20m()
    allocs = compute_allocations([req("a"), req("b")], dev,
                                 share_ratio=[3.0, 1.0], saturate=False)
    assert allocs[0].groups > 2 * allocs[1].groups


def test_share_ratio_validation():
    dev = nvidia_k20m()
    with pytest.raises(SchedulingError):
        compute_allocations([req("a")], dev, share_ratio=[1.0, 2.0])
    with pytest.raises(SchedulingError):
        compute_allocations([req("a")], dev, share_ratio=[-1.0])
    # ``w <= 0`` is False for NaN, and an infinite weight turns into NaN
    # through ``inf / inf``: both used to escape as a bare ValueError
    for weight in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(SchedulingError, match="finite positive weight"):
            compute_allocations([req("a"), req("b")], dev,
                                share_ratio=[1.0, weight])


def test_weighted_saturation_preserves_ratio():
    """§2.2 regression: with ``saturate=True`` the greedy growth must hand
    out leftover capacity by *weight-normalised* share, or it erodes the
    ratio the base allocation just established.  The tiny clamped kernel
    frees capacity, and the two big kernels must absorb it 3:1."""
    dev = nvidia_k20m()
    reqs = [req("a", groups=10_000), req("b", groups=10_000),
            req("tiny", groups=2)]
    weights = [3.0, 1.0, 1.0]
    allocs = compute_allocations(reqs, dev, share_ratio=weights,
                                 saturate=True)
    k = len(reqs)
    norm = [w * k / sum(weights) for w in weights]
    share_a = allocs[0].threads / norm[0]
    share_b = allocs[1].threads / norm[1]
    # within one work-group granule of the requested ratio
    granule = max(reqs[0].wg_threads / norm[0], reqs[1].wg_threads / norm[1])
    assert abs(share_a - share_b) <= granule + 1e-9
    assert total_threads(allocs) <= dev.max_threads


def test_weighted_saturation_uses_all_leftovers():
    dev = nvidia_k20m()
    reqs = [req("a", groups=10_000), req("b", groups=10_000)]
    unsat = compute_allocations(reqs, dev, share_ratio=[3.0, 1.0],
                                saturate=False)
    sat = compute_allocations(reqs, dev, share_ratio=[3.0, 1.0],
                              saturate=True)
    assert total_threads(sat) >= total_threads(unsat)
    # saturation never breaks the device constraint
    assert total_threads(sat) <= dev.max_threads


def test_empty_batch():
    assert compute_allocations([], nvidia_k20m()) == []


def test_formula_matches_paper_for_thread_bound_kernels():
    dev = nvidia_k20m()
    # x_i = T / (K * w_i) when threads are the binding constraint
    reqs = [req("a", wg=256, regs=1), req("b", wg=512, regs=1)]
    allocs = compute_allocations(reqs, dev, saturate=False)
    assert allocs[0].groups == dev.max_threads // (2 * 256)
    assert allocs[1].groups == dev.max_threads // (2 * 512)


def test_allocation_accessors():
    allocation = Allocation(req("a", wg=128, lmem=100, regs=10, groups=50), 4)
    assert allocation.threads == 512
    assert allocation.local_mem == 400
    assert allocation.registers == 4 * 10 * 128
