"""The literal §3 sharing algorithm: the oracle for ``compute_allocations``.

This is the allocator as first written: base shares, a shrink loop for
clamp-oversubscribed mixes, and greedy saturation, where every candidate
check re-sums the footprint of the whole allocation set (``_fits`` is
O(K), so saturation is O(K^2) per granted group).
:func:`repro.accelos.sharing.compute_allocations` keeps running totals
instead; tests/test_engine_fastpath.py draws weighted and equal-weight
mixes and demands identical group counts.

One line differs from the original: the shrink victim breaks thread
ties by the smallest name (the original took the first in list order).
That rule makes the algorithm permutation-equivariant, which the
allocation memo relies on.
"""

from repro.accelos.sharing import Allocation
from repro.errors import SchedulingError


def _fits(allocations, device, extra=None):
    """Would the allocation set (plus ``extra`` as (req, +groups)) fit?"""
    threads = sum(a.threads for a in allocations)
    lmem = sum(a.local_mem for a in allocations)
    regs = sum(a.registers for a in allocations)
    if extra is not None:
        req, delta = extra
        threads += delta * req.wg_threads
        lmem += delta * req.local_mem_bytes
        regs += delta * req.registers_per_group
    return (threads <= device.max_threads
            and lmem <= device.total_local_mem
            and regs <= device.total_registers)


def reference_allocations(requirements, device, saturate=True,
                          share_ratio=None):
    """Run the §3 algorithm; returns a list of :class:`Allocation`."""
    if not requirements:
        return []
    k = len(requirements)
    if share_ratio is None:
        weights = [1.0] * k
    else:
        if len(share_ratio) != k or any(w <= 0 for w in share_ratio):
            raise SchedulingError("share_ratio must list a positive weight "
                                  "per kernel")
        weights = [w * k / sum(share_ratio) for w in share_ratio]

    allocations = []
    for req, weight in zip(requirements, weights):
        share = weight / k
        x = int(device.max_threads * share // req.wg_threads)
        if req.local_mem_bytes > 0:
            y = int(device.total_local_mem * share // req.local_mem_bytes)
        else:
            y = req.total_groups
        if req.registers_per_group > 0:
            z = int(device.total_registers * share // req.registers_per_group)
        else:
            z = req.total_groups
        groups = min(x, y, z, req.total_groups)
        allocations.append(Allocation(req, max(1, groups)))

    # The clamp to >= 1 group can oversubscribe pathological mixes; shrink
    # the largest allocations until everything fits (never below 1).
    guard = 0
    while not _fits(allocations, device):
        candidates = [a for a in allocations if a.groups > 1]
        if not candidates:
            # K kernels of 1 group each genuinely exceed the device: the
            # scheduler should not have activated this many concurrently.
            raise SchedulingError(
                "cannot fit {} concurrent kernels on {}".format(
                    k, device.name))
        largest = min(candidates,
                      key=lambda a: (-a.threads, a.requirements.name))
        largest.groups -= 1
        guard += 1
        if guard > 10_000_000:
            raise SchedulingError("allocation shrink loop did not converge")

    if saturate:
        _greedy_saturation(allocations, device, weights)
    return allocations


def _greedy_saturation(allocations, device, weights=None):
    """Hand out remaining resources one work group at a time.

    Each round picks the kernel with the smallest current *weight-normalised*
    thread share (``threads / weight``) that can still grow (has ungranted
    original groups and fits), keeping the shares as close to the requested
    ratio as the integer granularity allows.  Growing by raw thread footprint
    would erode any §2.2 ``share_ratio`` weighting the base allocation just
    established.
    """
    if weights is None:
        weights = [1.0] * len(allocations)
    weight_of = {id(a): w for a, w in zip(allocations, weights)}
    while True:
        growable = [
            a for a in allocations
            if a.groups < a.requirements.total_groups
            and _fits(allocations, device, extra=(a.requirements, 1))
        ]
        if not growable:
            return
        # id() below only keys the identity weight map built above; the
        # *order* comes from the weight-normalised ratio, ties from the
        # deterministic requirements.name
        smallest = min(growable,  # lint: ignore[D104] -- identity-map key
                       key=lambda a: (a.threads / weight_of[id(a)],
                                      a.requirements.name))
        smallest.groups += 1
