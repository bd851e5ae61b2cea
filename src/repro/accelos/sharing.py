"""Accelerator resource sharing control (paper §3).

Given ``K`` concurrently active kernel executions, choose the number of
physical work groups per kernel so that all fit on the device at once with
approximately equal shares of three resources:

* hardware threads:   ``x_i = T / (K * w_i)``
* local memory:       ``y_i = L / (K * m_i)``
* registers:          ``z_i = R / (K * r_i)``

The allocation is ``min(x_i, y_i, z_i)``, clamped to at least one work group
and to the kernel's original group count.  Because these are Diophantine
(integer) constraints the result may be conservative, so a greedy heuristic
then hands out additional work groups one at a time — always to the kernel
with the smallest current thread share — until no kernel can grow without
violating a constraint (paper: "we apply a simple greedy heuristic to
incrementally increase the number of work-groups iteratively across the
kernel executions until resource saturation").
"""

from __future__ import annotations

import heapq
import math

from repro.errors import SchedulingError


class KernelRequirements:
    """Per-work-group resource demands of one kernel execution request."""

    __slots__ = ("name", "wg_threads", "local_mem_bytes", "registers_per_thread",
                 "total_groups")

    def __init__(self, name, wg_threads, local_mem_bytes, registers_per_thread,
                 total_groups):
        if wg_threads <= 0:
            raise SchedulingError("work-group size must be positive")
        if total_groups <= 0:
            raise SchedulingError("kernel must have at least one work group")
        self.name = name
        self.wg_threads = int(wg_threads)
        self.local_mem_bytes = int(local_mem_bytes)
        self.registers_per_thread = int(registers_per_thread)
        self.total_groups = int(total_groups)

    @property
    def registers_per_group(self):
        return self.registers_per_thread * self.wg_threads

    def __repr__(self):
        return ("KernelRequirements({}, w={}, m={}B, r={}/thr, n={})"
                .format(self.name, self.wg_threads, self.local_mem_bytes,
                        self.registers_per_thread, self.total_groups))


class Allocation:
    """The sharing decision for one kernel execution."""

    __slots__ = ("requirements", "groups")

    def __init__(self, requirements, groups):
        self.requirements = requirements
        self.groups = int(groups)

    @property
    def threads(self):
        return self.groups * self.requirements.wg_threads

    @property
    def local_mem(self):
        return self.groups * self.requirements.local_mem_bytes

    @property
    def registers(self):
        return self.groups * self.requirements.registers_per_group

    def __repr__(self):
        return "Allocation({} -> {} groups)".format(
            self.requirements.name, self.groups)


def compute_allocations(requirements, device, saturate=True, share_ratio=None):
    """Run the §3 algorithm; returns a list of :class:`Allocation`.

    ``share_ratio`` optionally weights kernels (§2.2: "This can easily be
    achieved by changing the sharing ratio"); ``None`` means equal sharing,
    otherwise it is a list of finite positive weights, one per kernel.
    The algorithm itself is :func:`allocate_groups`, run on the
    requirements' :func:`requirement_key` tuples.
    """
    if not requirements:
        return []
    weights = None
    if share_ratio is not None:
        k = len(requirements)
        if len(share_ratio) != k or not all(
                math.isfinite(w) and w > 0 for w in share_ratio):
            raise SchedulingError("share_ratio must list a finite positive "
                                  "weight per kernel")
        weights = [w * k / sum(share_ratio) for w in share_ratio]
    groups = allocate_groups([requirement_key(req) for req in requirements],
                             device, saturate=saturate, weights=weights)
    return [Allocation(req, count)
            for req, count in zip(requirements, groups)]


def allocate_groups(keys, device, saturate=True, weights=None,
                    base_shares=None):
    """The §3 algorithm on :func:`requirement_key` tuples; returns the
    list of group counts, aligned with ``keys``.

    ``weights`` holds one normalised weight per kernel (they sum to
    ``len(keys)``); ``None`` means equal sharing.  A key whose
    ``wg_threads`` or ``total_groups`` is not positive raises
    :class:`SchedulingError` with :class:`KernelRequirements`' text.

    Three phases: per-kernel base shares (each weight's fraction of the
    thread, local-memory and register budgets, clamped to ``[1,
    total_groups]``); a shrink loop for mixes the clamp oversubscribes,
    which takes one group at a time from the largest thread footprint
    (ties to the smallest name); and, with ``saturate``, greedy growth one
    group at a time to the kernel with the smallest weight-normalised
    thread share ``(threads / weight, name)`` that still fits.

    Both loops keep their candidates in a heap keyed by the selection key
    plus the list index, so ties on the full key still go to the first in
    list order, as a linear scan would.  The shrink heap holds the
    kernels above one group; saturation pops a candidate for good once it
    no longer fits (the running thread/local-memory/register totals only
    grow, so it never fits again) or reaches its ``total_groups``.  Each
    granted or taken group costs O(log K), not a rescan of all K kernels.

    Both tie rules go through the name, so the result does not depend on
    the order of the keys (for equal weights, and as long as equal names
    mean equal keys) — :class:`AllocationMemo` relies on that.
    tests/oracles/sharing.py holds the literal re-summing version this
    must match.

    ``base_shares`` (equal weights only) maps a key to its base share at
    this ``len(keys)`` on this device: a key found there skips the
    base-share arithmetic, and a key computed here is added to it.  The
    caller keeps one such table per kernel count and device.
    """
    k = len(keys)
    if weights is None:
        weights = [1.0] * k
    max_threads = device.max_threads
    total_lmem = device.total_local_mem
    total_regs = device.total_registers

    groups = []
    threads = lmem = regs = 0
    for key, weight in zip(keys, weights):
        _name, wg_threads, local_mem, regs_per_thread, total = key
        rpg = regs_per_thread * wg_threads
        base = None if base_shares is None else base_shares.get(key)
        if base is None:
            if wg_threads <= 0:
                raise SchedulingError("work-group size must be positive")
            if total <= 0:
                raise SchedulingError(
                    "kernel must have at least one work group")
            share = weight / k
            x = int(max_threads * share // wg_threads)
            if local_mem > 0:
                y = int(total_lmem * share // local_mem)
            else:
                y = total
            if rpg > 0:
                z = int(total_regs * share // rpg)
            else:
                z = total
            base = max(1, min(x, y, z, total))
            if base_shares is not None:
                base_shares[key] = base
        groups.append(base)
        threads += base * wg_threads
        lmem += base * local_mem
        regs += base * rpg

    # The clamp to >= 1 group can oversubscribe pathological mixes; shrink
    # the largest allocations until everything fits (never below 1).
    heap = [(-count * key[1], key[0], i)
            for i, (key, count) in enumerate(zip(keys, groups))
            if count > 1]
    heapq.heapify(heap)
    while not (threads <= max_threads and lmem <= total_lmem
               and regs <= total_regs):
        if not heap:
            # K kernels of 1 group each genuinely exceed the device: the
            # scheduler should not have activated this many concurrently.
            raise SchedulingError(
                "cannot fit {} concurrent kernels on {}".format(
                    k, device.name))
        _key, name, i = heap[0]
        _name, wg_threads, local_mem, regs_per_thread, _total = keys[i]
        count = groups[i] - 1
        groups[i] = count
        threads -= wg_threads
        lmem -= local_mem
        regs -= regs_per_thread * wg_threads
        if count > 1:
            heapq.heapreplace(heap, (-count * wg_threads, name, i))
        else:
            heapq.heappop(heap)

    if not saturate:
        return groups
    # Saturation only ever adds to the running totals, so a candidate that
    # does not fit now never fits again: it leaves the heap for good.
    heap = [(count * key[1] / weight, key[0], i)
            for i, (key, count, weight) in enumerate(zip(keys, groups,
                                                         weights))
            if count < key[4]]
    heapq.heapify(heap)
    while heap:
        _key, name, i = heap[0]
        _name, wg_threads, local_mem, regs_per_thread, total = keys[i]
        rpg = regs_per_thread * wg_threads
        if (threads + wg_threads > max_threads
                or lmem + local_mem > total_lmem
                or regs + rpg > total_regs):
            heapq.heappop(heap)
            continue
        count = groups[i] + 1
        groups[i] = count
        threads += wg_threads
        lmem += local_mem
        regs += rpg
        if count < total:
            heapq.heapreplace(
                heap, (count * wg_threads / weights[i], name, i))
        else:
            heapq.heappop(heap)
    return groups


def requirement_key(req):
    """The canonical hashable identity of one :class:`KernelRequirements`.

    Two requirements with equal keys are interchangeable inputs to the §3
    algorithm: :func:`allocate_groups` runs on exactly these five fields.
    """
    return (req.name, req.wg_threads, req.local_mem_bytes,
            req.registers_per_thread, req.total_groups)


# Most active multisets an AllocationMemo holds.  A long stream keeps
# meeting new multisets (about 2,600 over 10^5 requests of the §8.5
# small-kernel stream, against ~600 over 10^4), so an unbounded memo
# grows with the stream, not with the in-flight population.
MEMO_CAPACITY = 512


class AllocationMemo:
    """Order-insensitive memo for equal-weight :func:`compute_allocations`.

    The open-system loop re-runs the §3 policy on *every* arrival and
    completion, but a stream drawn from a small kernel corpus cycles
    through a small set of active multisets — so the re-plan is usually a
    repeat.  The memo keys on the canonical (sorted) multiset of
    requirement keys: a lookup stable-sorts the keys, recalls the group
    counts of the sorted set (a miss runs :func:`allocate_groups` on the
    sorted keys), and maps them back to the caller's order.

    Replay safety rests on the algorithm being *permutation-equivariant*
    for equal weights: the base shares are per-kernel, the shrink loop and
    the greedy loop both break ties through the kernel name, and
    requirements sharing a full key are symmetric under a stable sort.
    That is only guaranteed for equal sharing — a ``share_ratio``
    attaches position-dependent weights whose ties resolve by list order
    — so the memo deliberately has no ``share_ratio`` parameter; weighted
    plans must call :func:`compute_allocations` directly.  See
    docs/PERFORMANCE.md.

    One further precondition: selection ties must only occur between
    requirements sharing a *full* key.  The greedy tiebreak is
    ``(threads, name)``, so two requirements with one name but e.g.
    different ``total_groups`` can tie while not being interchangeable —
    under a permutation the tied group counts would attach to the other
    one.  Engine inputs satisfy this by construction (a kernel name maps
    to exactly one corpus profile, so equal names mean equal keys);
    arbitrary hand-built mixes that reuse a name across different
    footprints should call :func:`compute_allocations` directly.

    The memo holds at most :data:`MEMO_CAPACITY` multisets; a miss at it
    evicts the oldest entry first.  Eviction only turns a later hit into
    a miss that computes the same answer again.  Stored multisets share
    one copy of each requirement key, so an entry costs two tuples.

    A miss reads its base shares from a table kept per kernel count K:
    with equal weights a base share depends only on K and the key (the
    device is fixed per memo), so a key met again at the same K skips the
    base-share arithmetic.  The table is never evicted; it holds at most
    one entry per distinct key per K met, so it is bounded by the
    distinct keys times the largest K, not by the stream length.
    """

    __slots__ = ("device", "saturate", "hits", "misses", "_groups_by_set",
                 "_keys", "_base_shares")

    def __init__(self, device, saturate=True):
        self.device = device
        self.saturate = saturate
        self.hits = 0
        self.misses = 0
        # canonical multiset of requirement keys -> tuple of group counts,
        # aligned with the sorted order, in insertion order.  Requirement
        # keys are value-identities, so there is nothing to invalidate.
        self._groups_by_set = {}
        # requirement key -> its shared copy (one per kernel profile)
        self._keys = {}
        # K -> {requirement key -> base share among K kernels}
        self._base_shares = {}

    def groups_for(self, requirements):
        """Group targets for ``requirements``, in the caller's order."""
        return self.groups_for_keyed(
            [requirement_key(req) for req in requirements], None)

    def groups_for_keyed(self, keys, build_requirements):
        """Group targets for the :func:`requirement_key` tuples ``keys``,
        in the caller's order: callers holding cheaper key sources
        (simulator specs) build no requirement objects at all.

        ``build_requirements`` is unused (callers pass ``None``): a miss
        runs :func:`allocate_groups` on the keys themselves.  It stays in
        the signature because perfbench's trace shim wraps this method
        with it.
        """
        order = sorted(range(len(keys)), key=keys.__getitem__)
        # Tuples here are built from lists.  A generator's tuple is
        # allocated at a guessed size and resized, and freeing it grows
        # the interpreter's free list for its real size, so a long
        # stream of re-plans kept growing traced memory (the
        # sublinear-memory gate of benchmarks/bench_scale.py).
        cache_key = tuple([keys[i] for i in order])
        groups = self._groups_by_set.get(cache_key)
        if groups is None:
            self.misses += 1
            # the shared copy of each key already met; a new key joins
            # the shared copies only once its set computed, so a rejected
            # set leaves nothing behind
            shared = self._keys
            cache_key = tuple([shared.get(key, key) for key in cache_key])
            k = len(cache_key)
            base_shares = self._base_shares.get(k)
            if base_shares is None:
                base_shares = self._base_shares[k] = {}
            groups = tuple(allocate_groups(
                cache_key, self.device, saturate=self.saturate,
                base_shares=base_shares))
            table = self._groups_by_set
            if len(table) >= MEMO_CAPACITY:
                del table[next(iter(table))]
            table[tuple([shared.setdefault(key, key)
                         for key in cache_key])] = groups
        else:
            self.hits += 1
        out = [0] * len(keys)
        for pos, orig in enumerate(order):
            out[orig] = groups[pos]
        return out


def thread_imbalance(allocations):
    """max |x_i*w_i - x_j*w_j| across kernel pairs — the §3 objective.

    Exposed for tests and the saturation ablation; lower is better.
    """
    shares = [a.threads for a in allocations]
    if len(shares) < 2:
        return 0
    return max(shares) - min(shares)
