"""The reference open-system engine: the A/B oracle for ``GPUSimulator``.

:class:`ReferenceGPUSimulator` overrides each per-event decision
procedure of :class:`repro.sim.gpu.GPUSimulator` with the original scan
that the engine's incremental structures replaced: admission re-sums
the footprint of every admitted run, a re-allocation filters the whole
run list and counts queued slots by scanning the pending deque, a shrink
rebuilds that deque, every slot placement (of closed batches and open
runs alike: a grow's slots one at a time, never as the engine's wave
from a heap of the CUs that fit; every queued slot of a pending pass,
never only on the CU a retire freed) scans every CU in its own
:meth:`_freest_cu` and goes through ``CUState.fits``/``admit``/``release``
rather than the engine's :meth:`_admit_slot`, and a pending-slot pass
never stops early.  The firmware dispatcher has no early exit: it walks
the run list from index 0 on every hardware event, checks the head of
every run it reaches by scanning all earlier runs with the original
FIFO/exclusive predicates, and tries every CU.  The engine's running
state (admission totals, the live-active set, per-run
pending counters, the footprint index, the dispatch cursors) is still
maintained by the inherited code, but nothing here reads it.  It also
keeps no scaled-cost cache, so every run scales its own cost array;
every chunk draw sums its window of that array afresh instead of reading
the engine's chunk-work table; events are processed one
:meth:`open_step` at a time, never by the inline arms of the engine's
:meth:`open_advance` (accelOS and Elastic Kernels draws, firmware
completions and the window owner's in-place restarts); a firmware group
starts through ``CUState.admit``, ``BandwidthTracker.stretch``/``add_rate``
and ``EventQueue.push``, one :meth:`_start_hw_wg` call per group, never
a whole wave at once; a placed slot is activated and draws its first
chunk through :meth:`_activate_slot` and :meth:`_draw_chunk` rather
than the engine's :meth:`_start_slot` and its inline first draw (a
closed batch activates its slots through :meth:`_activate_slot` too);
and a grow re-attempts every slot placement after one fails.  Like the
engine, the lifecycle overrides take the engine's slot records
(``_Slot``: run, CU, index, occupancy, bandwidth rate and the chunk in
flight), which are also the payloads of chunk events.

:func:`reference_engine` swaps this simulator and the memo-less literal
§3 allocator (:mod:`tests.oracles.sharing`) into the scheme layer, so
every session, fleet and spec run built inside the block runs on the
oracle.  Both paths must produce bit-identical results on every stream.
"""

from collections import deque
from contextlib import contextmanager

import repro.api.kernels as kernels
import repro.api.schemes as schemes
from repro.api.kernels import requirements_from_spec
from repro.errors import SimulationError
from repro.sim.gpu import KERNEL_HANDOFF_LATENCY, GPUSimulator, _Slot
from repro.sim.spec import ExecutionMode

from tests.oracles.sharing import reference_allocations


class _NoCache(dict):
    """A cache that never holds an entry."""

    def get(self, key, default=None):
        return default

    def __setitem__(self, key, value):
        pass


def fifo_eligible(index, kernels):
    """NVIDIA-like FIFO: kernel ``index`` may dispatch iff all earlier
    kernels have no pending (undispatched) work groups."""
    return all(k.pending_count == 0 for k in kernels[:index])


def exclusive_eligible(index, kernels):
    """AMD-like exclusive: kernel ``index`` may dispatch iff all earlier
    kernels finished."""
    return all(k.finished for k in kernels[:index])


FIRMWARE_ELIGIBLE = {"fifo": fifo_eligible, "exclusive": exclusive_eligible}


class ReferenceGPUSimulator(GPUSimulator):
    """:class:`GPUSimulator` with the original per-event reference scans."""

    def _setup(self, specs, cost_jitter):
        super()._setup(specs, cost_jitter)
        self._costs_cache = _NoCache()

    def open_advance(self, limit=None, inclusive=False, stop_on_finish=False):
        time = None
        finished = self.finished_requests
        while self.events:
            next_time = self.events.peek_time()
            if limit is not None and (next_time > limit if inclusive
                                      else next_time >= limit):
                break
            time = self.open_step()
            if stop_on_finish and self.finished_requests != finished:
                break
        return time

    def _draw_chunk(self, slot):
        run = slot.run
        now = self.events.now
        if self._software_mode == ExecutionMode.ACCELOS:
            base = run.next_vgroup
            if base >= run.total:
                self._retire_slot(slot)
                return
            if run.shrink_slots > 0:
                run.shrink_slots -= 1
                self._retire_slot(slot)
                return
            end = min(base + run.spec.chunk, run.total)
            run.next_vgroup = end
            work = float(run.costs[base:end].sum())
            overhead = run.spec.sched_overhead
            slot.done = end - base
        else:
            queue = run.slot_assignments[slot.index]
            if not queue:
                self._retire_slot(slot)
                return
            work = float(run.costs[queue.popleft()])
            overhead = 0.0
            slot.done = 1
        stretch = self.bandwidth.stretch_resident(slot.rate)
        cost = work * slot.occ * stretch + overhead
        self.events.push(now + cost, slot)

    def _hw_dispatch(self, freed_cu=None):
        eligible = FIRMWARE_ELIGIBLE[self.device.scheduler_policy]
        now = self.events.now
        for index, run in enumerate(self.runs):
            if run.pending_count == 0:
                continue
            if not eligible(index, self.runs):
                break
            if now + 1e-15 < run.spec.arrival_time:
                break
            if run.dispatch_ready_time is None:
                run.dispatch_ready_time = now + KERNEL_HANDOFF_LATENCY
                self.events.push(run.dispatch_ready_time, None)
                break
            if now + 1e-15 < run.dispatch_ready_time:
                break
            for cu in self.cus:
                queue = run.cu_queues[cu.index]
                while queue and cu.fits(run.spec):
                    wg = queue.popleft()
                    self._start_hw_wg(run, cu, wg, now)
            if run.pending_count > 0:
                break

    def _start_hw_wg(self, run, cu, wg, now):
        cu.admit(run.spec)
        k = run.cu_resident.get(cu.index, 0) + 1
        run.cu_resident[cu.index] = k
        k_steady = min(run.k_max, -(-run.total // len(self.cus)))
        occ = run.occupancy_factor(max(k, k_steady))
        rate = run.spec.mem_rate_per_wg / occ
        stretch = self.bandwidth.stretch(rate)
        self.bandwidth.add_rate(rate)
        run.resident += 1
        run.pending_count -= 1
        run.mark_start(now)
        if run.pending_count == 0:
            run.mark_dispatch_done(now)
        cost = float(run.costs[wg]) * occ * stretch
        self.events.push(now + cost, (run, cu, wg, rate))

    def _admission_fits(self, candidate):
        spec = candidate.spec
        specs = [run.spec for run in self.runs
                 if run.active and run.finish_time is None]
        specs.append(spec)
        return (sum(s.wg_threads for s in specs) <= self.device.max_threads
                and (sum(s.local_mem_per_wg for s in specs)
                     <= self.device.total_local_mem)
                and (sum(s.registers_per_group for s in specs)
                     <= self.device.total_registers))

    def _reallocate(self):
        active = [run for run in self.runs
                  if run.active and not run.mode_done()]
        if not active:
            return
        targets = self._allocator([run.spec for run in active])
        if len(targets) != len(active):
            raise SimulationError(
                "allocator returned {} targets for {} active kernels".format(
                    len(targets), len(active)))
        for run, target in zip(active, targets):
            remaining = run.total - run.next_vgroup
            target = max(1, min(int(target), remaining))
            pending = sum(1 for r, _ in self._pending_slots if r is run)
            effective = run.live_slots - run.shrink_slots + pending
            if target > effective:
                self._grow_run(run, target - effective)
            elif target < effective:
                self._shrink_run(run, effective - target, pending)

    def _grow_run(self, run, count):
        revived = min(count, run.shrink_slots)
        run.shrink_slots -= revived
        for _ in range(count - revived):
            slot_index = run.slot_counter
            run.slot_counter += 1
            if not self._try_place_slot(run, slot_index):
                self._pending_slots.append((run, slot_index))
                run.pending_slots += 1
                self._pending_inc(run)

    def _shrink_run(self, run, count, pending):
        # drop queued (never-placed) slots first: they hold no resources
        if pending:
            dropped = 0
            kept = deque()
            while self._pending_slots:
                entry = self._pending_slots.popleft()
                if entry[0] is run and dropped < count:
                    dropped += 1
                    run.pending_slots -= 1
                    self._pending_dec(run)
                else:
                    kept.append(entry)
            self._pending_slots = kept
            count -= dropped
        # retire the rest at chunk boundaries; never shrink the last live
        # slot while the virtual-group queue is undrained
        run.shrink_slots = min(run.shrink_slots + count,
                               max(0, run.live_slots - 1))

    def _activate_slot(self, slot):
        run = slot.run
        slot.occ = run.occupancy_factor(run.cu_resident[slot.cu.index])
        slot.rate = run.spec.mem_rate_per_wg / slot.occ
        self.bandwidth.add_rate(slot.rate)

    def _try_place_slot(self, run, slot_index):
        cu = self._freest_cu(run.spec)
        if cu is None:
            return False
        cu.admit(run.spec)
        run.cu_resident[cu.index] = run.cu_resident.get(cu.index, 0) + 1
        run.resident += 1
        run.live_slots += 1
        run.mark_start(self.events.now)
        slot = _Slot(run, cu, slot_index)
        self._activate_slot(slot)
        self._draw_chunk(slot)
        return True

    def _place_software_slots(self):
        placements = []
        max_slots = max((run.slots_to_place for run in self.runs), default=0)
        for slot_index in range(max_slots):
            for run in self.runs:
                if slot_index >= run.slots_to_place:
                    continue
                cu = self._freest_cu(run.spec)
                if cu is None:
                    self._pending_slots.append((run, slot_index))
                    run.pending_slots += 1
                    self._pending_inc(run)
                    continue
                cu.admit(run.spec)
                run.cu_resident[cu.index] = run.cu_resident.get(cu.index, 0) + 1
                run.resident += 1
                run.live_slots += 1
                placements.append(_Slot(run, cu, slot_index))
        for run in self.runs:
            run.slots_to_place = 0
        for slot in placements:
            self._activate_slot(slot)
        for slot in placements:
            self._draw_chunk(slot)

    def _place_pending_slots(self):
        if not self._pending_slots:
            return
        still_pending = deque()
        unplaceable = set()
        while self._pending_slots:
            run, slot_index = self._pending_slots.popleft()
            if run.mode_done():
                run.pending_slots -= 1
                self._pending_dec(run)
                continue
            footprint = run.footprint
            if footprint in unplaceable:
                still_pending.append((run, slot_index))
                continue
            if not self._try_place_slot(run, slot_index):
                unplaceable.add(footprint)
                still_pending.append((run, slot_index))
            else:
                run.pending_slots -= 1
                self._pending_dec(run)
        self._pending_slots = still_pending

    def _freest_cu(self, spec):
        best = None
        for cu in self.cus:
            if cu.fits(spec):
                if best is None or cu.threads_free > best.threads_free:
                    best = cu
        return best

    def _retire_slot(self, slot):
        run, cu = slot.run, slot.cu
        cu.release(run.spec)
        self.bandwidth.remove_rate(slot.rate)
        run.cu_resident[cu.index] -= 1
        run.resident -= 1
        run.live_slots -= 1
        self._place_pending_slots()
        if self.rebalance and not self._open:
            self._grant_freed_capacity()
        finished = run.live_slots == 0 and not self._has_pending_work(run)
        if finished and run.spec.mode == ExecutionMode.ACCELOS:
            finished = run.next_vgroup >= run.total
        if finished and run.finish_time is None:
            run.finish_time = self.events.now
            run.mark_dispatch_done(self.events.now)
            self.finished_requests += 1
            if self._open:
                spec = run.spec
                self._adm_threads -= spec.wg_threads
                self._adm_lmem -= spec.local_mem_per_wg
                self._adm_regs -= spec.registers_per_group
                self._live_active.pop(run, None)
                self._finished_runs.append(run)
                self._admit_arrivals()
                self._reallocate()

    def _has_pending_work(self, run):
        return any(pending_run is run and not pending_run.mode_done()
                   for pending_run, _ in self._pending_slots)


def reference_allocator(device, saturate=True):
    """A memo-less :func:`repro.api.kernels.sharing_allocator`: every
    re-plan runs the literal §3 algorithm on the active set as given."""
    def allocate(specs):
        requirements = [requirements_from_spec(s) for s in specs]
        allocations = reference_allocations(requirements, device,
                                            saturate=saturate)
        return [a.groups for a in allocations]
    return allocate


@contextmanager
def swapped_engine(simulator, allocator=None):
    """Run the enclosed block on ``simulator`` (a ``GPUSimulator``
    subclass) and, when given, the allocator factory ``allocator``.

    Sessions, fleets and spec runs built inside the block construct the
    replacements; the scheme layer's own bindings are restored on exit.
    """
    replacements = [("GPUSimulator", simulator)]
    if allocator is not None:
        replacements.append(("sharing_allocator", allocator))
    swaps = [(module, name, replacement)
             for module in (kernels, schemes)
             for name, replacement in replacements]
    saved = [(module, name, getattr(module, name))
             for module, name, _ in swaps]
    try:
        for module, name, replacement in swaps:
            setattr(module, name, replacement)
        yield
    finally:
        for module, name, original in saved:
            setattr(module, name, original)


def reference_engine():
    """Run the enclosed block on the reference engine and allocator
    (:class:`ReferenceGPUSimulator`, :func:`reference_allocator`)."""
    return swapped_engine(ReferenceGPUSimulator, reference_allocator)
