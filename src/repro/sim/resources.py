"""Per-compute-unit occupancy accounting."""

from __future__ import annotations

from repro.errors import SimulationError


class CUState:
    """Mutable occupancy state of one compute unit."""

    __slots__ = ("index", "threads_free", "registers_free", "local_mem_free",
                 "slots_free")

    def __init__(self, index, device):
        self.index = index
        self.threads_free = device.max_threads_per_cu
        self.registers_free = device.registers_per_cu
        self.local_mem_free = device.local_mem_per_cu
        self.slots_free = device.max_wgs_per_cu

    def fits(self, spec):
        """Can one more WG of ``spec`` become resident here?"""
        return (self.slots_free >= 1
                and self.threads_free >= spec.wg_threads
                and self.registers_free >= spec.registers_per_group
                and self.local_mem_free >= spec.local_mem_per_wg)

    def admit(self, spec):
        if not self.fits(spec):
            raise SimulationError("admitting WG that does not fit on CU {}"
                                  .format(self.index))
        self.threads_free -= spec.wg_threads
        self.registers_free -= spec.registers_per_group
        self.local_mem_free -= spec.local_mem_per_wg
        self.slots_free -= 1

    def release(self, spec):
        self.threads_free += spec.wg_threads
        self.registers_free += spec.registers_per_group
        self.local_mem_free += spec.local_mem_per_wg
        self.slots_free += 1

    def __repr__(self):
        return "<CU{} thr={} slots={}>".format(
            self.index, self.threads_free, self.slots_free)


def per_cu_residency(spec, device):
    """WGs of ``spec`` that one empty CU holds at once, unclamped: the
    tightest of the slot, thread, register and local-memory limits."""
    return min(
        device.max_wgs_per_cu,
        device.max_threads_per_cu // spec.wg_threads if spec.wg_threads else 0,
        (device.registers_per_cu // spec.registers_per_group
         if spec.registers_per_group else device.max_wgs_per_cu),
        (device.local_mem_per_cu // spec.local_mem_per_wg
         if spec.local_mem_per_wg else device.max_wgs_per_cu),
    )


def max_resident_groups(spec, device):
    """Device-wide cap on concurrently resident WGs of ``spec``."""
    return max(0, per_cu_residency(spec, device)) * device.num_cus
