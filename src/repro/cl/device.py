"""Device models for the paper's two evaluation platforms.

The sharing algorithm (§3) needs three per-device capacities — hardware
threads ``T``, local memory ``L`` and registers ``R`` — and the timing
simulator additionally needs per-CU occupancy limits, relative compute
throughput, memory bandwidth and the firmware scheduler's policy.

Capacities follow the public architecture documents the paper cites
(NVIDIA Kepler GK110 whitepaper; AMD APP OpenCL programming guide).
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True, repr=False)
class DeviceSpec:
    """Static description of an accelerator.

    A frozen value: equality and hashing cover every field, so two equal
    specs are interchangeable, and calibration
    (:func:`repro.api.kernels.isolated_table`) keys on the spec itself.
    """

    name: str
    vendor: str
    num_cus: int
    max_threads_per_cu: int
    wavefront: int
    registers_per_cu: int
    local_mem_per_cu: int
    max_wgs_per_cu: int
    max_wg_size: int
    clock_mhz: float
    mem_bw_gbs: float
    flops_per_cycle_per_cu: int
    global_mem_bytes: int
    # 'fifo': next kernel's groups may start as the current one drains
    # (NVIDIA-observed behaviour); 'exclusive': the device serialises
    # kernels almost completely (AMD-observed behaviour).  Both match the
    # paper's measured overlap for standard OpenCL (§8.2).
    scheduler_policy: str

    # -- device-wide capacities used by the §3 sharing algorithm -------------

    @property
    def max_threads(self):
        """``T``: maximum concurrently resident hardware threads."""
        return self.num_cus * self.max_threads_per_cu

    @property
    def total_local_mem(self):
        """``L``: total local memory across compute units (bytes)."""
        return self.num_cus * self.local_mem_per_cu

    @property
    def total_registers(self):
        """``R``: total register file entries across compute units."""
        return self.num_cus * self.registers_per_cu

    @property
    def compute_rate(self):
        """Device FLOP rate in GFLOP/s (used by the timing model)."""
        return self.num_cus * self.flops_per_cycle_per_cu * self.clock_mhz / 1e3

    def __repr__(self):
        return "<DeviceSpec {} ({} CUs)>".format(self.name, self.num_cus)


def nvidia_k20m():
    """NVIDIA Tesla K20m (Kepler GK110, 13 SMX)."""
    return DeviceSpec(
        name="Tesla K20m",
        vendor="NVIDIA",
        num_cus=13,
        max_threads_per_cu=2048,
        wavefront=32,
        registers_per_cu=65536,
        local_mem_per_cu=48 * 1024,
        max_wgs_per_cu=16,
        max_wg_size=1024,
        clock_mhz=706,
        mem_bw_gbs=208.0,
        flops_per_cycle_per_cu=384,   # 192 SP cores x FMA
        global_mem_bytes=5 * 1024**3,
        scheduler_policy="fifo",
    )


def amd_r9_295x2():
    """AMD Radeon R9 295X2 (one Hawaii GPU of the pair, 44 CUs)."""
    return DeviceSpec(
        name="R9 295X2",
        vendor="AMD",
        num_cus=44,
        max_threads_per_cu=2560,     # 40 wavefronts x 64 lanes
        wavefront=64,
        registers_per_cu=65536,      # 256 KB VGPR file / 4 B
        local_mem_per_cu=64 * 1024,
        max_wgs_per_cu=40,
        max_wg_size=256,
        clock_mhz=1018,
        mem_bw_gbs=320.0,
        flops_per_cycle_per_cu=128,  # 64 lanes x FMA
        global_mem_bytes=4 * 1024**3,
        scheduler_policy="exclusive",
    )


def known_devices():
    """The two evaluation devices, keyed by vendor (paper §7.1)."""
    return {"NVIDIA": nvidia_k20m(), "AMD": amd_r9_295x2()}


def derated_device(base, name, clock_scale=1.0, cu_scale=1.0):
    """A slower sibling of ``base`` for heterogeneous-fleet studies.

    Scales the clock (and memory bandwidth, which tracks the memory clock)
    by ``clock_scale`` and the compute-unit count by ``cu_scale``; per-CU
    capacities — the §3 inputs — are untouched, so the sharing algorithm's
    per-device guarantees hold unchanged on the derated part.  Models the
    common fleet reality of mixed generations of the same architecture.
    """
    if not 0.0 < clock_scale <= 1.0 or not 0.0 < cu_scale <= 1.0:
        raise ValueError("derating scales must be in (0, 1]")
    return dataclasses.replace(
        base, name=name,
        num_cus=max(1, int(round(base.num_cus * cu_scale))),
        clock_mhz=base.clock_mhz * clock_scale,
        mem_bw_gbs=base.mem_bw_gbs * clock_scale)
