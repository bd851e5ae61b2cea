"""Section 8.5: tiny executions (2/4/8 work groups) stay within a few
percent of standard OpenCL."""

import pytest

from benchmarks.conftest import DEVICES
from repro.accelos.adaptive import effective_chunk
from repro.harness import format_table
from repro.api.kernels import chunk_for_profile
from repro.sim import ExecutionMode, GPUSimulator
from repro.workloads import profile_by_name


def tiny_spec(name, n_groups):
    profile = profile_by_name(name)
    spec = profile.exec_spec()
    costs = spec.wg_costs[:n_groups]
    return spec.__class__(
        spec.name, spec.wg_threads, costs, spec.mem_rate_per_wg,
        spec.registers_per_thread, spec.local_mem_per_wg,
        sat_occupancy=spec.sat_occupancy)


@pytest.mark.parametrize("device_name", list(DEVICES))
def test_sec85_small_kernel_executions(benchmark, emit, device_name):
    device = DEVICES[device_name]()
    rows = []
    deltas = []
    for name in ("bfs", "spmv", "tpacf"):
        for n_groups in (2, 4, 8):
            spec = tiny_spec(name, n_groups)
            iso = GPUSimulator(device).run([spec]).makespan
            chunk = effective_chunk(
                chunk_for_profile(profile_by_name(name)), n_groups, n_groups)
            accel = spec.with_mode(ExecutionMode.ACCELOS,
                                   physical_groups=n_groups, chunk=chunk)
            t = GPUSimulator(device).run([accel]).makespan
            delta = 100 * (t - iso) / iso
            deltas.append(abs(delta))
            rows.append([name, n_groups, iso * 1e6, t * 1e6,
                         "{:+.2f}%".format(delta)])
    emit(format_table(
        ["kernel", "WGs", "std (us)", "accelOS (us)", "delta"],
        rows, title="Sec 8.5 ({}) — tiny executions (paper: differences "
                    "under 3%)".format(device_name)))

    benchmark(GPUSimulator(device).run, [tiny_spec("bfs", 4)])

    assert max(deltas) < 3.0
