"""Chunk-work tables are bitwise equal to per-window slice sums.

An accelOS slot draws its next chunk of virtual groups from the
kernel's shared queue; the engine reads the chunk's work from a table
built once per (scaled cost array, chunk size) instead of summing the
window's costs on every draw.  The table must hold exactly what the
slice sum returns, bit for bit, or every downstream timing drifts.
Covered: every corpus profile, every chunk size the launch-time cap
(``effective_chunk``) can yield for it, the K20m and a derated device,
the shared per-profile table of open submits, and the per-run table of
a jittered closed batch.
"""

import pytest

from repro.accelos.adaptive import effective_chunk
from repro.api.kernels import base_spec, chunk_for_profile
from repro.cl import derated_device, nvidia_k20m
from repro.sim import ExecutionMode, GPUSimulator
from repro.workloads.parboil import PROFILE_NAMES, profile_by_name

DEVICES = {
    "k20m": nvidia_k20m(),
    "derated": derated_device(nvidia_k20m(), "K20m-derated",
                              clock_scale=0.7, cu_scale=0.5),
}


def _slice_sums(costs, chunk):
    total = len(costs)
    return [float(costs[base:min(base + chunk, total)].sum())
            for base in range(0, total, chunk)]


def _bits(values):
    assert all(type(value) is float for value in values)
    return [value.hex() for value in values]


def _chunks(name):
    """Every chunk ``effective_chunk`` yields for the profile: its §6.4
    chunk capped at each possible virtual-groups-per-slot count."""
    spec = base_spec(name)
    chunk = chunk_for_profile(profile_by_name(name))
    return sorted({effective_chunk(chunk, spec.total_groups, groups)
                   for groups in range(1, spec.total_groups + 1)})


CASES = [(name, chunk) for name in PROFILE_NAMES for chunk in _chunks(name)]


def test_cases_cover_multi_group_chunks_and_tail_windows():
    assert any(chunk > 1 for _, chunk in CASES)
    assert any(base_spec(name).total_groups % chunk for name, chunk in CASES)


def _accelos_spec(name, chunk):
    return base_spec(name).with_mode(ExecutionMode.ACCELOS,
                                     physical_groups=1, chunk=chunk)


def _open_sim(device):
    sim = GPUSimulator(device)
    sim.open_begin(ExecutionMode.ACCELOS,
                   allocator=lambda specs: [1] * len(specs))
    return sim


def _assert_table(run, chunk):
    assert _bits(run.chunk_work) == _bits(_slice_sums(run.costs, chunk))


@pytest.mark.parametrize("device", sorted(DEVICES))
@pytest.mark.parametrize("name,chunk", CASES)
def test_chunk_work_tables_equal_slice_sums(device, name, chunk):
    sim = _open_sim(DEVICES[device])
    spec = _accelos_spec(name, chunk)
    shared = sim.open_submit(spec)
    _assert_table(shared, chunk)
    # a repeat submit of the profile reads the same table
    assert sim.open_submit(spec).chunk_work is shared.chunk_work
    # a closed batch with per-run jitter drains on its own table
    closed = GPUSimulator(DEVICES[device])
    closed.run([spec], cost_jitter=[0.987])
    (run,) = closed.runs
    _assert_table(run, chunk)
    assert run.completed == run.total
