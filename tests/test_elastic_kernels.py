"""Unit tests for the Elastic Kernels baseline."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.api.schemes as schemes
from repro.api import scheme_from_name
from repro.api.kernels import base_spec
from repro.api.schemes import ElasticOpenSession, loop_records
from repro.baselines.elastic_kernels import (MAX_MERGE,
                                             ElasticKernelsScheduler,
                                             elastic_merge_kernels)
from repro.cl import amd_r9_295x2, nvidia_k20m
from repro.errors import SchedulingError
from repro.interp import KernelLauncher
from repro.interp.memory import alloc_buffer
from repro.ir import compile_source, verify_module
from repro.kernelc import types as T
from repro.sim import ExecutionMode, KernelExecSpec
from repro.workloads import PROFILE_NAMES, ArrivalRequest
from tests.oracles.elastic import ReplayEveryLaunchSession, reference_pack
from tests.test_engine_fastpath import _quarter_k20m


def spec(name, n=512, wg=256, regs=16, lmem=0):
    return KernelExecSpec(name, wg, np.full(n, 1e-4), 0.0, regs, lmem)


def test_pack_single_kernel():
    sched = ElasticKernelsScheduler(nvidia_k20m())
    groups = sched.pack([spec("a")])
    assert len(groups) == 1
    assert groups[0].allocations[0] >= 1


def test_pack_pair_coruns():
    sched = ElasticKernelsScheduler(nvidia_k20m())
    groups = sched.pack([spec("a"), spec("b")])
    assert len(groups) == 1


def test_pack_respects_max_merge():
    sched = ElasticKernelsScheduler(nvidia_k20m())
    groups = sched.pack([spec(str(i)) for i in range(MAX_MERGE + 3)])
    assert all(len(g.specs) <= MAX_MERGE for g in groups)
    assert len(groups) >= 2


@pytest.mark.parametrize("position", [0, 1, 2])
def test_misfit_does_not_fit_alone_at_any_position(position):
    """A kernel the device cannot host alone is named as such wherever
    it waits in the queue, not only at its head."""
    sched = ElasticKernelsScheduler(nvidia_k20m())
    queue = [spec("a"), spec("b")]
    queue.insert(position, spec("huge", lmem=10**9))
    with pytest.raises(SchedulingError,
                       match="kernel huge does not fit the device alone"):
        sched.pack(queue)


def test_split_is_work_proportional():
    sched = ElasticKernelsScheduler(nvidia_k20m())
    big = spec("big", n=4000)
    small = spec("small", n=100)
    group = sched.pack([big, small])[0]
    alloc = dict(zip((s.name for s in group.specs), group.allocations))
    assert alloc["big"] > alloc["small"]


def test_split_fits_device():
    dev = nvidia_k20m()
    sched = ElasticKernelsScheduler(dev)
    groups = sched.pack([spec(str(i), wg=512, regs=24) for i in range(4)])
    for group in groups:
        threads = sum(a * s.wg_threads
                      for s, a in zip(group.specs, group.allocations))
        assert threads <= dev.max_threads


def test_sim_specs_have_merge_overhead():
    sched = ElasticKernelsScheduler(nvidia_k20m())
    group = sched.pack([spec("a"), spec("b")])[0]
    merged = sched.to_sim_specs(group)
    assert all(m.mode == ExecutionMode.ELASTIC for m in merged)
    # 4% merge overhead for one extra kernel
    assert merged[0].wg_costs[0] == pytest.approx(1e-4 * 1.04)


def test_single_kernel_group_has_no_overhead():
    sched = ElasticKernelsScheduler(nvidia_k20m())
    group = sched.pack([spec("a")])[0]
    merged = sched.to_sim_specs(group)
    assert merged[0].wg_costs[0] == pytest.approx(1e-4)


# -- the real static merge ---------------------------------------------------

MERGE_A = """
kernel void ka(global float* a)
{
    size_t g = get_global_id(0);
    a[g] = a[g] + 10.0f;
}
"""

MERGE_B = """
float helper_b(float x) { return x * 2.0f; }
kernel void kb(global float* b)
{
    size_t g = get_global_id(0);
    size_t grp = get_group_id(0);
    b[g] = helper_b(b[g]) + (float)grp;
}
"""


def test_elastic_merge_produces_verified_module():
    ma = compile_source(MERGE_A)
    mb = compile_source(MERGE_B)
    merged, name = elastic_merge_kernels(ma, "ka", mb, "kb", split=2)
    assert name in merged
    verify_module(merged)


def test_elastic_merge_computes_both_kernels():
    wg, groups_a, groups_b = 32, 2, 3
    ma = compile_source(MERGE_A)
    mb = compile_source(MERGE_B)

    rng = np.random.default_rng(5)
    a_host = rng.random(groups_a * wg).astype(np.float32)
    b_host = rng.random(groups_b * wg).astype(np.float32)

    # references from the unmerged kernels
    a_ref = alloc_buffer(T.FLOAT, a_host.size)
    a_ref.region.fill_from(a_host)
    KernelLauncher(ma).launch("ka", [a_ref], (groups_a * wg,), (wg,))
    b_ref = alloc_buffer(T.FLOAT, b_host.size)
    b_ref.region.fill_from(b_host)
    KernelLauncher(mb).launch("kb", [b_ref], (groups_b * wg,), (wg,))

    merged, name = elastic_merge_kernels(ma, "ka", mb, "kb", split=groups_a)
    a_buf = alloc_buffer(T.FLOAT, a_host.size)
    a_buf.region.fill_from(a_host)
    b_buf = alloc_buffer(T.FLOAT, b_host.size)
    b_buf.region.fill_from(b_host)
    KernelLauncher(merged).launch(
        name, [a_buf, b_buf], ((groups_a + groups_b) * wg,), (wg,))

    np.testing.assert_array_equal(
        a_buf.region.to_array(np.float32, a_host.size),
        a_ref.region.to_array(np.float32, a_host.size))
    np.testing.assert_array_equal(
        b_buf.region.to_array(np.float32, b_host.size),
        b_ref.region.to_array(np.float32, b_host.size))


def test_elastic_merge_shares_one_binary():
    # the security concern: both applications' code ends up in one module
    ma = compile_source(MERGE_A)
    mb = compile_source(MERGE_B)
    merged, _ = elastic_merge_kernels(ma, "ka", mb, "kb", split=1)
    names = set(merged.functions)
    assert any(n.startswith("ek_a_") for n in names)
    assert any(n.startswith("ek_b_") for n in names)


@settings(max_examples=40, deadline=None)
@given(names=st.lists(st.sampled_from(PROFILE_NAMES), min_size=1,
                      max_size=10),
       make_device=st.sampled_from([nvidia_k20m, amd_r9_295x2]))
def test_closed_batch_is_the_open_session_at_time_zero(names, make_device):
    """Both callers of EK's one launch replay agree: a closed batch (no
    jitter) and the open session fed the same names all arriving at t=0
    pack the same launches and time them bit for bit."""
    device = make_device()
    scheme = scheme_from_name("ek")
    turnarounds, intervals = scheme.run_closed(names, device)
    records = loop_records(scheme, [ArrivalRequest(n, 0.0) for n in names],
                           device)
    assert [(r.start, r.finish) for r in records] == intervals
    assert [r.turnaround for r in records] == turnarounds


# -- the head-only packer and the open session's launch memo ------------------

PACK_DEVICE = st.sampled_from([nvidia_k20m, amd_r9_295x2, _quarter_k20m])
# a few profiles, so drawn streams repeat kernels
MEMO_PROFILES = st.sampled_from(("sgemm", "bfs", "spmv", "stencil",
                                 "histo_main"))
# far longer than any drawn block's serialised launches, so each repeat
# of a block finds the device idle and its queue empty
REPEAT_GAP = 10.0


def _groups(groups):
    return [(group.specs, group.allocations) for group in groups]


@settings(max_examples=60, deadline=None)
@given(names=st.lists(st.sampled_from(PROFILE_NAMES), min_size=1,
                      max_size=3 * MAX_MERGE),
       make_device=PACK_DEVICE)
def test_pack_head_is_the_first_group_and_pack_matches_the_reference(
        names, make_device):
    """``pack_head`` stops at the first failed trial; the greedy packer
    built on it forms the groups, and splits, of the whole-queue packer
    as first written."""
    scheduler = ElasticKernelsScheduler(make_device())
    specs = [base_spec(name) for name in names]
    groups = scheduler.pack(specs)
    assert _groups(groups) == _groups(reference_pack(scheduler, specs))
    assert _groups([scheduler.pack_head(specs)]) == _groups(groups[:1])


def _drive(session, arrivals):
    """Submit ``arrivals`` up front, step the session dry: every step's
    result with the busy time and event total after it, and the
    harvested intervals."""
    for key, arrival in enumerate(arrivals):
        session.submit(key, arrival, arrival.time)
    steps = []
    while session.peek() is not None:
        steps.append((session.step(), session._busy_until,
                      session.events_processed))
    return steps, sorted(session.harvest())


def _repeated_stream(block, repeats):
    return [ArrivalRequest(name, REPEAT_GAP * repeat + offset)
            for repeat in range(repeats) for name, offset in block]


BLOCK = st.lists(st.tuples(MEMO_PROFILES,
                           st.sampled_from((0.0, 1e-4, 1e-3, 5e-3))),
                 min_size=1, max_size=10)


@settings(max_examples=40, deadline=None)
@given(block=BLOCK, repeats=st.integers(min_value=2, max_value=3),
       make_device=PACK_DEVICE)
def test_launch_memo_matches_replaying_every_launch(block, repeats,
                                                    make_device):
    """A session that recalls repeated merged launches from its memo
    times every request, busy period and engine event total bit for bit
    as one that packs the whole queue and replays every launch."""
    arrivals = _repeated_stream(block, repeats)
    session = ElasticOpenSession(make_device())
    memoised = _drive(session, arrivals)
    assert memoised == _drive(ReplayEveryLaunchSession(make_device()),
                              arrivals)
    launches = sum(1 for (_time, finished), _, _ in memoised[0]
                   if finished == 0)
    assert session.launch_hits > 0
    assert session.launch_hits + session.launch_misses == launches


@settings(max_examples=20, deadline=None)
@given(block=BLOCK, capacity=st.integers(min_value=1, max_value=3),
       make_device=PACK_DEVICE)
def test_launch_memo_stays_within_its_bound(block, capacity, make_device):
    """With a low capacity the memo evicts its oldest launches and never
    holds more than its bound; the results do not change."""
    arrivals = _repeated_stream(block, 3)
    with mock.patch.object(schemes, "LAUNCH_MEMO_CAPACITY", capacity):
        session = ElasticOpenSession(make_device())
        for key, arrival in enumerate(arrivals):
            session.submit(key, arrival, arrival.time)
        while session.peek() is not None:
            session.step()
            assert len(session._launches) <= capacity
        bounded = sorted(session.harvest())
    assert bounded == _drive(ElasticOpenSession(make_device()), arrivals)[1]
