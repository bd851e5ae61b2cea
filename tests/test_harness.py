"""Unit tests for the experiment harness."""

import dataclasses

import pytest

from repro.accelos.adaptive import SchedulingPolicy
from repro.api.kernels import isolated_table
from repro.cl import amd_r9_295x2, derated_device, nvidia_k20m
from repro.harness import (format_table, isolated_time, run_single_kernel,
                           run_workload, run_sweep, summarize)
from repro.api.kernels import chunk_for_profile, transform_chunks
from repro.workloads import profile_by_name


def test_isolated_time_positive_and_cached():
    dev = nvidia_k20m()
    t1 = isolated_time("bfs", dev)
    t2 = isolated_time("bfs", dev)
    assert t1 == t2 > 0


def test_isolated_time_differs_across_devices():
    assert isolated_time("cutcp", nvidia_k20m()) != \
        isolated_time("cutcp", amd_r9_295x2())


def test_device_specs_are_frozen_values_keying_one_table():
    a, b = nvidia_k20m(), nvidia_k20m()
    assert a is not b and a == b and hash(a) == hash(b)
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.clock_mhz = 1.0
    derated = derated_device(a, "K20m-derated", clock_scale=0.5,
                             cu_scale=0.5)
    scaled = ("name", "num_cus", "clock_mhz", "mem_bw_gbs")

    def unscaled(device):
        fields = dataclasses.asdict(device)
        for key in scaled:
            del fields[key]
        return fields
    assert unscaled(derated) == unscaled(a)
    assert derated.num_cus < a.num_cus
    assert derated.clock_mhz == a.clock_mhz * 0.5
    assert isolated_table(a) is isolated_table(b)
    half, quarter = (derated_device(a, "K20m-derated", clock_scale=scale)
                     for scale in (0.5, 0.25))
    assert half.name == quarter.name and half != quarter
    assert isolated_table(half) is not isolated_table(quarter)
    assert isolated_table(half)["bfs"] != isolated_table(quarter)["bfs"]


def test_chunks_come_from_real_jit():
    chunks = transform_chunks("histo")
    assert set(chunks) >= {"histo_final", "histo_main"}
    assert all(c in (1, 2, 4, 6, 8) for c in chunks.values())


def test_naive_policy_chunk_is_one():
    profile = profile_by_name("histo_final")
    assert chunk_for_profile(profile, SchedulingPolicy.NAIVE) == 1


def test_run_workload_baseline_metrics():
    result = run_workload(("bfs", "tpacf"), "baseline", nvidia_k20m(),
                          repetitions=2)
    assert result.unfairness >= 1.0
    assert result.makespan > 0
    assert len(result.slowdowns) == 2
    # serialisation: the first kernel's slowdown is ~1
    assert result.slowdowns[0] == pytest.approx(1.0, rel=0.15)


def test_run_workload_accelos_fairer_than_baseline():
    dev = nvidia_k20m()
    workload = ("histo_main", "mri-q_ComputeQ", "spmv", "sgemm")
    base = run_workload(workload, "baseline", dev, repetitions=2)
    accel = run_workload(workload, "accelos", dev, repetitions=2)
    assert accel.unfairness < base.unfairness
    assert accel.overlap > base.overlap


def test_run_workload_ek_serialises_large_batches():
    dev = nvidia_k20m()
    workload = tuple(["cutcp", "tpacf", "mri-q_ComputeQ", "sgemm",
                      "lbm", "stencil", "spmv", "bfs"])
    result = run_workload(workload, "ek", dev, repetitions=1)
    assert result.overlap < 0.2  # >MAX_MERGE kernels cannot all co-run


def test_run_workload_deterministic():
    dev = nvidia_k20m()
    a = run_workload(("bfs", "sgemm"), "accelos", dev, repetitions=2)
    b = run_workload(("bfs", "sgemm"), "accelos", dev, repetitions=2)
    assert a.turnarounds == b.turnarounds


def test_run_single_kernel_accelos_close_to_baseline():
    dev = nvidia_k20m()
    t, iso = run_single_kernel("sgemm", dev)
    assert 0.7 <= iso / t <= 1.4


def test_run_sweep_and_summary():
    dev = nvidia_k20m()
    workloads = [("bfs", "tpacf"), ("sgemm", "spmv")]
    results = run_sweep(workloads, dev, repetitions=1)
    summary = summarize(results)
    assert summary.count == 2
    assert summary.avg_unfairness["baseline"] >= \
        summary.avg_unfairness["accelos"]
    assert summary.avg_fairness_improvement("accelos") > 1.0
    assert 0.0 <= summary.negative_fairness_fraction("accelos") <= 1.0
    assert summary.worst_antt["baseline"] >= summary.avg_antt["baseline"]


def test_format_table_alignment():
    text = format_table(["name", "value"],
                        [["a", 1.5], ["long-name", 123.456]],
                        title="T")
    lines = text.split("\n")
    assert lines[0] == "T"
    assert "name" in lines[1]
    assert len(lines) == 5
