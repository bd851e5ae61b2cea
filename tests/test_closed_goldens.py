"""Closed-batch golden: the §7.2 plane behind figs. 9-15, frozen bit for bit.

The ``trace_*`` and ``engine_streams`` goldens cover the open system
only.  ``tests/goldens/closed_batches.json`` freezes the closed-batch
plane the paper's figures and tables are computed from:

* ``closed`` — :func:`~repro.harness.experiment.run_workload`'s mean
  turnarounds and ``(start, finish)`` intervals (seeded cost jitter, two
  repetitions) for three pairs, two 4-kernel and two 8-kernel
  ``random_workloads(seed=7)`` under every built-in scheme on both
  devices (FIFO and exclusive firmware);
* ``single`` — :func:`~repro.harness.experiment.run_single_kernel`'s
  ``(time, isolated)`` for a few kernels, per single-kernel scheme and
  device (fig. 15);
* ``specs`` — the accelOS scheme's ``(physical_groups, chunk)`` per
  kernel: ``batch_specs`` over each workload (one joint §3 allocation)
  and ``admission_spec`` per kernel (the solo allocation).

Regenerate (deliberately, with the commit that moves the behaviour):

    PYTHONPATH=src python -m pytest tests/test_closed_goldens.py \
        --regen-goldens
"""

from repro.api import scheme_from_name
from repro.cl import amd_r9_295x2, nvidia_k20m
from repro.harness import run_single_kernel, run_workload
from repro.workloads import ArrivalRequest, random_workloads

from tests.test_golden_traces import check_golden

GOLDEN = "closed_batches.json"

DEVICES = {"K20m": nvidia_k20m, "R9-295X2": amd_r9_295x2}
SCHEMES = ("baseline", "ek", "accelos")
SINGLE_SCHEMES = ("baseline", "accelos")
REPETITIONS = 2
WORKLOADS = (random_workloads(2, 3, seed=7) + random_workloads(4, 2, seed=7)
             + random_workloads(8, 2, seed=7))
SINGLE_KERNELS = ("bfs", "histo_final", "mri-q_ComputeQ", "sgemm",
                  "spmv")


def _key(*parts):
    return "/".join(parts)


def golden_payload():
    closed, single, specs = {}, {}, {}
    accelos = scheme_from_name("accelos")
    for label, make_device in DEVICES.items():
        device = make_device()
        for workload in WORKLOADS:
            members = "+".join(workload)
            for scheme in SCHEMES:
                result = run_workload(workload, scheme, device,
                                      repetitions=REPETITIONS)
                closed[_key(label, scheme, members)] = {
                    "turnarounds": list(result.turnarounds),
                    "intervals": [list(iv) for iv in result.intervals],
                }
            specs[_key(label, "batch", members)] = [
                [spec.physical_groups, spec.chunk]
                for spec in accelos.batch_specs(workload, device)]
        for name in SINGLE_KERNELS:
            for scheme in SINGLE_SCHEMES:
                single[_key(label, scheme, name)] = list(
                    run_single_kernel(name, device, scheme=scheme))
            spec = accelos.admission_spec(ArrivalRequest(name, 0.0), device)
            specs[_key(label, "admission", name)] = [spec.physical_groups,
                                                     spec.chunk]
    return {"closed": closed, "single": single, "specs": specs}


def test_closed_batch_plane_matches_golden(regen_goldens):
    payload = golden_payload()
    assert len(payload["closed"]) \
        == len(DEVICES) * len(WORKLOADS) * len(SCHEMES)
    check_golden(GOLDEN, payload, regen_goldens)
