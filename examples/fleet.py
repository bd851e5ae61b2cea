"""Multi-device accelOS: a heterogeneous fleet serving streaming arrivals.

One accelOS instance arbitrates one accelerator; a deployment runs many.
This example declares a two-device fleet — a full-speed K20m and a
derated sibling (40% clock, half the CUs) — as one serializable
:class:`repro.api.ExperimentSpec` and sweeps every registered
cross-device placement policy over the same multi-tenant stream:

* round-robin      — blind alternation (the fleet baseline),
* least-loaded     — route to the earliest estimated completion,
* affinity         — least-loaded, but moving a tenant's buffers off the
                     device that holds them costs a migration penalty,
* burst-aware      — closed-loop only: places against *live* simulator
                     backlog with short-horizon burst detection,
* work-stealing    — burst-aware plus a re-balancer that migrates
                     still-queued requests to idle devices.

Every device keeps its own §3 allocator, so the paper's per-device
fairness guarantees are untouched; placement only decides *which* device
a request shares.  Watch round-robin drown the slow device while
least-loaded placement wins on ANTT.

The second table pushes the same fleet past saturation and compares
offline placement against live-state placement (docs/PLACEMENT.md):
online placement reads actual outstanding work instead of a
single-server estimate, which is exactly what bursty multi-tenant
traffic punishes.

It also shows the functional plane: FleetRuntime places application
sessions across devices while each kernel still executes bit-for-bit
correctly.

Run:  python examples/fleet.py
"""

import numpy as np

from repro.accelos import FleetRuntime
from repro.api import ExperimentSpec, placement_names, run
from repro.cl import NDRange, derated_device, nvidia_k20m
from repro.harness import format_table
from repro.kernelc import types as T

REQUESTS = 32
SEED = 7
LOAD = 1.0

SAXPY = """
kernel void saxpy(global const float* x, global float* y, float a)
{
    size_t gid = get_global_id(0);
    y[gid] = a * x[gid] + y[gid];
}
"""


def evaluation_plane():
    spec = ExperimentSpec(
        scenario="multi-tenant",
        schemes=("accelos",),
        loads=(LOAD,),
        seeds=(SEED,),
        count=REQUESTS,
        devices=(
            {"id": "fast", "base": "nvidia-k20m"},
            {"id": "slow", "base": "nvidia-k20m",
             "clock_scale": 0.4, "cu_scale": 0.5},
        ),
        placements=placement_names(),
        metrics=("unfairness", "stp", "antt"),
    )
    results = run(spec)

    rows = []
    for name in placement_names():
        result = results.get(placement=name)
        share = " ".join("{}={:.0%}".format(device_id, fraction)
                         for device_id, fraction
                         in result.device_share.items())
        rows.append([name, result.overall.unfairness, result.overall.stp,
                     result.overall.antt, result.migrations, share])
    print(format_table(
        ["placement", "unfairness", "STP", "ANTT", "migrations",
         "device share"],
        rows,
        title="Heterogeneous fleet ({} multi-tenant requests, load {})"
        .format(REQUESTS, LOAD)))


def closed_loop():
    spec = ExperimentSpec(
        scenario="multi-tenant",
        schemes=("baseline", "accelos"),
        loads=(1.5,),                  # past saturation: bursts queue
        seeds=(SEED,),
        count=REQUESTS,
        devices=(
            {"id": "fast", "base": "nvidia-k20m"},
            {"id": "slow", "base": "nvidia-k20m",
             "clock_scale": 0.4, "cu_scale": 0.5},
        ),
        placements=("least-loaded", "burst-aware"),
        metrics=("unfairness", "antt", "p99_slowdown"),
    )
    results = run(spec)
    rows = []
    for scheme in spec.schemes:
        for placement in spec.placements:
            result = results.get(scheme=scheme, placement=placement)
            rows.append([scheme, placement, result.overall.unfairness,
                         result.overall.antt, result.p99_slowdown])
    print(format_table(
        ["scheme", "placement", "unfairness", "ANTT", "p99 slowdown"],
        rows,
        title="Offline estimate vs closed-loop burst-aware placement "
              "(load 1.5)"))


def functional_plane():
    fleet = FleetRuntime([
        ("fast", nvidia_k20m()),
        ("slow", derated_device(nvidia_k20m(), "K20m-derated", 0.5)),
    ])
    n, wg = 1024, 256
    for app in ("app-a", "app-b", "app-c"):
        ctx = fleet.session(app)
        program = ctx.create_program(SAXPY).build()
        kernel = program.create_kernel("saxpy")
        queue = ctx.create_queue()
        x = ctx.create_buffer(T.FLOAT, n)
        y = ctx.create_buffer(T.FLOAT, n)
        x_host = np.linspace(0, 1, n, dtype=np.float32)
        y_host = np.ones(n, dtype=np.float32)
        queue.enqueue_write_buffer(x, x_host)
        queue.enqueue_write_buffer(y, y_host)
        kernel.set_args(x, y, 2.5)
        queue.enqueue_nd_range(kernel, NDRange((n,), (wg,)))
        queue.finish()
        result = queue.enqueue_read_buffer(y)
        assert np.allclose(result, 2.5 * x_host + y_host)
        print("{} placed on {!r}: results correct".format(
            app, fleet.device_of(app)))
    print("{} kernels executed across the fleet".format(
        len(fleet.launch_history)))


def main():
    evaluation_plane()
    print()
    closed_loop()
    print()
    functional_plane()


if __name__ == "__main__":
    main()
