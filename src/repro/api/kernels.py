"""Kernel-spec and calibration primitives shared by schemes and harness.

These helpers are the layer *below* both the scheme registry and the
harness — pure functions (plus caches) from the corpus profiles and
device models to simulator inputs:

* :func:`base_spec` / :func:`detailed_spec` — a corpus kernel's
  :class:`~repro.sim.spec.KernelExecSpec` (coarse sweep granularity, or
  the fine granularity single-kernel studies need);
* :func:`isolated_table` / :func:`isolated_time` — the standard-OpenCL
  isolated execution time, the ``IS`` denominator of every slowdown in
  the repo, from one process-wide table per device value;
* :func:`transform_chunks` / :func:`chunk_for_profile` — the §6.4
  dequeue chunk actually chosen by the JIT over the real kernel;
* :func:`requirements_from_spec` / :func:`sharing_allocator` — the §3
  sharing algorithm's inputs and its ``run_open`` callback form;
* :func:`mean_isolated_service` and the two ``arrival_rate_for_load``
  calibrations built on it (single device and fleet — the fleet variant
  delegates to the per-device one, it never re-derives the math), plus
  :func:`mix_arrival_rate`, the one step from a scenario's kernel mix to
  its rate that both the scenario engine and the spec driver take.
"""

from __future__ import annotations

import numpy as np

from repro.accelos.adaptive import SchedulingPolicy
from repro.accelos.sharing import AllocationMemo, KernelRequirements
from repro.accelos.transform import AccelOSTransform
from repro.errors import SimulationError
from repro.sim import GPUSimulator
from repro.workloads.parboil import (PROFILE_NAMES, compiled_module,
                                     profile_by_name)

_spec_cache = {}
_isolated_tables = {}
_chunk_cache = {}
_detail_cache = {}

# Virtual-group granularity for single-kernel studies: real Parboil grids
# have far more work groups than the device holds resident; the coarse
# profile granularity (scale 1) keeps sweeps tractable but under-resolves
# the §6.4 chunking trade-off (see docs/PAPER_MAPPING.md, deviations).
SINGLE_KERNEL_DETAIL = 1


def base_spec(name):
    """One corpus kernel's simulator spec at sweep granularity (cached)."""
    spec = _spec_cache.get(name)
    if spec is None:
        spec = profile_by_name(name).exec_spec()
        _spec_cache[name] = spec
    return spec


def detailed_spec(name):
    """The fine-granularity spec single-kernel studies run on (cached)."""
    spec = _detail_cache.get(name)
    if spec is None:
        spec = profile_by_name(name).exec_spec(
            detail_scale=SINGLE_KERNEL_DETAIL)
        _detail_cache[name] = spec
    return spec


def transform_chunks(benchmark, policy=SchedulingPolicy.ADAPTIVE):
    """Run the real JIT over a benchmark module; returns {kernel: chunk}."""
    key = (benchmark, policy)
    chunks = _chunk_cache.get(key)
    if chunks is None:
        module = compiled_module(benchmark)
        _, infos = AccelOSTransform(policy=policy).run(module)
        chunks = {name: info.chunk for name, info in infos.items()}
        _chunk_cache[key] = chunks
    return chunks


def chunk_for_profile(profile, policy=SchedulingPolicy.ADAPTIVE):
    """The §6.4 dequeue chunk of one corpus kernel under ``policy``."""
    if policy == SchedulingPolicy.NAIVE:
        return 1
    return transform_chunks(profile.benchmark, policy)[profile.kernel]


class IsolatedTable(dict):
    """``kernel name -> isolated seconds``, each entry filled on first
    lookup by ``compute(name)``.  Membership tests (``in``) never
    compute."""

    __slots__ = ("_compute",)

    def __init__(self, compute):
        super().__init__()
        self._compute = compute

    def __missing__(self, name):
        value = self[name] = self._compute(name)
        return value


def isolated_table(device):
    """The isolated-time table of one device, shared process-wide.

    Keyed on the frozen device *value*, never its display name: equal
    specs share one table, and two same-named devices with different
    specs (say, differently derated siblings) get two.
    """
    table = _isolated_tables.get(device)
    if table is None:
        table = _isolated_tables[device] = IsolatedTable(
            lambda name: GPUSimulator(device).run(
                [base_spec(name)]).makespan)
    return table


def isolated_time(name, device):
    """Isolated standard-OpenCL execution time — the IS denominator."""
    return isolated_table(device)[name]


def warm_caches(spec=None, devices=None, names=None, policy=None):
    """Pre-populate the module-level calibration caches.

    The parallel driver's per-process warm-up: under a ``spawn`` start
    method a worker process begins with empty ``_spec_cache``/
    ``_chunk_cache`` and isolated-time tables (under ``fork`` it inherits
    whatever the parent warmed), and every fill that happens lazily
    inside a cell would otherwise repeat per process.  Given a ``spec``,
    warms exactly what its grid touches: the scenario mix's kernel
    specs, their §6.4 chunks under the spec's policy, and the isolated
    time of every (kernel, device) pair.  Without a spec, warms the
    explicit ``names``/``devices``/``policy`` (defaults: whole corpus, no
    devices, adaptive).  Returns the cache sizes after warming.
    """
    if spec is not None:
        # lazy: devices/scenarios sit above this calibration layer
        from repro.api.devices import build_device
        from repro.workloads.scenarios import scenario
        if devices is None:
            devices = [build_device(entry) for entry in spec.devices]
        if names is None:
            names = list(scenario(spec.scenario).mix_weights())
        if policy is None:
            policy = spec.policy
    if names is None:
        names = list(PROFILE_NAMES)
    if policy is None:
        policy = SchedulingPolicy.ADAPTIVE
    for name in names:
        base_spec(name)
        chunk_for_profile(profile_by_name(name), policy)
    for device in devices or ():
        for name in names:
            isolated_time(name, device)
    return {"specs": len(_spec_cache),
            "isolated": sum(map(len, _isolated_tables.values())),
            "chunks": len(_chunk_cache)}


def requirements_from_spec(spec):
    """The §3 inputs of one simulator spec (resource demands per WG)."""
    return KernelRequirements(
        name=spec.name, wg_threads=spec.wg_threads,
        local_mem_bytes=spec.local_mem_per_wg,
        registers_per_thread=spec.registers_per_thread,
        total_groups=spec.total_groups)


def sharing_allocator(device, saturate=True):
    """An allocator callback for :meth:`GPUSimulator.run_open`.

    Wraps the §3 sharing algorithm: given the specs of the currently-active
    kernels, returns their physical-group targets.  Repeats of an active
    multiset are answered by an order-insensitive
    :class:`~repro.accelos.sharing.AllocationMemo` (the same targets as a
    fresh computation, see docs/PERFORMANCE.md), exposed as
    ``allocate.memo`` for hit/miss instrumentation.
    """
    memo_obj = AllocationMemo(device, saturate=saturate)

    def allocate(specs):
        # spec fields are already int-coerced, so these tuples equal the
        # requirement_key() of requirements_from_spec(s)
        return memo_obj.groups_for_keyed(
            [(s.name, s.wg_threads, s.local_mem_per_wg,
              s.registers_per_thread, s.total_groups) for s in specs],
            None)

    allocate.memo = memo_obj
    return allocate


# -- offered-load calibration -------------------------------------------------

def mean_isolated_service(device, names=None, weights=None):
    """``E[S]``: mean isolated service time of a kernel mix on ``device``.

    ``weights`` optionally gives the mix's per-kernel selection
    probabilities (normalised here) — the scenario engine passes its
    effective mix so weighted traffic offers the load it claims; ``None``
    means a uniform mix over ``names`` (default: the whole corpus).
    This is the one calibration both :func:`arrival_rate_for_load` and
    :func:`fleet_arrival_rate_for_load` are built on.
    """
    pool = list(names) if names is not None else list(PROFILE_NAMES)
    if weights is None:
        return float(np.mean([isolated_time(n, device) for n in pool]))
    if len(weights) != len(pool):
        raise SimulationError(
            "need one weight per kernel name ({} != {})".format(
                len(weights), len(pool)))
    total = float(sum(weights))
    if total <= 0 or any(w < 0 for w in weights):
        raise SimulationError("weights must be non-negative with a "
                              "positive sum")
    return sum((w / total) * isolated_time(n, device)
               for n, w in zip(pool, weights))


def arrival_rate_for_load(load, device, names=None, weights=None):
    """The arrival rate (requests/s) producing offered load ``load``.

    Offered load is ``rho = lambda * E[S]`` with ``E[S]`` from
    :func:`mean_isolated_service`; ``rho = 1`` saturates a server that
    runs requests back to back with no sharing.
    """
    if load <= 0:
        raise SimulationError("offered load must be positive")
    return load / mean_isolated_service(device, names=names, weights=weights)


def fleet_arrival_rate_for_load(load, fleet, names=None, weights=None):
    """The arrival rate offering ``load`` to a whole fleet.

    The fleet's service capacity is the sum of the per-device rates
    ``1 / E[S_d]`` (each device as one server working through isolated
    service times of the kernel mix) — the same per-device calibration as
    :func:`arrival_rate_for_load`, summed; ``load = 1`` saturates the
    fleet when placement is perfect.
    """
    if load <= 0:
        raise SimulationError("offered load must be positive")
    capacity = sum(
        1.0 / mean_isolated_service(member.device, names=names,
                                    weights=weights)
        for member in fleet)
    return load * capacity


def mix_arrival_rate(load, mix, device=None, fleet=None):
    """The arrival rate offering ``load`` under a scenario's effective
    kernel mix ``{name: weight}`` (``TrafficScenario.mix_weights()``):
    to the whole ``fleet`` when one is given, else to ``device``."""
    names, weights = list(mix), list(mix.values())
    if fleet is not None:
        return fleet_arrival_rate_for_load(load, fleet, names=names,
                                           weights=weights)
    return arrival_rate_for_load(load, device, names=names, weights=weights)
