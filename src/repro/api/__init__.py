"""The one front door: a declarative, serializable experiment surface.

The paper's evaluation is a grid — schemes x workloads x loads x devices.
This package turns that grid into data:

* :mod:`repro.api.schemes` — the :class:`SchedulingScheme` registry.  A
  scheme owns its execution logic (closed batches, the open-system
  device session, single-kernel studies); FIFO/exclusive baseline,
  Elastic Kernels and the paper's §3 system are pre-registered, and a scheme
  registered from user code runs through every harness, benchmark and
  report unchanged.
* :mod:`repro.api.placements` — the parallel placement registry for
  cross-device placement in fleet experiments: offline
  :class:`PlacementPolicy` estimates, closed-loop
  :class:`OnlinePlacementPolicy` policies (burst-aware, work-stealing)
  and the :data:`REBALANCERS` registry of cross-device re-balancers.
* :mod:`repro.api.devices` — named device models plus serializable
  derated variants for heterogeneous fleets.
* :mod:`repro.api.spec` — :class:`ExperimentSpec`, a frozen, eagerly
  validated description of one experiment grid with exact
  ``to_dict``/``from_dict``/JSON round-tripping.
* :mod:`repro.api.driver` — ``run(spec, workers=, cache_dir=)``: routes
  to single-device or fleet execution, yields incremental
  ``(cell, result)`` pairs via :func:`iter_runs`, and returns a
  :class:`ResultSet` with uniform tail/ANTT/STP/unfairness accessors
  plus ``to_json`` — optionally over a process pool (grid-order
  deterministic merge) and a content-addressed result cache
  (:mod:`repro.api.cache`).
* ``python -m repro.api.run spec.json`` — the command-line face of the
  same driver (:mod:`repro.api.run`).

Layering: everything here except the driver sits *below*
:mod:`repro.harness` (the harness dispatches through the registries);
the driver sits above it and imports it lazily.
"""

from repro.api.registry import Registry
from repro.api.kernels import (
    arrival_rate_for_load, base_spec, chunk_for_profile,
    fleet_arrival_rate_for_load, isolated_time, mean_isolated_service,
    requirements_from_spec, sharing_allocator, transform_chunks,
    warm_caches)
from repro.api.devices import (
    DEVICES, build_device, device_from_name, device_names, register_device)
from repro.api.placements import (
    PLACEMENTS, REBALANCERS, default_policies, is_online_placement,
    placement_from_name, placement_names, rebalancer_from_name,
    rebalancer_names, register_placement, register_rebalancer,
    unregister_rebalancer)
# note: the scheme registry object itself (repro.api.schemes.SCHEMES) is
# deliberately not re-exported — repro.harness.SCHEMES is the pinned
# builtin trio, and exporting a same-named registry here would invite
# silent mix-ups; use scheme_names()/register_scheme() instead.
from repro.api.schemes import (
    RequestRecord, SchedulingScheme, SteppedSession, closed_scheme_names,
    open_scheme_names, reference_scheme, register_scheme,
    scheme_from_name, scheme_names, unregister_scheme)
from repro.api.spec import Cell, DeviceEntry, ExperimentSpec
from repro.api.results import (METRICS, ResultSet, metric_names,
                               register_metric, unregister_metric)

from repro.api.cache import ResultCache, cell_key
from repro.api.driver import (build_stream, build_stream_iter,
                              iter_runs, run)

__all__ = [
    "Registry",
    "arrival_rate_for_load", "base_spec", "chunk_for_profile",
    "fleet_arrival_rate_for_load", "isolated_time", "mean_isolated_service",
    "requirements_from_spec", "sharing_allocator", "transform_chunks",
    "warm_caches",
    "DEVICES", "build_device", "device_from_name", "device_names",
    "register_device",
    "PLACEMENTS", "REBALANCERS", "default_policies",
    "is_online_placement", "placement_from_name", "placement_names",
    "rebalancer_from_name", "rebalancer_names", "register_placement",
    "register_rebalancer", "unregister_rebalancer",
    "RequestRecord", "SchedulingScheme", "SteppedSession",
    "closed_scheme_names",
    "open_scheme_names", "reference_scheme", "register_scheme",
    "scheme_from_name", "scheme_names", "unregister_scheme",
    "Cell", "DeviceEntry", "ExperimentSpec",
    "METRICS", "ResultSet", "metric_names", "register_metric",
    "unregister_metric",
    "ResultCache", "cell_key",
    "build_stream", "build_stream_iter", "iter_runs", "run",
]
