"""``ExperimentSpec``: the whole evaluation grid as one frozen value.

A spec names everything an experiment needs — schemes x scenario/seed/
load grid x fleet topology (heterogeneity included) x repetitions x
metric selection — using only registry names and plain numbers, so it
serializes exactly: ``from_dict(to_dict(spec)) == spec`` and
``to_json -> from_json -> to_json`` is bit-identical.  Validation is
eager and actionable: constructing a spec with an unknown scheme,
scenario, placement, device or metric name raises immediately, listing
the valid names, instead of failing mid-grid an hour into a run.

:class:`Cell` identifies one point of the grid — ``run(spec)`` yields
``(cell, result)`` pairs in deterministic grid order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Any, Dict, Mapping, Optional, Sequence, Union

from repro.api.devices import DEVICES
from repro.api.placements import (PLACEMENTS, REBALANCERS,
                                  check_placement_mode, is_online_placement)
from repro.api.results import ATTRIBUTION_METRICS, METRICS
from repro.api.schemes import BUILTIN_SCHEMES, SCHEMES
from repro.accelos.adaptive import SchedulingPolicy
from repro.errors import SimulationError
from repro.workloads.scenarios import SCENARIOS

DEFAULT_METRICS = ("antt", "stp", "unfairness", "mean_queueing_delay",
                   "p99_slowdown")
DEFAULT_PLACEMENT = "least-loaded"

_POLICIES = (SchedulingPolicy.ADAPTIVE, SchedulingPolicy.NAIVE)
_METRICS_MODES = ("exact", "streaming")


def _require(condition: object, message: str) -> None:
    if not condition:
        raise SimulationError(message)


def _known(name: object, registry_names: Sequence[str],
           kind: str) -> object:
    if name not in registry_names:
        raise SimulationError(
            "unknown {} {!r} (valid: {})".format(
                kind, name, ", ".join(registry_names)))
    return name


@dataclass(frozen=True)
class DeviceEntry:
    """One fleet member: a registered base model plus optional derating.

    ``clock_scale``/``cu_scale`` below 1 build a slower sibling named
    after ``id`` (mixed-generation fleets); both 1.0 means the stock
    base device.
    """

    id: str
    base: str = "nvidia-k20m"
    clock_scale: float = 1.0
    cu_scale: float = 1.0

    def __post_init__(self) -> None:
        _require(isinstance(self.id, str) and self.id,
                 "device entry ids must be non-empty strings")
        _known(self.base, DEVICES.names(), "device")
        for label, scale in (("clock_scale", self.clock_scale),
                             ("cu_scale", self.cu_scale)):
            _require(isinstance(scale, (int, float))
                     and not isinstance(scale, bool)
                     and 0.0 < float(scale) <= 1.0,
                     "device {} must be in (0, 1], got {!r}".format(
                         label, scale))
        object.__setattr__(self, "clock_scale", float(self.clock_scale))
        object.__setattr__(self, "cu_scale", float(self.cu_scale))

    def to_dict(self) -> Dict[str, Any]:
        return {"id": self.id, "base": self.base,
                "clock_scale": self.clock_scale, "cu_scale": self.cu_scale}

    @classmethod
    def from_dict(cls, data: Union[str, Mapping[str, Any]]) -> "DeviceEntry":
        if isinstance(data, str):  # shorthand: a bare base-model name
            return cls(id=data, base=data)
        _check_keys(data, ("id", "base", "clock_scale", "cu_scale"),
                    "device entry")
        _require("id" in data,
                 "device entry {!r} needs an 'id' (the fleet-unique "
                 "handle results are keyed by)".format(data))
        return cls(**data)


@dataclass(frozen=True)
class Cell:
    """One grid point: which scheme/placement ran which stream."""

    scheme: str
    load: float
    seed: int
    repetition: int = 0
    placement: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return {"scheme": self.scheme, "load": self.load, "seed": self.seed,
                "repetition": self.repetition, "placement": self.placement}

    def matches(self, **criteria: object) -> bool:
        """True when every given field equals this cell's value."""
        for key, value in criteria.items():
            if key not in ("scheme", "load", "seed", "repetition",
                           "placement"):
                raise SimulationError(
                    "unknown cell field {!r} (valid: scheme, load, seed, "
                    "repetition, placement)".format(key))
            if getattr(self, key) != value:
                return False
        return True


def _check_keys(data: object, valid: Sequence[str], what: str) -> None:
    _require(isinstance(data, dict),
             "{} must be a mapping, got {!r}".format(what,
                                                     type(data).__name__))
    unknown = [k for k in data if k not in valid]
    if unknown:
        raise SimulationError(
            "unknown {} key {!r} (valid: {})".format(
                what, unknown[0], ", ".join(valid)))


@dataclass(frozen=True)
class ExperimentSpec:
    """A declarative, serializable experiment: the grid, not the wiring.

    Single-device specs (one entry in ``devices``) route through
    :class:`~repro.harness.open_system.OpenSystemExperiment`; multi-device
    specs through the fleet path, one run per placement policy named in
    ``placements``.  ``placement_mode`` picks what placement sees —
    ``"auto"`` (offline policies route on the single-server backlog
    estimate, online policies on live state) or ``"online"`` (live state
    for every policy, adapting offline ones) — and ``rebalance`` names a
    registered re-balancer (``"none"`` to disable) wrapped around every
    placement, which requires live-state placement.  Streams come from
    the named traffic ``scenario`` at each offered ``load``;
    ``repetitions`` replays each grid point with
    derived per-repetition stream seeds (repetition 0 uses the seed
    verbatim, so a one-repetition spec reproduces historical streams
    bit-for-bit).

    ``metrics_mode`` picks the evaluation plane: ``"exact"`` (default)
    materialises every request record and computes metrics from the full
    population — the golden-checked path — while ``"streaming"`` feeds
    arrivals lazily through online sketches
    (:mod:`repro.metrics.sketches`) in bounded memory: counts, means,
    maxima and ANTT/STP/unfairness are exact up to summation order, and
    percentile metrics are exact up to 256 requests and within 1%
    relative of the exact ones beyond.

    ``attribution`` attaches a per-tenant accounting ledger
    (:class:`repro.attribution.AttributionLedger`) to every cell: each
    result gains an ``attribution`` fairness-audit report and the
    attribution metrics (``tenant_occupancy``, ``induced_delay_matrix``,
    ``attribution_summary``) become selectable.  Off by default — an
    unattributed run takes exactly the historical code paths, so its
    results stay bit-identical.
    """

    scenario: str = "steady"
    schemes: tuple[str, ...] = BUILTIN_SCHEMES
    loads: tuple[float, ...] = (1.0,)
    seeds: tuple[int, ...] = (0,)
    count: int = 32
    repetitions: int = 1
    devices: tuple[DeviceEntry, ...] = (
        DeviceEntry(id="device-0", base="nvidia-k20m"),)
    placements: tuple[str, ...] = ()
    placement_mode: str = "auto"
    rebalance: str = "none"
    metrics: tuple[str, ...] = DEFAULT_METRICS
    metrics_mode: str = "exact"
    policy: str = SchedulingPolicy.ADAPTIVE
    saturate: bool = True
    attribution: bool = False

    def __post_init__(self) -> None:
        _known(self.scenario, tuple(sorted(SCENARIOS)), "scenario")

        schemes = _as_tuple(self.schemes, "schemes")
        _require(schemes, "a spec needs at least one scheme")
        for name in schemes:
            _known(name, SCHEMES.names(), "scheme")
        _require(len(set(schemes)) == len(schemes),
                 "duplicate scheme names in {}".format(list(schemes)))
        object.__setattr__(self, "schemes", schemes)

        loads = _as_tuple(self.loads, "loads")
        _require(loads, "a spec needs at least one offered load")
        for load in loads:
            _require(isinstance(load, (int, float)) and float(load) > 0,
                     "offered loads must be positive numbers, got "
                     "{!r}".format(load))
        loads = tuple(float(l) for l in loads)
        _require(len(set(loads)) == len(loads),
                 "duplicate loads in {} (identical grid cells would make "
                 "result selection ambiguous)".format(list(loads)))
        object.__setattr__(self, "loads", loads)

        seeds = _as_tuple(self.seeds, "seeds")
        _require(seeds, "a spec needs at least one seed")
        for seed in seeds:
            _require(isinstance(seed, int) and not isinstance(seed, bool),
                     "seeds must be integers, got {!r}".format(seed))
        _require(len(set(seeds)) == len(seeds),
                 "duplicate seeds in {} (identical grid cells would make "
                 "result selection ambiguous)".format(list(seeds)))
        object.__setattr__(self, "seeds", seeds)

        _require(isinstance(self.count, int) and self.count > 0,
                 "count must be a positive integer, got {!r}".format(
                     self.count))
        _require(isinstance(self.repetitions, int) and self.repetitions >= 1,
                 "repetitions must be a positive integer, got {!r}".format(
                     self.repetitions))

        devices = _as_tuple(self.devices, "devices")
        _require(devices, "a spec needs at least one device")
        entries = tuple(
            e if isinstance(e, DeviceEntry) else DeviceEntry.from_dict(e)
            for e in devices)
        ids = [e.id for e in entries]
        _require(len(set(ids)) == len(ids),
                 "fleet device ids must be unique, got {}".format(ids))
        object.__setattr__(self, "devices", entries)

        placements = _as_tuple(self.placements, "placements")
        if len(entries) == 1:
            _require(not placements,
                     "placements only apply to multi-device fleets; drop "
                     "them or add devices")
        else:
            if not placements:
                placements = (DEFAULT_PLACEMENT,)
            for name in placements:
                _known(name, PLACEMENTS.names(), "placement")
            _require(len(set(placements)) == len(placements),
                     "duplicate placement names in {}".format(
                         list(placements)))
        object.__setattr__(self, "placements", placements)

        check_placement_mode(self.placement_mode)
        _require(isinstance(self.rebalance, str),
                 "rebalance must be a re-balancer name or 'none', got "
                 "{!r}".format(self.rebalance))
        if self.rebalance != "none":
            _known(self.rebalance, ("none",) + tuple(REBALANCERS.names()),
                   "re-balancer")
        if len(entries) == 1:
            _require(self.placement_mode == "auto",
                     "placement_mode only applies to multi-device fleets; "
                     "drop it or add devices")
            _require(self.rebalance == "none",
                     "rebalance only applies to multi-device fleets; drop "
                     "it or add devices")
        elif self.rebalance != "none" and self.placement_mode == "auto":
            for name in placements:
                _require(is_online_placement(name),
                         "rebalance {!r} needs live-state placement: "
                         "placement {!r} is offline — set placement_mode "
                         "'online' (or use online placements only)".format(
                             self.rebalance, name))

        metrics = _as_tuple(self.metrics, "metrics")
        _require(metrics, "a spec needs at least one metric")
        for name in metrics:
            _known(name, METRICS.names(), "metric")
        _require(len(set(metrics)) == len(metrics),
                 "duplicate metric names in {}".format(list(metrics)))
        object.__setattr__(self, "metrics", metrics)

        _known(self.metrics_mode, _METRICS_MODES, "metrics mode")

        _known(self.policy, _POLICIES, "scheduling policy")
        _require(isinstance(self.saturate, bool),
                 "saturate must be a boolean, got {!r}".format(self.saturate))

        _require(isinstance(self.attribution, bool),
                 "attribution must be a boolean, got {!r}".format(
                     self.attribution))
        if not self.attribution:
            selected = [n for n in metrics if n in ATTRIBUTION_METRICS]
            _require(not selected,
                     "metric {!r} needs the attribution plane; set "
                     "attribution: true".format(
                         selected[0] if selected else None))

    # -- derived shape -------------------------------------------------------

    @property
    def is_fleet(self) -> bool:
        return len(self.devices) > 1

    def cell_count(self) -> int:
        """How many ``(cell, result)`` pairs ``run`` will yield."""
        per_stream = len(self.schemes) * max(1, len(self.placements))
        return (len(self.loads) * len(self.seeds) * self.repetitions
                * per_stream)

    def cell_inputs(self) -> Dict[str, Any]:
        """The spec fields that determine one grid cell's *simulation* —
        the spec half of the result-cache key
        (:func:`repro.api.cache.cell_key`).

        ``metrics`` is deliberately excluded: it selects what a report
        prints, not what a cell computes, so two specs differing only in
        metric selection share cache entries.  The grid axes
        (``schemes``/``loads``/``seeds``/``repetitions``/``placements``)
        are excluded too — the cell itself carries its own point on
        each axis.
        """
        return {
            "scenario": self.scenario,
            "count": self.count,
            "devices": [e.to_dict() for e in self.devices],
            "placement_mode": self.placement_mode,
            "rebalance": self.rebalance,
            "metrics_mode": self.metrics_mode,
            "policy": self.policy,
            "saturate": self.saturate,
            # attribution changes what a cell *computes* (results carry
            # the audit report), so attributed and plain runs must not
            # share cache entries
            "attribution": self.attribution,
        }

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """The canonical plain-data form (lists, numbers, strings)."""
        return {
            "scenario": self.scenario,
            "schemes": list(self.schemes),
            "loads": list(self.loads),
            "seeds": list(self.seeds),
            "count": self.count,
            "repetitions": self.repetitions,
            "devices": [e.to_dict() for e in self.devices],
            "placements": list(self.placements),
            "placement_mode": self.placement_mode,
            "rebalance": self.rebalance,
            "metrics": list(self.metrics),
            "metrics_mode": self.metrics_mode,
            "policy": self.policy,
            "saturate": self.saturate,
            "attribution": self.attribution,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        valid = tuple(f.name for f in fields(cls))
        _check_keys(data, valid, "experiment spec")
        kwargs = dict(data)
        for key in ("schemes", "loads", "seeds", "placements", "metrics",
                    "devices"):
            if key in kwargs and isinstance(kwargs[key], list):
                kwargs[key] = tuple(kwargs[key])
        return cls(**kwargs)

    def to_json(self) -> str:
        """Deterministic JSON (sorted keys, shortest-round-trip floats):
        the exact inverse of :meth:`from_json`."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise SimulationError(
                "experiment spec is not valid JSON: {}".format(exc))
        return cls.from_dict(data)


def _as_tuple(value: object, what: str) -> tuple[Any, ...]:
    if isinstance(value, (str, bytes)):
        raise SimulationError(
            "{} must be a sequence of values, not a bare string "
            "{!r}".format(what, value))
    try:
        return tuple(value)
    except TypeError:
        raise SimulationError(
            "{} must be a sequence, got {!r}".format(what, value))
