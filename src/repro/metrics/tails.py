"""Tail-latency statistics for open-system request populations.

Mean-based metrics (ANTT, STP) hide exactly the requests a production
deployment is judged on: the slowest few percent.  This module adds exact
percentile reporting — p50/p95/p99 of per-request slowdown and queueing
delay, the max/mean ratio, and a per-tenant breakdown — computed over the
request records of one open-system run.

Percentile definition
---------------------

:func:`percentile` uses the *linear interpolation* convention (numpy's
default, type 7 in Hyndman & Fan): for ``n`` sorted values the ``q``-th
percentile sits at fractional rank ``(n - 1) * q / 100`` and interpolates
linearly between the neighbouring order statistics.  A single value is
every percentile of itself; ties collapse naturally (interpolating between
two equal values).  The implementation is pure Python over sorted floats,
so results are bit-reproducible across platforms and numpy versions.
"""

from __future__ import annotations

import math
from typing import (Any, Callable, Dict, Iterable, List, Optional,
                    Protocol, Sequence, Tuple)


def _checked_sorted(values: Iterable[float]) -> List[float]:
    ordered = sorted(float(v) for v in values)
    if not ordered:
        raise ValueError("need at least one value")
    # NaN compares false against everything, so sorting leaves it wherever
    # it started — scan the whole population, not just the extremes
    if any(math.isnan(v) for v in ordered):
        raise ValueError("values must not contain NaN")
    return ordered


class _Ranked(Protocol):
    """What a percentile reads: a population's length and its values
    in ascending order by 0-based rank (a sorted list, or a sketch's
    bucket estimates)."""

    def __len__(self) -> int: ...

    def __getitem__(self, rank: int, /) -> float: ...


def _percentile_of_sorted(ordered: _Ranked, q: float) -> float:
    if not 0.0 <= q <= 100.0:
        raise ValueError("percentile must be in [0, 100]")
    rank = (len(ordered) - 1) * q / 100.0
    lower = int(math.floor(rank))
    upper = int(math.ceil(rank))
    if lower == upper:
        return ordered[lower]
    fraction = rank - lower
    return ordered[lower] * (1.0 - fraction) + ordered[upper] * fraction


def percentile(values: Iterable[float], q: float) -> float:
    """Exact ``q``-th percentile (0..100) by linear interpolation."""
    return _percentile_of_sorted(_checked_sorted(values), q)


class TailSummary:
    """Percentile summary of one non-empty value population.

    Built from its fields: :func:`tail_summary` computes them exactly
    over a population, :meth:`repro.metrics.sketches.TailSketch.summary`
    from a streaming sketch.
    """

    __slots__ = ("count", "mean", "p50", "p95", "p99", "max")

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    max: float

    def __init__(self, count: int, mean: float, p50: float, p95: float,
                 p99: float, max_value: float) -> None:
        self.count = count
        self.mean = mean
        self.p50 = p50
        self.p95 = p95
        self.p99 = p99
        self.max = max_value

    @property
    def max_over_mean(self) -> float:
        """How far the worst request sits above the average (>= 1 for
        positive populations) — the 'one user had a terrible day' ratio."""
        if self.mean == 0:
            return 1.0 if self.max == 0 else math.inf
        return self.max / self.mean

    def as_dict(self) -> Dict[str, float]:
        """Plain-float dict (stable key order) for JSON reports."""
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "max": self.max,
            "max_over_mean": self.max_over_mean,
        }

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, TailSummary)
                and self.as_dict() == other.as_dict())

    def __repr__(self) -> str:
        return ("<TailSummary n={} p50={:.3f} p95={:.3f} p99={:.3f} "
                "max={:.3f}>".format(self.count, self.p50, self.p95,
                                     self.p99, self.max))


def tail_summary(values: Iterable[float]) -> TailSummary:
    """Exact :class:`TailSummary` over a value population."""
    ordered = _checked_sorted(values)
    return TailSummary(len(ordered), sum(ordered) / len(ordered),
                       _percentile_of_sorted(ordered, 50.0),
                       _percentile_of_sorted(ordered, 95.0),
                       _percentile_of_sorted(ordered, 99.0), ordered[-1])


def per_tenant_tails(
        records: Iterable[Any],
        value: Callable[[Any], float] = lambda r: r.slowdown,
) -> Dict[Optional[str], TailSummary]:
    """Per-tenant :class:`TailSummary` split of one record population.

    Untagged records (``tenant is None``) are grouped under ``None`` —
    single-tenant streams get exactly one entry.  ``value`` extracts the
    measured quantity (default: per-request slowdown).
    """
    by_tenant: Dict[Optional[str], List[float]] = {}
    for record in records:
        by_tenant.setdefault(record.tenant, []).append(value(record))
    return {tenant: tail_summary(values)
            for tenant, values in sorted(
                by_tenant.items(),
                key=lambda kv: (kv[0] is not None, str(kv[0])))}


def request_tails(
        records: Sequence[Any],
) -> Tuple[TailSummary, TailSummary, Dict[Optional[str], TailSummary]]:
    """Slowdown and queueing-delay tails of one record population.

    Returns ``(slowdown_tails, queueing_tails, tenant_slowdown_tails)`` —
    the triple :class:`repro.harness.open_system.OpenSystemResult` exposes.
    """
    slowdowns = [r.slowdown for r in records]
    queueing = [r.queueing_delay for r in records]
    return (tail_summary(slowdowns), tail_summary(queueing),
            per_tenant_tails(records))
