"""Record sinks: what every open-system run reduces its records with.

An open-system run (:mod:`repro.harness.open_system`) hands each
finished request's :class:`~repro.api.schemes.RequestRecord` to one or
more *record sinks*, and every result is built from a sink's
:meth:`~RecordSink.reduce`.  Two sinks ship:

* :class:`ExactRecordSink` keeps every record and reduces with the
  exact metric functions (:mod:`repro.metrics.tails` percentiles over
  the full sorted population) — O(n) memory;
* :class:`StreamingRecordSink` keeps bounded state: online accumulators
  (:class:`OnlineStats`) for the moments that are exactly computable
  one value at a time, and the P² algorithm (Jain & Chlamtac, CACM
  1985) for quantiles, five markers per quantile in O(1) memory
  (``metrics_mode="streaming"`` in the declarative API).

Sink contract
-------------

Exact runs fill :class:`ExactRecordSink` in stream-position order.  A
streaming run fills the sinks its ``sink_factory`` makes
(:class:`StreamingRecordSink` by default) in completion-harvest order;
a custom factory returns a fresh object with:

* ``observe(record)`` — absorb one record;
* ``count`` — the number of records observed so far;
* ``reduce()`` — a :class:`SinkMetrics` over everything observed, called
  once after the run, and only when ``count`` is positive.

Accuracy contract
-----------------

* ``count``, ``mean``, ``max``, ``min``, sums (ANTT, STP, makespan) are
  *exact* up to float summation order — the streaming sink accumulates
  in completion order, the exact sink in submission order, so the two
  agree to ~1e-12 relative, not bit-for-bit.
* Quantiles of populations up to ``P2_WARMUP`` (256) observations are
  **exact**: the sketch buffers the warm-up values (a fixed constant,
  so memory stays O(1)) and interpolates them with the same
  linear-interpolation convention as :func:`repro.metrics.tails`.
* Quantiles with n > ``P2_WARMUP`` are P² estimates, warm-started from
  the exact quantiles of the buffer.  The documented tolerance —
  enforced by ``tests/test_sketches.py`` — is a *rank window*: the
  estimate of quantile ``q`` lies within the exact value band of ranks
  ``q ± P2_RANK_TOLERANCE`` percentile points, extended outward to the
  nearest *distinct observed values* (P² interpolates between marker
  heights, so on heavily tied populations the estimate can land
  strictly between two tied groups — it never escapes the adjacent
  distinct values), widened by ``P2_RELATIVE_SLACK`` relative.
  Constant populations are exact (all five markers collapse to the
  constant).

Determinism
-----------

Sketch state is a pure function of the observation *sequence*: pure
Python floats, no randomness, no dict-order dependence.  Feeding the
same values in the same order reproduces the state bit-for-bit (see
``docs/DETERMINISM.md``); the harness feeds a streaming sink in
completion-harvest order, which the simulator makes deterministic.

NaN handling matches ``tails._checked_sorted`` exactly: observing a NaN
raises ``ValueError("values must not contain NaN")``.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, NamedTuple, Optional, Protocol

import numpy as np

from repro.metrics.antt import antt
from repro.metrics.fairness import individual_slowdowns, system_unfairness
from repro.metrics.tails import (TailSummary, _percentile_of_sorted,
                                 request_tails)
from repro.metrics.throughput import stp

# documented quantile tolerance (see module docstring and
# tests/test_sketches.py): rank window in percentile points, plus a
# relative widening of the band
P2_RANK_TOLERANCE = 5.0
P2_RELATIVE_SLACK = 0.05

# observations buffered (and answered exactly) before the sketch
# switches to P² markers — a fixed constant, so memory stays O(1).
# Pure P² is poor below a few hundred observations: the interior
# markers start at the first five values and migrate toward the target
# rank one step per observation, so an extreme quantile (p99) of a
# small population is answered from wherever the median marker happens
# to sit.  Warm-starting from the exact quantiles of a 256-value buffer
# removes that regime entirely.
P2_WARMUP = 256


def _check_value(value: float) -> float:
    value = float(value)
    if math.isnan(value):
        # identical type and message to tails._checked_sorted, so the
        # streaming path rejects bad populations exactly like the exact
        # path
        raise ValueError("values must not contain NaN")
    return value


class OnlineStats:
    """Exact online count/sum/mean/min/max accumulator."""

    __slots__ = ("count", "total", "min", "max")

    count: int
    total: float
    min: float
    max: float

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        value = _check_value(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        if self.count == 0:
            raise ValueError("need at least one value")
        return self.total / self.count


class P2Quantile:
    """P² single-quantile estimator (Jain & Chlamtac 1985).

    Five markers track the running estimate of one quantile ``q``
    (0 < q < 100) in O(1) memory.  The first ``P2_WARMUP`` observations
    are buffered and answered as the *exact* linear-interpolation
    percentile (``tails`` convention); beyond that the buffer collapses
    into markers warm-started from its exact quantiles, so small
    populations are never approximated and the P² regime starts from an
    exact state.
    """

    __slots__ = ("q", "_p", "_heights", "_positions", "_desired",
                 "_increments", "count")

    q: float
    _p: float
    _heights: List[float]
    _positions: List[float]
    _desired: List[float]
    _increments: List[float]
    count: int

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 100.0:
            raise ValueError("P2 quantile must be in (0, 100)")
        self.q = float(q)
        self._p = self.q / 100.0
        self._heights = []
        self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0, 1.0 + 2.0 * self._p, 1.0 + 4.0 * self._p,
                         3.0 + 2.0 * self._p, 5.0]
        self._increments = [0.0, self._p / 2.0, self._p,
                            (1.0 + self._p) / 2.0, 1.0]
        self.count = 0

    def observe(self, value: float) -> None:
        value = _check_value(value)
        self.count += 1
        if self.count <= P2_WARMUP:
            self._heights.append(value)
            return
        if self.count == P2_WARMUP + 1:
            self._init_markers()
        h = self._heights
        # locate the cell and clamp the extreme markers
        if value < h[0]:
            h[0] = value
            cell = 0
        elif value >= h[4]:
            h[4] = value
            cell = 3
        else:
            cell = 0
            while value >= h[cell + 1]:
                cell += 1
        for i in range(cell + 1, 5):
            self._positions[i] += 1.0
        for i in range(5):
            self._desired[i] += self._increments[i]
        # adjust the three interior markers towards their desired ranks
        for i in range(1, 4):
            delta = self._desired[i] - self._positions[i]
            below = self._positions[i] - self._positions[i - 1]
            above = self._positions[i + 1] - self._positions[i]
            if (delta >= 1.0 and above > 1.0) or (delta <= -1.0
                                                  and below > 1.0):
                step = 1.0 if delta >= 1.0 else -1.0
                candidate = self._parabolic(i, step)
                if h[i - 1] < candidate < h[i + 1]:
                    h[i] = candidate
                else:
                    h[i] = self._linear(i, step)
                self._positions[i] += step
        return

    def _init_markers(self) -> None:
        """Collapse the warm-up buffer into five P² markers placed at
        the positions the classic algorithm would have reached after
        ``P2_WARMUP`` observations, with heights read off the *exact*
        quantiles of the buffer — so the estimate is exact at the
        switchover and P² only accumulates drift beyond it."""
        ordered = sorted(self._heights)
        n, p = float(P2_WARMUP), self._p
        self._desired = [1.0,
                         1.0 + 2.0 * p + (n - 5.0) * p / 2.0,
                         1.0 + 4.0 * p + (n - 5.0) * p,
                         3.0 + 2.0 * p + (n - 5.0) * (1.0 + p) / 2.0,
                         n]
        positions = [1.0]
        for i in (1, 2, 3):
            rank = min(max(round(self._desired[i]), positions[-1] + 1),
                       n - (4 - i))
            positions.append(float(rank))
        positions.append(n)
        self._positions = positions
        self._heights = [
            _percentile_of_sorted(ordered,
                                  (pos - 1.0) / (n - 1.0) * 100.0)
            for pos in positions
        ]

    def _parabolic(self, i: int, step: float) -> float:
        h, n = self._heights, self._positions
        return h[i] + step / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + step) * (h[i + 1] - h[i])
            / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - step) * (h[i] - h[i - 1])
            / (n[i] - n[i - 1]))

    def _linear(self, i: int, step: float) -> float:
        h, n = self._heights, self._positions
        j = i + int(step)
        return h[i] + step * (h[j] - h[i]) / (n[j] - n[i])

    def value(self) -> float:
        """The current quantile estimate (exact for
        count <= ``P2_WARMUP``)."""
        if self.count == 0:
            raise ValueError("need at least one value")
        if self.count <= P2_WARMUP:
            # the stored values ARE the population: answer exactly
            return _percentile_of_sorted(sorted(self._heights), self.q)
        return self._heights[2]

    def state(self) -> Dict[str, Any]:
        """Plain-data sketch state — equal states are bit-equal
        (determinism tests compare these)."""
        return {
            "q": self.q,
            "count": self.count,
            "heights": list(self._heights),
            "positions": list(self._positions),
            "desired": list(self._desired),
        }


class TailSketch:
    """Streaming :func:`repro.metrics.tails.tail_summary`: online
    count/mean/max plus P² p50/p95/p99 over one value population."""

    __slots__ = ("stats", "_quantiles")

    stats: OnlineStats
    _quantiles: Dict[float, P2Quantile]

    def __init__(self) -> None:
        self.stats = OnlineStats()
        self._quantiles = {q: P2Quantile(q) for q in (50.0, 95.0, 99.0)}

    def observe(self, value: float) -> None:
        value = _check_value(value)
        self.stats.observe(value)
        for sketch in self._quantiles.values():
            sketch.observe(value)

    @property
    def count(self) -> int:
        return self.stats.count

    def summary(self) -> TailSummary:
        """The :class:`TailSummary` of everything observed; the
        percentile fields are P² estimates past ``P2_WARMUP`` values."""
        if self.stats.count == 0:
            raise ValueError("need at least one value")
        return TailSummary(
            count=self.stats.count,
            mean=self.stats.mean,
            p50=self._quantiles[50.0].value(),
            p95=self._quantiles[95.0].value(),
            p99=self._quantiles[99.0].value(),
            max_value=self.stats.max,
        )


class SinkMetrics(NamedTuple):
    """What a record sink reduces to: every metric of an
    :class:`~repro.harness.open_system.OpenSystemResult`, which copies
    these fields.  ``records`` and ``slowdowns`` are the retained
    population (``None`` from a bounded-memory sink)."""

    count: int
    records: Optional[List[Any]]
    slowdowns: Optional[List[float]]
    unfairness: float
    antt: float
    stp: float
    mean_turnaround: float
    mean_queueing_delay: float
    makespan: float
    slowdown_tails: TailSummary
    queueing_tails: TailSummary
    tenant_slowdown_tails: Dict[Optional[str], TailSummary]


class RecordSink(Protocol):
    """The sink contract (see the module docstring)."""

    @property
    def count(self) -> int:
        """Records observed so far."""

    def observe(self, record: Any) -> None:
        """Absorb one completed :class:`~repro.api.schemes.RequestRecord`."""

    def reduce(self) -> SinkMetrics:
        """Every result metric over the observed records."""


class ExactRecordSink:
    """Keeps every record and reduces them with the exact metric
    functions: percentiles over the full sorted population, sums in
    observation order."""

    __slots__ = ("records",)

    records: List[Any]

    def __init__(self) -> None:
        self.records = []

    @property
    def count(self) -> int:
        return len(self.records)

    def observe(self, record: Any) -> None:
        self.records.append(record)

    def reduce(self) -> SinkMetrics:
        records = self.records
        turnarounds = [r.turnaround for r in records]
        slowdowns = individual_slowdowns(turnarounds,
                                         [r.isolated for r in records])
        return SinkMetrics(
            len(records), records, slowdowns, system_unfairness(slowdowns),
            antt(slowdowns), stp(slowdowns), float(np.mean(turnarounds)),
            float(np.mean([r.queueing_delay for r in records])),
            max(r.finish for r in records), *request_tails(records))


class StreamingRecordSink:
    """Bounded-memory sink: every headline metric of an open-system
    result, accumulated online.

    Tracks the slowdown and queueing-delay tail sketches (overall and
    per tenant), the turnaround mean, the STP sum (sum of inverse
    slowdowns), and the makespan (max finish) — O(#tenants) memory
    regardless of request count.
    """

    __slots__ = ("slowdown", "queueing", "turnaround", "finish",
                 "tenant_slowdown", "inverse_slowdown_sum")

    slowdown: TailSketch
    queueing: TailSketch
    turnaround: OnlineStats
    finish: OnlineStats
    tenant_slowdown: Dict[Optional[str], TailSketch]
    inverse_slowdown_sum: float

    def __init__(self) -> None:
        self.slowdown = TailSketch()
        self.queueing = TailSketch()
        self.turnaround = OnlineStats()
        self.finish = OnlineStats()
        self.tenant_slowdown = {}
        self.inverse_slowdown_sum = 0.0

    @property
    def count(self) -> int:
        return self.slowdown.count

    def observe(self, record: Any) -> None:
        slowdown = _check_value(record.slowdown)
        if slowdown <= 0:
            # same contract as metrics.fairness/throughput: STP and
            # unfairness are undefined for non-positive slowdowns
            raise ValueError("slowdowns must be positive")
        self.slowdown.observe(slowdown)
        self.queueing.observe(record.queueing_delay)
        self.turnaround.observe(record.turnaround)
        self.finish.observe(record.finish)
        self.inverse_slowdown_sum += 1.0 / slowdown
        tenant = record.tenant
        sketch = self.tenant_slowdown.get(tenant)
        if sketch is None:
            sketch = self.tenant_slowdown[tenant] = TailSketch()
        sketch.observe(slowdown)

    def tenant_summaries(self) -> Dict[Optional[str], TailSummary]:
        """Per-tenant slowdown summaries, in the exact path's key order
        (untenanted first, then by str)."""
        return {tenant: self.tenant_slowdown[tenant].summary()
                for tenant in sorted(
                    self.tenant_slowdown,
                    key=lambda t: (t is not None, str(t)))}

    def reduce(self) -> SinkMetrics:
        # observe rejects non-positive slowdowns, so min > 0 here
        stats = self.slowdown.stats
        return SinkMetrics(
            self.count, None, None, stats.max / stats.min, stats.mean,
            self.inverse_slowdown_sum, self.turnaround.mean,
            self.queueing.stats.mean, self.finish.max,
            self.slowdown.summary(), self.queueing.summary(),
            self.tenant_summaries())


__all__ = [
    "P2_RANK_TOLERANCE", "P2_RELATIVE_SLACK", "ExactRecordSink",
    "OnlineStats", "P2Quantile", "RecordSink", "SinkMetrics",
    "StreamingRecordSink", "TailSketch",
]
