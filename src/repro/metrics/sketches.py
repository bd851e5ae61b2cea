"""Record sinks: what every open-system run reduces its records with.

An open-system run (:mod:`repro.harness.open_system`) hands each
finished request's :class:`~repro.api.schemes.RequestRecord` to one or
more *record sinks*, and every result is built from a sink's
:meth:`~RecordSink.reduce`.  Two sinks ship:

* :class:`ExactRecordSink` keeps every record and reduces with the
  exact metric functions (:mod:`repro.metrics.tails` percentiles over
  the full sorted population) — O(n) memory;
* :class:`StreamingRecordSink` keeps bounded state: online
  accumulators (:class:`OnlineStats`) for the moments that are exactly
  computable one value at a time, and one :class:`TailSketch` per
  tail, whose log-bucketed quantile store follows DDSketch (Masson, Rim
  & Lee, VLDB 2019) (``metrics_mode="streaming"`` in the declarative
  API).

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
* Quantiles of populations up to ``EXACT_COUNT`` (256) values are
  **exact**: the sketch keeps them (a fixed constant, so memory stays
  O(1)) and interpolates them with the same linear-interpolation
  convention as :func:`repro.metrics.tails`, bit for bit.
* Past ``EXACT_COUNT``, every value is counted in a log bucket.  With
  α = ``RELATIVE_ACCURACY`` (0.01) and γ = (1+α)/(1−α), bucket ``i`` of
  a positive value covers (γ^(i−1), γ^i] and answers 2γ^i/(γ+1), which
  is within α of every value in it.  Zeros are counted apart and
  answer 0; negative values are mirrored into buckets of their own.
  A quantile interpolates the bucket answers of the two order
  statistics the exact convention interpolates, clamped to the exact
  min and max.  So on any non-negative population, ties and heavy
  tails included, ``|estimate − exact| ≤ α·exact`` (up to float
  rounding), and a constant population is answered exactly.  The
  bucket count is at most ⌈ln(max/min)/ln γ⌉ + 1 per sign, whatever
  the count of values; ``tests/test_sketches.py`` checks the bound.

Determinism
-----------

Sketch state is a pure function of the observation *sequence*: pure
Python floats and integer counts, no randomness, no dict-order
dependence (quantiles read the buckets in sorted order).  Feeding the
same values in the same order reproduces the state bit-for-bit (see
``docs/DETERMINISM.md``); the harness feeds a streaming sink in
completion-harvest order, which the simulator makes deterministic.

NaN handling matches ``tails._checked_sorted`` exactly: observing a NaN
raises ``ValueError("values must not contain NaN")``.  The log buckets
take every finite value; an infinite one has no bucket, and a sketch
past ``EXACT_COUNT`` values raises ``OverflowError`` on it.
"""

from __future__ import annotations

import bisect
import itertools
import math
import sys
from typing import Any, Dict, List, NamedTuple, Optional, Protocol

import numpy as np

from repro.metrics.antt import antt
from repro.metrics.fairness import individual_slowdowns, system_unfairness
from repro.metrics.tails import (TailSummary, _percentile_of_sorted,
                                 request_tails)
from repro.metrics.throughput import stp

# values kept and answered exactly before a sketch moves them into log
# buckets; a fixed constant, so memory stays O(1)
EXACT_COUNT = 256
# α: past EXACT_COUNT values, every quantile of a non-negative
# population is within this fraction of the exact one
RELATIVE_ACCURACY = 0.01
# γ = (1+α)/(1−α): bucket i of a magnitude covers (γ^(i−1), γ^i]
_LOG_GAMMA = math.log((1.0 + RELATIVE_ACCURACY)
                      / (1.0 - RELATIVE_ACCURACY))
_MAX_EXPONENT = math.log(sys.float_info.max)


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


class _BucketRanks:
    """The bucket estimate of every order statistic of a
    :class:`TailSketch` past ``EXACT_COUNT`` values, indexed by rank
    like the sorted population it stands for: the ascending sequence
    :func:`~repro.metrics.tails._percentile_of_sorted` interpolates."""

    __slots__ = ("_ends", "_values")

    _ends: List[int]
    _values: List[float]

    def __init__(self, negative: Dict[int, int], zeros: int,
                 positive: Dict[int, int]) -> None:
        buckets = [(-_estimate(index), negative[index])
                   for index in sorted(negative, reverse=True)]
        # an empty zero bucket repeats the previous end, so no rank
        # lands in it
        buckets.append((0.0, zeros))
        buckets.extend((_estimate(index), positive[index])
                       for index in sorted(positive))
        self._values = [value for value, _ in buckets]
        self._ends = list(itertools.accumulate(
            count for _, count in buckets))

    def __len__(self) -> int:
        return self._ends[-1]

    def __getitem__(self, rank: int) -> float:
        return self._values[bisect.bisect_right(self._ends, rank)]


def _estimate(index: int) -> float:
    """The value bucket ``index`` answers, 2γ^i/(γ+1) = (1−α)·γ^i:
    within α of everything in (γ^(i−1), γ^i].  Capping the exponent at
    the largest float's keeps that true in the topmost bucket."""
    return (1.0 - RELATIVE_ACCURACY) * math.exp(
        min(index * _LOG_GAMMA, _MAX_EXPONENT))


class TailSketch:
    """Streaming :func:`repro.metrics.tails.tail_summary`: online
    count/mean/min/max plus p50/p95/p99 over one value population.

    The first ``EXACT_COUNT`` values are kept and answered exactly;
    from the next one on, every value is counted in the log bucket
    that holds it (see the module docstring), and one bucket store
    serves all three quantiles.
    """

    __slots__ = ("stats", "_exact", "_positive", "_negative", "_zeros")

    stats: OnlineStats
    _exact: Optional[List[float]]
    _positive: Dict[int, int]
    _negative: Dict[int, int]
    _zeros: int

    def __init__(self) -> None:
        self.stats = OnlineStats()
        self._exact = []
        self._positive = {}
        self._negative = {}
        self._zeros = 0

    def observe(self, value: float) -> None:
        value = _check_value(value)
        self.stats.observe(value)
        exact = self._exact
        if exact is None:
            self._bucket(value)
        elif len(exact) < EXACT_COUNT:
            exact.append(value)
        else:
            self._exact = None
            for kept in exact:
                self._bucket(kept)
            self._bucket(value)

    def _bucket(self, value: float) -> None:
        if value > 0.0:
            store = self._positive
        elif value < 0.0:
            store, value = self._negative, -value
        else:
            self._zeros += 1
            return
        index = math.ceil(math.log(value) / _LOG_GAMMA)
        store[index] = store.get(index, 0) + 1

    @property
    def count(self) -> int:
        return self.stats.count

    def summary(self) -> TailSummary:
        """The :class:`TailSummary` of everything observed; past
        ``EXACT_COUNT`` values the percentile fields are within α of
        the exact ones (see the module docstring)."""
        stats = self.stats
        if stats.count == 0:
            raise ValueError("need at least one value")
        if self._exact is not None:
            ordered = sorted(self._exact)
            p50, p95, p99 = (_percentile_of_sorted(ordered, q)
                             for q in (50.0, 95.0, 99.0))
        else:
            ranks = _BucketRanks(self._negative, self._zeros,
                                 self._positive)
            p50, p95, p99 = (
                min(max(_percentile_of_sorted(ranks, q), stats.min),
                    stats.max)
                for q in (50.0, 95.0, 99.0))
        return TailSummary(stats.count, stats.mean, p50, p95, p99,
                           stats.max)


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
    "EXACT_COUNT", "RELATIVE_ACCURACY", "ExactRecordSink", "OnlineStats",
    "RecordSink", "SinkMetrics", "StreamingRecordSink", "TailSketch",
]
