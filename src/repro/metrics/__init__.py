"""Evaluation metrics (paper §7.4).

Fairness: individual slowdown, system unfairness [9], fairness improvement.
Throughput: system throughput speedup, STP [10].
Turnaround: ANTT and worst-case ANTT [31].
Sharing: kernel execution overlap.
Tails: exact percentile summaries of slowdown/queueing populations.
Sinks: the exact and the bounded-memory record sinks every open-system
result is reduced from (P2 quantiles, online stats).
"""

from repro.metrics.fairness import (
    individual_slowdowns, system_unfairness, fairness_improvement,
    safe_share)
from repro.metrics.throughput import throughput_speedup, stp
from repro.metrics.antt import antt, worst_antt
from repro.metrics.overlap import execution_overlap
from repro.metrics.tails import (
    TailSummary, per_tenant_tails, percentile, request_tails, tail_summary)
from repro.metrics.sketches import (
    P2_RANK_TOLERANCE, P2_RELATIVE_SLACK, ExactRecordSink, OnlineStats,
    P2Quantile, RecordSink, SinkMetrics, StreamingRecordSink,
    TailSketch)

__all__ = [
    "individual_slowdowns", "system_unfairness", "fairness_improvement",
    "safe_share",
    "throughput_speedup", "stp", "antt", "worst_antt", "execution_overlap",
    "TailSummary", "percentile", "tail_summary", "per_tenant_tails",
    "request_tails",
    "P2_RANK_TOLERANCE", "P2_RELATIVE_SLACK",
    "ExactRecordSink", "OnlineStats", "P2Quantile", "RecordSink",
    "SinkMetrics", "StreamingRecordSink", "TailSketch",
]
