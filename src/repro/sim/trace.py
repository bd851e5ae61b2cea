"""Execution traces: per-kernel intervals and overlap computation."""

from __future__ import annotations

from repro.errors import SimulationError
from repro.metrics.overlap import execution_overlap as _overlap


class KernelInterval:
    """One kernel execution's lifetime within a simulated batch."""

    __slots__ = ("name", "start", "finish", "dispatch_done", "total_work",
                 "arrival")

    def __init__(self, name, start, finish, dispatch_done, total_work,
                 arrival=0.0):
        self.name = name
        self.start = start
        self.finish = finish
        self.dispatch_done = dispatch_done
        self.total_work = total_work
        # open-system runs stamp when the request entered the system;
        # closed batches submit everything at t=0.
        self.arrival = arrival

    @property
    def turnaround(self):
        """Completion time measured from the request's submission."""
        return self.finish - self.arrival

    @property
    def queueing_delay(self):
        """Time between submission and the first work group dispatching."""
        return self.start - self.arrival

    @property
    def duration(self):
        return self.finish - self.start

    def __repr__(self):
        return "<KernelInterval {} [{:.6f}, {:.6f}]>".format(
            self.name, self.start, self.finish)


class ExecutionTrace:
    """Result of simulating one batch of kernel execution requests."""

    def __init__(self, intervals, device_name, mode):
        if not intervals:
            raise SimulationError("empty execution trace")
        self.intervals = intervals
        self.device_name = device_name
        self.mode = mode

    @property
    def makespan(self):
        """Time for all kernels to execute (the throughput denominator)."""
        return max(iv.finish for iv in self.intervals)

    @property
    def turnarounds(self):
        return [iv.turnaround for iv in self.intervals]

    def execution_overlap(self):
        """Paper §7.4: ``O = T(c) / T(t)`` (delegates to
        :func:`repro.metrics.overlap.execution_overlap`)."""
        return _overlap([(iv.start, iv.finish) for iv in self.intervals])

    def __repr__(self):
        return "<ExecutionTrace {} kernels on {} ({})>".format(
            len(self.intervals), self.device_name, self.mode)
