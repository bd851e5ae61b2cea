"""Minimal discrete-event engine: a time-ordered event queue."""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from math import isnan

from repro.errors import SimulationError

# Tie-breaking tier of arrival events: below the default tier, so an
# arrival pushed mid-run pops before any same-instant completion event —
# the order a batch run (all arrivals pushed at setup, before any other
# event) produces by insertion counter alone.
ARRIVAL_TIER = 0
# Tier of every other event.
EVENT_TIER = 1

# EventQueue.push's rejections, shared with the engine's inlined pushes
# (GPUSimulator.open_advance's slot arms and in-place firmware restart,
# _start_hw_wgs and _start_slot).
NAN_TIME_ERROR = "event scheduled at NaN time"
PAST_TIME_ERROR = "event scheduled in the past ({} < {})"


class EventQueue:
    """Priority queue of (time, payload) events with stable FIFO ties.

    Heap entries are ``(time, tier, seq, payload)`` where ``seq`` is a
    monotonic insertion counter: equal-time, equal-tier events pop in
    insertion order and the payload itself is never compared — payloads
    of any (mutually non-comparable) type are safe.  ``tier`` breaks
    exact-time ties *across* insertion order: arrival events are pushed
    at :data:`ARRIVAL_TIER` so a request submitted mid-simulation (the
    incremental open-run interface) still pops before any same-time
    completion — exactly the order a batch ``run_open`` produces, where
    every arrival is pushed at setup and therefore carries a lower
    counter than any in-flight event.  ``push`` rejects NaN times
    outright: NaN compares false against everything, so a NaN entry
    would neither raise nor order correctly but silently scramble the
    heap invariant.
    """

    def __init__(self):
        self._heap = []
        self._counter = itertools.count()
        self.now = 0.0

    def push(self, time, payload, tier=EVENT_TIER):
        if isnan(time):
            raise SimulationError(NAN_TIME_ERROR)
        if time < self.now - 1e-12:
            raise SimulationError(PAST_TIME_ERROR.format(time, self.now))
        heappush(self._heap, (time, tier, next(self._counter), payload))

    def pop(self):
        """Advance to and return the next event as ``(time, payload)``."""
        if not self._heap:
            raise SimulationError("pop from empty event queue")
        time, _tier, _seq, payload = heappop(self._heap)
        if time > self.now:
            self.now = time
        return time, payload

    def peek_time(self):
        """The next event's time without popping (None when empty)."""
        return self._heap[0][0] if self._heap else None

    def __len__(self):
        return len(self._heap)

    def __bool__(self):
        return bool(self._heap)
