"""Register a custom scheduling scheme and run it everywhere, unchanged.

The scheme registry (:mod:`repro.api.schemes`) is the extension point
the paper's three schemes themselves use.  This example registers a toy
``serial`` scheme — a strict one-at-a-time scheduler that runs each
request alone in arrival order (the theoretical M/G/1 floor every
sharing scheme should beat on turnaround *variance*, and the ceiling on
queueing delay).  A scheme's one open-system contract is its device
session: what the drive loop submits arrivals to, advances and
harvests.  With that session the scheme runs through the same
declarative :class:`repro.api.ExperimentSpec` grid as the built-ins —
single devices and fleets, exact and streaming metrics, attributed or
not.  Nothing else changes: the harness, driver, metrics and reports
all read the registry.

Run:  python examples/custom_scheme.py
"""

import bisect

from repro.api import (ExperimentSpec, SchedulingScheme, SteppedSession,
                       isolated_time, register_scheme, run)
from repro.harness import format_table
from repro.sim import QueuedRequest

REQUESTS = 24
SEED = 7
LOAD = 1.0


class SerialSession(SteppedSession):
    """One device serving one request at a time, in arrival order.

    Two event kinds: the queue head *starts* once the device is free,
    and the running request *finishes* one isolated run time later.
    """

    def __init__(self, device):
        self.device = device
        self._waiting = []      # sorted (effective time, seq, key, arrival)
        self._seq = 0
        self._free_at = 0.0
        self._running = None    # (key, start, finish)
        self._finished = []

    def submit(self, key, arrival, effective_time):
        bisect.insort(self._waiting,
                      (effective_time, self._seq, key, arrival))
        self._seq += 1

    def peek(self):
        if self._running is not None:
            return self._running[2]
        if self._waiting:
            return max(self._free_at, self._waiting[0][0])
        return None

    def step(self):
        if self._running is not None:
            self._finished.append(self._running)
            self._free_at = self._running[2]
            self._running = None
            return self._free_at, 1
        effective, _, key, arrival = self._waiting.pop(0)
        start = max(self._free_at, effective)
        self._running = (key, start,
                         start + isolated_time(arrival.name, self.device))
        return start, 0

    def harvest(self):
        finished, self._finished = self._finished, []
        return finished

    # live state, read by online placement policies and re-balancers

    def queued(self):
        return [QueuedRequest(key, arrival.name, arrival.tenant, effective)
                for effective, _, key, arrival in self._waiting]

    def withdraw(self, key):
        for position, entry in enumerate(self._waiting):
            if entry[2] == key:
                del self._waiting[position]
                return entry[0]
        raise KeyError(key)

    def backlog_seconds(self, now):
        total = sum(isolated_time(entry[3].name, self.device)
                    for entry in self._waiting)
        if self._running is not None:
            total += max(0.0, self._running[2] - now)
        return total

    def active_count(self):
        return int(self._running is not None)


class SerialScheme(SchedulingScheme):
    """One request at a time, arrival order, device exclusively owned."""

    name = "serial"
    description = "strict one-at-a-time service in arrival order"

    def open_session(self, device, **knobs):
        return SerialSession(device)


def main():
    register_scheme(SerialScheme)

    spec = ExperimentSpec(
        scenario="bursty",
        schemes=("baseline", "accelos", "serial"),
        loads=(LOAD,), seeds=(SEED,), count=REQUESTS,
        metrics=("antt", "stp", "unfairness", "p99_slowdown"))
    results = run(spec)

    rows = [[scheme, results.antt(scheme=scheme),
             results.stp(scheme=scheme),
             results.unfairness(scheme=scheme),
             results.p99_slowdown(scheme=scheme)]
            for scheme in spec.schemes]
    print(format_table(
        ["scheme", "ANTT", "STP", "unfairness", "p99 slowdown"],
        rows,
        title="Custom scheme beside the built-ins (bursty traffic, "
              "load {})".format(LOAD)))

    # the same session serves a fleet, streaming metrics and the ledger
    fleet = ExperimentSpec(
        scenario="multi-tenant", schemes=("serial",), loads=(LOAD,),
        seeds=(SEED,), count=REQUESTS,
        devices=({"id": "fast"}, {"id": "slow", "clock_scale": 0.5}),
        placements=("round-robin", "burst-aware"),
        metrics=("antt", "p99_slowdown", "attribution_summary"),
        metrics_mode="streaming", attribution=True)
    results = run(fleet)
    print()
    print(format_table(
        ["placement", "ANTT", "p99 slowdown (P²)", "cross-tenant delay"],
        [[placement, results.antt(placement=placement),
          results.p99_slowdown(placement=placement),
          results.metric("attribution_summary", placement=placement)]
         for placement in fleet.placements],
        title="serial on a two-device fleet (streaming, attributed)"))


if __name__ == "__main__":
    main()
