"""Shared memory-bandwidth contention model.

A dispatch-time roofline: every resident work group demands memory
bandwidth at ``spec.mem_rate_per_wg`` bytes/s.  When the aggregate demand of
all resident WGs exceeds the device's bandwidth, every in-flight WG's
progress stretches proportionally; we apply that stretch as a multiplier on
the WG's compute cost at dispatch time.

This captures the two behaviours the evaluation depends on:

* a memory-bound kernel saturates bandwidth on its own — its isolated time
  is bandwidth-limited, so accelOS can take most of its compute units away
  almost for free (where the paper's throughput gains come from);
* co-scheduling two memory-bound kernels slows both down (real contention),
  keeping accelOS's fairness numbers honest rather than optimistic.
"""

from __future__ import annotations

from repro.errors import SimulationError


class BandwidthTracker:
    """Tracks aggregate bandwidth demand of resident work groups."""

    def __init__(self, device):
        self.device_name = device.name
        self.capacity = device.mem_bw_gbs * 1e9  # bytes/s
        self.demand = 0.0
        self.resident = 0

    def add_rate(self, rate):
        """Register a resident WG's bandwidth demand (bytes/s).

        The caller passes the occupancy-corrected rate: a WG running faster
        at low occupancy pulls proportionally more bandwidth.
        """
        self.demand += rate
        self.resident += 1

    def remove_rate(self, rate):
        self.demand -= rate
        self.resident -= 1
        # Guard against unbalanced add/remove while tolerating float drift
        # (demand sits at ~1e11 bytes/s, so the tolerance is relative).
        if self.demand < -1e-6 * self.capacity or self.resident < 0:
            raise SimulationError(
                "bandwidth demand went negative on {}: demand {!r} bytes/s "
                "with {} resident work groups".format(
                    self.device_name, self.demand, self.resident))
        if self.demand < 0:
            self.demand = 0.0

    def _stretch(self, rate, total, resident):
        """Max-min-flavoured roofline.

        Under oversubscription only WGs demanding more than the per-WG fair
        share are throttled; a compute-bound WG co-resident with memory hogs
        keeps making progress (its small demand is served).  Uniform
        memory-bound mixes degenerate to the classic ``D / BW`` stretch.
        ``GPUSimulator.open_advance`` inlines this for accelOS and
        Elastic Kernels chunk draws and for a firmware group restarted
        in place, ``GPUSimulator._start_hw_wgs`` for every other
        firmware work group about to start, and ``_start_slot`` for
        a slot placed after its batch's start; keep the copies in step.
        """
        if total <= self.capacity or resident == 0:
            return 1.0
        fair_share = self.capacity / resident
        if rate <= fair_share:
            return 1.0
        return total / self.capacity

    def stretch(self, new_rate):
        """Stretch for a WG about to be dispatched (not yet registered)."""
        return self._stretch(new_rate, self.demand + new_rate,
                             self.resident + 1)

    def stretch_resident(self, rate):
        """Stretch for a chunk of an already-registered slot."""
        return self._stretch(rate, self.demand, self.resident)
