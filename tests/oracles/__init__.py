"""Test-side oracles: literal reference implementations kept out of ``src``.

* :mod:`tests.oracles.sharing` — the literal §3 allocator (re-sums every
  footprint per candidate), the differential oracle for
  :func:`repro.accelos.sharing.compute_allocations`;
* :mod:`tests.oracles.engine` — :class:`ReferenceGPUSimulator`, the
  per-event reference scans of the open-system engine and of the
  firmware dispatcher (with the original FIFO/exclusive predicates,
  ``FIRMWARE_ELIGIBLE``), and :func:`reference_engine`, which swaps both
  oracles into the scheme layer for A/B runs
  (tests/test_engine_fastpath.py, benchmarks/bench_engine.py);
  :func:`swapped_engine` swaps in any simulator subclass;
* :mod:`tests.oracles.placement` — the frozen offline pre-pass:
  :func:`place_arrivals` (routing against a single-server backlog
  estimate before any device simulates) and :func:`run_offline` (then
  every device's sub-stream simulated on its own), the differential
  oracle for offline placement in the drive loop
  (tests/test_fleet.py, tests/test_fleet_online.py);
* :mod:`tests.oracles.elastic` — Elastic Kernels as first written:
  :func:`reference_pack` (the whole-queue packer) and
  :class:`ReplayEveryLaunchSession` (the open session with no launch
  memo), the oracles for the head-only packer and the launch memo
  (tests/test_elastic_kernels.py);
* :mod:`tests.oracles.fleet` — run-time checkers of the fleet drive
  loop: :class:`BoundCheckedFleetSimulator` (every finish and idle
  transition against the device's last finish bound, every re-balance
  hook against the devices' clocks),
  :class:`ConservationCheckedFleetSimulator` (every key on exactly one
  session, harvested once), :class:`StatusCheckedFleetSimulator` (every
  field a policy reads from a device snapshot against the eager scan it
  replaced, and each session's withdrawable index) and
  :class:`CheckedFleetSimulator` (all three)
  (tests/test_event_batching.py, tests/test_fleet_lookahead.py,
  tests/test_fleet_status.py).
"""

from tests.oracles.elastic import ReplayEveryLaunchSession, reference_pack
from tests.oracles.engine import (FIRMWARE_ELIGIBLE, ReferenceGPUSimulator,
                                  reference_engine, swapped_engine)
from tests.oracles.fleet import (BoundCheckedFleetSimulator,
                                 CheckedFleetSimulator,
                                 ConservationCheckedFleetSimulator,
                                 StatusCheckedFleetSimulator)
from tests.oracles.placement import place, place_arrivals, run_offline
from tests.oracles.sharing import reference_allocations

__all__ = ["FIRMWARE_ELIGIBLE", "ReferenceGPUSimulator", "reference_engine",
           "swapped_engine", "place", "place_arrivals", "run_offline",
           "reference_allocations", "reference_pack",
           "ReplayEveryLaunchSession", "BoundCheckedFleetSimulator",
           "ConservationCheckedFleetSimulator", "StatusCheckedFleetSimulator",
           "CheckedFleetSimulator"]
