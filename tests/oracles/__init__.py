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
  :func:`swapped_engine` swaps in any simulator subclass.
"""

from tests.oracles.engine import (FIRMWARE_ELIGIBLE, ReferenceGPUSimulator,
                                  reference_engine, swapped_engine)
from tests.oracles.sharing import reference_allocations

__all__ = ["FIRMWARE_ELIGIBLE", "ReferenceGPUSimulator", "reference_engine",
           "swapped_engine", "reference_allocations"]
