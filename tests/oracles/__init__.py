"""Test-side oracles: literal reference implementations kept out of ``src``.

* :mod:`tests.oracles.sharing` — the literal §3 allocator (re-sums every
  footprint per candidate), the differential oracle for
  :func:`repro.accelos.sharing.compute_allocations`;
* :mod:`tests.oracles.engine` — :class:`ReferenceGPUSimulator`, the
  per-event reference scans of the open-system engine, and
  :func:`reference_engine`, which swaps both oracles into the scheme
  layer for A/B runs (tests/test_engine_fastpath.py,
  benchmarks/bench_engine.py).
"""

from tests.oracles.engine import ReferenceGPUSimulator, reference_engine
from tests.oracles.sharing import reference_allocations

__all__ = ["ReferenceGPUSimulator", "reference_engine",
           "reference_allocations"]
