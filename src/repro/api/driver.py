"""``run(spec)``: one driver for every experiment the spec grid names.

Routes single-device specs through
:class:`~repro.harness.open_system.OpenSystemExperiment` and fleet specs
through :class:`~repro.harness.open_system.FleetOpenSystemExperiment`
(one run per placement policy), generating each stream from the named
traffic scenario at the calibrated offered load.  :func:`iter_runs`
yields ``(cell, result)`` pairs — streaming progress for long grids —
and :func:`run` collects them into a
:class:`~repro.api.results.ResultSet`.

Grid order is deterministic: loads x seeds x repetitions x placements x
schemes, each axis in spec order.  Repetition 0 uses the spec seed
verbatim (historical streams reproduce bit-for-bit); repetition ``k > 0``
derives an independent child seed through :func:`repro.util.make_rng`.

Execution backends
------------------

Every grid cell is a pure function of ``(spec, cell)`` — the
:class:`_SpecRunner` refactor — so the same grid runs three ways with
bit-identical ``ResultSet.to_json`` output:

* **serial** (``workers=1``, the default): cells execute in grid order
  in this process;
* **parallel** (``workers=N``): cells execute on a process pool and the
  merge re-emits results *in grid order regardless of completion
  order*.  Streaming-mode cells regenerate their arrival iterators
  inside the worker (iterators are single-use and unpicklable).  If the
  platform cannot provide a process pool, execution silently falls back
  to serial — same results, no pool — and if a worker dies mid-grid,
  the cells the broken pool did not finish run serially in this
  process;
* **cached** (``cache_dir=``): completed cells are flushed to a
  content-addressed :class:`~repro.api.cache.ResultCache` *as they
  finish*, so an interrupted sweep resumes from its completed cells and
  a repeated run is near-free.

The harness sits *above* the registries this package defines, so this
module imports it lazily — ``import repro.api`` never drags the harness
in, and the harness can import the registries at module top.
"""

from __future__ import annotations

from repro.api.cache import ResultCache, cell_key
from repro.api.kernels import (arrival_rate_for_load,
                               fleet_arrival_rate_for_load, warm_caches)
from repro.api.devices import build_device
from repro.api.placements import placement_from_name
from repro.api.results import ResultSet
from repro.api.spec import Cell, ExperimentSpec
from repro.errors import SimulationError
from repro.util import make_rng
from repro.workloads.scenarios import scenario as scenario_from_name


def stream_seed(seed, repetition):
    """The per-repetition stream seed: repetition 0 is the spec seed
    itself, later repetitions draw independent child seeds.

    The draw is 32-bit, so a derived seed *can* equal another spec
    seed's repetition-0 value — two distinct grid cells replaying the
    same stream.  Anything that identifies a cell (the result cache
    above all) must therefore key on the raw ``(seed, repetition)``
    pair, never on this derived value.
    """
    if repetition == 0:
        return seed
    return int(make_rng("spec-repetition", seed, repetition)
               .integers(2**32))


def _coerce(spec):
    if isinstance(spec, ExperimentSpec):
        return spec
    if isinstance(spec, dict):
        return ExperimentSpec.from_dict(spec)
    if isinstance(spec, str):
        return ExperimentSpec.from_json(spec)
    raise SimulationError(
        "run() takes an ExperimentSpec, a spec dict or spec JSON, got "
        "{!r}".format(type(spec).__name__))


def _stream_model(spec, load, device=None, fleet=None,
                  caller="build_stream"):
    """The spec's scenario model plus its calibrated arrival rate —
    the shared front half of :func:`build_stream` and
    :func:`build_stream_iter` (``caller`` keeps the error text naming
    the function the user actually called)."""
    spec = _coerce(spec)
    if (device is None) == (fleet is None):
        raise SimulationError(
            "{} needs exactly one calibration target: device= "
            "for single-device specs, fleet= for fleet specs".format(
                caller))
    if (fleet is not None) != spec.is_fleet:
        raise SimulationError(
            "calibration target does not match the spec topology: this "
            "spec has {} device(s), so pass {}".format(
                len(spec.devices),
                "fleet=" if spec.is_fleet else "device="))
    model = scenario_from_name(spec.scenario)
    mix = model.mix_weights()
    if fleet is not None:
        rate = fleet_arrival_rate_for_load(load, fleet, names=list(mix),
                                           weights=list(mix.values()))
    else:
        rate = arrival_rate_for_load(load, device, names=list(mix),
                                     weights=list(mix.values()))
    return spec, model, rate


def build_stream(spec, load, seed, repetition, device=None, fleet=None):
    """One grid point's arrival stream (the spec's scenario at the
    calibrated offered load).  Public so benchmarks and tools can
    reproduce exactly the stream ``run(spec)`` would simulate — which
    is why the calibration target is checked: exactly one of ``device``
    (single-device spec) or ``fleet`` (fleet spec) must be given."""
    spec, model, rate = _stream_model(spec, load, device=device, fleet=fleet,
                                      caller="build_stream")
    return model.generate(rate, spec.count,
                          seed=stream_seed(seed, repetition))


def build_stream_iter(spec, load, seed, repetition, device=None, fleet=None):
    """Lazy :func:`build_stream`: the identical arrival sequence as a
    generator (``list(build_stream_iter(...)) == build_stream(...)``
    bit-for-bit) without materialising it — what streaming-mode
    ``run(spec)`` consumes.  Each call returns a fresh, single-use
    iterator."""
    spec, model, rate = _stream_model(spec, load, device=device, fleet=fleet,
                                      caller="build_stream_iter")
    return model.iter_arrivals(rate, spec.count,
                               seed=stream_seed(seed, repetition))


def _grid_cells(spec):
    """Every grid cell of ``spec``, in the deterministic grid order."""
    cells = []
    placements = spec.placements if spec.is_fleet else (None,)
    for load in spec.loads:
        for seed in spec.seeds:
            for repetition in range(spec.repetitions):
                for placement in placements:
                    for scheme in spec.schemes:
                        cells.append(Cell(scheme=scheme, load=load,
                                          seed=seed, repetition=repetition,
                                          placement=placement))
    return cells


class _SpecRunner:
    """Executes any one grid cell as a pure function of ``(spec, cell)``.

    The stateless-cell refactor behind both execution backends: the
    runner owns the built device/fleet and experiment (one per process),
    and every cell's arrival stream is (re)generated from the cell's
    ``(load, seed, repetition)``.  Exact-mode cells sharing a stream
    reuse one materialised copy (a one-slot memo — cells arrive in grid
    order, where same-stream cells are adjacent); streaming-mode cells
    always get a fresh iterator, because iterators are single-use and
    unpicklable, so they *must* be regenerated wherever the cell runs.
    """

    def __init__(self, spec):
        # lazy: the harness imports this package's registries at module top
        from repro.harness.open_system import (FleetOpenSystemExperiment,
                                               OpenSystemExperiment)
        from repro.sim.fleet import DeviceFleet
        self.spec = spec
        self.streaming = spec.metrics_mode == "streaming"
        if spec.is_fleet:
            self.device = None
            self.fleet = DeviceFleet([(entry.id, build_device(entry))
                                      for entry in spec.devices])
            self.experiment = FleetOpenSystemExperiment(
                self.fleet, policy=spec.policy, saturate=spec.saturate)
        else:
            self.device = build_device(spec.devices[0])
            self.fleet = None
            self.experiment = OpenSystemExperiment(
                self.device, policy=spec.policy, saturate=spec.saturate)
        self._stream_key = None
        self._stream = None

    def _arrivals(self, cell):
        key = (cell.load, cell.seed, cell.repetition)
        if self._stream_key != key:
            self._stream = build_stream(self.spec, cell.load, cell.seed,
                                        cell.repetition, device=self.device,
                                        fleet=self.fleet)
            self._stream_key = key
        return self._stream

    def _fresh_iter(self, cell):
        return build_stream_iter(self.spec, cell.load, cell.seed,
                                 cell.repetition, device=self.device,
                                 fleet=self.fleet)

    def _ledger(self):
        """A fresh attribution ledger per cell (attributed specs only):
        the ledger is stateful event-consuming accounting, so sharing one
        across cells would bleed tenants between grid points."""
        if not self.spec.attribution:
            return None
        from repro.attribution import AttributionLedger
        ids = self.fleet.ids if self.fleet is not None \
            else [self.device.name]
        return AttributionLedger(ids)

    def run_cell(self, cell):
        ledger = self._ledger()
        if self.fleet is not None:
            policy = placement_from_name(cell.placement)
            if self.streaming:
                return self.experiment.run_stream(
                    self._fresh_iter(cell), cell.scheme, policy,
                    mode=self.spec.placement_mode,
                    rebalance=self.spec.rebalance, ledger=ledger)
            return self.experiment.run(
                self._arrivals(cell), cell.scheme, policy,
                mode=self.spec.placement_mode,
                rebalance=self.spec.rebalance, ledger=ledger)
        if self.streaming:
            return self.experiment.run_stream(self._fresh_iter(cell),
                                              cell.scheme, ledger=ledger)
        return self.experiment.run(self._arrivals(cell), cell.scheme,
                                   ledger=ledger)


# -- process-pool plumbing ------------------------------------------------

# one runner per worker process, built by the pool initializer
_WORKER_RUNNER = None


def _init_worker(spec_json):
    """Pool initializer: rebuild the spec's runner and warm the kernel
    caches.  Under the ``fork`` start method the worker inherits the
    parent's already-warm caches, so this is near-free; under ``spawn``
    it does the real warm-up exactly once per process instead of once
    per cell."""
    global _WORKER_RUNNER
    spec = ExperimentSpec.from_json(spec_json)
    warm_caches(spec)
    _WORKER_RUNNER = _SpecRunner(spec)


def _run_cell_task(cell_fields):
    """The picklable work unit: one grid cell, by its plain-data form."""
    return _WORKER_RUNNER.run_cell(Cell(**cell_fields))


def _make_pool(spec, max_workers):
    """A process pool primed for ``spec``'s cells, or ``None`` when the
    platform cannot provide one (the caller then falls back to serial —
    same results, no pool)."""
    # warm the parent's kernel caches before forking: fork-started
    # workers inherit them, so their own warm-up call is a no-op
    warm_caches(spec)
    try:
        from concurrent.futures import ProcessPoolExecutor
        return ProcessPoolExecutor(max_workers=max_workers,
                                   initializer=_init_worker,
                                   initargs=(spec.to_json(),))
    except (ImportError, NotImplementedError, OSError, PermissionError,
            ValueError):
        return None


def _store_on_completion(store, digest, payload):
    """A done-callback flushing one finished cell to the cache — the
    flush happens when the *worker* finishes, not when the merge reaches
    the cell, so an interrupted parallel sweep keeps every completed
    result."""
    def flush(future):
        if future.cancelled() or future.exception() is not None:
            return
        store.put(digest, payload, future.result())
    return flush


def _serial_cells(spec, keys, store):
    """``run(index, cell)``: one cell in this process (the runner is
    built on first use), flushed to the cache as it finishes."""
    runner = None

    def run(index, cell):
        nonlocal runner
        if runner is None:
            runner = _SpecRunner(spec)
        result = runner.run_cell(cell)
        if store is not None:
            digest, payload = keys[index]
            store.put(digest, payload, result)
        return result
    return run


def _merge_parallel(executor, run_serially, cells, cached, pending, keys,
                    store):
    """Submit every pending cell, then re-emit results in grid order
    regardless of completion order — the deterministic merge.

    One dead worker breaks the whole pool and fails every cell it had
    not finished; those cells go to ``run_serially`` (a
    :func:`_serial_cells` runner) instead.  Cells are pure, so the
    bytes are the serial run's."""
    from concurrent.futures.process import BrokenProcessPool
    futures = {}
    try:
        try:
            for index in pending:
                future = executor.submit(_run_cell_task,
                                         cells[index].to_dict())
                if store is not None:
                    digest, payload = keys[index]
                    future.add_done_callback(
                        _store_on_completion(store, digest, payload))
                futures[index] = future
        except BrokenProcessPool:
            pass                    # the unsubmitted cells run serially
        for index, cell in enumerate(cells):
            if index in cached:
                yield (cell, cached[index])
                continue
            result = None
            if index in futures:
                try:
                    result = futures[index].result()
                except BrokenProcessPool:
                    pass            # a worker died before this cell finished
            if result is None:
                result = run_serially(index, cell)
            yield (cell, result)
    finally:
        # wait=True joins the pool's manager thread, which is what runs
        # the done-callbacks — without it the last cells' cache flushes
        # could still be in flight when the caller reads the counters
        executor.shutdown(wait=True, cancel_futures=True)


def _open_cache(cache_dir, cache):
    if not cache or cache_dir is None:
        return None
    if isinstance(cache_dir, ResultCache):
        return cache_dir
    return ResultCache(cache_dir)


def _worker_count(workers):
    if workers is None:
        workers = 1
    if not isinstance(workers, int) or isinstance(workers, bool) \
            or workers < 1:
        raise SimulationError(
            "workers must be a positive integer, got {!r}".format(workers))
    return workers


def iter_runs(spec, workers=1, cache_dir=None, cache=True):
    """Yield ``(cell, result)`` pairs of ``spec``'s grid, in grid order.

    ``workers > 1`` executes cache-miss cells on a process pool; the
    merge re-emits results in grid order, so the output — and
    ``ResultSet.to_json`` built from it — is bit-identical to the
    serial path.  ``cache_dir`` (a directory path or a
    :class:`~repro.api.cache.ResultCache`) enables the content-addressed
    result cache; ``cache=False`` disables lookups and stores even when
    a directory is given.
    """
    spec = _coerce(spec)
    workers = _worker_count(workers)
    cells = _grid_cells(spec)
    store = _open_cache(cache_dir, cache)

    keys = None
    cached = {}
    if store is not None:
        keys = [cell_key(spec, cell) for cell in cells]
        for index in range(len(cells)):
            digest, payload = keys[index]
            hit = store.get(digest, payload, metrics=spec.metrics)
            if hit is not None:
                cached[index] = hit
    pending = [i for i in range(len(cells)) if i not in cached]
    run_serially = _serial_cells(spec, keys, store)

    if workers > 1 and len(pending) > 1:
        executor = _make_pool(spec, min(workers, len(pending)))
        if executor is not None:
            yield from _merge_parallel(executor, run_serially, cells, cached,
                                       pending, keys, store)
            return
        # no usable process pool on this platform: run serially instead

    for index, cell in enumerate(cells):
        if index in cached:
            yield (cell, cached[index])
        else:
            yield (cell, run_serially(index, cell))


def _progress_note(spec, merged, store, before):
    """Where an aborted grid got to.  ``merged`` counts the cells the
    grid-order merge had yielded; a parallel run may have finished and
    stored cells beyond that point.  ``before`` is the cache's
    ``(hits, stores)`` when the run began, so the note reports what this
    run reused from the cache and what it added to it."""
    note = ("experiment grid aborted after {}/{} cells merged in grid "
            "order".format(merged, spec.cell_count()))
    if store is not None:
        hits_before, stores_before = before
        note += ("; this run reused {} cached cells and stored {} more "
                 "under {} — re-running with the same cache_dir resumes "
                 "from every cached cell".format(
                     store.hits - hits_before, store.stores - stores_before,
                     store.directory))
    return note


def run(spec, workers=1, cache_dir=None, cache=True):
    """Run the whole grid; returns a :class:`ResultSet` in grid order.

    ``workers``/``cache_dir``/``cache`` pass through to
    :func:`iter_runs` (parallel execution, content-addressed result
    cache).  Completed cells are flushed to the cache *as they finish*,
    and a mid-grid failure re-raises with a note recording how far the
    sweep got — nothing already computed is lost.
    """
    spec = _coerce(spec)
    store = _open_cache(cache_dir, cache)
    before = (store.hits, store.stores) if store is not None else None
    pairs = []
    try:
        for pair in iter_runs(spec, workers=workers, cache_dir=store,
                              cache=cache):
            pairs.append(pair)
    except BaseException as exc:
        exc.add_note(_progress_note(spec, len(pairs), store, before))
        raise
    return ResultSet(spec, pairs)
