"""The firmware path's group starts against the one-group oracle.

Three shortcuts of :class:`repro.sim.gpu.GPUSimulator` start firmware
work groups without the one-group-at-a-time dispatch of
:class:`tests.oracles.ReferenceGPUSimulator`:

* **in-place restart** — ``open_advance`` takes a completion of the
  dispatch window's owner, when the owner is the head run and its
  queue on the freed CU cannot drain it, and starts the owner's next
  queued group there with one ``heapreplace``;
* **wave admission** — ``_start_hw_wgs`` counts the groups that fit a
  CU, updates the CU's integers once, then rates and pushes each group
  in turn;
* **exit (d)** — on the exclusive device, ``_hw_dispatch`` skips the
  pass while the oldest unfinished kernel blocks every pending one.

The oracle starts every group through ``CUState.admit``,
``BandwidthTracker.stretch``/``add_rate`` and ``EventQueue.push`` and
walks the run list from index 0 on every event, so every interval and
the engine event count must equal its own.  Random firmware batches
(closed, or bursts of mixed profiles) are drawn by
``tests.test_engine_fastpath``'s burst property; this file shows the
shortcuts run, and pins the cases a random draw rarely reaches.
"""

import pytest

from repro.api.kernels import base_spec
from repro.cl import amd_r9_295x2, nvidia_k20m
from repro.sim import ExecutionMode, GPUSimulator, KernelExecSpec

from tests.oracles import ReferenceGPUSimulator
from tests.test_engine_fastpath import CursorCheckedSimulator, _quarter_k20m

DEVICES = (nvidia_k20m, amd_r9_295x2, _quarter_k20m)


class CountingSimulator(CursorCheckedSimulator):
    """The cursor-checked engine, counting the firmware completions
    restarted in place (``restarts``: completions seen by the event
    observer that never reached ``_complete_hw_wg``) and the dispatch
    calls that skipped the pass through exit (d) (``exit_d``: no owner,
    a pending head run whose arrival and handoff windows are open, and
    no cursor update)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.completions = 0
        self.completed_stepwise = 0
        self.exit_d = 0
        self._cursor_passes = 0

    @property
    def restarts(self):
        return self.completions - self.completed_stepwise

    def _before_event(self, time, payload):
        super()._before_event(time, payload)
        if payload is not None:
            self.completions += 1

    def _complete_hw_wg(self, run, cu, rate):
        self.completed_stepwise += 1
        super()._complete_hw_wg(run, cu, rate)

    def _hw_cursors(self):
        self._cursor_passes += 1
        return super()._hw_cursors()

    def _hw_dispatch(self, freed_cu=None):
        head, runs, now = self._hw_head, self.runs, self.events.now
        waiting = runs[head] if head < len(runs) else None
        open_head = (self._hw_partial is None and waiting is not None
                     and waiting.pending_count > 0
                     and now + 1e-15 >= waiting.spec.arrival_time
                     and (waiting.dispatch_ready_time is None
                          or now + 1e-15 >= waiting.dispatch_ready_time))
        passes = self._cursor_passes
        super()._hw_dispatch(freed_cu)
        if open_head and self._cursor_passes == passes:
            self.exit_d += 1


def _batch(names, gaps):
    """Hardware specs of ``names``; ``gaps`` is None for a closed batch,
    else each request's gap after the previous arrival (0 for a
    same-instant burst)."""
    specs = [base_spec(name) for name in names]
    if gaps is None:
        return specs
    arrivals, now = [], 0.0
    for spec, gap in zip(specs, gaps):
        now += gap
        arrivals.append(spec.with_arrival(now))
    return arrivals


def _simulate(simulator_cls, device_factory, specs, closed):
    sim = simulator_cls(device_factory())
    trace = sim.run(specs) if closed else sim.run_open(specs)
    intervals = [(iv.name, iv.arrival, iv.start, iv.finish, iv.dispatch_done)
                 for iv in trace.intervals]
    return (intervals, sim.events_processed), sim


def _on_both_paths(device_factory, specs, closed):
    """The engine's (intervals, events) and its counting simulator,
    after checking both against the oracle's."""
    engine, _ = _simulate(GPUSimulator, device_factory, specs, closed)
    reference, _ = _simulate(ReferenceGPUSimulator, device_factory, specs,
                             closed)
    counted, sim = _simulate(CountingSimulator, device_factory, specs,
                             closed)
    assert engine == reference
    assert counted == engine
    return engine, sim


BURST = ["spmv", "sgemm", "spmv", "bfs", "histo_main", "sgemm"]


@pytest.mark.parametrize("closed", [True, False])
@pytest.mark.parametrize("device_factory", DEVICES)
def test_restarts_and_exit_d_run(device_factory, closed):
    """The shortcuts these differential tests compare do run: the owner
    restarts in place on every device, and exit (d) skips passes on the
    exclusive device only (under FIFO no run before the head blocks)."""
    specs = _batch(BURST, None if closed else [0.0, 0.0, 5e-5, 0.0, 2e-4,
                                              0.0])
    (_, events), sim = _on_both_paths(device_factory, specs, closed)
    assert 0 < sim.restarts < sim.completions
    assert sim.completions <= events
    if device_factory is amd_r9_295x2:
        assert sim.exit_d > 0
    else:
        assert sim.exit_d == 0


def test_owner_restart_needs_the_owner_at_the_head():
    """A request whose arrival is within the clock's tolerance of now
    can be submitted ahead of the window's owner.  Here the owner
    dispatches just before its own arrival (at t=0, after a withdrawal
    kicks the dispatcher), its groups complete at once, and the second
    request, arriving between those completions and the owner's
    arrival, lands ahead of it in FIFO order.  The owner's next
    completion then must not restart in place: the oracle's pass stops
    at the new head run and opens its handoff window."""
    def drive(simulator_cls):
        sim = simulator_cls(nvidia_k20m())
        sim.open_begin(ExecutionMode.HARDWARE)
        sim.open_withdraw(sim.open_submit(
            KernelExecSpec("withdrawn", 1024, [1e-3], 1e6, 16, 0,
                           arrival_time=1.0)))
        owner = sim.open_submit(
            KernelExecSpec("owner", 1024, [1e-17] * 60, 1e6, 16, 0,
                           arrival_time=5e-16))
        sim.open_advance(0.0, inclusive=True)
        assert owner.start_time == 0.0 and owner.pending_count > 0
        if simulator_cls is GPUSimulator:
            assert sim._hw_partial is owner
        sim.open_submit(KernelExecSpec("ahead", 1024, [1e-4] * 3, 1e6, 16,
                                       0, arrival_time=2e-16))
        assert sim.runs[0].spec.name == "ahead"
        sim.open_drain()
        return ([(run.spec.name, run.start_time, run.finish_time)
                 for run in sim.runs], sim.events_processed)
    assert drive(GPUSimulator) == drive(ReferenceGPUSimulator)


# -- wave admission -----------------------------------------------------------

# (threads, registers per thread, local memory, groups) of a kernel on
# the K20m (2048 threads, 65,536 registers, 48 KiB and 16 groups per
# CU): the slots, the registers (no local memory) or the local memory
# (no registers) bind, and a 13-group kernel's one-group queue binds
# first
FOOTPRINTS = {
    "slots": (64, 0, 0, 13 * 40),
    "registers": (192, 40, 0, 13 * 40),
    "local-memory": (256, 0, 8192, 13 * 40),
    "short-queue": (64, 16, 1024, 13),
}
K_MAX = {"slots": 16, "registers": 8, "local-memory": 6}


def _prefill(cu, footprint, fits):
    """Leave room on ``cu`` for ``fits`` more groups of ``footprint``
    (None: leave it empty) by holding half a group beyond them."""
    if fits is None:
        return
    threads, regs, lmem = footprint
    cu.slots_free = min(cu.slots_free, fits + 1)
    for name, need in (("threads_free", threads),
                       ("registers_free", regs),
                       ("local_mem_free", lmem)):
        if need:
            setattr(cu, name, min(getattr(cu, name),
                                  fits * need + need // 2))


@pytest.mark.parametrize("oversubscribed", [False, True])
@pytest.mark.parametrize("fits", [0, 1, None], ids=["0", "1", "k_max"])
@pytest.mark.parametrize("binding", sorted(FOOTPRINTS))
def test_wave_admission_matches_one_group_at_a_time(binding, fits,
                                                    oversubscribed):
    """``_start_hw_wgs`` on one CU against the oracle's loop (``fits``
    then ``_start_hw_wg`` per group): the CU's integers, the run's
    residency counts, the bandwidth tracker and every pushed event,
    bit for bit.  Each group demands about a fifth of the device's bandwidth,
    so a wave oversubscribes it part-way, or from its first group when
    the device starts oversubscribed, and each group's stretch depends
    on the demand of the groups before it."""
    threads, regs_per_thread, lmem, total = FOOTPRINTS[binding]
    spec = KernelExecSpec(binding, threads, [1e-4 * (1 + i % 7)
                                             for i in range(total)],
                          4e10, regs_per_thread, lmem)

    def start(simulator_cls):
        sim = simulator_cls(nvidia_k20m())
        sim.open_begin(ExecutionMode.HARDWARE)
        run = sim.open_submit(spec)
        cu = sim.cus[3]
        _prefill(cu, run.footprint, fits)
        if oversubscribed:
            sim.bandwidth.demand = 1.5 * sim.bandwidth.capacity
            sim.bandwidth.resident = 40
        now = 2e-3
        if simulator_cls is GPUSimulator:
            sim._start_hw_wgs(run, cu, now)
        else:
            queue = run.cu_queues[cu.index]
            while queue and cu.fits(spec):
                sim._start_hw_wg(run, cu, queue.popleft(), now)
        # the submit's arrival event has no payload
        events = sorted((at, payload[2], payload[3])
                        for at, _, _, payload in sim.events._heap
                        if payload is not None)
        return ((cu.threads_free, cu.registers_free, cu.local_mem_free,
                 cu.slots_free),
                (dict(run.cu_resident), run.resident, run.pending_count,
                 run.start_time, run.dispatch_done_time),
                (sim.bandwidth.demand, sim.bandwidth.resident), events)

    engine = start(GPUSimulator)
    assert engine == start(ReferenceGPUSimulator)
    started = len(engine[3])
    if fits is not None:
        assert started == fits
    elif binding == "short-queue":
        assert started == 1
    else:
        assert started == K_MAX[binding]
