"""Run-time checkers of the fleet drive loop (``repro.sim.fleet``).

:class:`~repro.sim.fleet.FleetSimulator` runs its devices apart between
re-balance hook calls, each up to the other devices' finish bounds.
Two subclasses check, while a fleet runs, what that rests on:

* :class:`BoundCheckedFleetSimulator` records every bound a session
  returns.  When a device finishes a request or goes idle, the event
  time must be at least the last bound the device gave since its last
  finish, idle transition, submit or withdraw.  At every hook, no device
  may have processed an event past the hook's time;
* :class:`ConservationCheckedFleetSimulator` follows every key through
  submit, withdraw (a migration's first half) and harvest.  A key lives
  on exactly one session at a time, the session the loop's own
  placement record names, and it is harvested exactly once;
* :class:`StatusCheckedFleetSimulator` compares every field a policy
  reads from a snapshot with the eager scan the loop once made, once
  the policy call returns, and each session's index of withdrawable
  requests with a full walk of the session.

:class:`CheckedFleetSimulator` runs all three.  A failure is an
``AssertionError`` naming the cell (the ``label`` given at
construction, e.g. the scheme and seed), the event time and the device.
"""

from repro.api.schemes import ElasticOpenSession, GpuOpenSession
from repro.sim import ExecutionMode, FleetSimulator, FleetStatus


class _Checker(FleetSimulator):
    """Shared plumbing: the ``label`` and per-session method wrapping."""

    def __init__(self, *args, label="", **kwargs):
        super().__init__(*args, **kwargs)
        self.label = label
        for j, session in enumerate(self.sessions):
            self._wrap(j, session)

    def _wrap(self, j, session):
        pass

    def _fail(self, j, time, what):
        raise AssertionError("{}: device {} at t={!r}: {}".format(
            self.label or "fleet run", self.fleet[j].id, time, what))

    @staticmethod
    def _around(session, name, after):
        """Replace ``session.name`` by a call of the original followed by
        ``after(args, result)``."""
        original = getattr(session, name)

        def wrapped(*args):
            result = original(*args)
            after(args, result)
            return result
        setattr(session, name, wrapped)


class BoundCheckedFleetSimulator(_Checker):
    """Checks every finish and idle transition against the last finish
    bound its device gave, and every hook against the devices' clocks.

    ``bounds_checked`` counts the finishes and idle transitions that had
    a bound to check, so a test can show the check ran.
    """

    def __init__(self, *args, **kwargs):
        self._bounds = {}
        self._last_event = {}
        self.bounds_checked = 0
        super().__init__(*args, **kwargs)

    def _wrap(self, j, session):
        super()._wrap(j, session)
        bounds = self._bounds

        def record(args, bound):
            bounds[j] = bound

        def check(args, result):
            if result is None:
                return
            time, finished = result
            self._last_event[j] = time
            if finished or session.peek() is None:
                bound = bounds.pop(j, None)
                if bound is not None:
                    self.bounds_checked += 1
                    if time < bound:
                        self._fail(j, time, "{} before its finish bound "
                                   "{!r}".format(
                                       "finished a request" if finished
                                       else "went idle", bound))

        def forget(args, result):
            bounds.pop(j, None)
        self._around(session, "finish_bound", record)
        self._around(session, "advance", check)
        self._around(session, "submit", forget)
        self._around(session, "withdraw", forget)

    def _maybe_rebalance(self, now):
        for j, time in self._last_event.items():
            if time > now:
                self._fail(j, time, "processed an event past the re-balance "
                           "hook at t={!r}".format(now))
        super()._maybe_rebalance(now)


class ConservationCheckedFleetSimulator(_Checker):
    """Checks that every placed key lives on exactly one session, the one
    its placement record names, and is harvested exactly once."""

    def __init__(self, *args, **kwargs):
        self._home = {}                 # key -> index of its session
        self._harvested = set()
        super().__init__(*args, **kwargs)

    def _wrap(self, j, session):
        super()._wrap(j, session)
        home = self._home

        def submitted(args, result):
            key, _arrival, effective = args
            if key in home:
                self._fail(j, effective, "request {} submitted while it "
                           "lives on device {}".format(
                               key, self.fleet[home[key]].id))
            if key in self._harvested:
                self._fail(j, effective, "request {} submitted after its "
                           "harvest".format(key))
            home[key] = j

        def withdrawn(args, effective):
            key = args[0]
            if home.get(key) != j:
                self._fail(j, effective, "request {} withdrawn from a "
                           "device it does not live on".format(key))
            del home[key]

        def harvested(args, out):
            for key, _start, finish in out:
                if home.get(key) != j:
                    self._fail(j, finish, "request {} harvested from a "
                               "device it does not live on".format(key))
                if key in self._harvested:
                    self._fail(j, finish, "request {} harvested "
                               "twice".format(key))
                del home[key]
                self._harvested.add(key)
        self._around(session, "submit", submitted)
        self._around(session, "withdraw", withdrawn)
        self._around(session, "harvest", harvested)

    def _check_homes(self, now):
        """Every outstanding placed key lives where the loop placed it."""
        if len(self._home) != len(self._placed):
            stray = set(self._home).symmetric_difference(self._placed)
            key = min(stray)
            j = self._home.get(key, self._placed[key].index
                               if key in self._placed else 0)
            self._fail(j, now, "request {} is {}".format(
                key, "placed but on no device" if key in self._placed
                else "on a device but not placed"))
        for key, entry in self._placed.items():
            if self._home.get(key) != entry.index:
                self._fail(entry.index, now, "request {} lives on device "
                           "{}".format(key, self._home.get(key)))

    def _maybe_rebalance(self, now):
        self._check_homes(now)
        super()._maybe_rebalance(now)
        self._check_homes(now)

    def _drive(self, keyed, on_record):
        self._home.clear()
        self._harvested.clear()
        count = super()._drive(keyed, on_record)
        if self._home or len(self._harvested) != count:
            self._fail(0, None, "{} requests placed, {} harvested, {} still "
                       "on a device".format(count, len(self._harvested),
                                            len(self._home)))
        return count


class _CheckedStatus(FleetStatus):
    """A fleet snapshot that runs ``after_seal()`` once the loop seals it,
    i.e. right after the policy call it was built for returned."""

    __slots__ = ("_after_seal",)

    def __init__(self, status, after_seal):
        super().__init__(status.now, status.devices, status.estimate)
        self._after_seal = after_seal

    def seal(self):
        super().seal()
        self._after_seal()


class StatusCheckedFleetSimulator(_Checker):
    """Checks every field a policy reads from a device snapshot against
    the eager scan the loop made before snapshots became lazy.

    When the loop builds a snapshot the checker walks each session in
    full, without calling ``queued()`` (so it prunes nothing), and keeps
    the expected ``(queued, backlog_seconds, active_count)``.  Once the
    policy call returns and the loop seals the snapshot, each field the
    policy read must equal the expected value; fields it did not read
    are left unread, so sessions are read and pruned as in an unchecked
    run.  For a :class:`~repro.api.schemes.GpuOpenSession` the walk is
    the eager scan itself: ``queued`` is every entry of ``_entries``, in
    order, that ``open_withdrawable`` accepts, pinned requests left out;
    ``backlog_seconds`` the outstanding isolated work summed left to
    right in entry order; ``active_count`` the entries neither finished
    nor withdrawable.  For an
    :class:`~repro.api.schemes.ElasticOpenSession` it is derived from the
    session's launch state: the queue is every request not yet packed
    into a launch, in ``(effective, seq)`` order, its backlog their
    isolated times plus the running launch's remaining time, and the
    active count the keys of the running launch.

    Before the call and again after it, a ``GpuOpenSession``'s index of
    withdrawable requests (``_waiting``) must hold, in entry order, every
    entry the walk finds withdrawable, and no key that has left the
    session: an entry pruned while still withdrawable, or one a withdraw
    or harvest left behind, fails.

    ``status_checks`` counts the device snapshots checked, ``reads``
    the fields compared by name, and ``clock_held`` the withdrawable
    firmware entries, on queues a policy read, whose dispatch window was
    already set, so that only the device clock, still short of their
    effective arrival, kept them withdrawable: a test can show the
    checks ran where firmware withdrawability rests on the clock.
    """

    def __init__(self, *args, **kwargs):
        self.status_checks = 0
        self.reads = dict(queued=0, backlog_seconds=0, active_count=0)
        self.clock_held = 0
        super().__init__(*args, **kwargs)

    def _status(self, now):
        status = super()._status(now)
        expected = [self._eager(j, now) for j in range(len(status.devices))]
        return _CheckedStatus(status,
                              lambda: self._compare(status, expected))

    def _compare(self, status, expected):
        now = status.now
        for j, device in enumerate(status.devices):
            queued, backlog, active, held = expected[j]
            # the fields the policy read are the ones the snapshot keeps
            read = []
            if device._queued is not None:
                self.clock_held += held
                read.append(("queued", [
                    (entry.key, entry.name, entry.tenant,
                     entry.effective_time) for entry in device._queued],
                    queued))
            if device._backlog is not None:
                read.append(("backlog_seconds", device._backlog, backlog))
            if device._active is not None:
                read.append(("active_count", device._active, active))
            for field, lazy, eager in read:
                if lazy != eager:
                    self._fail(j, now, "snapshot {} {!r} differs from the "
                               "eager scan {!r}".format(field, lazy, eager))
                self.reads[field] += 1
            self._check_index(j, now)
            self.status_checks += 1

    def _check_index(self, j, now):
        """``_waiting`` holds, in entry order, every withdrawable entry of
        the session and no key that left it."""
        session = self.sessions[j]
        if not isinstance(session, GpuOpenSession):
            return
        entries = session._entries
        waiting = session._waiting
        stray = waiting.keys() - entries.keys()
        if stray:
            self._fail(j, now, "requests {} are indexed as withdrawable but "
                       "no longer on the session".format(sorted(stray)))
        sim = session._sim
        indexed = [key for key in entries if key in waiting]
        if indexed != list(waiting):
            self._fail(j, now, "the withdrawable index is out of submission "
                       "order: {} against {}".format(list(waiting), indexed))
        for key, (arrival, run) in entries.items():
            if key not in waiting and sim.open_withdrawable(run):
                self._fail(j, now, "request {} is withdrawable but not "
                           "indexed".format(key))

    def _eager(self, j, now):
        session = self.sessions[j]
        self._check_index(j, now)
        placed = self._placed
        if isinstance(session, ElasticOpenSession):
            isolated = session._isolated
            queued = [(key, arrival.name, arrival.tenant, effective)
                      for effective, _seq, key, arrival
                      in sorted(session._waiting)
                      if not placed[key].pinned]
            backlog = sum(isolated[arrival.name]
                          for *_, arrival in sorted(session._waiting))
            if session._busy_until is not None:
                backlog += max(0.0, session._busy_until - now)
            return queued, backlog, len(session._inflight_keys), 0
        if not isinstance(session, GpuOpenSession):
            self._fail(j, now, "no eager scan for a {}".format(
                type(session).__name__))
        sim = session._sim
        entries = session._entries
        queued = []
        held = 0
        for key, (arrival, run) in entries.items():
            if sim.open_withdrawable(run):
                if sim._open_mode == ExecutionMode.HARDWARE \
                        and run.dispatch_ready_time is not None:
                    held += 1
                if not placed[key].pinned:
                    queued.append((key, arrival.name, arrival.tenant,
                                   run.spec.arrival_time))
        backlog = 0.0
        for arrival, run in entries.values():
            if run.finish_time is None and run.total > 0:
                backlog += session._isolated[arrival.name] * (
                    (run.total - run.completed) / run.total)
        active = sum(1 for _, run in entries.values()
                     if run.finish_time is None
                     and not sim.open_withdrawable(run))
        return queued, backlog, active, held


class CheckedFleetSimulator(StatusCheckedFleetSimulator,
                            ConservationCheckedFleetSimulator,
                            BoundCheckedFleetSimulator):
    """All three run-time checks of the fleet loop at once."""
