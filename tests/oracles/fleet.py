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
  placement record names, and it is harvested exactly once.

:class:`CheckedFleetSimulator` runs both.  A failure is an
``AssertionError`` naming the cell (the ``label`` given at
construction, e.g. the scheme and seed), the event time and the device.
"""

from repro.sim import FleetSimulator


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


class CheckedFleetSimulator(ConservationCheckedFleetSimulator,
                            BoundCheckedFleetSimulator):
    """Both run-time checks of the fleet loop at once."""
