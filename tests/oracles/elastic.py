"""Elastic Kernels as first written: the oracle for the packer and the
open session's launch memo.

:func:`reference_pack` is the whole-queue packer: it walks every spec,
closes a group when a trial fails and splits each closed group a second
time.  :class:`ReplayEveryLaunchSession` is the open session before it
packed only the queue head and kept a launch memo: each launch packs the
whole eligible queue with :func:`reference_pack`, keeps the first group
and simulates it on a fresh simulator at its start time.
tests/test_elastic_kernels.py draws queues and streams and demands
identical groups, intervals, busy times and engine event counts.
"""

from repro.api.kernels import base_spec
from repro.api.schemes import ElasticOpenSession, _replay_launch
from repro.baselines.elastic_kernels import MAX_MERGE, MergedGroup
from repro.errors import SchedulingError


def reference_pack(scheduler, specs):
    """``scheduler.pack(specs)`` as first written."""
    groups = []
    current = []
    for spec in specs:
        trial = current + [spec]
        allocation = scheduler._static_split(trial) \
            if len(trial) <= MAX_MERGE else None
        if allocation is None:
            if not current:
                raise SchedulingError(
                    "kernel {} does not fit the device alone".format(
                        spec.name))
            groups.append(_finish_group(scheduler, current))
            current = [spec]
        else:
            current = trial
    if current:
        groups.append(_finish_group(scheduler, current))
    return groups


def _finish_group(scheduler, specs):
    allocation = scheduler._static_split(specs)
    if allocation is None:
        raise SchedulingError("static split failed for a closed group")
    return MergedGroup(specs, allocation)


class ReplayEveryLaunchSession(ElasticOpenSession):
    """The Elastic Kernels session with no launch memo and whole-queue
    packing: every launch is simulated afresh."""

    def _launch(self):
        time = max(self._now, self._waiting[0][0])
        self._now = time
        eligible = [entry for entry in self._waiting
                    if entry[0] <= time + 1e-12]
        head = reference_pack(
            self._scheduler,
            [base_spec(entry[3].name) for entry in eligible])[0]
        launched = eligible[:len(head.specs)]
        del self._waiting[:len(launched)]
        intervals, self._busy_until, events = _replay_launch(
            self.device, self._scheduler, head, time)
        self.events_processed += events
        for entry, interval in zip(launched, intervals):
            self._results[entry[2]] = interval
        self._inflight = len(launched)
        self._inflight_keys = [entry[2] for entry in launched]
        return time
