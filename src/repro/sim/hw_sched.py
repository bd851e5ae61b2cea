"""Firmware scheduler policies for concurrent kernels (paper §2.3, §8.2).

Both policies model the measured behaviour of standard OpenCL: "the
execution request that arrives first tends to reserve all the available
resources".

* :class:`FifoHardwareScheduler` (NVIDIA-like): work groups dispatch in
  strict kernel arrival order, but once a kernel has no *pending* groups
  left, the next kernel may start filling freed compute units — giving the
  drain-tail overlap the paper measures (~21% for 2 kernels).
* :class:`ExclusiveHardwareScheduler` (AMD-like): the next kernel starts
  only after the current one has fully *completed* (~0–4% overlap).

Each policy is a **head predicate**: ``blocks(run)`` says whether a
kernel holds back every kernel queued behind it.  The simulator keeps a
settled cursor into its arrival-ordered run list (no kernel before it
blocks; :meth:`repro.sim.gpu.GPUSimulator._hw_dispatch` advances it
monotonically), so ``eligible(index, kernels, settled)`` only checks
``kernels[settled:index]``.  Under FIFO the dispatcher reaches a kernel
only after passing every earlier one for having no pending groups, so
that slice never blocks; under the exclusive policy the check stops at
its first element, the oldest unfinished kernel.
"""

from __future__ import annotations


class HardwareScheduler:
    """Decides which kernels are eligible to dispatch work groups."""

    def blocks(self, run):
        """Does ``run`` keep every later kernel from dispatching?"""
        raise NotImplementedError

    def eligible(self, index, kernels, settled):
        """May ``kernels[index]`` dispatch?  No kernel before ``settled``
        blocks, so only ``kernels[settled:index]`` is checked."""
        raise NotImplementedError


class FifoHardwareScheduler(HardwareScheduler):
    name = "fifo"

    def blocks(self, run):
        """A kernel blocks while it has pending (undispatched) groups."""
        return run.pending_count > 0

    def eligible(self, index, kernels, settled):
        """Kernel ``index`` may dispatch iff all earlier kernels have no
        pending (undispatched) work groups."""
        for i in range(settled, index):
            if kernels[i].pending_count > 0:
                return False
        return True


class ExclusiveHardwareScheduler(HardwareScheduler):
    name = "exclusive"

    def blocks(self, run):
        """A kernel blocks until it has fully completed."""
        return not run.finished

    def eligible(self, index, kernels, settled):
        """Kernel ``index`` may dispatch iff all earlier kernels finished."""
        for i in range(settled, index):
            if not kernels[i].finished:
                return False
        return True


def scheduler_for(device):
    """The firmware scheduler matching a device's observed policy."""
    if device.scheduler_policy == "fifo":
        return FifoHardwareScheduler()
    if device.scheduler_policy == "exclusive":
        return ExclusiveHardwareScheduler()
    raise ValueError("unknown scheduler policy {!r}".format(
        device.scheduler_policy))
