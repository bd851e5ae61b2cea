"""Named device models for serializable experiment specs.

A spec cannot carry a :class:`~repro.cl.device.DeviceSpec` object —
specs serialize.  Instead a fleet entry names a registered *base* device
plus optional derating scales, and :func:`build_device` rebuilds the
concrete model.  The paper's two evaluation platforms are pre-registered;
``register_device`` adds further models (a factory returning a fresh
``DeviceSpec``), after which specs can name them.
"""

from __future__ import annotations

from repro.api.registry import Registry
from repro.cl.device import amd_r9_295x2, derated_device, nvidia_k20m
from repro.errors import SimulationError

DEVICES = Registry("device")


def register_device(name, factory, replace=False):
    """Register a zero-argument ``DeviceSpec`` factory under ``name``."""
    if not callable(factory):
        raise SimulationError(
            "device factories must be callable, got {!r}".format(
                type(factory).__name__))
    DEVICES.register(name, factory, replace=replace)
    return factory


def device_from_name(name):
    """A fresh ``DeviceSpec`` of one registered device model."""
    return DEVICES.from_name(name)()


def device_names():
    """All registered device-model names, in registration order."""
    return DEVICES.names()


def build_device(entry):
    """The concrete ``DeviceSpec`` of one :class:`~repro.api.spec.DeviceEntry`.

    Undersped entries (``clock_scale``/``cu_scale`` below 1) become
    derated siblings whose *name* encodes the base model and both scales,
    for display only: calibration (isolated times) keys on the frozen
    device value, so equal entries share one table and different
    deratings never do, whatever they are called.
    """
    base = device_from_name(entry.base)
    if entry.clock_scale == 1.0 and entry.cu_scale == 1.0:
        return base
    # repr floats: shortest round-trip form, so near-equal scales
    # ({:g} would collapse them) still display apart
    name = "{}[clock={!r},cu={!r}]".format(entry.base, entry.clock_scale,
                                           entry.cu_scale)
    return derated_device(base, name, clock_scale=entry.clock_scale,
                          cu_scale=entry.cu_scale)


register_device("nvidia-k20m", nvidia_k20m)
register_device("amd-r9-295x2", amd_r9_295x2)
