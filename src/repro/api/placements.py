"""The cross-device placement-policy registry (fleet experiments).

Placement policies are stateful (round-robin cursors, tenant homes,
burst trackers), so the registry stores *factories*:
:func:`placement_from_name` returns a fresh instance per call and two
experiments can never share cursor state.  The stock policies of
:mod:`repro.accelos.placement` are pre-registered — the three offline
policies plus the closed-loop-only online ones (``burst-aware``,
``work-stealing``); ``register_placement`` adds a user policy, after
which fleet specs (:class:`repro.api.spec.ExperimentSpec`) and the
fleet harness accept its name everywhere.

:data:`REBALANCERS` is the re-balancer registry of the spec's
``rebalance`` field: each entry wraps an *online* policy with a
cross-device re-balancing hook (see docs/PLACEMENT.md).
"""

from __future__ import annotations

from repro.accelos.placement import (AffinityPlacement,
                                     BurstAwareOnlinePlacement,
                                     LeastLoadedPlacement,
                                     OnlinePlacementPolicy, PlacementPolicy,
                                     RoundRobinPlacement,
                                     WorkStealingRebalance)
from repro.api.registry import Registry
from repro.errors import SimulationError

PLACEMENTS = Registry("placement policy")
REBALANCERS = Registry("re-balancer")


def register_placement(name, factory, replace=False):
    """Register a zero-argument factory of :class:`PlacementPolicy`."""
    if not callable(factory):
        raise SimulationError(
            "placement factories must be callable, got {!r}".format(
                type(factory).__name__))
    PLACEMENTS.register(name, factory, replace=replace)
    return factory


def unregister_placement(name):
    """Remove a registered placement (tests clean up their toys)."""
    PLACEMENTS.unregister(name)


def placement_from_name(placement):
    """A fresh policy instance for ``placement`` (a registered name); a
    :class:`PlacementPolicy` / :class:`OnlinePlacementPolicy` instance
    passes through unchanged.  Unknown names raise listing every
    registered policy."""
    if isinstance(placement, (PlacementPolicy, OnlinePlacementPolicy)):
        return placement
    policy = PLACEMENTS.from_name(placement)()
    if not isinstance(policy, (PlacementPolicy, OnlinePlacementPolicy)):
        raise SimulationError(
            "placement factory {!r} built {!r}, not a "
            "PlacementPolicy".format(placement, type(policy).__name__))
    return policy


def is_online_placement(policy):
    """True when ``policy`` (instance or registered name) speaks the
    closed-loop protocol and cannot run in the offline pre-pass."""
    return isinstance(placement_from_name(policy), OnlinePlacementPolicy)


def register_rebalancer(name, wrapper, replace=False):
    """Register a re-balancer: ``wrapper(online_policy) -> online policy``
    adding a :meth:`~repro.accelos.placement.OnlinePlacementPolicy.rebalance`
    hook around any online placement policy."""
    if not callable(wrapper):
        raise SimulationError(
            "re-balancer wrappers must be callable, got {!r}".format(
                type(wrapper).__name__))
    REBALANCERS.register(name, wrapper, replace=replace)
    return wrapper


def unregister_rebalancer(name):
    """Remove a registered re-balancer (tests clean up their toys)."""
    REBALANCERS.unregister(name)


def rebalancer_from_name(name):
    """The wrapper registered under ``name`` (raises listing the valid
    names)."""
    return REBALANCERS.from_name(name)


def rebalancer_names():
    """All registered re-balancer names, in registration order."""
    return REBALANCERS.names()


def placement_names():
    """All registered placement names, in registration order."""
    return PLACEMENTS.names()


def default_policies():
    """Fresh instances of every registered *offline* policy, keyed by name.

    User-registered policies appear here too; one fresh instance per
    call, so shared-cursor state can never leak between experiments.
    Closed-loop-only (online) policies are excluded — they need live
    fleet state, which offline placement never reads; list them via
    :func:`placement_names` + :func:`is_online_placement` instead.
    """
    policies = {name: placement_from_name(name)
                for name in placement_names()}
    return {name: policy for name, policy in policies.items()
            if not isinstance(policy, OnlinePlacementPolicy)}


register_placement(RoundRobinPlacement.name, RoundRobinPlacement)
register_placement(LeastLoadedPlacement.name, LeastLoadedPlacement)
register_placement(AffinityPlacement.name, AffinityPlacement)
register_placement(BurstAwareOnlinePlacement.name,
                   BurstAwareOnlinePlacement)
register_placement("work-stealing", WorkStealingRebalance)

# ``rebalance="work-stealing"`` in a spec composes the steal hook around
# whatever placement the cell names (keeping that placement's name for
# result selection); the "work-stealing" *placement* above is the same
# hook around the default burst-aware chooser.
register_rebalancer(
    "work-stealing",
    lambda policy: WorkStealingRebalance(inner=policy, name=policy.name))
