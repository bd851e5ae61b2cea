"""Scenario traffic engine: realistic arrival patterns for the open system.

The paper evaluates fairness under fixed co-run mixes; a production
deployment instead sees *traffic* — bursty, diurnal, heavy-tailed,
multi-tenant.  This module defines composable, seeded traffic models that
all compile down to the :class:`~repro.workloads.arrivals.ArrivalRequest`
stream format, so everything downstream (``GPUSimulator.run_open``,
:class:`~repro.harness.open_system.OpenSystemExperiment`,
:class:`~repro.harness.open_system.FleetOpenSystemExperiment`) consumes
them unchanged.

Traffic models
--------------

* :class:`PoissonScenario` — memoryless steady load (the PR 1 generator
  behind a scenario interface); the control every other model is compared
  against.
* :class:`MMPPScenario` — Markov-modulated Poisson: an ON/OFF state chain
  with exponential sojourns; the ON state fires ``burst`` times faster than
  the OFF state.  The time-average rate equals the requested rate, so
  scenarios are load-comparable.
* :class:`DiurnalScenario` — sinusoid-modulated Poisson via thinning
  (Lewis & Shedler): ``lambda(t) = rate * (1 + amplitude*sin(2*pi*t/T))``.
  The period is expressed in *expected arrivals per cycle* so one scenario
  description works at any absolute rate.
* :class:`MultiTenantScenario` — a weighted mix of per-tenant
  sub-scenarios (any of the above — scenarios compose), each substream
  tagged with its tenant (and optionally pinned to a device); merged by
  arrival time.

Service-demand shaping is orthogonal to the arrival-time process: every
scenario accepts a ``weights`` vector over its kernel name pool, and
:func:`heavy_tailed_weights` builds one whose *service demand* distribution
follows a truncated Pareto or lognormal over the corpus's ~40x reference
demand span (mostly light kernels, occasionally a monster — the classic
production profile).

Seeding contract
----------------

``iter_arrivals(rate, count, seed)`` is a pure function of
``(scenario parameters, rate, count, seed)`` via :func:`repro.util.make_rng`
— the same call replays bit-for-bit, different seeds give independent
streams, and no scenario shares RNG state with another (multi-tenant
substreams derive per-tenant child seeds).  Scenario *construction* never
draws randomness.  ``generate(...)`` is exactly
``list(iter_arrivals(...))``, so the eager and lazy paths cannot diverge.

Laziness contract
-----------------

:meth:`TrafficScenario.iter_arrivals` yields arrivals one at a time in
nondecreasing arrival-time order and holds O(1) state per simple scenario
(O(#tenants) for the multi-tenant merge) — million-request streams never
materialise.  See ``docs/SCALING.md``.

Registry
--------

:data:`SCENARIOS` maps scenario names to zero-argument factories;
:func:`from_name` resolves a name and generates its stream at an offered
load (``rho = rate * E[S_isolated]``, the PR 1 load convention).
"""

from __future__ import annotations

import heapq
import math

from repro.errors import SimulationError
from repro.util import make_rng
from repro.workloads.arrivals import ArrivalRequest
from repro.workloads.parboil import PROFILE_NAMES, profile_by_name


def reference_demand(name):
    """Device-independent service demand of one corpus kernel (seconds of
    reference-CU work: mean WG cost times group count)."""
    profile = profile_by_name(name)
    return profile.n_wgs * profile.wg_cost_us * 1e-6


def heavy_tailed_weights(names=None, dist="pareto", shape=1.1):
    """Name-selection weights making the *service demand* heavy-tailed.

    Ranks the pool by :func:`reference_demand` and assigns each kernel the
    probability mass its demand bin carries under a truncated Pareto
    (``dist="pareto"``, tail exponent ``shape``) or lognormal
    (``dist="lognormal"``, ``sigma = shape``) over the pool's demand span.
    Bin edges are geometric midpoints between consecutive distinct demands,
    so ties share one bin and the weighting is a pure function of the pool.

    Returns ``(names, weights)`` with names in demand order and weights
    summing to 1.
    """
    pool = list(names) if names is not None else list(PROFILE_NAMES)
    if not pool:
        raise SimulationError("empty kernel name pool")
    if shape <= 0:
        raise SimulationError("tail shape must be positive")
    ranked = sorted(pool, key=lambda n: (reference_demand(n), n))
    demands = [reference_demand(n) for n in ranked]
    low, high = demands[0], demands[-1]
    if low <= 0:
        raise SimulationError("reference demands must be positive")
    if high == low:
        return ranked, [1.0 / len(ranked)] * len(ranked)

    def cdf(x):
        x = min(max(x, low), high)
        if dist == "pareto":
            # Pareto(alpha) truncated to [low, high]
            a = 1.0 - (low / x) ** shape
            total = 1.0 - (low / high) ** shape
            return a / total
        if dist == "lognormal":
            # lognormal(mu, sigma) truncated to [low, high]; mu centres the
            # distribution on the pool's geometric mean
            mu = 0.5 * (math.log(low) + math.log(high))
            z = (math.log(x) - mu) / shape
            phi = 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
            z_lo = (math.log(low) - mu) / shape
            z_hi = (math.log(high) - mu) / shape
            lo = 0.5 * (1.0 + math.erf(z_lo / math.sqrt(2.0)))
            hi = 0.5 * (1.0 + math.erf(z_hi / math.sqrt(2.0)))
            return (phi - lo) / (hi - lo)
        raise SimulationError("unknown demand distribution {!r}".format(dist))

    # bin per *distinct* demand so tied kernels split one bin's mass
    distinct = sorted(set(demands))
    multiplicity = {d: demands.count(d) for d in distinct}
    edges = [low]
    for a, b in zip(distinct, distinct[1:]):
        edges.append(math.sqrt(a * b))
    edges.append(high)
    bin_mass = {
        d: max(0.0, cdf(edges[i + 1]) - cdf(edges[i]))
        for i, d in enumerate(distinct)
    }
    weights = [bin_mass[d] / multiplicity[d] for d in demands]
    total = sum(weights)
    if total <= 0:
        raise SimulationError("degenerate demand weighting")
    return ranked, [w / total for w in weights]


class TrafficScenario:
    """Base class: a named, parameterised arrival-stream model.

    Subclasses implement :meth:`generate`; all randomness must flow through
    :meth:`_rng` so the seeding contract holds.  ``names``/``weights``
    configure the kernel mix (uniform over the corpus by default).
    """

    kind = "abstract"

    def __init__(self, names=None, weights=None, description=""):
        self.names = list(names) if names is not None else list(PROFILE_NAMES)
        if not self.names:
            raise SimulationError("empty kernel name pool")
        if weights is not None:
            weights = [float(w) for w in weights]
            if len(weights) != len(self.names):
                raise SimulationError(
                    "need one weight per kernel name ({} != {})".format(
                        len(weights), len(self.names)))
            if any(w < 0 for w in weights) or sum(weights) <= 0:
                raise SimulationError("weights must be non-negative with a "
                                      "positive sum")
            total = sum(weights)
            weights = [w / total for w in weights]
        self.weights = weights
        self.description = description

    # -- seeding -----------------------------------------------------------

    def _seed_parts(self):
        """Scenario parameters that distinguish RNG streams (override and
        extend in subclasses)."""
        parts = [self.kind, *self.names]
        if self.weights is not None:
            parts += ["w"] + ["{:.12g}".format(w) for w in self.weights]
        return parts

    def _rng(self, rate, count, seed):
        return make_rng("scenario", rate, count, seed, *self._seed_parts())

    # -- building blocks ---------------------------------------------------

    def _pick_name(self, rng):
        if self.weights is None:
            return self.names[int(rng.integers(len(self.names)))]
        u = float(rng.random())
        acc = 0.0
        for name, weight in zip(self.names, self.weights):
            acc += weight
            if u < acc:
                return name
        return self.names[-1]

    def _check(self, rate, count):
        if rate <= 0:
            raise SimulationError("arrival rate must be positive")
        if count <= 0:
            raise SimulationError("need at least one arrival")

    # -- interface ---------------------------------------------------------

    def restrict_names(self, names):
        """Restrict the kernel pool while keeping the traffic shape.

        A demand weighting is *conditioned* on the surviving pool — kept
        names retain their relative weights, renormalised — so a
        heavy-tailed scenario stays heavy-tailed over the subset rather
        than silently degrading to uniform.  Restricting a weighted
        scenario to a name outside its pool is an error (there is no
        weight to condition on).  Composite scenarios override to reach
        their sub-scenarios.
        """
        names = list(names)
        if not names:
            raise SimulationError("empty kernel name pool")
        if self.weights is None:
            # same contract as the weighted branch: a *restriction* draws
            # from the current pool — anything else would silently expand
            # the scenario's traffic
            unknown = [n for n in names if n not in self.names]
            if unknown:
                raise SimulationError(
                    "cannot restrict scenario to unknown kernel "
                    "{!r}".format(unknown[0]))
            self.names = names
            return
        # the base mix_weights() aggregates duplicate names (ties from
        # heavy_tailed_weights); split a name's conditional mass evenly
        # across its occurrences in the restricted pool.  Pinned to the
        # base implementation: composites override mix_weights() to
        # combine children, but this branch conditions the scenario's OWN
        # pool weighting.
        weight_of = TrafficScenario.mix_weights(self)
        try:
            kept = [weight_of[n] / names.count(n) for n in names]
        except KeyError as exc:
            raise SimulationError(
                "cannot restrict weighted scenario to unknown kernel "
                "{!r}".format(exc.args[0]))
        total = sum(kept)
        if total <= 0:
            raise SimulationError(
                "restricted pool carries zero weight in this scenario")
        self.names = names
        self.weights = [w / total for w in kept]

    def iter_arrivals(self, rate, count, seed=0):
        """Lazily yield ``count`` arrivals at time-average ``rate``
        (requests/second), in nondecreasing time order, without
        materialising the stream."""
        raise NotImplementedError

    def generate(self, rate, count, seed=0):
        """``count`` arrivals at time-average ``rate`` (requests/second).

        Exactly ``list(iter_arrivals(rate, count, seed))`` — the eager
        form exists for callers that index or re-iterate the stream.
        """
        return list(self.iter_arrivals(rate, count, seed=seed))

    def mix_weights(self):
        """``{kernel name: selection probability}`` of this scenario's
        effective request mix.  Composite scenarios override to combine
        their sub-scenarios' mixes, so load calibration sees the traffic
        actually generated."""
        weights = self.weights or [1.0 / len(self.names)] * len(self.names)
        mix = {}
        for name, weight in zip(self.names, weights):
            mix[name] = mix.get(name, 0.0) + weight
        return mix

    def mean_demand(self):
        """Expected reference service demand per request (seconds of
        reference-CU work) under this scenario's kernel mix."""
        return sum(w * reference_demand(n)
                   for n, w in self.mix_weights().items())

    def __repr__(self):
        return "<{} ({})>".format(type(self).__name__, self.kind)


class PoissonScenario(TrafficScenario):
    """Memoryless steady traffic: exponential inter-arrivals."""

    kind = "poisson"

    def iter_arrivals(self, rate, count, seed=0):
        self._check(rate, count)
        rng = self._rng(rate, count, seed)
        now = 0.0
        for _ in range(count):
            now += float(rng.exponential(1.0 / rate))
            yield ArrivalRequest(self._pick_name(rng), now)


class MMPPScenario(TrafficScenario):
    """Markov-modulated Poisson: ON/OFF bursts with exponential sojourns.

    ``burst`` is the ON/OFF rate ratio, ``on_fraction`` the long-run
    fraction of time spent ON, and ``burst_length`` the expected number of
    arrivals per ON sojourn (fixing the burst time scale relative to the
    traffic, not the wall clock).  The chain starts in its stationary
    state distribution and the stationary time-average rate equals the
    requested ``rate``; note that for *short* streams any clustered
    process delivers its nominal rate only approximately (the span to the
    N-th arrival of a bursty stream is upward-biased for small N), so
    cross-scenario load comparisons are tightest at longer stream lengths.
    """

    kind = "mmpp"

    def __init__(self, burst=8.0, on_fraction=0.25, burst_length=8.0,
                 **kwargs):
        super().__init__(**kwargs)
        if burst <= 1.0:
            raise SimulationError("burst factor must exceed 1")
        if not 0.0 < on_fraction < 1.0:
            raise SimulationError("on_fraction must be in (0, 1)")
        if burst_length <= 0:
            raise SimulationError("burst_length must be positive")
        self.burst = float(burst)
        self.on_fraction = float(on_fraction)
        self.burst_length = float(burst_length)

    def _seed_parts(self):
        return super()._seed_parts() + [self.burst, self.on_fraction,
                                        self.burst_length]

    def iter_arrivals(self, rate, count, seed=0):
        self._check(rate, count)
        rng = self._rng(rate, count, seed)
        # base (OFF) rate chosen so p_on*on + (1-p_on)*off == rate
        off_rate = rate / (1.0 + self.on_fraction * (self.burst - 1.0))
        on_rate = off_rate * self.burst
        mean_on = self.burst_length / on_rate
        mean_off = mean_on * (1.0 - self.on_fraction) / self.on_fraction
        # stationary start: a deterministic OFF start would prepend ~one
        # OFF sojourn and make short streams under-deliver the rate
        on = bool(float(rng.random()) < self.on_fraction)
        now = 0.0
        sojourn_end = float(rng.exponential(mean_on if on else mean_off))
        emitted = 0
        while emitted < count:
            state_rate = on_rate if on else off_rate
            candidate = now + float(rng.exponential(1.0 / state_rate))
            if candidate > sojourn_end:
                # memorylessness: jump to the switch point and redraw there
                now = sojourn_end
                on = not on
                sojourn_end = now + float(
                    rng.exponential(mean_on if on else mean_off))
                continue
            now = candidate
            emitted += 1
            yield ArrivalRequest(self._pick_name(rng), now)


class DiurnalScenario(TrafficScenario):
    """Sinusoid-rate Poisson traffic (day/night swings) via thinning.

    ``lambda(t) = rate * (1 + amplitude * sin(2*pi*t/period))`` with the
    period expressed as ``cycle_arrivals`` expected arrivals per cycle
    (``period = cycle_arrivals / rate``), so the same scenario shape holds
    at any load.  Thinning draws candidates at the peak rate and accepts
    with probability ``lambda(t)/lambda_peak`` — exact for any bounded
    rate function, and deterministic given the seed.
    """

    kind = "diurnal"

    def __init__(self, amplitude=0.8, cycle_arrivals=32.0, phase=0.0,
                 **kwargs):
        super().__init__(**kwargs)
        if not 0.0 < amplitude <= 1.0:
            raise SimulationError("amplitude must be in (0, 1]")
        if cycle_arrivals <= 0:
            raise SimulationError("cycle_arrivals must be positive")
        self.amplitude = float(amplitude)
        self.cycle_arrivals = float(cycle_arrivals)
        self.phase = float(phase)

    def _seed_parts(self):
        return super()._seed_parts() + [self.amplitude, self.cycle_arrivals,
                                        self.phase]

    def iter_arrivals(self, rate, count, seed=0):
        self._check(rate, count)
        rng = self._rng(rate, count, seed)
        period = self.cycle_arrivals / rate
        peak = rate * (1.0 + self.amplitude)
        now = 0.0
        emitted = 0
        while emitted < count:
            now += float(rng.exponential(1.0 / peak))
            lam = rate * (1.0 + self.amplitude * math.sin(
                2.0 * math.pi * now / period + self.phase))
            if float(rng.random()) * peak < lam:
                emitted += 1
                yield ArrivalRequest(self._pick_name(rng), now)


class MultiTenantScenario(TrafficScenario):
    """A weighted mix of per-tenant substreams, merged by arrival time.

    ``tenants`` maps tenant ids to either a weight (``float`` — substream
    gets that share of the total rate and count, served by ``default``'s
    model) or a ``(weight, scenario)`` pair for per-tenant traffic shapes —
    scenarios compose.  ``devices`` optionally pins tenants to fleet device
    ids (``{tenant: device_id}``), producing device-tagged streams for the
    placement layer.  Counts are apportioned by largest remainder so they
    always sum to the requested total.  Each substream derives its own
    child seed, so tenants draw from independent RNG streams — but rates
    and counts are properties of the *whole mix*: adding or reweighting a
    tenant changes every substream's rate share and count apportionment,
    and with them the actual arrival draws.
    """

    kind = "multi-tenant"

    def __init__(self, tenants, default=None, devices=None, **kwargs):
        super().__init__(**kwargs)
        if not tenants:
            raise SimulationError("need at least one tenant")
        self.tenants = {}
        for tenant, entry in tenants.items():
            if isinstance(entry, tuple):
                weight, child = entry
            else:
                weight, child = entry, None
            if weight <= 0:
                raise SimulationError("tenant weights must be positive")
            self.tenants[tenant] = (float(weight), child)
        self.default = default if default is not None \
            else PoissonScenario(names=self.names, weights=self.weights)
        self.devices = dict(devices) if devices else {}

    # No _seed_parts override: the composite never draws from its own RNG.
    # Tenant identity enters each child seed below, and every other mix
    # parameter (rate share via sub_rate, the child's kind and pool)
    # enters the child's own _rng seed parts.

    def restrict_names(self, names):
        super().restrict_names(names)
        self.default.restrict_names(names)
        for weight, child in self.tenants.values():
            if child is not None:
                child.restrict_names(names)

    def mix_weights(self):
        total = sum(w for w, _ in self.tenants.values())
        mix = {}
        for tenant in sorted(self.tenants, key=str):
            weight, child = self.tenants[tenant]
            child = child if child is not None else self.default
            share = weight / total
            for name, w in child.mix_weights().items():
                mix[name] = mix.get(name, 0.0) + share * w
        return mix

    def _apportion(self, count):
        """Split ``count`` across tenants by weight (largest remainder)."""
        # sort by str so comparison-incompatible tenant id types cannot
        # crash the deterministic ordering
        order = sorted(self.tenants, key=str)
        total_weight = sum(w for w, _ in self.tenants.values())
        shares = [(t, count * self.tenants[t][0] / total_weight)
                  for t in order]
        counts = {t: int(share) for t, share in shares}
        leftover = count - sum(counts.values())
        by_remainder = sorted(shares, key=lambda p: (-(p[1] - int(p[1])),
                                                     str(p[0])))
        for t, _ in by_remainder[:leftover]:
            counts[t] += 1
        return counts

    def _tenant_stream(self, tenant, rate, n, seed):
        """One tenant's tagged substream, lazily."""
        weight, child = self.tenants[tenant]
        child = child if child is not None else self.default
        total_weight = sum(w for w, _ in self.tenants.values())
        sub_rate = rate * weight / total_weight
        sub_seed = int(make_rng("tenant-seed", tenant, seed)
                       .integers(2**32))
        device = self.devices.get(tenant)
        for a in child.iter_arrivals(sub_rate, n, seed=sub_seed):
            yield ArrivalRequest(a.name, a.time, tenant=tenant,
                                 device=device)

    def iter_arrivals(self, rate, count, seed=0):
        self._check(rate, count)
        counts = self._apportion(count)
        # k-way lazy merge over the per-tenant substreams.  Each substream
        # is nondecreasing in time and constant in tenant, so merging on
        # (time, str(tenant), name) reproduces the historical
        # concatenate-then-stable-sort order exactly (substreams are fed
        # in sorted-tenant order, which the stable sort preserved on
        # ties); the goldens lock this.  Memory is O(#tenants), not
        # O(count).
        streams = [self._tenant_stream(tenant, rate, counts[tenant], seed)
                   for tenant in sorted(self.tenants, key=str)
                   if counts[tenant] > 0]
        return heapq.merge(
            *streams, key=lambda a: (a.time, str(a.tenant), a.name))


# -- registry -----------------------------------------------------------------

def _steady():
    return PoissonScenario(
        description="memoryless Poisson steady load, uniform kernel mix "
                    "(the PR 1 control)")


def _bursty():
    return MMPPScenario(
        burst=8.0, on_fraction=0.25, burst_length=8.0,
        description="Markov-modulated ON/OFF bursts: 8x rate surges a "
                    "quarter of the time")


def _diurnal():
    return DiurnalScenario(
        amplitude=0.8, cycle_arrivals=32.0,
        description="sinusoid day/night rate swing (+/-80%), ~32 requests "
                    "per cycle")


def _heavy_tailed():
    names, weights = heavy_tailed_weights(dist="pareto", shape=1.1)
    return PoissonScenario(
        names=names, weights=weights,
        description="Poisson arrivals, service demand Pareto(1.1)-weighted "
                    "over the corpus demand span")


def _heavy_lognormal():
    names, weights = heavy_tailed_weights(dist="lognormal", shape=1.2)
    return PoissonScenario(
        names=names, weights=weights,
        description="Poisson arrivals, lognormal(sigma=1.2) service-demand "
                    "mix")


def _multi_tenant():
    return MultiTenantScenario(
        tenants={
            "batch": (3.0, MMPPScenario(burst=6.0, on_fraction=0.3,
                                        burst_length=6.0)),
            "interactive": 2.0,
            "background": 1.0,
        },
        description="three tenants at 3:2:1 rate shares; the heavy tenant "
                    "is bursty, the others steady")


SCENARIOS = {
    "steady": _steady,
    "bursty": _bursty,
    "diurnal": _diurnal,
    "heavy-tailed": _heavy_tailed,
    "heavy-lognormal": _heavy_lognormal,
    "multi-tenant": _multi_tenant,
}


def scenario(name):
    """A fresh instance of one registered scenario."""
    try:
        factory = SCENARIOS[name]
    except KeyError:
        raise SimulationError("unknown scenario {!r} (have: {})".format(
            name, ", ".join(sorted(SCENARIOS))))
    return factory()


def calibrated_model(name, load=1.0, device=None, names=None):
    """Resolve a registered scenario and its load-calibrated rate.

    Returns ``(model, rate)`` — the shared first half of
    :func:`from_name` / :func:`iter_from_name`.
    """
    model = scenario(name)
    if names is not None:
        # restrict the kernel pool (sub-scenarios included) but keep the
        # scenario's traffic shape
        model.restrict_names(names)
    if device is None:
        from repro.cl import nvidia_k20m
        device = nvidia_k20m()
    # lazy import: the api layer depends on workloads, not the other way
    # around
    from repro.api.kernels import mix_arrival_rate
    return model, mix_arrival_rate(load, model.mix_weights(), device=device)


def from_name(name, seed=0, load=1.0, count=64, device=None, names=None):
    """Generate a registered scenario's stream at an offered load.

    ``load`` is the PR 1 convention ``rho = rate * E[S_isolated]``, with
    the mean service time taken under the scenario's *effective* kernel
    mix (:meth:`TrafficScenario.mix_weights` — sub-scenarios included) on
    ``device`` (default: the reference NVIDIA K20m); ``rho = 1`` saturates
    a serially-draining device.  Returns the :class:`ArrivalRequest`
    stream as a list; :func:`iter_from_name` is the lazy equivalent.
    """
    model, rate = calibrated_model(name, load=load, device=device,
                                   names=names)
    return model.generate(rate, count, seed=seed)


def iter_from_name(name, seed=0, load=1.0, count=64, device=None,
                   names=None):
    """Lazy :func:`from_name`: the identical stream as a generator.

    ``list(iter_from_name(...)) == from_name(...)`` bit for bit — same
    calibration, same seeds, no materialisation.
    """
    model, rate = calibrated_model(name, load=load, device=device,
                                   names=names)
    return model.iter_arrivals(rate, count, seed=seed)
