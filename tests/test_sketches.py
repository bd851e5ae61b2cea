"""Property tests locking the streaming sketches to the exact path.

The accuracy contract documented in ``repro/metrics/sketches.py``:

* populations up to ``EXACT_COUNT`` values are *exact*: p50/p95/p99 are
  bit-equal to the ``tails`` linear-interpolation convention;
* past ``EXACT_COUNT``, every quantile of a non-negative population is
  within ``RELATIVE_ACCURACY`` (α) of the exact one, with no slack but
  float rounding (``ROUNDING``, relative); checked on heavy-tailed,
  tied, constant, zero-containing, sorted and log-uniform populations.
  Negative values are mirrored, so each order statistic's estimate is
  within α of its magnitude, and a quantile within α of the
  interpolated magnitudes;
* constant populations past ``EXACT_COUNT`` answer the constant, and
  the bucket count depends on the value range, not on the count;
* the sketch rejects NaN with the identical ``ValueError`` the exact
  path raises, and positive-slowdown violations with the identical
  message of the fairness/throughput metrics;
* sketch state is a pure function of the observation sequence (same
  values, same order => bit-equal state), and the quantiles of the
  multiset (any order => bit-equal quantiles).

The ``test_p2_*`` tests keep the ids of the tests written for the
sketch's earlier P² estimator, one per quantile, so each id's history
runs on; every one of them now checks the contract above, which is at
least as strict as the P² rank band it replaced.
"""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.metrics import (EXACT_COUNT, RELATIVE_ACCURACY, OnlineStats,
                           StreamingRecordSink, TailSketch, percentile,
                           tail_summary)
from repro.util import make_rng

QUANTILES = (50.0, 95.0, 99.0)
# the only slack the α bound allows: float rounding, relative
ROUNDING = 1e-12

# value strategies: finite, positive-ish magnitudes the simulator
# actually produces (slowdowns, delays in seconds)
VALUES = st.floats(min_value=1e-6, max_value=1e6,
                   allow_nan=False, allow_infinity=False)

# a heavy-tailed value: hypothesis draws the exponent, so magnitudes
# span six orders and ties are as likely as the draw makes them
HEAVY = st.floats(min_value=0.0, max_value=6.0).map(lambda e: 10.0 ** e)

# population sizes past the exact buffer
PAST_EXACT = st.integers(min_value=EXACT_COUNT + 1,
                         max_value=3 * EXACT_COUNT)


def sketch_of(values):
    sketch = TailSketch()
    for value in values:
        sketch.observe(value)
    return sketch


def quantiles_of(summary):
    return (summary.p50, summary.p95, summary.p99)


def alpha_bound(ordered, q):
    """α times the interpolated magnitudes of the two order statistics
    the exact ``q``-th percentile interpolates (α·exact on non-negative
    populations), plus float rounding."""
    rank = (len(ordered) - 1) * q / 100.0
    lower, upper = math.floor(rank), math.ceil(rank)
    fraction = rank - lower
    magnitude = (abs(ordered[lower]) * (1.0 - fraction)
                 + abs(ordered[upper]) * fraction)
    return (RELATIVE_ACCURACY + ROUNDING) * magnitude


def assert_within_alpha(values, quantiles=QUANTILES):
    assert len(values) > EXACT_COUNT
    ordered = sorted(values)
    summary = dict(zip(QUANTILES, quantiles_of(sketch_of(values).summary())))
    for q in quantiles:
        estimate, exact = summary[q], percentile(ordered, q)
        if ordered[0] >= 0.0:
            assert abs(estimate - exact) \
                <= (RELATIVE_ACCURACY + ROUNDING) * exact, (q, estimate,
                                                            exact)
        assert abs(estimate - exact) <= alpha_bound(ordered, q), \
            (q, estimate, exact)


def assert_exact(values, q):
    """The ``q``-th percentile of a buffered population: bit-equal."""
    assert len(values) <= EXACT_COUNT
    summary = dict(zip(QUANTILES, quantiles_of(sketch_of(values).summary())))
    assert summary[q] == percentile(values, q)


def population(draw_values, n, seed, label):
    """``n`` values of a seeded shape (hypothesis draws the shape's
    parameters and the seed, numpy the values)."""
    return [float(v) for v in draw_values(make_rng("sketch", label, seed),
                                          n)]


SEEDS = st.integers(min_value=0, max_value=10**6)


# -- the exact buffer ---------------------------------------------------------

@pytest.mark.parametrize("q", QUANTILES)
@given(values=st.lists(st.one_of(VALUES, st.sampled_from([1.0, 2.0, 5.0])),
                       min_size=1, max_size=EXACT_COUNT))
@settings(max_examples=40, deadline=None)
def test_p2_within_rank_window_general(q, values):
    """Every population of at most ``EXACT_COUNT`` values is answered
    bit-equal to the exact convention, tied ones included."""
    assert_exact(values, q)


@pytest.mark.parametrize("q", QUANTILES)
@given(values=st.lists(VALUES, min_size=1, max_size=4))
@settings(max_examples=25, deadline=None)
def test_p2_exact_on_tiny_populations(q, values):
    """n < 5: the percentile interpolates between the few values there
    are, bit-equal to exact."""
    assert_exact(values, q)


@pytest.mark.parametrize("q", QUANTILES)
@given(n=st.integers(min_value=1, max_value=EXACT_COUNT), seed=SEEDS,
       zeros=st.floats(min_value=0.0, max_value=0.6),
       sign=st.sampled_from([1.0, -1.0]))
# the last value the buffer keeps
@example(n=EXACT_COUNT, seed=0, zeros=0.0, sign=1.0)
@settings(max_examples=25, deadline=None)
def test_p2_exact_up_to_warmup(q, n, seed, zeros, sign):
    """Heavy-tailed, zero-containing and negative populations of the
    exact buffer, up to its last value: bit-equal too."""
    assert_exact(population(
        lambda rng, size: sign * (rng.pareto(1.1, size) + 1.0)
        * (rng.random(size) >= zeros), n, seed, "exact"), q)


# -- the α bound past the buffer ----------------------------------------------

@pytest.mark.parametrize("q", QUANTILES)
@given(values=st.lists(HEAVY, min_size=EXACT_COUNT + 1,
                       max_size=EXACT_COUNT + 64))
@settings(max_examples=25, deadline=None)
def test_p2_within_rank_window_heavy_tailed(q, values):
    assert_within_alpha(values, (q,))


@given(n=PAST_EXACT, seed=SEEDS,
       shape=st.floats(min_value=0.5, max_value=3.0))
@settings(max_examples=25, deadline=None)
def test_tail_sketch_within_alpha_pareto(n, seed, shape):
    assert_within_alpha(population(
        lambda rng, size: rng.pareto(shape, size) + 1.0, n, seed,
        "pareto"))


@pytest.mark.parametrize("q", QUANTILES)
@given(atoms=st.lists(VALUES, min_size=1, max_size=4), n=PAST_EXACT,
       seed=SEEDS)
@settings(max_examples=25, deadline=None)
def test_p2_within_rank_window_tied_values(q, atoms, n, seed):
    """A few distinct values, each repeated many times."""
    assert_within_alpha(population(
        lambda rng, size: rng.choice(atoms, size), n, seed, "tied"), (q,))


@given(n=PAST_EXACT, seed=SEEDS,
       zeros=st.floats(min_value=0.05, max_value=0.95))
@settings(max_examples=25, deadline=None)
def test_tail_sketch_within_alpha_with_zeros(n, seed, zeros):
    """Zero queueing delays are counted apart and answer 0 exactly."""
    assert_within_alpha(population(
        lambda rng, size: rng.exponential(2.0, size)
        * (rng.random(size) >= zeros), n, seed, "zeros"))


@given(n=PAST_EXACT, seed=SEEDS, mixed=st.booleans())
@settings(max_examples=25, deadline=None)
def test_tail_sketch_within_alpha_negative(n, seed, mixed):
    """Negative values are mirrored: all-negative populations keep the
    α bound on magnitudes, mixed-sign ones the interpolated one."""
    def draw(rng, size):
        values = -(rng.pareto(1.5, size) + 1.0)
        if mixed:
            values[rng.random(size) < 0.5] *= -1.0
        return values
    assert_within_alpha(population(draw, n, seed, "negative"))


@pytest.mark.parametrize("q", QUANTILES)
@given(value=VALUES, n=PAST_EXACT)
@settings(max_examples=25, deadline=None)
def test_p2_exact_on_constant_population(q, value, n):
    """One bucket, clamped to the exact min and max: the constant."""
    summary = dict(zip(QUANTILES,
                       quantiles_of(sketch_of([value] * n).summary())))
    assert summary[q] == value


def _large_population(shape, n=5000, seed=7):
    rng = make_rng("sketch-large", shape, seed)
    if shape == "pareto":
        return list(rng.pareto(1.5, size=n) + 1.0)
    if shape == "uniform":
        return list(rng.uniform(0.5, 50.0, size=n))
    if shape == "log-uniform":
        return list(10.0 ** rng.uniform(-6.0, 6.0, size=n))
    if shape == "tied":
        return [float(v) for v in rng.choice([1.0, 2.0, 5.0], size=n,
                                             p=[0.6, 0.3, 0.1])]
    if shape == "sorted":
        return sorted(rng.pareto(1.5, size=n) + 1.0)
    if shape == "reversed":
        return sorted(rng.pareto(1.5, size=n) + 1.0, reverse=True)
    raise AssertionError(shape)


SHAPES = ["pareto", "uniform", "tied", "sorted", "log-uniform",
          "reversed"]


@pytest.mark.parametrize("q", QUANTILES)
@pytest.mark.parametrize("shape", SHAPES)
def test_p2_within_rank_window_beyond_warmup(shape, q):
    assert_within_alpha(_large_population(shape), (q,))


@pytest.mark.parametrize("shape", SHAPES)
def test_bucket_count_is_set_by_the_value_range(shape):
    """At most ⌈ln(max/min)/ln γ⌉ + 1 buckets, at any count."""
    values = _large_population(shape)
    sketch = sketch_of(values)
    log_gamma = math.log((1.0 + RELATIVE_ACCURACY)
                         / (1.0 - RELATIVE_ACCURACY))
    assert len(sketch._positive) \
        <= math.ceil(math.log(max(values) / min(values)) / log_gamma) + 1
    assert not sketch._negative and not sketch._zeros


@given(values=st.lists(VALUES, min_size=1, max_size=3 * EXACT_COUNT))
@settings(max_examples=25, deadline=None)
def test_tail_sketch_summary_mirrors_exact_moments(values):
    """count/max are exact, the mean to summation order; percentiles
    are bit-equal in the exact buffer and within α past it."""
    summary = sketch_of(values).summary()
    exact = tail_summary(values)
    assert summary.count == exact.count
    assert summary.max == exact.max
    assert summary.mean == pytest.approx(exact.mean, rel=1e-12)
    if len(values) <= EXACT_COUNT:
        assert quantiles_of(summary) == quantiles_of(exact)
    else:
        for estimate, want in zip(quantiles_of(summary),
                                  quantiles_of(exact)):
            assert abs(estimate - want) \
                <= (RELATIVE_ACCURACY + ROUNDING) * want


# -- contract parity with the exact path --------------------------------------

def exact_nan_message():
    with pytest.raises(ValueError) as excinfo:
        tail_summary([1.0, float("nan")])
    return str(excinfo.value)


@pytest.mark.parametrize("make", [
    lambda: OnlineStats(),
    lambda: TailSketch(),
    lambda: sketch_of([1.0] * (EXACT_COUNT + 1)),
])
def test_sketches_reject_nan_like_checked_sorted(make):
    sketch = make()
    sketch.observe(1.0)
    with pytest.raises(ValueError) as excinfo:
        sketch.observe(float("nan"))
    assert str(excinfo.value) == exact_nan_message()


class _Record:
    def __init__(self, slowdown, queueing_delay=0.0, turnaround=1.0,
                 finish=1.0, tenant=None):
        self.slowdown = slowdown
        self.queueing_delay = queueing_delay
        self.turnaround = turnaround
        self.finish = finish
        self.tenant = tenant


def test_streaming_sink_rejects_nan_and_nonpositive_slowdowns():
    sink = StreamingRecordSink()
    with pytest.raises(ValueError) as excinfo:
        sink.observe(_Record(float("nan")))
    assert str(excinfo.value) == exact_nan_message()
    with pytest.raises(ValueError, match="slowdowns must be positive"):
        sink.observe(_Record(0.0))
    with pytest.raises(ValueError, match="slowdowns must be positive"):
        sink.observe(_Record(-1.0))


def test_empty_sketches_raise_like_exact_path():
    with pytest.raises(ValueError, match="need at least one value"):
        OnlineStats().mean
    with pytest.raises(ValueError, match="need at least one value"):
        TailSketch().summary()


# -- determinism --------------------------------------------------------------

def _state(sketch):
    return (sketch._exact, sketch._positive, sketch._negative,
            sketch._zeros, sketch.summary().as_dict())


@pytest.mark.parametrize("q", QUANTILES)
@given(values=st.lists(VALUES, min_size=1, max_size=3 * EXACT_COUNT),
       seed=SEEDS)
@settings(max_examples=25, deadline=None)
def test_p2_state_is_pure_function_of_sequence(q, values, seed):
    assert _state(sketch_of(values)) == _state(sketch_of(list(values)))
    # the quantiles read counts of a multiset: any order, same answer
    shuffled = list(values)
    make_rng("sketch-order", seed).shuffle(shuffled)
    index = QUANTILES.index(q)
    assert quantiles_of(sketch_of(shuffled).summary())[index] \
        == quantiles_of(sketch_of(values).summary())[index]


def test_streaming_sink_replays_bit_identically():
    records = [_Record(1.0 + 0.37 * i, queueing_delay=0.01 * i,
                       turnaround=1.0 + 0.1 * i, finish=0.5 * i + 1.0,
                       tenant="t{}".format(i % 3))
               for i in range(64)]
    sinks = [StreamingRecordSink(), StreamingRecordSink()]
    for sink in sinks:
        for record in records:
            sink.observe(record)
    a, b = sinks
    assert a.inverse_slowdown_sum == b.inverse_slowdown_sum
    assert a.slowdown.summary().as_dict() == b.slowdown.summary().as_dict()
    assert {t: s.as_dict() for t, s in a.tenant_summaries().items()} \
        == {t: s.as_dict() for t, s in b.tenant_summaries().items()}
    # tenant key order matches the exact path: untenanted first, then str
    assert list(a.tenant_summaries()) == ["t0", "t1", "t2"]
