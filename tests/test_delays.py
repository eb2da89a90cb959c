import dataclasses
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

import cascades
from cascades import (DataError, ExponentialDelay, ExpMixtureDelay, GammaDelay,
                      PiecewiseUniformDelay, UniformDelay)
from cascades import delays
from cascades.delays import cdf, density, tail_cutoff, weighted_mle

import oracles

FAMILIES = [
    ExponentialDelay(1.7),
    GammaDelay(2.3, 0.8),
    GammaDelay(0.6, 2.0),
    UniformDelay(3.0),
    PiecewiseUniformDelay((0.0, 1.0, 2.5, 6.0), (0.5, 0.3, 0.2)),
    ExpMixtureDelay((0.4, 0.6), (0.3, 4.0)),
]


@pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: type(s).__name__)
def test_density_integrates_to_one(spec):
    hi = tail_cutoff(spec, 1e-12)
    total, err = integrate.quad(lambda t: float(density(spec, t)), 0.0, hi,
                                limit=200)
    assert total == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: type(s).__name__)
def test_cdf_matches_quadrature(spec):
    for x in (0.3, 0.9, 1.7, 4.0):
        ref, _ = integrate.quad(lambda t: float(density(spec, t)), 0.0, x,
                                limit=200)
        assert float(cdf(spec, x)) == pytest.approx(ref, abs=1e-8)


@pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: type(s).__name__)
def test_mean_matches_quadrature(spec):
    hi = tail_cutoff(spec, 1e-13)
    ref, _ = integrate.quad(lambda t: t * float(density(spec, t)), 0.0, hi,
                            limit=400)
    assert spec.mean() == pytest.approx(ref, rel=1e-6)


@pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: type(s).__name__)
def test_density_zero_at_and_before_zero(spec):
    dts = np.array([-2.0, -1e-12, 0.0, 1e-9])
    vals = np.asarray(density(spec, dts))
    assert np.all(vals[:3] == 0.0)
    assert float(cdf(spec, 0.0)) == 0.0
    assert float(cdf(spec, -1.0)) == 0.0


def _masked_density(spec, dt):
    """density written out family by family: every family gathers the
    positive delays and scatters into zeros."""
    arr = np.asarray(dt, dtype=np.float64)
    pos = arr > 0
    out = np.zeros_like(arr, dtype=np.float64)
    if isinstance(spec, ExponentialDelay):
        out[pos] = spec.rate * np.exp(-spec.rate * arr[pos])
    elif isinstance(spec, GammaDelay):
        k, r = spec.shape, spec.rate
        x = arr[pos]
        out[pos] = np.exp(k * np.log(r) + (k - 1.0) * np.log(x) - r * x
                          - special.gammaln(k))
    elif isinstance(spec, UniformDelay):
        out[pos & (arr <= spec.width)] = 1.0 / spec.width
    elif isinstance(spec, PiecewiseUniformDelay):
        edges, probs = np.asarray(spec.edges), np.asarray(spec.probs)
        idx = np.searchsorted(edges, arr, side="left")
        ok = pos & (idx >= 1) & (idx <= len(probs))
        b = np.clip(idx - 1, 0, len(probs) - 1)
        out[ok] = (probs / np.diff(edges))[b[ok]]
    else:
        x = arr[pos]
        acc = np.zeros_like(x)
        for w, r in zip(spec.weights, spec.rates):
            acc += w * r * np.exp(-r * x)
        out[pos] = acc
    return out if arr.ndim else float(out)


@pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: type(s).__name__)
def test_pdf_on_positive_delays_is_bitwise_the_masked_density(spec):
    # the E-step and intensity call pdf directly on their delays, which
    # are positive because parents are strictly earlier
    rng = np.random.default_rng(3)
    # bin edges, the uniform width and values just past them included
    edges = [1.0, 2.5, 3.0, 6.0]
    x = np.concatenate([rng.exponential(2.0, size=997), edges,
                        np.nextafter(edges, np.inf), [1e-300, 50.0]])
    got = spec.pdf(x)
    assert got.dtype == np.float64 and got.shape == x.shape
    assert got.tobytes() == _masked_density(spec, x).tobytes()
    assert density(spec, x).tobytes() == got.tobytes()
    assert density(spec, np.append(x, 0.0))[:-1].tobytes() == got.tobytes()
    mixed = np.concatenate([x[:50], [0.0, -1.0, -1e-12, np.nan], x[50:100]])
    assert density(spec, mixed).tobytes() == _masked_density(spec, mixed).tobytes()
    for v in (0.0, -2.0, 1e-9, 1.0, 2.5, 7.0):
        got_v, want_v = density(spec, v), _masked_density(spec, v)
        assert type(got_v) is float and got_v == want_v
    assert density(spec, np.zeros(0)).shape == (0,)


@pytest.mark.parametrize("spec,mass", [(s, m) for s in FAMILIES
                                       for m in (1e-4, 1e-6, 1e-9)],
                         ids=lambda v: str(v))
def test_tail_cutoff_leaves_requested_mass(spec, mass):
    cut = tail_cutoff(spec, mass)
    assert float(cdf(spec, cut)) >= 1.0 - mass - 1e-12
    # the cutoff is tight: a noticeably smaller window misses mass
    if not isinstance(spec, (UniformDelay, PiecewiseUniformDelay)):
        assert float(cdf(spec, 0.8 * cut)) < 1.0 - mass


MIXTURES = [ExpMixtureDelay(w, r) for w, r in (
    ((1.0,), (0.7,)),
    ((0.4, 0.6), (0.3, 4.0)),
    ((0.999, 0.001), (5.0, 0.01)),
    ((0.5, 0.5), (1.0, 1.0)),
    ((0.0, 1.0), (0.05, 2.0)),
    ((0.2, 0.3, 0.5), (0.1, 1.0, 10.0)),
    ((0.1, 0.1, 0.1, 0.7), (3.0, 0.2, 40.0, 1.5)),
)]


def _mixture_tail(spec, x):
    return float(np.dot(spec.weights, np.exp(-np.asarray(spec.rates) * x)))


@pytest.mark.parametrize("spec", MIXTURES, ids=str)
@pytest.mark.parametrize("mass", [1e-12, 1e-9, 1e-6, 1e-3, 0.1, 0.5, 0.9])
def test_mixture_cutoff_is_the_smallest_double_below_the_mass(spec, mass):
    from scipy import optimize  # the solver the bisection replaced
    cut = tail_cutoff(spec, mass)
    assert _mixture_tail(spec, cut) <= mass < _mixture_tail(spec, np.nextafter(cut, 0.0))
    hi = -np.log(mass) / min(spec.rates) * 2.0
    root = optimize.brentq(lambda x: _mixture_tail(spec, x) - mass, 0.0, hi,
                           xtol=1e-300, rtol=4 * np.finfo(float).eps)
    assert cut == pytest.approx(root, rel=1e-12, abs=0)


def test_cli_import_does_not_load_scipy_optimize():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cascades.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, cascades.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


@pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: type(s).__name__)
def test_sampler_matches_cdf(spec):
    rng = np.random.default_rng(42)
    draws = spec.draw(rng, 4000)
    assert np.all(draws > 0)
    from scipy import stats
    res = stats.kstest(draws, lambda x: np.asarray(cdf(spec, x)))
    assert res.pvalue > 0.01


def _weighted_objective(spec, deltas, weights):
    with np.errstate(divide="ignore"):
        logs = np.log(np.asarray(density(spec, deltas)))
    return float(np.dot(weights, logs))


def test_exponential_mle_closed_form_and_grid():
    rng = np.random.default_rng(0)
    for _ in range(25):
        deltas = rng.exponential(1.0 / rng.uniform(0.2, 5.0), size=60)
        weights = rng.uniform(0.0, 2.0, size=60)
        weights[rng.random(60) < 0.1] = 0.0
        if weights.sum() == 0:
            weights[0] = 1.0
        fitted = weighted_mle(ExponentialDelay(1.0), deltas, weights)
        expect = weights.sum() / np.dot(weights, deltas)
        assert fitted.rate == pytest.approx(expect, rel=1e-12)
        grid = np.linspace(0.5 * expect, 2.0 * expect, 401)
        objs = [_weighted_objective(ExponentialDelay(r), deltas, weights)
                for r in grid]
        best = _weighted_objective(fitted, deltas, weights)
        assert best >= max(objs) - 1e-9


def test_gamma_mle_beats_profile_grid():
    rng = np.random.default_rng(1)
    for trial in range(25):
        shape = rng.uniform(0.4, 6.0)
        deltas = rng.gamma(shape, 1.0 / rng.uniform(0.3, 3.0), size=80)
        weights = rng.uniform(0.1, 1.0, size=80)
        fitted = weighted_mle(GammaDelay(1.0, 1.0), deltas, weights)
        best = _weighted_objective(fitted, deltas, weights)
        # profile out the rate: at fixed shape k the optimum is k*sum(w)/sum(w*d)
        for k in np.geomspace(fitted.shape / 3, fitted.shape * 3, 200):
            rate = k * weights.sum() / np.dot(weights, deltas)
            assert best >= _weighted_objective(GammaDelay(k, rate), deltas,
                                               weights) - 1e-7


def test_gamma_mle_score_equation_residual():
    rng = np.random.default_rng(2)
    from scipy.special import digamma
    deltas = rng.gamma(2.0, 0.5, size=100)
    weights = rng.uniform(0.2, 1.0, size=100)
    fitted = weighted_mle(GammaDelay(1.0, 1.0), deltas, weights)
    mean = np.dot(weights, deltas) / weights.sum()
    mean_log = np.dot(weights, np.log(deltas)) / weights.sum()
    s = np.log(mean) - mean_log
    assert abs(np.log(fitted.shape) - digamma(fitted.shape) - s) < 1e-10
    assert fitted.rate == pytest.approx(fitted.shape / mean, rel=1e-12)


def test_gamma_mle_degenerate_samples_error():
    deltas = np.full(10, 2.0)
    weights = np.ones(10)
    with pytest.raises(DataError, match="degenerate"):
        weighted_mle(GammaDelay(1.0, 1.0), deltas, weights)


def test_uniform_mle_is_identity():
    spec = UniformDelay(4.0)
    out = weighted_mle(spec, np.array([0.5, 2.0]), np.array([1.0, 2.0]))
    assert out == spec


def test_piecewise_mle_is_bin_weight_share():
    spec = PiecewiseUniformDelay((0.0, 1.0, 3.0), (0.5, 0.5))
    deltas = np.array([0.5, 0.7, 2.0, 2.5, 2.9])
    weights = np.array([1.0, 1.0, 2.0, 1.0, 1.0])
    out = weighted_mle(spec, deltas, weights)
    assert out.edges == spec.edges
    assert np.allclose(out.probs, (2.0 / 6.0, 4.0 / 6.0))
    with pytest.raises(DataError):
        weighted_mle(spec, np.array([5.0]), np.array([1.0]))  # outside the bins


def test_exp_mixture_single_em_pass_formula():
    spec = ExpMixtureDelay((0.3, 0.7), (0.5, 3.0))
    rng = np.random.default_rng(3)
    deltas = rng.exponential(1.0, size=50)
    weights = rng.uniform(0.1, 1.0, size=50)
    out = weighted_mle(spec, deltas, weights)

    w = np.asarray(spec.weights)
    lam = np.asarray(spec.rates)
    comp = w[None, :] * lam[None, :] * np.exp(-lam[None, :] * deltas[:, None])
    resp = comp / comp.sum(axis=1, keepdims=True)
    credit = weights @ resp
    new_w = credit / credit.sum()
    new_lam = credit / (weights[:, None] * resp * deltas[:, None]).sum(axis=0)
    assert np.allclose(out.weights, new_w, rtol=1e-12)
    assert np.allclose(out.rates, new_lam, rtol=1e-12)
    # one EM pass on the inner objective must not decrease it
    assert (_weighted_objective(out, deltas, weights)
            >= _weighted_objective(spec, deltas, weights) - 1e-10)


@settings(max_examples=30, deadline=None)
@given(scale=st.floats(min_value=1e-3, max_value=1e3),
       seed=st.integers(min_value=0, max_value=2**31))
def test_mle_invariant_to_weight_scale(scale, seed):
    rng = np.random.default_rng(seed)
    deltas = rng.exponential(0.7, size=30) + 1e-9
    weights = rng.uniform(0.1, 1.0, size=30)
    for spec in (ExponentialDelay(1.0), GammaDelay(1.5, 1.0),
                 ExpMixtureDelay((0.5, 0.5), (0.4, 2.0))):
        a = weighted_mle(spec, deltas, weights)
        b = weighted_mle(spec, deltas, weights * scale)
        for fa, fb in zip(np.atleast_1d(list(vars(a).values()) or [a.rate]),
                          np.atleast_1d(list(vars(b).values()) or [b.rate])):
            assert np.allclose(np.asarray(fa, dtype=np.float64),
                               np.asarray(fb, dtype=np.float64), rtol=1e-9)


def test_mle_rejects_bad_input():
    spec = ExponentialDelay(1.0)
    with pytest.raises(DataError):
        weighted_mle(spec, np.array([0.0, 1.0]), np.array([1.0, 1.0]))
    with pytest.raises(DataError):
        weighted_mle(spec, np.array([1.0]), np.array([0.0]))
    with pytest.raises(DataError):
        weighted_mle(spec, np.array([1.0]), np.array([-1.0]))


def _params(spec) -> np.ndarray:
    return np.concatenate([np.atleast_1d(np.asarray(getattr(spec, f.name), dtype=np.float64))
                           for f in dataclasses.fields(spec)])


def _sliced_sample(spec, n_slices=3, seed=0):
    """A sample over ``n_slices`` slices and part of one more, with zero
    weights on both sides of every slice edge, some of them at delays the
    MLE would reject if they counted."""
    rng = np.random.default_rng(seed)
    n = n_slices * delays.PAIR_CHUNK + 12_345
    d = spec.draw(rng, n)
    w = rng.uniform(0.1, 2.0, size=n)
    edges = np.arange(1, n_slices + 1) * delays.PAIR_CHUNK
    for at in (edges - 1, edges, edges + 1):
        w[at] = 0.0
    d[edges] = -1.0
    d[edges - 1] = np.inf
    w[rng.random(n) < 0.05] = 0.0
    return d, w


@pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: type(s).__name__)
def test_sliced_mle_matches_the_whole_sample_oracle(spec):
    d, w = _sliced_sample(spec)
    got, want = weighted_mle(spec, d, w), oracles.delay_mle(spec, d, w)
    assert type(got) is type(want)
    np.testing.assert_allclose(_params(got), _params(want), rtol=1e-12, atol=0)


def test_one_slice_exponential_rate_is_bit_identical():
    rng = np.random.default_rng(7)
    spec = ExponentialDelay(1.0)
    for n in (1, 2, 1000, delays.PAIR_CHUNK):
        d = rng.exponential(rng.uniform(0.1, 10.0), size=n)
        w = rng.uniform(0.0, 3.0, size=n)
        w[0] = 1.0
        assert weighted_mle(spec, d, w).rate == oracles.delay_mle(spec, d, w).rate
    # the scan's one sample (sum z*dt / sum z, sum z)
    d, w = np.array([0.731]), np.array([123.25])
    assert weighted_mle(spec, d, w).rate == oracles.delay_mle(spec, d, w).rate


def _faults(spec, d, w, at):
    """(deltas, weights, message) for each fault that both the package and
    the whole-sample oracle raise, placed at index ``at``."""
    bad_d, neg_w, pos_w = d.copy(), w.copy(), w.copy()
    bad_d[at], neg_w[at], pos_w[at] = 0.0, -1.0, 1.0
    out = [(d, w[:-1], "1-d arrays of the same length"),
           (d, neg_w, "sample weights must be nonnegative"),
           (d, 0.0 * w, "positive total weight"),
           (bad_d, pos_w, "strictly positive delays")]
    if isinstance(spec, GammaDelay):
        out.append((np.full(d.size, 2.0), w, "degenerate"))
    if isinstance(spec, PiecewiseUniformDelay):
        out.append((d + 100.0, w, "no weighted samples fall inside the bins"))
    if isinstance(spec, ExpMixtureDelay):
        out.append((d + 1e6, w, "responsibilities vanished"))
    return out


@pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: type(s).__name__)
@pytest.mark.parametrize("sliced", [False, True])
def test_every_fault_keeps_its_message(spec, sliced):
    if sliced:
        d, w = _sliced_sample(spec, n_slices=2, seed=3)
        at = d.size - 7  # past the last slice edge
    else:
        d, w = spec.draw(np.random.default_rng(4), 50), np.linspace(0.5, 1.5, 50)
        at = 17
    for deltas, weights, message in _faults(spec, d, w, at):
        with pytest.raises((DataError, cascades.NumericalError), match=message) as want:
            oracles.delay_mle(spec, deltas, weights)
        with pytest.raises(want.type) as got:
            weighted_mle(spec, deltas, weights)
        assert str(got.value) == str(want.value)


def test_non_finite_samples_are_rejected_by_name():
    spec = ExponentialDelay(1.0)
    d, w = np.array([1.0, 2.0, 3.0]), np.array([1.0, np.nan, 1.0])
    # the whole-sample form dropped a NaN weight and fitted the rest
    assert oracles.delay_mle(spec, d, w) == ExponentialDelay(rate=0.5)
    with pytest.raises(DataError, match="^sample weights must be finite, got nan$"):
        weighted_mle(spec, d, w)
    with pytest.raises(DataError, match="^sample weights must be finite, got inf$"):
        weighted_mle(spec, d, np.array([1.0, np.inf, 1.0]))
    # ... and an infinite delay failed on the rate it led to
    inf_d = np.array([1.0, np.inf, 3.0])
    with pytest.raises(DataError, match="exponential rate must be positive and finite, got 0.0"):
        oracles.delay_mle(spec, inf_d, np.ones(3))
    for family in FAMILIES:
        for bad in (np.inf, np.nan):
            with pytest.raises(DataError, match=f"^weighted MLE needs finite delays, got {bad}$"):
                weighted_mle(family, np.array([1.0, bad, 3.0]), np.ones(3))
        # a zero weight still drops its sample, whatever the delay
        assert weighted_mle(family, inf_d, np.array([1.0, 0.0, 1.0])) == weighted_mle(
            family, np.array([1.0, 3.0]), np.ones(2))


def test_a_bad_weight_anywhere_is_reported_before_a_bad_delay():
    spec = GammaDelay(2.0, 1.0)
    d, w = _sliced_sample(spec, n_slices=2, seed=5)
    d[10] = 0.0  # the first slice
    w[-3] = -1.0  # past the last slice edge
    for check in (oracles.delay_mle, weighted_mle):
        with pytest.raises(DataError, match="sample weights must be nonnegative"):
            check(spec, d, w)
    w[-3] = np.nan
    with pytest.raises(DataError, match="sample weights must be finite"):
        weighted_mle(spec, d, w)


def test_weighted_mle_memory_does_not_grow_with_the_sample():
    rng = np.random.default_rng(6)
    spec = GammaDelay(1.0, 1.0)
    peaks = []
    for n in (delays.PAIR_CHUNK, 2_000_000):
        d, w = rng.gamma(2.0, 1.5, size=n), rng.uniform(0.1, 1.0, size=n)
        w[::7] = 0.0  # so that every slice drops samples
        tracemalloc.start()
        try:
            fitted = weighted_mle(spec, d, w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert fitted.shape == pytest.approx(2.0, rel=0.05)
        peaks.append(peak)
    # 2M pairs are 32 MB of delays and weights; a slice is 2 MB of either
    assert max(peaks) < 4 * delays.PAIR_CHUNK * 8, [f"{p / 1e6:.1f} MB" for p in peaks]


def test_spec_validation():
    with pytest.raises(DataError):
        ExponentialDelay(0.0)
    with pytest.raises(DataError):
        GammaDelay(-1.0, 1.0)
    with pytest.raises(DataError):
        GammaDelay(1.0, float("nan"))
    with pytest.raises(DataError):
        UniformDelay(float("inf"))
    with pytest.raises(DataError):
        PiecewiseUniformDelay((0.5, 1.0), (1.0,))  # edges must start at zero
    with pytest.raises(DataError):
        PiecewiseUniformDelay((0.0, 1.0), (0.7,))  # probs must sum to one
    with pytest.raises(DataError):
        ExpMixtureDelay((0.5, 0.6), (1.0, 2.0))
