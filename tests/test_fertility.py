import numpy as np
import pytest

from cascades import (BinaryMark, BinarySchema, CombinedFertility,
                      ConstantFertility, DataError, Dataset, Event,
                      LinearFertility, MultiplicativeFertility, NumericalError)
from cascades import fertility as fert
from cascades.fertility import poisson_objective, update


def bm(*bits):
    return BinaryMark(tuple(bits))


def rate(spec, *bits):
    """The fertility of one mark: the evaluator on a one-row matrix."""
    return spec.rates(np.array([bits]), 1)[0]


def test_rates_by_kind():
    assert rate(ConstantFertility(0.7), 1, 0) == 0.7
    assert ConstantFertility(0.7).rates(None, 3).tolist() == [0.7] * 3
    lin = LinearFertility(0.2, (0.5, 0.1))
    assert rate(lin, 1, 0) == pytest.approx(0.7)
    assert rate(lin, 1, 1) == pytest.approx(0.8)
    mul = MultiplicativeFertility((0.4, 2.0, 0.5))
    assert rate(mul, 1, 0) == pytest.approx(0.8)
    assert rate(mul, 1, 1) == pytest.approx(0.4)
    both = CombinedFertility((ConstantFertility(0.1), lin))
    assert rate(both, 1, 0) == pytest.approx(0.8)
    for spec in (lin, mul, both):
        with pytest.raises(DataError, match="binary marks"):
            spec.rates(None, 1)


def _oracle_rate(spec, bits):
    """The fertility of one mark from the definitions, in plain Python."""
    if isinstance(spec, ConstantFertility):
        return spec.rate
    if isinstance(spec, LinearFertility):
        return spec.bias + sum(s * b for s, b in zip(spec.slopes, bits))
    if isinstance(spec, MultiplicativeFertility):
        out = spec.weights[0]
        for w, b in zip(spec.weights[1:], bits):
            out *= w if b else 1.0
        return out
    return sum(_oracle_rate(t, bits) for t in spec.terms)


def test_rates_match_the_definitions_row_by_row():
    rng = np.random.default_rng(0)
    X = rng.integers(0, 2, size=(40, 3)).astype(np.uint8)
    specs = [ConstantFertility(0.3), LinearFertility(0.1, (0.2, 0.0, 0.4)),
             MultiplicativeFertility((0.5, 1.5, 0.7, 1.2)),
             CombinedFertility((ConstantFertility(0.2),
                                MultiplicativeFertility((0.3, 2.0, 1.0, 0.5))))]
    for spec in specs:
        vec = spec.rates(X, len(X))
        for i in range(len(X)):
            assert vec[i] == pytest.approx(rate(spec, *X[i].tolist()), rel=1e-12)
            assert vec[i] == pytest.approx(_oracle_rate(spec, X[i].tolist()), rel=1e-12)


def test_constant_update_is_credit_over_exposure():
    out = update(ConstantFertility(1.0), None, np.array([2.0, 1.0]),
                 np.array([3.0, 3.0]))
    assert out.rate == pytest.approx(0.5)
    # no exposure and no credit: parameters are left alone
    keep = update(ConstantFertility(0.4), None, np.zeros(0), np.zeros(0))
    assert keep.rate == 0.4
    with pytest.raises(NumericalError):
        update(ConstantFertility(1.0), None, np.array([1.0]), np.array([0.0]))


def test_linear_update_closed_form():
    # single feature always on: bias and slope split the credit by share
    X = np.array([[1], [1]], dtype=np.uint8)
    spec = LinearFertility(1.0, (1.0,))
    credits = np.array([1.0, 2.0])
    exposures = np.array([1.0, 1.0])
    out = update(spec, X, credits, exposures)
    # each term receives half of each credit; exposures are 2 for both
    assert out.bias == pytest.approx(0.75)
    assert out.slopes[0] == pytest.approx(0.75)


def test_linear_update_improves_and_fixed_point_beats_grid():
    # one update is a single credit-allocation pass, so it improves the
    # objective; its fixed point is the concave maximizer, which the
    # grid cannot beat
    rng = np.random.default_rng(3)
    for _ in range(20):
        X = rng.integers(0, 2, size=(30, 1)).astype(np.uint8)
        X[0, 0] = 1
        X[1, 0] = 0
        credits = rng.uniform(0.0, 2.0, size=30)
        exposures = rng.uniform(0.5, 1.5, size=30)
        spec = LinearFertility(rng.uniform(0.2, 1.0), (rng.uniform(0.2, 1.0),))
        out = update(spec, X, credits, exposures)
        assert (poisson_objective(out, X, credits, exposures)
                >= poisson_objective(spec, X, credits, exposures) - 1e-9)
        for _ in range(200):
            out = update(out, X, credits, exposures)
        base = poisson_objective(out, X, credits, exposures)
        for b in np.linspace(max(out.bias * 0.5, 1e-3), out.bias * 2 + 0.1, 60):
            for s in np.linspace(max(out.slopes[0] * 0.5, 1e-3),
                                 out.slopes[0] * 2 + 0.1, 60):
                trial = LinearFertility(b, (s,))
                assert base >= poisson_objective(trial, X, credits, exposures) - 1e-6


def test_multiplicative_update_beats_profiled_grid():
    rng = np.random.default_rng(4)
    for trial in range(20):
        X = rng.integers(0, 2, size=(50, 2)).astype(np.uint8)
        X[0] = (1, 1)
        X[1] = (0, 0)
        X[2] = (1, 0)
        X[3] = (0, 1)
        credits = rng.uniform(0.0, 3.0, size=50)
        exposures = rng.uniform(0.3, 1.2, size=50)
        spec = MultiplicativeFertility((1.0, 1.0, 1.0))
        out = update(spec, X, credits, exposures)
        best = poisson_objective(out, X, credits, exposures)
        total_credit = credits.sum()
        for w1 in np.geomspace(out.weights[1] / 2, out.weights[1] * 2, 40):
            for w2 in np.geomspace(out.weights[2] / 2, out.weights[2] * 2, 40):
                # profile the bias: w0 = total credit / sum(exposure * prod)
                prod = (w1 ** X[:, 0]) * (w2 ** X[:, 1])
                w0 = total_credit / np.dot(exposures, prod)
                cand = MultiplicativeFertility((w0, w1, w2))
                assert best >= poisson_objective(cand, X, credits,
                                                 exposures) - 1e-6


def test_multiplicative_sweeps_monotone():
    rng = np.random.default_rng(5)
    X = rng.integers(0, 2, size=(40, 3)).astype(np.uint8)
    credits = rng.uniform(0.0, 2.0, size=40)
    exposures = rng.uniform(0.5, 1.5, size=40)
    spec = MultiplicativeFertility((0.5, 2.0, 0.3, 1.0))
    out = update(spec, X, credits, exposures)
    assert (poisson_objective(out, X, credits, exposures)
            >= poisson_objective(spec, X, credits, exposures) - 1e-9)


def test_multiplicative_floor_and_warning():
    X = np.array([[1], [0]], dtype=np.uint8)
    credits = np.array([0.0, 5.0])  # the feature-on event earns nothing
    exposures = np.array([1.0, 1.0])
    spec = MultiplicativeFertility((1.0, 1.0))
    with pytest.warns(UserWarning, match="floor"):
        out = update(spec, X, credits, exposures)
    assert out.weights[1] == fert.WEIGHT_FLOOR


def test_combined_update_splits_credit_by_term_share():
    X = np.array([[1]], dtype=np.uint8)
    spec = CombinedFertility((ConstantFertility(1.0), ConstantFertility(3.0)))
    out = update(spec, X, np.array([4.0]), np.array([2.0]))
    # credit 4 splits 1:3, each term keeps exposure 2
    assert out.terms[0].rate == pytest.approx(0.5)
    assert out.terms[1].rate == pytest.approx(1.5)


def test_scaled_by_kind():
    assert ConstantFertility(0.4).scaled(2.0).rate == pytest.approx(0.8)
    lin = LinearFertility(0.2, (0.3,)).scaled(2.0)
    assert lin.bias == pytest.approx(0.4)
    assert lin.slopes[0] == pytest.approx(0.6)
    mul = MultiplicativeFertility((0.5, 1.3)).scaled(3.0)
    assert mul.weights == pytest.approx((1.5, 1.3))  # bias only
    both = CombinedFertility((ConstantFertility(1.0),)).scaled(0.5)
    assert both.terms[0].rate == pytest.approx(0.5)


def test_validation():
    with pytest.raises(DataError):
        ConstantFertility(-0.1)
    with pytest.raises(DataError):
        LinearFertility(-0.1, (0.2,))
    with pytest.raises(DataError):
        LinearFertility(0.1, (-0.2,))
    with pytest.raises(DataError):
        MultiplicativeFertility((0.0, 1.0))
    with pytest.raises(DataError):
        CombinedFertility((CombinedFertility((ConstantFertility(1.0),)),))


def _numbers(spec) -> np.ndarray:
    if isinstance(spec, CombinedFertility):
        return np.concatenate([_numbers(term) for term in spec.terms])
    if isinstance(spec, LinearFertility):
        return np.array((spec.bias,) + spec.slopes)
    if isinstance(spec, MultiplicativeFertility):
        return np.array(spec.weights)
    return np.array([spec.rate])


@pytest.mark.parametrize("spec", [
    ConstantFertility(0.4),
    LinearFertility(0.2, (0.1, 0.3, 0.05, 0.5)),
    MultiplicativeFertility((0.3, 1.3, 0.8, 1.5, 0.6)),
    CombinedFertility((ConstantFertility(0.1),
                       LinearFertility(0.1, (0.2, 0.0, 0.3, 0.1)),
                       MultiplicativeFertility((0.2, 1.1, 0.9, 1.4, 0.7)))),
], ids=["constant", "linear", "multiplicative", "combined"])
def test_pattern_grouped_update_matches_per_parent(spec):
    # one row per distinct mark, summing its parents' credits and exposures
    rng = np.random.default_rng(12)
    n = 2000
    d = Dataset([Event(float(i), bm(*bits)) for i, bits in
                 enumerate(rng.integers(0, 2, size=(n, 4)).tolist())],
                horizon=float(n), schema=BinarySchema(("a", "b", "c", "d")))
    X = d.feature_matrix
    exposures = rng.uniform(0.1, 1.0, n)
    credits = rng.poisson(1.5 * spec.rates(X, n) * exposures) * rng.uniform(0.5, 1.0, n)
    rows, index = d.feature_patterns
    assert len(rows) == 16
    grouped = update(spec, rows, np.bincount(index, credits, len(rows)),
                     np.bincount(index, exposures, len(rows)))
    per_parent = update(spec, X, credits, exposures)
    assert type(grouped) is type(per_parent)
    np.testing.assert_allclose(_numbers(grouped), _numbers(per_parent), rtol=1e-12, atol=0)
