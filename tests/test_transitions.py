import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascades import (BinaryMark, BinarySchema, CategoricalMatrix, DataError,
                      Dataset, Event, FeatureMixture, FeaturePrior,
                      IdentityTransition, LabelMark, LabelMarginal, LabelSchema,
                      PriorTransition, fit_categorical)
from cascades.transitions import draw_index, fit_mixture_from_stats, write_matrix_csv
from oracles import fit_mixture, mixture_stats


def bm(*bits):
    return BinaryMark(tuple(bits))


def row(*bits):
    """A binary mark's code: its uint8 feature row."""
    return np.array(bits, dtype=np.uint8)


PRIOR3 = FeaturePrior((0.3, 0.5, 0.8))


def trans_prob(spec, parent, child):
    """g(child | parent) from g_pairs, over a two-event dataset."""
    if isinstance(parent, BinaryMark):
        schema = BinarySchema(tuple(f"f{k}" for k in range(len(parent.bits))))
    else:
        schema = LabelSchema(len(spec.matrix if isinstance(spec, CategoricalMatrix)
                                 else spec.mark.probs))
    d = Dataset([Event(0.0, parent), Event(1.0, child)], 1.0, schema)
    pair = (np.array([1]), np.array([0]))
    value = spec.g_pairs(d, max_table=1 << 18)(*pair)
    # a feature mixture evaluated per pair gives the same value as its table
    np.testing.assert_array_equal(spec.g_pairs(d, max_table=0)(*pair), value)
    return float(value[0])


@pytest.mark.parametrize("spec", [
    IdentityTransition(),
    PriorTransition(PRIOR3),
    FeatureMixture(0.35, PRIOR3),
], ids=lambda s: type(s).__name__)
def test_binary_transition_rows_sum_to_one(spec):
    marks = [bm(*((code >> i) & 1 for i in range(3))) for code in range(8)]
    for parent in marks:
        total = sum(trans_prob(spec, parent, child) for child in marks)
        assert total == pytest.approx(1.0, abs=1e-12)


def test_label_transition_rows_sum_to_one():
    mat = CategoricalMatrix(((0.2, 0.8), (0.6, 0.4)))
    marks = [LabelMark(1), LabelMark(2)]
    for parent in marks:
        total = sum(trans_prob(mat, parent, child) for child in marks)
        assert total == pytest.approx(1.0, abs=1e-12)
    spec = PriorTransition(LabelMarginal((0.1, 0.9)))
    assert trans_prob(spec, LabelMark(1), LabelMark(2)) == pytest.approx(0.9)


def test_mixture_single_feature_hand_values():
    spec = FeatureMixture(0.3, FeaturePrior((0.7,)))
    # keep with prob 0.7, else redraw from Bernoulli(0.7)
    assert trans_prob(spec, bm(1), bm(1)) == pytest.approx(0.7 + 0.3 * 0.7, abs=1e-15)
    assert trans_prob(spec, bm(1), bm(0)) == pytest.approx(0.3 * 0.3, abs=1e-15)
    assert trans_prob(spec, bm(0), bm(1)) == pytest.approx(0.3 * 0.7, abs=1e-15)
    assert trans_prob(spec, bm(0), bm(0)) == pytest.approx(0.7 + 0.3 * 0.3, abs=1e-15)


def test_mixture_extremes():
    ident = FeatureMixture(0.0, PRIOR3)
    assert trans_prob(ident, bm(1, 0, 1), bm(1, 0, 1)) == pytest.approx(1.0)
    assert trans_prob(ident, bm(1, 0, 1), bm(0, 0, 1)) == 0.0
    indep = FeatureMixture(1.0, PRIOR3)
    assert trans_prob(indep, bm(0, 0, 0), bm(1, 1, 1)) == \
        pytest.approx(0.3 * 0.5 * 0.8, abs=1e-15)


def _mixture_objective(gamma, table, prior):
    p = np.asarray(prior.probs)
    total = 0.0
    for f in range(table.shape[0]):
        for b in (0, 1):
            q = p[f] if b == 1 else 1.0 - p[f]
            match, mismatch = table[f, b, 1], table[f, b, 0]
            with np.errstate(divide="ignore"):
                total += match * np.log((1 - gamma) + gamma * q)
                if mismatch > 0:
                    total += mismatch * np.log(gamma * q)
    return total


def test_mixture_fit_beats_grid():
    rng = np.random.default_rng(7)
    for trial in range(25):
        width = rng.integers(1, 5)
        prior = FeaturePrior(tuple(rng.uniform(0.1, 0.9, size=width).tolist()))
        gamma_true = rng.uniform(0.05, 0.95)
        spec = FeatureMixture(gamma_true, prior)
        pairs = []
        for _ in range(rng.integers(20, 60)):
            parent = bm(*rng.integers(0, 2, size=width).tolist())
            child = bm(*spec.draw(row(*parent.bits), rng, 1)[0].tolist())
            pairs.append((parent, child, rng.uniform(0.1, 1.0)))
        table = mixture_stats(pairs, prior)
        fitted = fit_mixture(pairs, prior)
        grid = np.linspace(1e-6, 1.0 - 1e-6, 2001)
        objs = [_mixture_objective(g, table, prior) for g in grid]
        assert _mixture_objective(fitted, table, prior) >= max(objs) - 1e-8


def test_mixture_fit_edge_cases():
    prior = FeaturePrior((0.5,))
    # no mismatches at all: gamma heads to 0
    table = np.zeros((1, 2, 2))
    table[0, 1, 1] = 5.0
    assert fit_mixture_from_stats(table, prior) == 0.0
    # only mismatches: gamma heads to 1
    table = np.zeros((1, 2, 2))
    table[0, 1, 0] = 5.0
    assert fit_mixture_from_stats(table, prior) == 1.0


def test_mixture_fit_ignores_the_weight_scale():
    # the maximizer depends only on the weights' ratios, so rescaling the
    # table may move it by rounding alone, not by a solver tolerance
    rng = np.random.default_rng(11)
    for _ in range(20):
        width = int(rng.integers(1, 6))
        prior = FeaturePrior(tuple(rng.uniform(0.05, 0.95, size=width).tolist()))
        table = rng.uniform(0.0, 10.0, size=(width, 2, 2))
        fitted = fit_mixture_from_stats(table, prior)
        for scale in (3.0, 1.0 + 1e-15):
            assert abs(fit_mixture_from_stats(table * scale, prior) - fitted) <= 1e-15


def test_fit_categorical_shrinkage_formula():
    counts = np.array([[8.0, 2.0], [0.0, 0.0]])
    direction = ((0.5, 0.5), (0.25, 0.75))
    out = fit_categorical(counts, prior_direction=direction, prior_strength=4.0)
    assert np.allclose(out.as_array[0], [(8 + 2.0) / 14.0, (2 + 2.0) / 14.0])
    # a row with no counts lands exactly on the prior direction
    assert np.allclose(out.as_array[1], [0.25, 0.75])
    assert out.prior_strength == 4.0


def test_fit_categorical_limits():
    rng = np.random.default_rng(11)
    counts = rng.uniform(0.0, 5.0, size=(3, 3))
    direction = tuple(tuple(r) for r in np.full((3, 3), 1.0 / 3.0))
    tiny = fit_categorical(counts, direction, 1e-9).as_array
    raw = counts / counts.sum(axis=1, keepdims=True)
    assert np.allclose(tiny, raw, atol=1e-9)
    huge = fit_categorical(counts, direction, 1e12).as_array
    assert np.allclose(huge, 1.0 / 3.0, atol=1e-9)


def test_fit_categorical_zero_row_without_prior_warns():
    counts = np.array([[3.0, 1.0], [0.0, 0.0]])
    with pytest.warns(UserWarning, match="uniform"):
        out = fit_categorical(counts)
    assert np.allclose(out.as_array[1], [0.5, 0.5])


def test_fit_categorical_vector_direction_broadcasts():
    counts = np.array([[1.0, 1.0], [2.0, 0.0]])
    out = fit_categorical(counts, prior_direction=(0.9, 0.1), prior_strength=2.0)
    assert np.allclose(out.as_array[0], [(1 + 1.8) / 4.0, (1 + 0.2) / 4.0])
    assert np.allclose(out.as_array[1], [(2 + 1.8) / 4.0, 0.2 / 4.0])


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_fit_categorical_rows_are_distributions(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    counts = rng.uniform(0.0, 3.0, size=(n, n))
    counts[rng.random((n, n)) < 0.3] = 0.0
    strength = float(rng.uniform(0.0, 10.0))
    direction = rng.dirichlet(np.ones(n), size=n)
    out = fit_categorical(counts, tuple(map(tuple, direction)), strength)
    rows = out.as_array
    assert np.all(rows >= 0)
    assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-9)


def test_sampling_respects_identity_and_prior():
    rng = np.random.default_rng(5)
    parent = row(1, 0, 1)
    assert all(child is parent for child in IdentityTransition().draw(parent, rng, 2))
    spec = FeatureMixture(0.0, PRIOR3)
    drawn = spec.draw(parent, rng, 2)
    assert drawn.dtype == np.uint8 and drawn.tolist() == [[1, 0, 1]] * 2
    mat = CategoricalMatrix(((0.0, 1.0), (1.0, 0.0)))
    assert mat.draw(0, rng, 1) == [1]  # label 1 draws label 2
    assert mat.draw(1, rng, 1) == [0]  # a composite's code is its type index


def test_mixture_sampling_frequencies():
    rng = np.random.default_rng(6)
    spec = FeatureMixture(0.4, FeaturePrior((0.2,)))
    flips = int(spec.draw(row(0), rng, 20000)[:, 0].sum())
    assert flips / 20000 == pytest.approx(0.4 * 0.2, abs=0.01)


def test_write_matrix_csv_roundtrip(tmp_path):
    mat = np.array([[0.25, 0.75], [0.5, 0.5]])
    marginal = np.array([0.4, 0.6])
    path = tmp_path / "trans.csv"
    write_matrix_csv(mat, ["a", "b"], str(path), marginal=marginal)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["source", "a", "b"]
    assert float(rows[1][1]) == 0.25
    ratio_path = tmp_path / "trans_logratio.csv"
    with open(ratio_path) as fh:
        ratio_rows = list(csv.reader(fh))
    assert float(ratio_rows[1][1]) == pytest.approx(np.log(0.25 / 0.4))


def test_categorical_validation():
    with pytest.raises(DataError):
        CategoricalMatrix(((0.5, 0.4), (0.5, 0.5)))
    with pytest.raises(DataError):
        CategoricalMatrix(((0.5, 0.5), (0.5, 0.5)), prior_strength=-1.0)
    with pytest.raises(DataError):
        FeatureMixture(1.5, PRIOR3)
    nan, inf = float("nan"), float("inf")
    half = ((0.5, 0.5), (0.5, 0.5))
    for rows in (((nan, 1.0), (0.5, 0.5)), ((inf, -inf), (0.5, 0.5)), ((0.5, 0.5), (1.0,))):
        with pytest.raises(DataError, match="transition matrix"):
            CategoricalMatrix(rows)
    for probs in ((nan, 1.0), (inf, 0.5), (0.5, -inf)):
        with pytest.raises(DataError, match="label marginal"):
            LabelMarginal(probs)
    # the Dirichlet prior is checked when the matrix is built, and by
    # fit_categorical with the same check
    for direction, strength, message in (
            ((0.5, 0.3, 0.2), 1.0, "length-L simplex"),
            (((0.5, 0.5),), 1.0, "length-L simplex"),
            (((0.5, 0.5), (1.0,)), 1.0, "length-L simplex"),
            ((0.9, 0.9), 1.0, "distributions"),
            (((0.5, 0.5), (nan, 0.5)), 1.0, "distributions"),
            (None, 5.0, "needs a prior direction"),
            ((0.5, 0.5), inf, "finite and nonnegative"),
            ((0.5, 0.5), nan, "finite and nonnegative")):
        with pytest.raises(DataError, match=message):
            CategoricalMatrix(half, direction, strength)
        with pytest.raises(DataError, match=message):
            fit_categorical(np.ones((2, 2)), direction, strength)
    assert CategoricalMatrix(half, None, 0.0).prior_strength == 0.0
    assert CategoricalMatrix(half, (0.9, 0.1), 0.0).prior_direction == (0.9, 0.1)


def _old_draw(probs, x):
    """The category formula draws used before draw_index."""
    cum = np.cumsum(probs)
    return int(np.clip(np.searchsorted(cum, x, side="right"), 0, len(probs) - 1))


DRAW_TABLES = [(0.2, 0.3, 0.5), (0.0, 1.0, 0.0), (0.5, 0.0, 0.0, 0.5), (1 / 3,) * 3,
               (0.1,) * 10, (1.0,), (0.7, 0.2, 0.1 - 1e-12)]


def test_draw_index_matches_the_searchsorted_formula():
    for probs in DRAW_TABLES:
        cum = np.cumsum(probs).tolist()
        xs = [0.0, 0.5, 1.0, 1.5, cum[-1], cum[-1] * 1.25]
        for c in cum:
            xs += [c, np.nextafter(c, -np.inf), np.nextafter(c, np.inf)]
        # simulate_graph draws u * cum[-1], which can round up to cum[-1]
        for u in (0.0, 0.999, 1.0 - 2.0 ** -53, np.nextafter(1.0, -np.inf)):
            xs.append(u * cum[-1])
        for x in xs:
            assert draw_index(cum, float(x)) == _old_draw(probs, x), (probs, x)


def test_label_draws_match_the_searchsorted_formula():
    marginal = LabelMarginal((0.5, 0.3, 0.2))
    matrix = CategoricalMatrix(((0.6, 0.2, 0.2), (0.0, 0.0, 1.0), (0.25, 0.5, 0.25)))
    rng, ref = np.random.default_rng(4), np.random.default_rng(4)
    for k in range(300):
        assert marginal.draw(rng, 1) == [_old_draw(marginal.probs, ref.random())]
        assert matrix.draw(k % 3, rng, 1) == [_old_draw(matrix.matrix[k % 3], ref.random())]


@pytest.mark.parametrize("spec, parent", [
    (IdentityTransition(), 2), (IdentityTransition(), row(1, 0, 1)),
    (PriorTransition(LabelMarginal((0.5, 0.3, 0.2))), 0),
    (PriorTransition(PRIOR3), row(0, 1, 1)),
    (FeatureMixture(0.4, PRIOR3), row(1, 1, 0)),
    (CategoricalMatrix(((0.6, 0.2, 0.2), (0.0, 0.0, 1.0), (0.25, 0.5, 0.25))), 2)])
def test_a_batch_of_draws_takes_the_stream_of_single_draws(spec, parent):
    # simulate draws each parent's children under one component at once
    rng, ref = np.random.default_rng(8), np.random.default_rng(8)
    for m in (0, 1, 2, 5, 17):
        batch = np.asarray(spec.draw(parent, rng, m))
        singles = [np.asarray(spec.draw(parent, ref, 1))[0] for _ in range(m)]
        np.testing.assert_array_equal(batch, np.array(singles).reshape(batch.shape))
    assert rng.random() == ref.random()
    # the root marks: one draw of the distribution for all of them
    if isinstance(spec, PriorTransition):
        roots = np.asarray(spec.mark.draw(rng, 40))
        np.testing.assert_array_equal(
            roots, np.array([np.asarray(spec.mark.draw(ref, 1))[0] for _ in range(40)]))


def test_pattern_tables_give_the_pair_statistics():
    # g over mark patterns against g_pairs on each pair, and the
    # statistics of (parent pattern, child pattern) weight tables against
    # those of the pairs, the mixture table also against the tuple oracle
    rng = np.random.default_rng(21)
    n, width, size = 120, 3, 500
    X = rng.integers(0, 2, size=(n, width))
    d = Dataset([Event(float(t), BinaryMark(tuple(int(b) for b in row)))
                 for t, row in zip(np.sort(rng.uniform(0, 50, n)), X)], 50.0,
                BinarySchema(("a", "b", "c")))
    codes, P = d.schema.pattern_codes(d)
    assert P == len(d.feature_patterns[0]) <= 2 ** width
    parents, children = rng.integers(0, n, size=(2, size))
    z = rng.random(size)
    table = np.bincount(codes[parents] * P + codes[children], weights=z,
                        minlength=P * P).reshape(P, P)
    for spec in (IdentityTransition(), PriorTransition(PRIOR3), FeatureMixture(0.3, PRIOR3)):
        g = spec.g_patterns(d)
        np.testing.assert_allclose(g[codes[parents], codes[children]],
                                   spec.g_pairs(d, 0)(children, parents),
                                   rtol=1e-14, atol=0)
        got = spec.stats_from_patterns(d, table)
        want = spec.stats_from_pairs(d, children, parents, z)
        assert (got is None) == (want is None)
        if want is not None:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    pairs = [(BinaryMark(tuple(X[p])), BinaryMark(tuple(X[c])), w)
             for p, c, w in zip(parents, children, z)]
    np.testing.assert_allclose(FeatureMixture(0.3, PRIOR3).stats_from_patterns(d, table),
                               mixture_stats(pairs, PRIOR3), rtol=1e-12, atol=0)
    # label marks: the statistic takes the family's shape, the table for a
    # categorical matrix, its child-label sums for a prior, none for identity
    dl = Dataset([Event(float(t), LabelMark(int(k))) for t, k in
                  zip(np.sort(rng.uniform(0, 50, n)), rng.integers(1, 4, size=n))],
                 50.0, LabelSchema(3))
    assert dl.schema.pattern_codes(dl)[1] == 3
    labels = dl.label_index
    square = np.bincount(labels[parents] * 3 + labels[children], weights=z,
                         minlength=9).reshape(3, 3)
    cat = CategoricalMatrix(((0.6, 0.2, 0.2), (0.2, 0.6, 0.2), (0.1, 0.3, 0.6)))
    assert cat.stats_from_patterns(dl, square) is square
    np.testing.assert_allclose(cat.stats_from_pairs(dl, children, parents, z), square,
                               rtol=1e-12, atol=0)
    prior = PriorTransition(LabelMarginal((0.2, 0.3, 0.5)))
    for got in (prior.stats_from_patterns(dl, square),
                prior.stats_from_pairs(dl, children, parents, z)):
        assert got.shape == (3,)
        np.testing.assert_allclose(got, square.sum(axis=0), rtol=1e-12, atol=0)
    assert IdentityTransition().stats_from_patterns(dl, square) is None
    assert IdentityTransition().stats_from_pairs(dl, children, parents, z) is None
