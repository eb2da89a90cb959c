"""The chunked pairwise E-step against a per-child reference loop.

``_reference_estep`` is the per-child loop the chunked E-step replaced,
kept here as the oracle, with each child's candidate parents found by
direct comparison instead of ``searchsorted`` and every pair's kernel
value written as fertility(parent) * g(child | parent) * delay density,
where the E-step applies the factors that read only the child once per
child. Offsets and parent ids must agree exactly; intensities and
weights to 1e-12 relative, because the factors multiply in another
order and each child's kernel values are summed in another order. The
chunk size must not change a single bit of the output.

The statistics mode (``estep_stats``) is checked against
``_reference_stats``, the oracle's pairs summed into each family's
statistic here (a label prior's from the (parent label, child label)
table that every label family used to keep): delay samples exactly,
pair weights, transition statistics and credits to 1e-12 relative.
``_reference_fit`` is fit's direct engine as it was before it kept
statistics instead of responsibilities, kept as the oracle for fit.
"""

import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascades import (CascadeModel, CategoricalMatrix, ConstantFertility,
                      DataError, Dataset, Event, ExponentialDelay, FeatureMixture,
                      FeaturePrior, GammaDelay, HomogeneousBaseline,
                      IdentityTransition, KernelComponent, LabelMark,
                      LabelMarginal, NumericalError, PeriodicBaseline,
                      PriorTransition, compensator, e_step, em_lower_bound, fit,
                      intensity, log_likelihood, simulate)
from cascades import delays as delay_mod
from cascades import engine
from cascades import transitions as trans_mod
from cascades.config import serialize_model
from cascades.delays import ExpMixtureDelay, PiecewiseUniformDelay, UniformDelay
from cascades.events import (BinaryMark, BinarySchema, CompositeMark,
                             CompositeSchema, LabelSchema)
from cascades.fertility import LinearFertility, MultiplicativeFertility
from oracles import component_stats, label_family_stats, mixture_stats

DEFAULT_CHUNK = engine.PAIR_CHUNK


# ---------------------------------------------------------------------------
# the per-child reference


def _reference_mark_prob(dist, d, i):
    """Probability of event i's mark under a mark distribution."""
    if isinstance(dist, FeaturePrior):
        p = dist.as_array
        return float(np.prod(np.where(d.feature_matrix[i] == 1, p, 1.0 - p)))
    return float(dist.as_array[d.label_index[i]])


def _reference_values(spec, d, child, parents):
    """g(child | parents) for one child, as the per-child loop computed it."""
    if isinstance(spec, IdentityTransition):
        if isinstance(d.schema, BinarySchema):
            X = d.feature_matrix
            return np.all(X[parents] == X[child], axis=1).astype(np.float64)
        labels = d.label_index
        return (labels[parents] == labels[child]).astype(np.float64)
    if isinstance(spec, PriorTransition):
        return np.full(parents.shape, _reference_mark_prob(spec.mark, d, child))
    if isinstance(spec, FeatureMixture):
        X, p, gamma = d.feature_matrix, spec.prior.as_array, spec.resample_prob
        xc = X[child]
        q = np.where(xc == 1, p, 1.0 - p)
        match = X[parents] == xc[None, :]
        with np.errstate(divide="ignore"):
            logs = np.where(match, np.log((1.0 - gamma) + gamma * q)[None, :],
                            np.log(gamma * q)[None, :])
        return np.exp(logs.sum(axis=1))
    labels = d.label_index
    return spec.as_array[labels[parents], labels[child]]


def _reference_estep(model, d, children=None, window=None):
    """(lam, z_base, offsets, parents, z) from one child at a time."""
    window = engine._resolve_window(d, window)
    times, n = d.times, len(d)
    kids = engine._child_ids(d, children, window)
    base_rates = model.baseline.rate_at(times[kids])
    base_marks = [_reference_mark_prob(model.baseline.mark, d, i) for i in range(n)]
    X = d.feature_matrix if isinstance(d.schema, BinarySchema) else None
    alphas = [c.fertility.rates(X, len(d)) for c in model.components]
    allowed = []
    for comp in model.components:
        if comp.sources is None:
            allowed.append(np.arange(n))
        else:
            keep = set(comp.sources)
            allowed.append(np.array([k for k in range(n) if d.node_ids[k] in keep],
                                    dtype=np.int64))
    lam, z_base = np.zeros(n), np.zeros(n)
    counts = [np.zeros(n, dtype=np.int64) for _ in model.components]
    parents = [[] for _ in model.components]
    zs = [[] for _ in model.components]
    for pos, i in enumerate(kids):
        t = times[i]
        base_val = base_rates[pos] * base_marks[i]
        total, row = base_val, []
        for c, comp in enumerate(model.components):
            pool = allowed[c]
            cut = delay_mod.tail_cutoff(comp.delay, model.truncation_mass)
            js = pool[(times[pool] < t) & (times[pool] >= t - cut)]
            vals = (alphas[c][js] * _reference_values(comp.transition, d, i, js)
                    * delay_mod.density(comp.delay, t - times[js]))
            total += vals.sum()
            row.append((js, vals))
            counts[c][i] = js.size
        if total <= 0.0 or not np.isfinite(total):
            raise NumericalError(f"event {int(i)} at t={t!r} has zero intensity under every cause")
        lam[i] = total
        z_base[i] = base_val / total
        for c, (js, vals) in enumerate(row):
            parents[c].append(js)
            zs[c].append(vals / total)
    offsets = [np.concatenate(([0], np.cumsum(cnt))) for cnt in counts]
    flat = lambda chunks, dtype: (np.concatenate(chunks).astype(dtype) if chunks
                                  else np.zeros(0, dtype=dtype))
    return (lam, z_base, offsets, [flat(p, np.int64) for p in parents],
            [flat(z, np.float64) for z in zs])


def _reference_stats(model, d, children=None, window=None):
    """The statistics m_step reads, summed from the oracle's pairs: each
    pair's delay and weight, the transition statistic of each family
    written out here, and the credit per parent mark pattern."""
    lam, z_base, offsets, parents, zs = _reference_estep(model, d, children, window)
    binary = isinstance(d.schema, BinarySchema)
    out = []
    for c, comp in enumerate(model.components):
        kids = np.repeat(np.arange(len(d)), np.diff(offsets[c]))
        js, z, spec = parents[c], zs[c], comp.transition
        if not binary:
            L, labels = d.n_label_values, d.label_index
            table = np.bincount(labels[js] * L + labels[kids], weights=z,
                                minlength=L * L).reshape(L, L)
            trans, credits = label_family_stats(spec, table), np.array([z.sum()])
        else:
            X = d.feature_matrix
            if isinstance(spec, FeatureMixture):
                trans = mixture_stats([(BinaryMark(tuple(X[j])), BinaryMark(tuple(X[i])), w)
                                       for i, j, w in zip(kids, js, z)], spec.prior)
            elif isinstance(spec, PriorTransition):
                trans = np.concatenate([[z.sum()], X[kids].T.astype(np.float64) @ z])
            else:
                trans = None
            rows, index = d.feature_patterns
            credits = np.bincount(index[js], weights=z, minlength=len(rows))
        out.append(engine.ComponentStats(d.times[kids] - d.times[js], z, trans, credits))
    return engine.EStepStats(z_base, lam, out)


def _assert_stats_close(got, ref):
    """z_base, intensities, pair weights, transition statistics and credits
    to 1e-12 relative, the delay samples exactly. A component with no
    candidate pair keeps no statistic summed over pairs, where the oracle
    sums an empty one."""
    np.testing.assert_allclose(got.z_base, ref.z_base, rtol=1e-12, atol=0)
    np.testing.assert_allclose(got.intensity, ref.intensity, rtol=1e-12, atol=0)
    assert got.n_components == ref.n_components
    for a, b in zip(got.components, ref.components):
        assert a.deltas.dtype == b.deltas.dtype and a.deltas.tobytes() == b.deltas.tobytes()
        np.testing.assert_allclose(a.weights, b.weights, rtol=1e-12, atol=0)
        if a.transition is None and b.transition is not None:
            assert a.weights.size == 0 and not np.any(b.transition)
        else:
            assert (a.transition is None) == (b.transition is None)
        if a.transition is not None:
            assert a.transition.shape == b.transition.shape
            np.testing.assert_allclose(a.transition, b.transition, rtol=1e-12, atol=0)
        assert a.credits.shape == b.credits.shape
        np.testing.assert_allclose(a.credits, b.credits, rtol=1e-12, atol=0)


def _assert_matches_reference(model, d, children=None, window=None, chunk=DEFAULT_CHUNK):
    lam_ref, zb_ref, off_ref, par_ref, z_ref = _reference_estep(model, d, children, window)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "PAIR_CHUNK", chunk)
        resp, lam, _ = engine._estep(model, d, children, window, scan=False, want="resp")
        _, lam_only, _ = engine._estep(model, d, children, window, scan=False)
    np.testing.assert_allclose(lam, lam_ref, rtol=1e-12, atol=0)
    np.testing.assert_allclose(resp.baseline, zb_ref, rtol=1e-12, atol=0)
    for c in range(len(model.components)):
        np.testing.assert_array_equal(resp.comp_offsets[c], off_ref[c])
        np.testing.assert_array_equal(resp.comp_parents[c], par_ref[c])
        assert resp.comp_parents[c].dtype == np.int64
        np.testing.assert_allclose(resp.comp_z[c], z_ref[c], rtol=1e-12, atol=0)
    np.testing.assert_array_equal(lam_only, lam)
    return resp


# ---------------------------------------------------------------------------
# data and models


def _label_data(n=160, horizon=40.0, n_labels=3, grid=None, seed=0):
    rng = np.random.default_rng(seed)
    times = rng.uniform(0, horizon, size=n)
    if grid is not None:  # collide timestamps on a coarse grid
        times = np.floor(times / grid) * grid
    labels = rng.integers(1, n_labels + 1, size=n)
    return Dataset([Event(float(t), LabelMark(int(l))) for t, l in zip(times, labels)],
                   horizon=horizon, schema=LabelSchema(n_labels))


def _binary_data(n=150, horizon=40.0, width=3, seed=0):
    rng = np.random.default_rng(seed)
    times = rng.uniform(0, horizon, size=n)
    bits = rng.integers(0, 2, size=(n, width))
    return Dataset([Event(float(t), BinaryMark(tuple(int(b) for b in row)))
                    for t, row in zip(times, bits)],
                   horizon=horizon, schema=BinarySchema(tuple(f"f{k}" for k in range(width))))


def _composite_data(n=200, horizon=40.0, seed=0):
    rng = np.random.default_rng(seed)
    times = np.floor(rng.uniform(0, horizon, size=n) * 4) / 4
    types = rng.integers(1, 4, size=n)
    nodes = rng.choice(["u", "v", "w"], size=n)
    return Dataset([Event(float(t), CompositeMark(int(k), str(v)))
                    for t, k, v in zip(times, types, nodes)],
                   horizon=horizon, schema=CompositeSchema(3, frozenset({"u", "v", "w"})))


_CAT3 = CategoricalMatrix(((0.6, 0.2, 0.2), (0.2, 0.6, 0.2), (0.1, 0.3, 0.6)))

_DELAYS = (ExponentialDelay(1.3), GammaDelay(2.0, 1.5), UniformDelay(2.0),
           PiecewiseUniformDelay((0.0, 0.5, 2.0, 4.0), (0.5, 0.3, 0.2)),
           ExpMixtureDelay((0.6, 0.4), (3.0, 0.3)))


def _label_model(delay, truncation):
    return CascadeModel(
        PeriodicBaseline(10.0, (0.3, 0.8), LabelMarginal((0.3, 0.3, 0.4))),
        (KernelComponent("cat", ConstantFertility(0.4), _CAT3, delay),
         KernelComponent("same", ConstantFertility(0.2), IdentityTransition(),
                         ExponentialDelay(0.5)),
         KernelComponent("any", ConstantFertility(0.1),
                         PriorTransition(LabelMarginal((0.2, 0.5, 0.3))), delay)),
        truncation_mass=truncation)


def _binary_model(truncation, resample=0.3):
    prior = FeaturePrior((0.3, 0.6, 0.5))
    return CascadeModel(
        HomogeneousBaseline(0.9, prior),
        (KernelComponent("mix", MultiplicativeFertility((0.4, 1.5, 0.7, 2.0)),
                         FeatureMixture(resample, prior), ExponentialDelay(1.0)),
         KernelComponent("same", ConstantFertility(0.1), IdentityTransition(),
                         GammaDelay(1.5, 1.0)),
         KernelComponent("prior", ConstantFertility(0.1), PriorTransition(prior),
                         UniformDelay(3.0))),
        truncation_mass=truncation)


def _composite_model(truncation):
    return CascadeModel(
        HomogeneousBaseline(0.8, LabelMarginal((0.3, 0.3, 0.4))),
        (KernelComponent("self", ConstantFertility(0.3), _CAT3, ExponentialDelay(1.0),
                         sources=("u",)),
         KernelComponent("nbrs", ConstantFertility(0.2), IdentityTransition(),
                         GammaDelay(2.0, 1.0), sources=("v", "w")),
         KernelComponent("none", ConstantFertility(0.2), _CAT3, ExponentialDelay(1.0),
                         sources=("absent",)),
         KernelComponent("any", ConstantFertility(0.15),
                         PriorTransition(LabelMarginal((0.5, 0.3, 0.2))),
                         GammaDelay(1.5, 0.8), sources=("w", "u"))),
        truncation_mass=truncation)


def _wide_binary_case(n=120, width=40, seed=0):
    """Feature rows drawn at random on a wide schema, so nearly every event
    has its own mark pattern, and fertilities that read the features: the
    fertility stays a factor of each pair, a feature prior's g a factor
    of each child."""
    rng = np.random.default_rng(seed)
    d = Dataset([Event(float(t), BinaryMark(tuple(int(b) for b in row)))
                 for t, row in zip(rng.uniform(0, 40.0, size=n),
                                   rng.integers(0, 2, size=(n, width)))],
                horizon=40.0, schema=BinarySchema(tuple(f"f{k}" for k in range(width))))
    prior = FeaturePrior(tuple(rng.uniform(0.2, 0.8, size=width).tolist()))
    model = CascadeModel(
        HomogeneousBaseline(0.5, prior),
        (KernelComponent("prior", LinearFertility(0.05, tuple(rng.uniform(0, 0.02, width).tolist())),
                         PriorTransition(prior), GammaDelay(2.0, 1.0)),
         KernelComponent("same", MultiplicativeFertility((0.2,) + (1.01,) * width),
                         IdentityTransition(), ExponentialDelay(1.0))),
        truncation_mass=1e-6)
    return model, d


# ---------------------------------------------------------------------------
# oracle tests


@pytest.mark.parametrize("truncation", [0.0, 1e-6])
@pytest.mark.parametrize("delay", _DELAYS, ids=lambda s: type(s).__name__)
def test_label_families_match_reference(delay, truncation):
    _assert_matches_reference(_label_model(delay, truncation), _label_data(seed=1))


@pytest.mark.parametrize("truncation", [0.0, 1e-6])
@pytest.mark.parametrize("resample", [0.0, 0.3, 1.0])
def test_binary_families_match_reference(resample, truncation):
    _assert_matches_reference(_binary_model(truncation, resample), _binary_data(seed=2))


@pytest.mark.parametrize("truncation", [0.0, 1e-6])
def test_composite_sources_match_reference(truncation):
    d = _composite_data(seed=3)
    assert len(np.unique(d.times)) < len(d)  # ties really exist
    _assert_matches_reference(_composite_model(truncation), d)


@pytest.mark.parametrize("truncation", [0.0, 1e-6])
def test_ties_mask_and_interior_window_match_reference(truncation):
    d = _label_data(n=200, grid=0.5, seed=4)
    assert len(np.unique(d.times)) < len(d)
    model = _label_model(GammaDelay(2.0, 1.0), truncation)
    mask = np.zeros(len(d), dtype=bool)
    mask[::3] = True
    for children, window in ((mask, None), (None, (10.0, 30.0)), (mask, (10.0, 30.0))):
        _assert_matches_reference(model, d, children, window)
    dc = _composite_data(seed=5)
    _assert_matches_reference(_composite_model(truncation), dc,
                              np.arange(len(dc)) % 2 == 0, (5.0, 35.0))


def test_empty_dataset_and_no_components():
    empty = Dataset([], horizon=5.0, schema=LabelSchema(3))
    _assert_matches_reference(_label_model(ExponentialDelay(1.0), 1e-6), empty)
    bare = CascadeModel(HomogeneousBaseline(0.5, LabelMarginal((0.3, 0.3, 0.4))))
    _assert_matches_reference(bare, _label_data(seed=6))


def test_simulated_stream_matches_reference():
    model = _label_model(GammaDelay(2.0, 0.5), 1e-6)
    d, _ = simulate(model, 150.0, seed=7)
    _assert_matches_reference(model, d)


@pytest.mark.parametrize("truncation", [0.0, 1e-6])
@pytest.mark.parametrize("kind", ["label", "binary", "composite"])
def test_intensity_matches_the_estep(kind, truncation):
    # identity, prior and categorical transitions on labels, identity,
    # feature prior and feature mixture on binary marks, identity and
    # categorical with sources on composite marks, with tied timestamps
    if kind == "label":
        model, d = _label_model(GammaDelay(2.0, 1.5), truncation), _label_data(grid=0.5, seed=13)
    elif kind == "binary":
        model, d = _binary_model(truncation), _binary_data(seed=14)
    else:
        model, d = _composite_model(truncation), _composite_data(seed=15)
    _, lam, kids = engine._estep(model, d, None, None, scan=False)
    evs = d.events
    got = [intensity(model, d, d.times[i], evs[i].mark) for i in kids]
    np.testing.assert_allclose(got, lam[kids], rtol=1e-12, atol=0)


def test_identity_on_wide_binary_marks():
    # identity transitions compare feature rows, whatever the width
    rng = np.random.default_rng(16)
    width, n = 70, 120
    rows = rng.integers(0, 2, size=(4, width))[rng.integers(0, 4, size=n)]
    d = Dataset([Event(float(t), BinaryMark(tuple(int(b) for b in row)))
                 for t, row in zip(rng.uniform(0, 40.0, size=n), rows)],
                horizon=40.0, schema=BinarySchema(tuple(f"f{k}" for k in range(width))))
    prior = FeaturePrior((0.5,) * width)
    model = CascadeModel(
        HomogeneousBaseline(0.9, prior),
        (KernelComponent("same", ConstantFertility(0.5), IdentityTransition(),
                         ExponentialDelay(1.0)),
         KernelComponent("prior", ConstantFertility(0.1), PriorTransition(prior),
                         GammaDelay(2.0, 1.0))))
    resp = _assert_matches_reference(model, d)
    assert sum(z.sum() for z in resp.comp_z) > 1.0  # identity pairs carry weight
    _, lam, _ = engine._estep(model, d, None, None, scan=False)
    assert log_likelihood(model, d) == pytest.approx(
        np.log(lam).sum() - compensator(model, d), rel=1e-12)


def test_source_mask_matches_node_membership():
    d = _composite_data(seed=8)
    for sources in (("u",), ("v", "w"), ("absent",), ("w", "u", "v")):
        comp = KernelComponent("k", ConstantFertility(0.1), IdentityTransition(),
                               ExponentialDelay(1.0), sources=sources)
        expect = np.array([node in sources for node in d.node_ids])
        np.testing.assert_array_equal(engine._source_mask(comp, d), expect)
    names, codes = d.node_codes
    np.testing.assert_array_equal(names[codes], d.node_ids)


# ---------------------------------------------------------------------------
# chunking


def _run_chunked(chunk, model, d, children=None, window=None):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "PAIR_CHUNK", chunk)
        return engine._estep(model, d, children, window, scan=False, want="resp")


def _assert_bitwise_equal(a, b):
    (ra, la, ka), (rb, lb, kb) = a, b
    for x, y in ((la, lb), (ka, kb), (ra.baseline, rb.baseline)):
        assert x.tobytes() == y.tobytes()
    for c in range(ra.n_components):
        for x, y in ((ra.comp_offsets[c], rb.comp_offsets[c]),
                     (ra.comp_parents[c], rb.comp_parents[c]),
                     (ra.comp_z[c], rb.comp_z[c])):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), kind=st.sampled_from(["label", "binary", "composite"]),
       truncation=st.sampled_from([0.0, 1e-6]), sparse=st.booleans())
def test_chunk_size_does_not_change_a_bit(seed, kind, truncation, sparse):
    # sparse streams put children with no candidate pairs between busy ones,
    # so some chunks start or end on a child without pairs
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 60))
    horizon = 400.0 if sparse else 30.0
    if kind == "label":
        d = _label_data(n, horizon, grid=None if seed % 2 else 0.5, seed=seed)
        model = _label_model(_DELAYS[seed % len(_DELAYS)], truncation)
    elif kind == "binary":
        d = _binary_data(n, horizon, seed=seed)
        model = _binary_model(truncation)
    else:
        d = _composite_data(n, horizon, seed=seed)
        model = _composite_model(truncation)
    children = rng.random(len(d)) < 0.7 if seed % 3 == 0 else None
    runs = [_run_chunked(chunk, model, d, children)
            for chunk in (DEFAULT_CHUNK, 1, 7)]
    _assert_bitwise_equal(runs[0], runs[1])
    _assert_bitwise_equal(runs[0], runs[2])


def test_feature_mixture_table_and_pairwise_values_agree():
    # a chunk smaller than the (pattern x pattern) table switches the
    # feature mixture to per-pair evaluation; the values must not move
    d = _binary_data(n=120, seed=9)
    assert len(d.feature_patterns[0]) ** 2 > 7
    model = _binary_model(1e-6)
    _assert_bitwise_equal(_run_chunked(DEFAULT_CHUNK, model, d),
                          _run_chunked(7, model, d))


# ---------------------------------------------------------------------------
# errors, the lower bound and fit


@pytest.mark.parametrize("chunk", [DEFAULT_CHUNK, 1, 7])
def test_zero_intensity_names_the_first_such_event(monkeypatch, chunk):
    # no baseline, so only children with an in-window parent have intensity
    monkeypatch.setattr(engine, "PAIR_CHUNK", chunk)
    times = [0.0, 0.5, 0.5, 1.0, 9.0, 9.5, 30.0, 31.0]
    d = Dataset([Event(t, LabelMark(1)) for t in times], horizon=40.0,
                schema=LabelSchema(2))
    model = CascadeModel(
        HomogeneousBaseline(0.0, LabelMarginal((0.5, 0.5))),
        (KernelComponent("k", ConstantFertility(0.5), IdentityTransition(),
                         UniformDelay(2.0)),), truncation_mass=0.0)
    with pytest.raises(NumericalError) as expected:
        _reference_estep(model, d, children=np.arange(len(d)) >= 1)
    with pytest.raises(NumericalError) as got:
        e_step(model, d, children=np.arange(len(d)) >= 1)
    assert str(got.value) == str(expected.value)
    assert "event 4 " in str(got.value)


@pytest.mark.parametrize("chunk", [DEFAULT_CHUNK, 1, 7])
def test_zero_intensity_under_a_prior_names_the_oracle_event(monkeypatch, chunk):
    # the prior gives label 2 no mass, so with no baseline a label-2 child
    # has zero intensity although every pair before it has a kernel value
    monkeypatch.setattr(engine, "PAIR_CHUNK", chunk)
    times = [0.0, 0.5, 1.0, 1.2, 1.5, 2.0, 2.5]
    labels = [1, 1, 1, 1, 1, 2, 1]
    d = Dataset([Event(t, LabelMark(k)) for t, k in zip(times, labels)], horizon=5.0,
                schema=LabelSchema(2))
    model = CascadeModel(
        HomogeneousBaseline(0.0, LabelMarginal((0.5, 0.5))),
        (KernelComponent("k", ConstantFertility(0.5), PriorTransition(LabelMarginal((1.0, 0.0))),
                         GammaDelay(2.0, 1.0)),), truncation_mass=1e-6)
    children = np.arange(len(d)) >= 1
    with pytest.raises(NumericalError) as expected:
        _reference_estep(model, d, children=children)
    for want_stats in (False, True):
        with pytest.raises(NumericalError) as got:
            engine._estep(model, d, children, None, scan=False,
                          want="stats" if want_stats else None)
        assert str(got.value) == str(expected.value)
        assert "event 5 " in str(got.value)


def _reference_lower_bound(model, d, resp):
    """The per-child Jensen bound the vectorized one replaced."""
    fresh, lam, kids = engine._estep(model, d, None, None, scan=False, want="resp")
    bound = 0.0
    for i in kids:
        z, k_base = resp.baseline[i], fresh.baseline[i] * lam[i]
        if z > 0:
            bound += z * np.log(k_base / z)
        for c in range(len(model.components)):
            lo, hi = fresh.comp_offsets[c][i], fresh.comp_offsets[c][i + 1]
            k_vals = fresh.comp_z[c][lo:hi] * lam[i]
            z_vals = resp.comp_z[c][resp.comp_offsets[c][i]:resp.comp_offsets[c][i + 1]]
            pos = z_vals > 0
            bound += float(np.dot(z_vals[pos], np.log(k_vals[pos] / z_vals[pos])))
    return bound - engine.compensator(model, d)


def _each_component(model, **changes):
    return replace(model, components=tuple(replace(c, **changes) for c in model.components))


def test_lower_bound_matches_reference_and_rejects_other_layouts():
    d = _composite_data(seed=10)
    model = _composite_model(1e-6)
    resp = e_step(model, d)
    other = e_step(_each_component(model, fertility=ConstantFertility(0.05)), d)
    for r in (resp, other):
        assert em_lower_bound(model, d, r) == pytest.approx(
            _reference_lower_bound(model, d, r), rel=1e-12)
    # longer delays widen the truncation windows
    wider = e_step(_each_component(model, delay=ExponentialDelay(0.1)), d)
    with pytest.raises(DataError, match="layout"):
        em_lower_bound(model, d, wider)
    # positive weight on causes whose kernel is now zero
    comps = list(model.components)
    comps[1] = replace(comps[1], fertility=ConstantFertility(0.0))
    assert em_lower_bound(replace(model, components=tuple(comps)), d, resp) == -np.inf


# ---------------------------------------------------------------------------
# the statistics mode


def _assert_stats_match_oracle(model, d, children=None, window=None, chunk=DEFAULT_CHUNK):
    """estep_stats under ``chunk`` against ``_reference_stats``. Its z_base,
    intensities and pair weights are e_step's bit for bit, and
    ``oracles.component_stats`` of e_step matches the oracle too."""
    ref = _reference_stats(model, d, children, window)
    resp = e_step(model, d, children, window)
    _, lam, _ = engine._estep(model, d, children, window, scan=False)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "PAIR_CHUNK", chunk)
        got = engine.estep_stats(model, d, children, window)
    assert got.z_base.tobytes() == resp.baseline.tobytes()
    assert got.intensity.tobytes() == lam.tobytes()
    for a, z in zip(got.components, resp.comp_z):
        assert a.weights.tobytes() == z.tobytes()
    _assert_stats_close(got, ref)
    _assert_stats_close(engine.EStepStats(resp.baseline, lam,
                                          component_stats(model, d, resp)), ref)
    return got


@pytest.mark.parametrize("chunk", [DEFAULT_CHUNK, 1, 7])
@pytest.mark.parametrize("delay", _DELAYS, ids=lambda s: type(s).__name__)
def test_stats_mode_matches_component_stats_for_every_delay(delay, chunk):
    # categorical, identity and prior transitions on labels, each keeping
    # the statistic of its family
    d = _label_data(seed=21)
    for truncation in (0.0, 1e-6):
        got = _assert_stats_match_oracle(_label_model(delay, truncation), d, chunk=chunk)
        cat, same, prior = (c.transition for c in got.components)
        assert cat.shape == (3, 3) and same is None and prior.shape == (3,)


@pytest.mark.parametrize("chunk", [DEFAULT_CHUNK, 1, 7])
def test_stats_mode_matches_component_stats_on_binary_marks(chunk):
    # feature mixture (its table at the default chunk, per pair below it),
    # multiplicative fertility, identity with no statistics, feature prior
    d = _binary_data(n=120, seed=22)
    table_fits = len(d.feature_patterns[0]) ** 2 <= chunk
    assert table_fits == (chunk == DEFAULT_CHUNK)
    for resample in (0.0, 0.3, 1.0):
        got = _assert_stats_match_oracle(_binary_model(1e-6, resample), d, chunk=chunk)
        assert got.components[1].transition is None
        assert got.components[0].credits.size == len(d.feature_patterns[0])


@pytest.mark.parametrize("chunk", [DEFAULT_CHUNK, 1, 7])
def test_stats_mode_with_sources_masks_and_interior_windows(chunk):
    d = _composite_data(seed=23)
    model = _composite_model(1e-6)
    mask = np.arange(len(d)) % 2 == 0
    for children, window in ((None, None), (mask, None), (None, (5.0, 35.0)),
                             (mask, (5.0, 35.0))):
        got = _assert_stats_match_oracle(model, d, children, window, chunk)
        assert got.components[2].weights.size == 0  # no events at its source
        assert got.components[3].transition.shape == (3,)  # a prior on the types
    dl = _label_data(n=200, grid=0.5, seed=24)
    _assert_stats_match_oracle(_label_model(GammaDelay(2.0, 1.0), 1e-6), dl,
                               dl.times > 20.0, (10.0, 30.0), chunk)


def test_stats_mode_on_empty_data_and_without_components():
    empty = Dataset([], horizon=5.0, schema=LabelSchema(3))
    got = _assert_stats_match_oracle(_label_model(ExponentialDelay(1.0), 1e-6), empty)
    assert all(c.weights.size == 0 for c in got.components)
    bare = CascadeModel(HomogeneousBaseline(0.5, LabelMarginal((0.3, 0.3, 0.4))))
    assert _assert_stats_match_oracle(bare, _label_data(seed=25)).n_components == 0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000),
       kind=st.sampled_from(["label", "binary", "composite", "wide"]),
       truncation=st.sampled_from([0.0, 1e-6]), sparse=st.booleans())
def test_stats_mode_matches_component_stats_across_chunks(seed, kind, truncation, sparse):
    # sparse streams leave children without pairs at the ends of chunks
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 60))
    horizon = 400.0 if sparse else 30.0
    if kind == "label":
        d = _label_data(n, horizon, grid=None if seed % 2 else 0.5, seed=seed)
        model = _label_model(_DELAYS[seed % len(_DELAYS)], truncation)
    elif kind == "binary":
        d = _binary_data(n, horizon, seed=seed)
        model = _binary_model(truncation)
    elif kind == "composite":
        d = _composite_data(n, horizon, seed=seed)
        model = _composite_model(truncation)
    else:
        model, d = _wide_binary_case(n, width=12, seed=seed)
        model = replace(model, truncation_mass=truncation)
    children = rng.random(len(d)) < 0.7 if seed % 3 == 0 else None
    window = (d.horizon / 4, d.horizon * 3 / 4) if seed % 4 == 1 else None
    for chunk in (DEFAULT_CHUNK, 1, 7):
        _assert_stats_match_oracle(model, d, children, window, chunk)
        _assert_matches_reference(model, d, children, window, chunk)


@pytest.mark.parametrize("chunk", [DEFAULT_CHUNK, 1, 7])
def test_feature_prior_on_a_wide_schema_matches_the_oracle(chunk):
    # the fertility varies by parent, so it stays in the pair loop, while
    # the prior's g(child) multiplies each child's sum
    model, d = _wide_binary_case(seed=31)
    assert len(d.feature_patterns[0]) > len(d) // 2
    mask = np.arange(len(d)) % 3 > 0
    for children, window in ((None, None), (mask, (10.0, 30.0))):
        _assert_matches_reference(model, d, children, window, chunk)
        got = _assert_stats_match_oracle(model, d, children, window, chunk)
        assert got.components[0].transition.shape == (41,)
        assert got.components[1].transition is None
        assert got.components[0].credits.size == len(d.feature_patterns[0])


def test_child_sums_leave_children_without_pairs_at_zero():
    vals = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    for cnt, want in (([2, 0, 3], [3.0, 0.0, 12.0]), ([0, 5, 0], [0.0, 15.0, 0.0]),
                      ([1, 1, 3, 0, 0], [1.0, 2.0, 12.0, 0.0, 0.0])):
        got = engine._child_sums(vals, np.array(cnt))
        assert got.tolist() == want


def _reference_fit(model, d, max_iters, tol, children=None, window=None):
    """fit's direct engine as it was: every E-step keeps the
    responsibilities, which ``oracles.component_stats`` sums for each
    refit state."""
    window = engine._resolve_window(d, window)
    kids = engine._child_ids(d, children, window)

    def evaluate(m):
        resp, lam, _ = engine._estep(m, d, children, window, scan=False, want="resp")
        return (resp, lam), float(np.log(lam[kids]).sum()) - compensator(m, d, window)

    def reduce(m, state):
        resp, lam = state
        return engine.EStepStats(resp.baseline, lam, component_stats(m, d, resp))

    def improve(m, stats, freeze_delays=False):
        m2 = engine.m_step(m, d, stats, children, window, True, freeze_delays)
        return engine.normalize(m2, d, children, window) if m2.normalization else m2

    state, ll = evaluate(model)
    trace, converged = [ll], False
    for _ in range(max_iters):
        stats, state = reduce(model, state), None
        candidate = improve(model, stats)
        state_new, ll_new = evaluate(candidate)
        if ll_new < ll:
            fallback = improve(model, stats, freeze_delays=True)
            state_fb, ll_fb = evaluate(fallback)
            if ll_fb > ll_new:
                candidate, state_new, ll_new = fallback, state_fb, ll_fb
        trace.append(ll_new)
        model, state = candidate, state_new
        gain, ll = ll_new - ll, ll_new
        if gain < tol * max(abs(ll_new), 1e-12):
            converged = True
            break
    return model, trace, converged


def _assert_close(x, y, path=""):
    """Equal structure, and floats equal to 1e-12 relative."""
    if isinstance(x, dict):
        assert x.keys() == y.keys(), path
        for k in x:
            _assert_close(x[k], y[k], f"{path}/{k}")
    elif isinstance(x, (list, tuple)):
        assert len(x) == len(y), path
        for i, (a, b) in enumerate(zip(x, y)):
            _assert_close(a, b, f"{path}[{i}]")
    elif isinstance(x, float):
        assert x == pytest.approx(y, rel=1e-12, abs=1e-300), path
    else:
        assert x == y, path


def _slow_delay_case():
    """Slow delays put much of the triggering mass past the horizon, where
    the delay refit overshoots and the frozen-delay retry takes over."""
    mk = lambda rate: CascadeModel(
        HomogeneousBaseline(0.5, LabelMarginal((0.5, 0.5))),
        (KernelComponent("k", ConstantFertility(0.5), IdentityTransition(),
                         ExponentialDelay(rate)),))
    d, _ = simulate(mk(0.1), 60.0, seed=1)
    return mk(0.05), d


def _fit_cases():
    slow, ds = _slow_delay_case()
    dl = _label_data(n=200, seed=26)
    dc = _composite_data(seed=27)
    grouped = replace(_composite_model(1e-6), components=tuple(
        replace(c, transition=_CAT3, transition_group="t", delay=GammaDelay(2.0, 1.0),
                delay_group="d")
        for c in _composite_model(1e-6).components))
    return [(slow, ds, None, None),
            (_label_model(GammaDelay(2.0, 1.5), 1e-6), dl, None, None),
            (_label_model(PiecewiseUniformDelay((0.0, 0.5, 2.0, 4.0), (0.5, 0.3, 0.2)),
                          0.0), dl, dl.times > 5.0, (5.0, 35.0)),
            (_binary_model(1e-6), _binary_data(n=150, seed=28), None, None),
            (grouped, dc, np.arange(len(dc)) % 3 > 0, None)]


@pytest.mark.parametrize("case", range(5))
@pytest.mark.parametrize("tol", [0.0, 1e-4])
def test_direct_fit_matches_the_evaluate_reduce_loop(case, tol):
    model, d, children, window = _fit_cases()[case]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = fit(model, d, max_iters=5, tol=tol, children=children, window=window,
                     on_decrease="warn", engine="direct")
        ref_model, ref_trace, ref_converged = _reference_fit(model, d, 5, tol,
                                                             children, window)
    assert (report.iterations, report.converged) == (len(ref_trace) - 1, ref_converged)
    _assert_close(report.ll_trace, ref_trace)
    _assert_close(serialize_model(report.model), serialize_model(ref_model))


def test_direct_fit_keeps_statistics_not_responsibilities(monkeypatch):
    built, refits, wants = [], [], []
    m_step, driver = engine.m_step, engine._estep

    class CountedResponsibilities(engine.Responsibilities):
        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

    monkeypatch.setattr(engine, "Responsibilities", CountedResponsibilities)
    monkeypatch.setattr(engine, "m_step", lambda *args: refits.append(1) or m_step(*args))
    model, d = _slow_delay_case()
    _, ref_trace, _ = _reference_fit(model, d, 6, 0.0)
    ref_refits, refits[:] = len(refits), []
    assert len(built) > 7
    built[:] = []

    def recorded_driver(*args, want=None, **kwargs):
        wants.append(want == "stats")
        return driver(*args, want=want, **kwargs)

    monkeypatch.setattr(engine, "_estep", recorded_driver)
    report = fit(model, d, max_iters=6, tol=0.0, engine="direct")
    assert report.iterations == 6
    assert len(refits) > report.iterations  # the frozen-delay retry fired
    assert len(refits) == ref_refits
    assert built == []
    # the E-steps of the last iteration (and its retry) feed no M-step
    assert wants == sorted(wants, reverse=True) and 1 <= wants.count(False) <= 2
    _assert_close(report.ll_trace, ref_trace)
    wants[:] = []
    fit(model, d, max_iters=0, engine="direct")
    assert wants == [False]


# the retry's LL trace on _slow_delay_case before fit released any pairs
RETRY_TRACE = [-89.06761845947715, -88.89444276855163, -88.83107885320234, -88.82422805319095,
               -88.8229349342497, -88.82226469759769, -88.82172825435657]


def test_frozen_delay_retry_reads_only_released_statistics(monkeypatch):
    released, m_step = [], engine.m_step

    def recorded(m, d, stats, *args):
        if args[-1]:  # freeze_delays
            released.append([(c.deltas.size, c.weights.size) for c in stats.components])
        return m_step(m, d, stats, *args)

    monkeypatch.setattr(engine, "m_step", recorded)
    model, d = _slow_delay_case()
    report = fit(model, d, max_iters=6, tol=0.0, engine="direct")
    assert report.engine == "direct" and len(released) >= 3
    # each retry reads the one sample (sum z*dt / sum z, sum z), not the pairs
    assert all(sizes == [(1, 1)] for sizes in released)
    _assert_close(report.ll_trace, RETRY_TRACE)


def _pairs_fit_case(retry: bool):
    """A gamma fit without truncation, so each E-step weighs every earlier
    event; with ``retry`` the fitted delay is so slow that the frozen-delay
    retry fires."""
    if retry:
        mk = lambda rate: CascadeModel(
            HomogeneousBaseline(15.0, LabelMarginal((0.5, 0.5))),
            (KernelComponent("k", ConstantFertility(0.5), IdentityTransition(),
                             GammaDelay(1.0, rate)),), truncation_mass=0.0)
        return mk(0.05), simulate(mk(0.1), 60.0, seed=1)[0]
    n = 2000
    rng = np.random.default_rng(41)
    d = Dataset([Event(float(t), LabelMark(int(k))) for t, k in
                 zip(np.sort(rng.uniform(0, 500.0, n)), rng.integers(1, 3, n))],
                horizon=500.0, schema=LabelSchema(2))
    half = LabelMarginal((0.5, 0.5))
    return CascadeModel(HomogeneousBaseline(1.0, half),
                        (KernelComponent("slow", ConstantFertility(0.3), PriorTransition(half),
                                         GammaDelay(2.0, 0.1)),), truncation_mass=0.0), d


@pytest.mark.parametrize("retry", [False, True])
def test_gamma_fit_holds_one_estep_of_pairs(monkeypatch, retry):
    model, d = _pairs_fit_case(retry)
    # each pair keeps its delay and its weight, 16 bytes
    pair_bytes = 16 * sum(c.weights.size for c in engine.estep_stats(model, d).components)
    assert pair_bytes > 15 * 2 ** 20
    retries, m_step = [], engine.m_step
    monkeypatch.setattr(engine, "m_step",
                        lambda *args: retries.append(args[-1]) or m_step(*args))
    d.times, d.label_index  # cached columns belong to the dataset, not the fit
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = fit(model, d, max_iters=3, tol=0.0, engine="direct", on_decrease="warn")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.iterations == 3 and report.engine == "direct"
    assert any(retries) == retry
    # two E-steps' pairs are never held at once
    assert peak < 1.25 * pair_bytes + 8 * engine.PAIR_CHUNK * 8, f"peak {peak / 1e6:.1f} MB"


def test_a_candidate_that_beats_its_retry_gets_its_statistics_back(monkeypatch):
    m_step, evaluate, twice = engine.m_step, engine._evaluate, []

    def losing_retry(m, d, stats, *args):
        new = m_step(m, d, stats, *args)
        if args[-1]:  # freeze_delays
            new = replace(new, baseline=new.baseline.scaled(0.2))
        return new

    def recorded(m, d, children, window, want_stats=False, fast=False):
        if want_stats:
            twice.append(m)
        return evaluate(m, d, children, window, want_stats, fast)

    monkeypatch.setattr(engine, "m_step", losing_retry)
    model, d = _slow_delay_case()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, ref_trace, _ = _reference_fit(model, d, 6, 0.0)
        monkeypatch.setattr(engine, "_evaluate", recorded)
        report = fit(model, d, max_iters=6, tol=0.0, engine="direct", on_decrease="warn")
    # the candidate kept after a retry is evaluated again for its statistics
    assert len(twice) > len({id(m) for m in twice})
    _assert_close(report.ll_trace, ref_trace)


def test_prior_fit_over_many_labels_keeps_no_label_table(monkeypatch):
    # a prior over L labels has L parameters, so the fit holds no L x L
    # table: one of float64 at L = 4000 is 128 MB, and the whole fit stays
    # under half of that
    L, n = 4000, 8000
    rng = np.random.default_rng(40)
    d = Dataset([Event(float(t), LabelMark(int(k))) for t, k in
                 zip(np.sort(rng.uniform(0, 4000.0, n)), rng.integers(1, L + 1, n))],
                horizon=4000.0, schema=LabelSchema(L))
    uniform = LabelMarginal((1.0 / L,) * L)
    model = CascadeModel(HomogeneousBaseline(1.0, uniform),
                         (KernelComponent("slow", ConstantFertility(0.3),
                                          PriorTransition(uniform), GammaDelay(2.0, 0.5)),))
    tables = []
    pair_table = trans_mod.label_pair_table
    monkeypatch.setattr(trans_mod, "label_pair_table",
                        lambda *args: tables.append(1) or pair_table(*args))
    tracemalloc.start()
    try:
        report = fit(model, d, max_iters=2, tol=0.0, engine="direct")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.iterations == 2 and report.engine == "direct"
    pairs = sum(c.weights.size for c in engine.estep_stats(model, d).components)
    assert pairs > 50 * n  # the pairs, not the labels, set the size
    assert peak < 64 * 2 ** 20
    assert tables == []
    assert len(report.model.components[0].transition.mark.probs) == L
