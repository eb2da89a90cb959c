"""The chunked pairwise E-step against a per-child reference loop.

``_reference_estep`` is the per-child loop the chunked E-step replaced,
kept here as the oracle, with each child's candidate parents found by
direct comparison instead of ``searchsorted``. Offsets and parent ids
must agree exactly; intensities and weights to 1e-12 relative, because
each child's kernel values are summed in another order. The chunk size
must not change a single bit of the output.
"""

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
from cascades.delays import ExpMixtureDelay, PiecewiseUniformDelay, UniformDelay
from cascades.events import (BinaryMark, BinarySchema, CompositeMark,
                             CompositeSchema, LabelSchema)
from cascades.fertility import MultiplicativeFertility

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
        return np.full(parents.shape, _reference_mark_prob(spec.dist, d, child))
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
    base_rates = engine._baseline_rate_at(model.baseline, times[kids])
    base_marks = [_reference_mark_prob(model.baseline.mark, d, i) for i in range(n)]
    alphas = engine._fertility_matrix(model, d)
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


def _assert_matches_reference(model, d, children=None, window=None):
    lam_ref, zb_ref, off_ref, par_ref, z_ref = _reference_estep(model, d, children, window)
    resp, lam, _ = engine._estep_core(model, d, children, window, want_resp=True)
    np.testing.assert_allclose(lam, lam_ref, rtol=1e-12, atol=0)
    np.testing.assert_allclose(resp.baseline, zb_ref, rtol=1e-12, atol=0)
    for c in range(len(model.components)):
        np.testing.assert_array_equal(resp.comp_offsets[c], off_ref[c])
        np.testing.assert_array_equal(resp.comp_parents[c], par_ref[c])
        assert resp.comp_parents[c].dtype == np.int64
        np.testing.assert_allclose(resp.comp_z[c], z_ref[c], rtol=1e-12, atol=0)
    _, lam_only, _ = engine._estep_core(model, d, children, window, want_resp=False)
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
                         sources=("absent",))),
        truncation_mass=truncation)


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
    _, lam, kids = engine._estep_core(model, d, None, None, want_resp=False)
    got = [intensity(model, d, d.times[i], d.events[i].mark) for i in kids]
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
    _, lam, _ = engine._estep_core(model, d, None, None, want_resp=False)
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
        return engine._estep_core(model, d, children, window, want_resp=True)


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


def _reference_lower_bound(model, d, resp):
    """The per-child Jensen bound the vectorized one replaced."""
    fresh, lam, kids = engine._estep_core(model, d, None, None, want_resp=True)
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


def test_fit_reduces_each_refit_state_once(monkeypatch):
    reductions, refits = [], []
    reduce, m_step = engine._component_stats, engine.m_step
    monkeypatch.setattr(engine, "_component_stats",
                        lambda *args: reductions.append(1) or reduce(*args))
    monkeypatch.setattr(engine, "m_step",
                        lambda *args: refits.append(1) or m_step(*args))
    # slow delays put much of the triggering mass past the horizon, where
    # the delay refit overshoots and the frozen-delay retry takes over
    mk = lambda rate: CascadeModel(
        HomogeneousBaseline(0.5, LabelMarginal((0.5, 0.5))),
        (KernelComponent("k", ConstantFertility(0.5), IdentityTransition(),
                         ExponentialDelay(rate)),))
    d, _ = simulate(mk(0.1), 60.0, seed=1)
    report = fit(mk(0.05), d, max_iters=6, tol=0.0, engine="direct")
    assert report.iterations == 6
    assert len(refits) > report.iterations  # the frozen-delay retry fired
    assert len(reductions) == report.iterations
