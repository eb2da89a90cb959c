import gc
import inspect
import math
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from cascades import (CascadeModel, CategoricalMatrix, ConfigError,
                      ConstantFertility, DataError, Dataset, Event,
                      ExponentialDelay, FeatureMixture, FeaturePrior,
                      GammaDelay, HomogeneousBaseline, IdentityTransition,
                      KernelComponent, LabelMark, LabelMarginal, LabelSchema, LinearFertility,
                      NumericalError, PeriodicBaseline, PriorTransition,
                      UniformDelay, compensator, e_step,
                      fast_applicable, fit, intensity,
                      log_likelihood, m_step, normalize, simulate,
                      windowed_log_likelihood)
from cascades import MultiplicativeFertility, engine
from cascades.delays import ExpMixtureDelay, PiecewiseUniformDelay
from cascades.engine import (Responsibilities, baseline_integral, estep_stats,
                             validate_model)
from cascades.events import BinaryMark, BinarySchema, CompositeMark, CompositeSchema, split
from oracles import forced_estep, lower_bound, resp_stats


def label_toy():
    base = HomogeneousBaseline(0.5, LabelMarginal((0.6, 0.4)))
    trans = CategoricalMatrix(((0.3, 0.7), (0.5, 0.5)))
    comp = KernelComponent("k", ConstantFertility(0.8), trans,
                           ExponentialDelay(1.0))
    model = CascadeModel(base, (comp,), truncation_mass=0.0)
    d = Dataset([Event(0.0, LabelMark(1)), Event(1.0, LabelMark(2))],
                horizon=4.0, schema=LabelSchema(2))
    return model, d


def test_estep_hand_values():
    model, d = label_toy()
    resp = e_step(model, d)
    assert resp.baseline[0] == pytest.approx(1.0, abs=1e-12)
    base_val = 0.5 * 0.4
    kern_val = 0.8 * 0.7 * math.exp(-1.0)
    assert resp.baseline[1] == pytest.approx(base_val / (base_val + kern_val),
                                             rel=1e-12)
    assert resp.comp_z[0][0] == pytest.approx(kern_val / (base_val + kern_val),
                                              rel=1e-12)
    assert resp.comp_parents[0].tolist() == [0]


def test_estep_rows_sum_to_one():
    model = CascadeModel(
        HomogeneousBaseline(0.6, LabelMarginal((0.5, 0.3, 0.2))),
        (KernelComponent("a", ConstantFertility(0.4),
                         CategoricalMatrix(((0.8, 0.1, 0.1), (0.1, 0.8, 0.1),
                                            (0.1, 0.1, 0.8))),
                         ExponentialDelay(1.0)),
         KernelComponent("b", ConstantFertility(0.2), IdentityTransition(),
                         GammaDelay(2.0, 1.0))))
    d, _ = simulate(model, 80.0, seed=1)
    resp = e_step(model, d)
    totals = resp.baseline.copy()
    for c in range(resp.n_components):
        children = np.repeat(np.arange(resp.n), np.diff(resp.comp_offsets[c]))
        totals += np.bincount(children, weights=resp.comp_z[c], minlength=resp.n)
    np.testing.assert_allclose(totals, 1.0, rtol=0, atol=1e-12)


def test_intensity_hand_value():
    model, d = label_toy()
    history = d.subset(np.array([0]))
    lam = intensity(model, history, 1.0, LabelMark(2))
    assert lam == pytest.approx(0.5 * 0.4 + 0.8 * 0.7 * math.exp(-1.0), rel=1e-12)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("build, message", [
    (lambda: LinearFertility(NAN, (0.1,)), "linear fertility coefficients must be finite"),
    (lambda: LinearFertility(INF, (0.1,)), "linear fertility coefficients must be finite"),
    (lambda: LinearFertility(0.1, (0.2, NAN)), "linear fertility coefficients must be finite"),
    (lambda: MultiplicativeFertility((NAN, 1.0)), "multiplicative fertility weights must be"),
    (lambda: MultiplicativeFertility((INF, 1.0)), "multiplicative fertility weights must be"),
    (lambda: MultiplicativeFertility((1.0, NAN)), "multiplicative fertility weights must be"),
    (lambda: PiecewiseUniformDelay((0.0, NAN, 2.0), (0.5, 0.5)), "piecewise delay edges must"),
    (lambda: PiecewiseUniformDelay((0.0, 1.0, INF), (0.5, 0.5)), "piecewise delay edges must"),
    (lambda: PiecewiseUniformDelay((0.0, 1.0, 2.0), (NAN, 1.0)),
     "piecewise delay probabilities must form a distribution"),
    (lambda: PiecewiseUniformDelay((0.0, 1.0, 2.0), (0.5, NAN)),
     "piecewise delay probabilities must form a distribution"),
    (lambda: ExpMixtureDelay((NAN,), (1.0,)), "exp mixture weights must form a distribution"),
    (lambda: ExpMixtureDelay((0.5, NAN), (1.0, 2.0)),
     "exp mixture weights must form a distribution"),
    (lambda: ExpMixtureDelay((1.0,), (NAN,)), "exp mixture rates must be positive and finite"),
    (lambda: ExpMixtureDelay((1.0,), (INF,)), "exp mixture rates must be positive and finite"),
])
def test_families_reject_non_finite_parameters(build, message):
    with pytest.raises(DataError, match=message):
        build()


def test_model_and_fit_reject_nan_settings():
    base = HomogeneousBaseline(0.5, LabelMarginal((0.6, 0.4)))
    with pytest.raises(ConfigError, match="truncation mass must be nonnegative"):
        CascadeModel(base, truncation_mass=NAN)
    for mass in (1.0, 5.0, INF):  # no parent would enter any truncation window
        with pytest.raises(ConfigError, match="truncation mass must be below 1"):
            CascadeModel(base, truncation_mass=mass)
    with pytest.raises(ConfigError, match="tol must be nonnegative"):
        fit(CascadeModel(base), label_toy()[1], tol=NAN)


def test_intensity_is_zero_where_nothing_can_cause_the_query():
    # a zero-rate baseline before any event: no cause, and no raise, where
    # the E-step would raise on an event there
    model, d = label_toy()
    model = replace(model, baseline=replace(model.baseline, rate=0.0))
    for history in (d.subset(np.zeros(0, dtype=np.int64)), d):
        assert intensity(model, history, 0.0, LabelMark(1)) == 0.0
    assert intensity(model, d, 0.5, LabelMark(2)) == pytest.approx(0.8 * 0.7 * math.exp(-0.5),
                                                                   rel=1e-12)
    with pytest.raises(NumericalError, match="has zero intensity under every cause"):
        log_likelihood(model, d)


@pytest.mark.parametrize("t", [float("nan"), float("inf"), float("-inf"), -1.0])
def test_intensity_names_a_bad_query_time(t):
    model, d = label_toy()
    with pytest.raises(DataError, match=f"query time t must be finite and nonnegative, got {t}$"):
        intensity(model, d, t, LabelMark(2))


def test_log_likelihood_hand_value():
    model, d = label_toy()
    lam0 = 0.5 * 0.6
    lam1 = 0.5 * 0.4 + 0.8 * 0.7 * math.exp(-1.0)
    comp_mass = 0.8 * (1 - math.exp(-4.0)) + 0.8 * (1 - math.exp(-3.0))
    expect = math.log(lam0) + math.log(lam1) - (0.5 * 4.0 + comp_mass)
    assert log_likelihood(model, d) == pytest.approx(expect, rel=1e-12)


def test_lower_bound_matches_ll_at_own_estep():
    model = CascadeModel(
        HomogeneousBaseline(0.5, LabelMarginal((0.5, 0.5))),
        (KernelComponent("k", ConstantFertility(0.5), IdentityTransition(),
                         ExponentialDelay(1.5)),))
    d, _ = simulate(model, 60.0, seed=2)
    resp = e_step(model, d)
    ll = log_likelihood(model, d)
    bound = lower_bound(model, d, resp)
    assert bound == pytest.approx(ll, abs=1e-9 * abs(ll))
    # any other responsibility assignment gives a strictly smaller bound
    blur = Responsibilities(
        resp.n,
        0.5 * resp.baseline + 0.25,
        resp.comp_offsets,
        resp.comp_parents,
        [z.copy() for z in resp.comp_z])
    for i in range(resp.n):
        lo, hi = blur.comp_offsets[0][i], blur.comp_offsets[0][i + 1]
        if hi > lo:
            blur.comp_z[0][lo:hi] *= (1 - blur.baseline[i]) / max(
                blur.comp_z[0][lo:hi].sum(), 1e-300)
        else:
            blur.baseline[i] = 1.0
    worse = lower_bound(model, d, blur)
    assert worse < ll - 1e-6


def test_mstep_closed_forms_on_toy():
    model, d = label_toy()
    resp = e_step(model, d)
    with pytest.warns(UserWarning):  # the unused transition row has no counts
        new = m_step(model, estep_stats(model, d))
    z_base_total = resp.baseline.sum()
    assert new.baseline.rate == pytest.approx(z_base_total / 4.0, rel=1e-12)
    z = resp.comp_z[0][0]
    assert new.components[0].delay.rate == pytest.approx(1.0, rel=1e-12)
    marks = np.array([resp.baseline[0], resp.baseline[1]])
    assert new.baseline.mark.probs[0] == pytest.approx(
        marks[0] / marks.sum(), rel=1e-12)
    expo = (1 - math.exp(-4.0)) + (1 - math.exp(-3.0))
    assert new.components[0].fertility.rate == pytest.approx(z / expo, rel=1e-12)
    assert new.components[0].transition.as_array[0, 1] == pytest.approx(1.0)


def test_normalize_matches_observed_count():
    model = CascadeModel(
        HomogeneousBaseline(0.9, LabelMarginal((0.5, 0.5))),
        (KernelComponent("k", ConstantFertility(0.7), IdentityTransition(),
                         ExponentialDelay(1.0)),))
    d, _ = simulate(model, 50.0, seed=3)
    ll_before = log_likelihood(model, d)
    scaled = normalize(model, d)
    assert compensator(scaled, d) == pytest.approx(len(d), rel=1e-10)
    assert log_likelihood(scaled, d) >= ll_before - 1e-9 * abs(ll_before)


def test_windowed_ll_is_additive_over_windows():
    model = CascadeModel(
        HomogeneousBaseline(0.8, LabelMarginal((0.4, 0.6))),
        (KernelComponent("k", ConstantFertility(0.5), IdentityTransition(),
                         ExponentialDelay(2.0)),))
    d, _ = simulate(model, 40.0, seed=4)
    full = windowed_log_likelihood(model, d)
    head = windowed_log_likelihood(model, d, window=(0.0, 25.0))
    tail = windowed_log_likelihood(model, d, window=(25.0, 40.0))
    assert head + tail == pytest.approx(full, abs=1e-9)


def test_truncation_changes_ll_by_less_than_tail_mass_bound():
    model = CascadeModel(
        HomogeneousBaseline(0.8, LabelMarginal((0.5, 0.5))),
        (KernelComponent("k", ConstantFertility(0.5), IdentityTransition(),
                         ExponentialDelay(0.7)),),
        truncation_mass=1e-6)
    d, _ = simulate(model, 120.0, seed=5)
    exact = CascadeModel(model.baseline, model.components, truncation_mass=0.0)
    ll_trunc = log_likelihood(model, d)
    ll_exact = log_likelihood(exact, d)
    assert abs(ll_trunc - ll_exact) < 1e-4 * abs(ll_exact)


def test_periodic_baseline_integral_and_mstep():
    pb = PeriodicBaseline(10.0, (2.0, 0.2), LabelMarginal((1.0,)))
    ref, _ = integrate.quad(lambda t: 2.0 if (t % 10.0) < 5.0 else 0.2, 0.0, 23.0,
                            limit=500)
    assert baseline_integral(pb, 0.0, 23.0) == pytest.approx(ref, rel=1e-9)

    d = Dataset([Event(t, LabelMark(1)) for t in (1.0, 2.0, 3.0, 6.0)],
                horizon=10.0, schema=LabelSchema(1))
    model = CascadeModel(PeriodicBaseline(10.0, (1.0, 1.0), LabelMarginal((1.0,))))
    new = m_step(model, estep_stats(model, d))
    assert new.baseline.rates == pytest.approx((3 / 5.0, 1 / 5.0), rel=1e-12)


def test_component_sources_restrict_parents():
    schema = CompositeSchema(1, frozenset({"u", "v"}))
    d = Dataset([Event(0.0, CompositeMark(1, "u")), Event(1.0, CompositeMark(1, "v")),
                 Event(2.0, CompositeMark(1, "v"))], horizon=3.0, schema=schema)
    base = HomogeneousBaseline(0.5, LabelMarginal((1.0,)))
    comp = KernelComponent("k", ConstantFertility(0.5), IdentityTransition(),
                           ExponentialDelay(1.0), sources=("u",))
    resp = e_step(CascadeModel(base, (comp,), truncation_mass=0.0), d)
    # children may only be explained by the single event at node u
    assert resp.comp_parents[0].tolist() == [0, 0]


def test_children_mask_scopes_scoring():
    model, d = label_toy()
    mask = np.array([True, False])
    resp = e_step(model, d, children=mask)
    assert resp.baseline[1] == 0.0
    assert resp.comp_offsets[0][2] == resp.comp_offsets[0][1]


def test_fit_empty_dataset_returns_initial_model():
    model, _ = label_toy()
    empty = Dataset([], horizon=4.0, schema=LabelSchema(2))
    report = fit(model, empty, max_iters=10)
    assert report.model == model
    assert len(report.ll_trace) == 1
    assert report.iterations == 0 and report.converged


def test_fit_zero_iters_returns_initial_model():
    model, d = label_toy()
    report = fit(model, d, max_iters=0)
    assert report.model == model
    assert len(report.ll_trace) == 1
    assert report.ll_trace[0] == pytest.approx(log_likelihood(model, d))


def test_fit_increases_ll_every_iteration():
    truth = CascadeModel(
        HomogeneousBaseline(0.6, LabelMarginal((0.7, 0.3))),
        (KernelComponent("k", ConstantFertility(0.5),
                         CategoricalMatrix(((0.2, 0.8), (0.9, 0.1))),
                         ExponentialDelay(1.0)),))
    d, _ = simulate(truth, 150.0, seed=6)
    start = CascadeModel(
        HomogeneousBaseline(0.3, LabelMarginal((0.5, 0.5))),
        (KernelComponent("k", ConstantFertility(0.3),
                         CategoricalMatrix(((0.5, 0.5), (0.5, 0.5))),
                         ExponentialDelay(0.4)),))
    report = fit(start, d, max_iters=15, tol=0.0, engine="direct")
    lls = np.array(report.ll_trace)
    assert np.all(np.diff(lls) >= -1e-8 * np.abs(lls[:-1]) - 1e-12)
    assert lls[-1] > lls[0]


def test_fit_heldout_trace_has_matching_length():
    model, _ = label_toy()
    big, _ = simulate(model, 60.0, seed=7)
    train, _ = split(big, 0.7)
    report = fit(model, train, max_iters=3, tol=0.0)
    assert len(report.models) == len(report.ll_trace)
    assert report.models[0] is model and report.models[-1] == report.model


@pytest.mark.parametrize("engine_name", ["auto", "direct"])
@pytest.mark.parametrize("held, message", [
    (Dataset([Event(0.5, LabelMark(1)), Event(1.0, LabelMark(3))], horizon=2.0,
             schema=LabelSchema(3)), "has the wrong length"),
    (Dataset([Event(0.5, BinaryMark((1,)))], horizon=1.0, schema=BinarySchema(("f",))),
     "needs label or composite marks"),
], ids=["three-labels", "binary"])
def test_fit_checks_the_heldout_schema(held, message, engine_name):
    # the model fits two labels; its held-out data must fit it too, as
    # every iterate a fit reports is scored on it, and as fit requires of
    # its own data
    model, d = label_toy()
    report = fit(model, d, max_iters=2, tol=0.0, engine=engine_name)
    for iterate in report.models:
        with pytest.raises(ConfigError, match=f"baseline: label marginal {message}"):
            windowed_log_likelihood(iterate, held)
    with pytest.raises(ConfigError, match=f"baseline: label marginal {message}"):
        fit(model, held, max_iters=2, engine=engine_name)


def test_fit_leaves_heldout_scores_to_its_caller():
    # the iterates are on the report; nothing else scores them in the loop
    assert "heldout" not in inspect.signature(fit).parameters
    assert not hasattr(engine, "_component_shares")


def test_zero_intensity_raises():
    d = Dataset([Event(1.0, LabelMark(1))], horizon=2.0, schema=LabelSchema(1))
    model = CascadeModel(HomogeneousBaseline(0.0, LabelMarginal((1.0,))))
    with pytest.raises(NumericalError, match="zero intensity"):
        e_step(model, d)
    with pytest.raises(NumericalError):
        log_likelihood(model, d)


def test_validate_model_errors():
    base = HomogeneousBaseline(0.5, LabelMarginal((0.5, 0.5)))
    schema = LabelSchema(2)
    with pytest.raises(ConfigError):  # wrong marginal length
        validate_model(CascadeModel(HomogeneousBaseline(0.5, LabelMarginal((1.0,)))),
                       schema)
    with pytest.raises(ConfigError):  # feature prior over label marks
        validate_model(CascadeModel(HomogeneousBaseline(0.5, FeaturePrior((0.5,)))),
                       schema)
    dupe = KernelComponent("k", ConstantFertility(0.1), IdentityTransition(),
                           ExponentialDelay(1.0))
    with pytest.raises(ConfigError, match="duplicate"):
        validate_model(CascadeModel(base, (dupe, dupe)), schema)
    with pytest.raises(ConfigError, match="composite"):
        validate_model(CascadeModel(base, (KernelComponent(
            "s", ConstantFertility(0.1), IdentityTransition(),
            ExponentialDelay(1.0), sources=("u",)),)), schema)
    with pytest.raises(ConfigError, match="mixes"):
        validate_model(CascadeModel(base, (
            KernelComponent("a", ConstantFertility(0.1), IdentityTransition(),
                            ExponentialDelay(1.0), delay_group="g"),
            KernelComponent("b", ConstantFertility(0.1), IdentityTransition(),
                            UniformDelay(1.0), delay_group="g"))), schema)
    with pytest.raises(ConfigError):  # feature fertility over label marks
        validate_model(CascadeModel(base, (KernelComponent(
            "f", LinearFertility(0.1, (0.5,)), IdentityTransition(),
            ExponentialDelay(1.0)),)), schema)


def test_window_outside_dataset_rejected():
    model, d = label_toy()
    with pytest.raises(DataError):
        windowed_log_likelihood(model, d, window=(0.0, 9.0))


def test_fast_path_matches_direct_with_ties_and_scopes():
    rng = np.random.default_rng(8)
    # deliberately collide timestamps on a coarse grid
    times = np.sort(np.floor(rng.uniform(0, 30, size=120) * 2) / 2)
    labels = rng.integers(1, 4, size=120)
    d = Dataset([Event(float(t), LabelMark(int(l))) for t, l in zip(times, labels)],
                horizon=30.0, schema=LabelSchema(3))
    assert len(np.unique(times)) < len(times)  # ties really exist
    model = CascadeModel(
        HomogeneousBaseline(0.7, LabelMarginal((0.3, 0.3, 0.4))),
        (KernelComponent("a", ConstantFertility(0.4),
                         CategoricalMatrix(((0.6, 0.2, 0.2), (0.2, 0.6, 0.2),
                                            (0.2, 0.2, 0.6))),
                         ExponentialDelay(1.3)),
         KernelComponent("b", ConstantFertility(0.2), IdentityTransition(),
                         ExponentialDelay(0.3)),
         KernelComponent("c", ConstantFertility(0.1),
                         PriorTransition(LabelMarginal((0.2, 0.5, 0.3))),
                         ExponentialDelay(2.0))))
    assert fast_applicable(model, d)
    untruncated = replace(model, truncation_mass=0.0)
    fast = forced_estep(untruncated, d, want="stats", on_scan=True)[0]
    direct = forced_estep(untruncated, d, want="stats", on_scan=False)[0]
    assert np.allclose(fast.z_base, direct.z_base, rtol=1e-9, atol=1e-300)
    assert np.allclose(fast.intensity, direct.intensity, rtol=1e-9)
    assert np.allclose(fast.comp_z, direct.comp_z, rtol=1e-9)
    assert np.allclose(fast.comp_zdt, direct.comp_zdt, rtol=1e-9)
    for a, b in zip(fast.components, direct.components):
        assert (a.transition is None) == (b.transition is None)
        if b.transition is not None:
            assert np.allclose(a.transition, b.transition, rtol=1e-9, atol=1e-12)
    assert fast.components[1].transition is None  # identity keeps no statistics
    assert fast.components[2].transition.shape == (3,)  # a prior, the child labels

    # windowed + masked: same agreement
    mask = np.zeros(len(d), dtype=bool)
    mask[::2] = True
    window = (5.0, 25.0)
    fast_w = forced_estep(untruncated, d, mask, window, "stats", on_scan=True)[0]
    direct_w = forced_estep(untruncated, d, mask, window, "stats", on_scan=False)[0]
    assert np.allclose(fast_w.z_base, direct_w.z_base, rtol=1e-9)
    assert np.allclose(fast_w.comp_z, direct_w.comp_z, rtol=1e-9)


def test_fast_applicable_gatekeeping():
    model, d = label_toy()
    assert fast_applicable(model, d)
    gamma = CascadeModel(model.baseline, (KernelComponent(
        "k", ConstantFertility(0.1), IdentityTransition(), GammaDelay(2.0, 1.0)),))
    assert not fast_applicable(gamma, d)
    dbin = Dataset([Event(0.5, BinaryMark((1,)))], horizon=1.0,
                   schema=BinarySchema(("f",)))
    bmodel = CascadeModel(HomogeneousBaseline(0.5, FeaturePrior((0.5,))))
    assert not fast_applicable(bmodel, dbin)
    with pytest.raises(ConfigError):
        fit(gamma, d, max_iters=1, engine="fast")


def test_fast_and_direct_fits_agree():
    truth = CascadeModel(
        HomogeneousBaseline(0.5, LabelMarginal((0.6, 0.4))),
        (KernelComponent("k", ConstantFertility(0.5),
                         CategoricalMatrix(((0.3, 0.7), (0.8, 0.2))),
                         ExponentialDelay(1.0)),))
    d, _ = simulate(truth, 120.0, seed=9)
    start = CascadeModel(
        HomogeneousBaseline(0.3, LabelMarginal((0.5, 0.5))),
        (KernelComponent("k", ConstantFertility(0.2),
                         CategoricalMatrix(((0.5, 0.5), (0.5, 0.5))),
                         ExponentialDelay(0.6)),),
        truncation_mass=0.0)
    direct = fit(start, d, max_iters=10, tol=0.0, engine="direct")
    fast = fit(start, d, max_iters=10, tol=0.0, engine="fast")
    assert fast.ll_trace[-1] == pytest.approx(direct.ll_trace[-1], rel=1e-9)
    assert fast.model.baseline.rate == pytest.approx(direct.model.baseline.rate,
                                                     rel=1e-8)
    assert fast.model.components[0].delay.rate == pytest.approx(
        direct.model.components[0].delay.rate, rel=1e-8)


def test_delay_group_pools_statistics():
    d = Dataset([Event(0.0, LabelMark(1)), Event(1.0, LabelMark(1)),
                 Event(2.5, LabelMark(2))], horizon=5.0, schema=LabelSchema(2))
    base = HomogeneousBaseline(0.5, LabelMarginal((0.5, 0.5)))
    mk = lambda name: KernelComponent(name, ConstantFertility(0.4),
                                      IdentityTransition(), ExponentialDelay(1.0),
                                      delay_group="shared")
    model = CascadeModel(base, (mk("a"), mk("b")), truncation_mass=0.0)
    resp = e_step(model, d)
    new = m_step(model, estep_stats(model, d))
    assert new.components[0].delay == new.components[1].delay
    # pooled exponential MLE over all pairs of both components
    z = np.concatenate([resp.comp_z[0], resp.comp_z[1]])
    dts = np.array([1.0, 2.5, 1.5, 1.0, 2.5, 1.5])
    assert new.components[0].delay.rate == pytest.approx(
        z.sum() / np.dot(z, dts), rel=1e-12)


def test_component_count_mismatch_rejected():
    model, d = label_toy()
    second = replace(model.components[0], name="k2")
    wider = replace(model, components=model.components + (second,))
    for fitted, other in ((wider, model), (model, wider)):
        with pytest.raises(DataError, match="components"):
            m_step(fitted, estep_stats(other, d))


def test_mstep_rejects_responsibilities():
    model, d = label_toy()
    with pytest.raises(TypeError, match="estep_stats"):
        m_step(model, e_step(model, d))


def test_mstep_rejects_statistics_without_a_scope():
    # the scope names the dataset, children and window the M-step refits
    # over; oracle-built statistics carry none unless one is attached
    model, d = label_toy()
    stats = estep_stats(model, d)
    for bare in (replace(stats, scope=None), resp_stats(model, d, e_step(model, d))):
        with pytest.raises(TypeError, match="estep_stats"):
            m_step(model, bare)


def _numbers(obj) -> list[float]:
    """Every numeric parameter of a model, in a fixed order."""
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return [float(obj)]
    if isinstance(obj, (tuple, list)):
        return [x for item in obj for x in _numbers(item)]
    if hasattr(obj, "__dataclass_fields__"):
        return _numbers([getattr(obj, f) for f in obj.__dataclass_fields__])
    return []


def test_mstep_from_fast_and_pairwise_statistics_agree():
    rng = np.random.default_rng(21)
    n = 240
    times = np.sort(rng.uniform(0, 60, size=n))
    types = rng.integers(1, 4, size=n)
    nodes = rng.choice(["u", "v"], size=n)
    d = Dataset([Event(float(t), CompositeMark(int(k), str(v)))
                 for t, k, v in zip(times, types, nodes)],
                horizon=60.0, schema=CompositeSchema(3, frozenset({"u", "v"})))
    model = CascadeModel(
        HomogeneousBaseline(0.8, LabelMarginal((0.3, 0.3, 0.4))),
        (KernelComponent("self", ConstantFertility(0.3),
                         CategoricalMatrix(((0.6, 0.2, 0.2), (0.2, 0.6, 0.2),
                                            (0.2, 0.2, 0.6))),
                         ExponentialDelay(1.0), sources=("u",),
                         transition_group="shared", delay_group="shared"),
         KernelComponent("nbr", ConstantFertility(0.2),
                         CategoricalMatrix(((0.4, 0.3, 0.3), (0.3, 0.4, 0.3),
                                            (0.3, 0.3, 0.4))),
                         ExponentialDelay(0.5), sources=("v",),
                         transition_group="shared"),
         KernelComponent("same", ConstantFertility(0.1), IdentityTransition(),
                         ExponentialDelay(2.0), delay_group="shared"),
         KernelComponent("any", ConstantFertility(0.1),
                         PriorTransition(LabelMarginal((0.5, 0.25, 0.25))),
                         ExponentialDelay(0.3))),
        truncation_mass=0.0)
    assert fast_applicable(model, d)
    from_fast = m_step(model, forced_estep(model, d, want="stats", on_scan=True)[0])
    from_pairs = m_step(model, forced_estep(model, d, want="stats", on_scan=False)[0])
    assert from_fast.components[0].delay == from_fast.components[2].delay
    assert from_fast.components[0].transition == from_fast.components[1].transition
    np.testing.assert_allclose(_numbers(from_fast), _numbers(from_pairs), rtol=1e-12, atol=0)


@pytest.mark.parametrize("length", [2, 4, 5])
def test_children_mask_of_the_wrong_length_is_a_data_error(length):
    model, _ = label_toy()
    d = Dataset([Event(t, LabelMark(k)) for t, k in ((0.5, 1), (1.0, 2), (2.0, 1))],
                horizon=4.0, schema=LabelSchema(2))
    mask = np.ones(length, dtype=bool)
    calls = [lambda: fit(model, d, max_iters=2, children=mask),
             lambda: fit(model, d, max_iters=2, children=mask, engine="direct"),
             lambda: e_step(model, d, children=mask),
             lambda: estep_stats(model, d, children=mask),
             lambda: forced_estep(model, d, mask, want="stats", on_scan=True),
             lambda: windowed_log_likelihood(model, d, children=mask),
             lambda: normalize(model, d, children=mask)]
    for call in calls:
        with pytest.raises(DataError, match=f"length {length} for 3 events"):
            call()


# ---------------------------------------------------------------------------
# invariants: a whole-period time shift and a relabeling change nothing

PERIOD = 8.0


def _shift_case(marks: str, periodic: bool, seed: int, shift: float = 0.0):
    """A model and its data on (shift, shift + 64]. Times are odd multiples
    of 2^-7, so they and their differences stay exact under the shift and
    no event sits on an integer, where a window may start. Label marks
    with a dense exponential kernel run on the scan, binary marks with a
    gamma delay on pairs."""
    rng = np.random.default_rng(seed)
    n = 300
    times = shift + np.sort(rng.integers(0, 64 * 64, size=n) * 2 + 1) / 128.0
    if marks == "label":
        mark = LabelMarginal((0.5, 0.3, 0.2))
        events = [Event(float(t), LabelMark(int(k)))
                  for t, k in zip(times, rng.integers(1, 4, size=n))]
        schema = LabelSchema(3)
        comp = KernelComponent("k", ConstantFertility(0.4),
                               CategoricalMatrix(((0.6, 0.2, 0.2), (0.2, 0.6, 0.2),
                                                  (0.1, 0.3, 0.6))),
                               ExponentialDelay(0.5))
    else:
        mark = FeaturePrior((0.3, 0.6, 0.5))
        events = [Event(float(t), BinaryMark(tuple(int(b) for b in row)))
                  for t, row in zip(times, rng.integers(0, 2, size=(n, 3)))]
        schema = BinarySchema(("f0", "f1", "f2"))
        comp = KernelComponent("k", MultiplicativeFertility((0.3, 1.5, 0.7, 1.2)),
                               FeatureMixture(0.3, mark), GammaDelay(1.5, 1.0))
    base = (PeriodicBaseline(PERIOD, (1.0, 3.0, 2.0, 0.5), mark) if periodic
            else HomogeneousBaseline(2.0, mark))
    d = Dataset(events, horizon=shift + 64.0, schema=schema, start=shift)
    return CascadeModel(base, (comp,)), d


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 1000), k=st.sampled_from([1, 5, 1024]))
@pytest.mark.parametrize("periodic", [False, True])
@pytest.mark.parametrize("marks", ["label", "binary"])
def test_whole_period_time_shift_changes_no_likelihood(marks, periodic, seed, k):
    shift = k * PERIOD
    model, d = _shift_case(marks, periodic, seed)
    _, ds = _shift_case(marks, periodic, seed, shift)
    assert np.array_equal(ds.times - shift, d.times)
    mask = np.arange(len(d)) % 3 > 0
    scans = []
    choose = engine._on_scan
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_on_scan", lambda *a: scans.append(choose(*a)) or scans[-1])
        for window in ((0.0, 64.0), (16.0, 48.0)):
            got = windowed_log_likelihood(model, ds, mask, (window[0] + shift,
                                                            window[1] + shift))
            assert got == pytest.approx(windowed_log_likelihood(model, d, mask, window),
                                        rel=1e-12, abs=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ref = fit(model, d, max_iters=4, tol=0.0, engine="direct", on_decrease="warn")
            got = fit(model, ds, max_iters=4, tol=0.0, engine="direct", on_decrease="warn")
    assert got.iterations == ref.iterations == 4
    np.testing.assert_allclose(got.ll_trace, ref.ll_trace, rtol=1e-12, atol=0)
    # both kernels are covered: label marks on the scan, binary on pairs
    assert any(map(any, scans)) == (marks == "label")


def _split_case(marks: str, delay, periodic: bool, seed: int):
    """A two-component model and 200 events on (0, 64] with tied times:
    label marks under a categorical matrix and a prior, or binary marks
    under a feature mixture with multiplicative fertility and identity."""
    rng = np.random.default_rng(seed)
    n = 200
    times = np.sort(rng.integers(1, 64 * 8, size=n)) / 8.0
    if marks == "label":
        mark = LabelMarginal((0.5, 0.3, 0.2))
        events = [Event(float(t), LabelMark(int(k)))
                  for t, k in zip(times, rng.integers(1, 4, size=n))]
        schema = LabelSchema(3)
        comps = (KernelComponent("cat", ConstantFertility(0.3),
                                 CategoricalMatrix(((0.6, 0.2, 0.2), (0.2, 0.6, 0.2),
                                                    (0.1, 0.3, 0.6))), delay),
                 KernelComponent("any", ConstantFertility(0.2),
                                 PriorTransition(LabelMarginal((0.2, 0.3, 0.5))), delay))
    else:
        mark = FeaturePrior((0.3, 0.6, 0.5))
        events = [Event(float(t), BinaryMark(tuple(int(b) for b in row)))
                  for t, row in zip(times, rng.integers(0, 2, size=(n, 3)))]
        schema = BinarySchema(("f0", "f1", "f2"))
        comps = (KernelComponent("mix", MultiplicativeFertility((0.3, 1.5, 0.7, 1.2)),
                                 FeatureMixture(0.3, mark), delay),
                 KernelComponent("same", ConstantFertility(0.1), IdentityTransition(), delay))
    base = (PeriodicBaseline(PERIOD, (1.0, 3.0, 2.0, 0.5), mark) if periodic
            else HomogeneousBaseline(2.0, mark))
    return CascadeModel(base, comps), Dataset(events, horizon=64.0, schema=schema)


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 1000), fraction=st.floats(0.05, 0.95))
@pytest.mark.parametrize("periodic", [False, True])
@pytest.mark.parametrize("delay", [ExponentialDelay(0.5), GammaDelay(1.5, 1.0)],
                         ids=["exponential", "gamma"])
@pytest.mark.parametrize("marks", ["label", "binary"])
def test_log_likelihood_is_additive_across_a_split(marks, delay, periodic, seed, fraction):
    model, d = _split_case(marks, delay, periodic, seed)
    head, tail = split(d, fraction)
    scans = []
    choose = engine._on_scan
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_on_scan", lambda *a: scans.append(choose(*a)) or scans[-1])
        whole = log_likelihood(model, d)
        parts = log_likelihood(model, head) + log_likelihood(model, tail, history=head)
    assert parts == pytest.approx(whole, rel=1e-9, abs=0)
    # exponential delays run on the scan, gamma delays on pairs
    assert any(map(any, scans)) == isinstance(delay, ExponentialDelay)


def _relabeled(model: CascadeModel, perm: np.ndarray) -> CascadeModel:
    """The model with label code l renamed perm[l] (zero-based): the
    marginal, every categorical row and column and every prior."""
    inv = np.argsort(perm)

    def mark(dist):
        return LabelMarginal(tuple(np.asarray(dist.probs)[inv].tolist()))

    def trans(spec):
        if isinstance(spec, CategoricalMatrix):
            return CategoricalMatrix(tuple(map(tuple, spec.as_array[np.ix_(inv, inv)])))
        if isinstance(spec, PriorTransition):
            return PriorTransition(mark(spec.mark))
        return spec

    comps = tuple(replace(c, transition=trans(c.transition)) for c in model.components)
    return replace(model, baseline=replace(model.baseline, mark=mark(model.baseline.mark)),
                   components=comps)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 1000), perm=st.permutations(range(4)))
@pytest.mark.parametrize("engine_name", ["direct", "fast"])
def test_label_relabeling_permutes_the_fit(engine_name, seed, perm):
    perm = np.asarray(perm)
    rng = np.random.default_rng(seed)
    n = 250
    times = np.sort(rng.uniform(0, 50.0, size=n))
    labels = rng.integers(0, 4, size=n)
    build = lambda codes: Dataset([Event(float(t), LabelMark(int(c) + 1))
                                   for t, c in zip(times, codes)],
                                  horizon=50.0, schema=LabelSchema(4))
    d, dp = build(labels), build(perm[labels])
    model = CascadeModel(
        HomogeneousBaseline(1.5, LabelMarginal((0.4, 0.3, 0.2, 0.1))),
        (KernelComponent("cat", ConstantFertility(0.3),
                         CategoricalMatrix(((0.5, 0.2, 0.2, 0.1), (0.1, 0.6, 0.2, 0.1),
                                            (0.2, 0.1, 0.5, 0.2), (0.25, 0.25, 0.25, 0.25))),
                         ExponentialDelay(1.0)),
         KernelComponent("any", ConstantFertility(0.2),
                         PriorTransition(LabelMarginal((0.1, 0.2, 0.3, 0.4))),
                         ExponentialDelay(0.4)),
         KernelComponent("same", ConstantFertility(0.1), IdentityTransition(),
                         ExponentialDelay(2.0))))
    moved = _relabeled(model, perm)
    assert log_likelihood(moved, dp) == pytest.approx(log_likelihood(model, d),
                                                      rel=1e-12, abs=0)
    ref = fit(model, d, max_iters=4, tol=0.0, engine=engine_name)
    got = fit(moved, dp, max_iters=4, tol=0.0, engine=engine_name)
    np.testing.assert_allclose(got.ll_trace, ref.ll_trace, rtol=1e-12, atol=0)
    np.testing.assert_allclose(_numbers(got.model), _numbers(_relabeled(ref.model, perm)),
                               rtol=1e-12, atol=0)


def _exposure_uncached(comp, delay, d, a, b):
    """(seen, exposure) per fertility pattern, binned from every possible
    parent's own delay mass in (a, b]."""
    pool = (np.arange(len(d)) if comp.sources is None
            else np.nonzero(np.isin(d.node_ids, comp.sources))[0])
    pool = pool[d.times[pool] < b]
    t = d.times[pool]
    mass = engine.delay_mod.cdf(delay, b - t) - engine.delay_mod.cdf(delay, a - t)
    _, pattern, n_patterns = d.schema.fertility_patterns(d)
    return (np.bincount(pattern[pool], minlength=n_patterns) > 0,
            np.bincount(pattern[pool], weights=mass, minlength=n_patterns))


def _exposure_data():
    """Composite marks, where fertility sees one pattern, under a source
    restriction, and binary marks, where the patterns whose first and last
    bits differ occur only after 7.0; both with tied times."""
    rng = np.random.default_rng(5)
    times = np.sort(rng.uniform(0.0, 10.0, size=40))
    times[10:13] = times[10]
    dc = Dataset([Event(float(t), CompositeMark(1, "uv"[k % 2])) for k, t in enumerate(times)],
                 horizon=10.0, schema=CompositeSchema(1, frozenset({"u", "v"})))
    rows = rng.integers(0, 2, size=(40, 3))
    rows[times < 7.0, 2] = rows[times < 7.0, 0]
    db = Dataset([Event(float(t), BinaryMark(tuple(int(b) for b in row)))
                  for t, row in zip(times, rows)], 10.0, BinarySchema(("a", "b", "c")))
    return ((dc, KernelComponent("k", ConstantFertility(0.5), IdentityTransition(),
                                 ExponentialDelay(1.0), sources=("u",))),
            (db, KernelComponent("k", LinearFertility(0.1, (0.2, 0.3, 0.4)),
                                 IdentityTransition(), ExponentialDelay(1.0))))


def _exposure(comp, delay, d, a, b):
    """(seen, exposure) of comp's pool under ``delay`` over (a, b]."""
    return engine._pool(d, comp.sources).exposure(comp.name, delay, a, b)


@pytest.mark.parametrize("case", [0, 1], ids=["composite-sources", "binary"])
def test_window_exposure_cache_hits_misses_and_fresh_datasets(case):
    d, comp = _exposure_data()[case]
    n_patterns = d.schema.fertility_patterns(d)[2]
    seen, exposure = _exposure(comp, comp.delay, d, 2.0, 7.0)
    assert not seen.flags.writeable and not exposure.flags.writeable
    assert seen.shape == exposure.shape == (n_patterns,)
    want = _exposure_uncached(comp, comp.delay, d, 2.0, 7.0)
    np.testing.assert_array_equal(seen, want[0])
    np.testing.assert_array_equal(exposure, want[1])
    if n_patterns > 1:  # a pattern with no parent before 7.0 is unseen
        assert not seen.all() and (exposure[~seen] == 0).all()
    # an equal delay hits, and so does the same component under another fertility
    hit = _exposure(replace(comp, fertility=ConstantFertility(0.1)),
                    ExponentialDelay(1.0), d, 2.0, 7.0)
    assert hit[0] is seen and hit[1] is exposure
    for delay, a, b in ((ExponentialDelay(2.0), 2.0, 7.0), (ExponentialDelay(2.0), 2.0, 9.0),
                        (GammaDelay(2.0, 2.0), 2.0, 9.0), (GammaDelay(2.0, 2.0), 0.0, 9.0)):
        got = _exposure(comp, delay, d, a, b)
        assert got[1] is not exposure and not got[0].flags.writeable
        assert not got[1].flags.writeable
        want = _exposure_uncached(comp, delay, d, a, b)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
    assert engine._pool(d, comp.sources).windows
    train, test = split(d, 0.5)
    for fresh in (d.subset(np.arange(0, 40, 2)), train, test, test.merge_history(train)):
        assert fresh not in engine._pools


def test_components_with_the_same_sources_share_one_exposure_base():
    d, comp = _exposure_data()[1]
    other = replace(comp, name="other")
    first = _exposure(comp, ExponentialDelay(1.0), d, 2.0, 7.0)
    second = _exposure(other, GammaDelay(2.0, 2.0), d, 2.0, 7.0)
    assert first[0] is second[0] and first[1] is not second[1]
    # each keeps its own last exposure, so asking again hits both
    assert _exposure(comp, ExponentialDelay(1.0), d, 2.0, 7.0)[1] is first[1]
    assert _exposure(other, GammaDelay(2.0, 2.0), d, 2.0, 7.0)[1] is second[1]
    np.testing.assert_array_equal(
        second[1], _exposure_uncached(other, GammaDelay(2.0, 2.0), d, 2.0, 7.0)[1])
    [pool] = engine._pools[d].values()
    [(_, _, _, last)] = pool.windows.values()
    assert sorted(last) == ["k", "other"]
    # every event may parent, so the patterns are the dataset's column,
    # which a window slices, not a gathered copy
    assert pool.pattern is d.schema.fertility_patterns(d)[1]


def test_pools_are_dropped_with_their_dataset():
    d, comp = _exposure_data()[0]
    _exposure(comp, comp.delay, d, 2.0, 7.0)
    assert d in engine._pools
    gone = weakref.ref(d)
    del d
    gc.collect()
    # no pool keeps its dataset alive
    assert gone() is None


def test_compensator_after_m_step_reuses_its_exposures(monkeypatch):
    model = CascadeModel(
        HomogeneousBaseline(0.6, LabelMarginal((0.5, 0.5))),
        (KernelComponent("a", ConstantFertility(0.4), IdentityTransition(),
                         ExponentialDelay(1.0)),
         KernelComponent("b", ConstantFertility(0.2), IdentityTransition(),
                         GammaDelay(2.0, 1.0))))
    d, _ = simulate(model, 60.0, seed=3)
    new = normalize(m_step(model, estep_stats(model, d)), d)
    fresh = d.subset(np.arange(len(d)))
    calls = []
    for family in (ExponentialDelay, GammaDelay):
        cdf = family.cdf
        monkeypatch.setattr(family, "cdf",
                            lambda self, x, cdf=cdf: calls.append(1) or cdf(self, x))
    total = compensator(new, d)
    assert calls == []  # both components' exposures come from m_step
    # a fresh exposure is one cdf per component: no event precedes the
    # window, so none has an a-side gap
    assert compensator(new, fresh) == total and len(calls) == 2
