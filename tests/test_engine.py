import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate

from cascades import (CascadeModel, CategoricalMatrix, ConfigError,
                      ConstantFertility, DataError, Dataset, Event,
                      ExponentialDelay, FeatureMixture, FeaturePrior,
                      GammaDelay, HomogeneousBaseline, IdentityTransition,
                      KernelComponent, LabelMark, LabelMarginal, LabelSchema, LinearFertility,
                      NumericalError, PeriodicBaseline, PriorTransition,
                      UniformDelay, compensator, e_step, em_lower_bound,
                      fast_applicable, fast_estep, fit, intensity,
                      log_likelihood, m_step, normalize, simulate,
                      windowed_log_likelihood)
from cascades.engine import (Responsibilities, baseline_integral, estep_stats,
                             validate_model)
from cascades.events import BinaryMark, BinarySchema, CompositeMark, CompositeSchema


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
    for i in range(len(d)):
        assert resp.total(i) == pytest.approx(1.0, abs=1e-12)


def test_intensity_hand_value():
    model, d = label_toy()
    history = d.subset(np.array([0]))
    lam = intensity(model, history, 1.0, LabelMark(2))
    assert lam == pytest.approx(0.5 * 0.4 + 0.8 * 0.7 * math.exp(-1.0), rel=1e-12)


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
    bound = em_lower_bound(model, d, resp)
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
    worse = em_lower_bound(model, d, blur)
    assert worse < ll - 1e-6


def test_mstep_closed_forms_on_toy():
    model, d = label_toy()
    resp = e_step(model, d)
    with pytest.warns(UserWarning):  # the unused transition row has no counts
        new = m_step(model, d, resp)
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
    resp = e_step(model, d)
    new = m_step(model, d, resp)
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
    model, d = label_toy()
    big, _ = simulate(model, 60.0, seed=7)
    from cascades import split
    train, test = split(big, 0.7)
    heldout = (test.merge_history(train), None, None)
    report = fit(model, train, max_iters=3, tol=0.0, heldout=heldout)
    assert len(report.heldout_trace) == len(report.ll_trace)


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
    fast = fast_estep(model, d)
    direct = estep_stats(replace(model, truncation_mass=0.0), d)
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
    fast_w = fast_estep(model, d, children=mask, window=window)
    direct_w = estep_stats(replace(model, truncation_mass=0.0), d, children=mask,
                           window=window)
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
    new = m_step(model, d, resp)
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
    for fitted, resp in ((wider, e_step(model, d)), (model, e_step(wider, d))):
        with pytest.raises(DataError, match="components"):
            m_step(fitted, d, resp)
        with pytest.raises(DataError, match="components"):
            em_lower_bound(fitted, d, resp)


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
    from_fast = m_step(model, d, fast_estep(model, d))
    from_pairs = m_step(model, d, e_step(model, d))
    assert from_fast.components[0].delay == from_fast.components[2].delay
    assert from_fast.components[0].transition == from_fast.components[1].transition
    np.testing.assert_allclose(_numbers(from_fast), _numbers(from_pairs), rtol=1e-12, atol=0)
