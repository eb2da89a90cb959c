"""A fit resolves its scope once (``engine._Scope``): child ids, parent
pools, pair-window edges, exposure bases and validation per fit, not per
E-step and M-step. Nothing it computes may move for that:

- oracle: a hand-written EM loop over the public calls, each building
  its own scope, gives fit's (and the node fits') LL trace and final
  model bit for bit;
- a fit and a per-neighbour node fit validate their model once, and the
  public m_step keeps its checks even on statistics a fit's scope made;
- a small graph-fit round calls every counted entry point as often as
  before the scope (the constants below were recorded then)."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

import cascades
from cascades import (ConfigError, ExponentialDelay, GammaDelay, Graph,
                      Hyperparams, LabelMarginal, engine, graphs, simulate_graph)
from cascades.config import serialize_model
from cascades.engine import estep_stats, fit, m_step, normalize, windowed_log_likelihood
from cascades.events import split
from cascades.fertility import ConstantFertility
from cascades.graphs import fit_node, fit_round, node_model, regularized_rates
from cascades.transitions import CategoricalMatrix
from test_estep_vectorized import (_binary_data, _binary_model, _composite_data,
                                   _composite_model, _label_data, _label_model)


def _public_em(model, d, max_iters, tol, children=None, window=None,
               update_baseline_mark=True, fresh_masks=False):
    """fit's direct engine from public calls alone: estep_stats, m_step,
    normalize and windowed_log_likelihood, with the frozen-delay retry
    and the tolerance test. Each M-step reads its E-step's dataset, mask
    and window from the statistics; with ``fresh_masks`` every
    normalisation gets a copy of the mask."""
    def mask():
        return children.copy() if fresh_masks and children is not None else children

    def improve(m, stats, freeze):
        m2 = m_step(m, stats, update_baseline_mark, freeze)
        return normalize(m2, d, mask(), window) if m2.normalization else m2

    ll = windowed_log_likelihood(model, d, children, window)
    trace, converged = [ll], False
    if engine._child_ids(d, children, engine._resolve_window(d, window)).size == 0:
        return model, trace, True
    for _ in range(max_iters):
        stats = estep_stats(model, d, children, window)
        candidate = improve(model, stats, False)
        ll_new = windowed_log_likelihood(candidate, d, children, window)
        if ll_new < ll:
            fallback = improve(model, stats, True)
            ll_fb = windowed_log_likelihood(fallback, d, children, window)
            if ll_fb > ll_new:
                candidate, ll_new = fallback, ll_fb
        trace.append(ll_new)
        model, gain, ll = candidate, ll_new - ll, ll_new
        if gain < tol * max(abs(ll_new), 1e-12):
            converged = True
            break
    return model, trace, converged


def _merged_case():
    """A split tail merged with its history: events before the window
    start parent children inside it, so exposures have an a-side."""
    d = _label_data(n=200, horizon=40.0, seed=31)
    train, test = split(d, 0.6)
    return test.merge_history(train)


def _fit_cases():
    dl, db, dc = _label_data(n=180, seed=32), _binary_data(n=150, seed=33), \
        _composite_data(seed=34)
    merged = _merged_case()
    assert merged.times[0] < merged.start
    return {
        "label-truncated-masked-subwindow": (
            _label_model(GammaDelay(2.0, 1.5), 1e-6), dl, dl.times > 6.0, (5.0, 33.0)),
        "label-untruncated": (_label_model(ExponentialDelay(1.3), 0.0), dl, None, None),
        "merged-history": (_label_model(GammaDelay(2.0, 1.5), 1e-6), merged, None, None),
        "merged-history-untruncated": (
            _label_model(ExponentialDelay(0.7), 0.0), merged, None, None),
        "binary-truncated": (_binary_model(1e-6), db, None, None),
        "binary-untruncated-masked": (_binary_model(0.0), db, np.arange(len(db)) % 4 > 0,
                                      (2.0, 38.0)),
        "sources-truncated": (_composite_model(1e-6), dc, np.arange(len(dc)) % 3 > 0,
                              None),
        "sources-untruncated-subwindow": (_composite_model(0.0), dc, None, (4.0, 36.0)),
    }


def _same(got, want):
    model, trace, converged = got
    ref_model, ref_trace, ref_converged = want
    assert trace == ref_trace  # bit for bit
    assert converged == ref_converged
    assert serialize_model(model) == serialize_model(ref_model)
    assert model == ref_model


@pytest.mark.parametrize("fresh_masks", [False, True], ids=["reused", "rebuilt"])
@pytest.mark.parametrize("case", sorted(_fit_cases()))
def test_fit_equals_the_public_em_loop(case, fresh_masks):
    model, d, children, window = _fit_cases()[case]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = fit(model, d, max_iters=4, tol=1e-9, children=children, window=window,
                     on_decrease="warn", engine="direct")
        ref = _public_em(model, d, 4, 1e-9, children, window, fresh_masks=fresh_masks)
    assert report.iterations == len(ref[1]) - 1 >= 1
    _same((report.model, report.ll_trace, report.converged), ref)


def _public_per_neighbor(model, d, mask, window, neighbors, pool_weight, max_iters, tol):
    """graphs._fit_per_neighbor from public calls alone."""
    b = window[1]
    nbr_idx = [ci for ci, comp in enumerate(model.components) if comp.name.startswith("nbr:")]
    m_counts = np.array([np.sum((d.node_ids == u) & (d.times < b)) for u in neighbors],
                        dtype=np.float64)
    trace = [windowed_log_likelihood(model, d, mask, window)]
    if engine._child_ids(d, mask, window).size == 0:
        return model, trace, True
    for _ in range(max_iters):
        stats = estep_stats(model, d, mask, window)
        model = m_step(model, stats, update_baseline_mark=False)
        rates = regularized_rates(stats.comp_z[nbr_idx], m_counts, pool_weight)
        comps = list(model.components)
        for k, ci in enumerate(nbr_idx):
            comps[ci] = replace(comps[ci], fertility=ConstantFertility(float(rates[k])))
        model = replace(model, components=tuple(comps))
        trace.append(windowed_log_likelihood(model, d, mask, window))
        if abs(trace[-1] - trace[-2]) < tol * max(abs(trace[-1]), 1e-12):
            return model, trace, True
    return model, trace, False


TRANS = CategoricalMatrix(((0.7, 0.2, 0.1), (0.1, 0.7, 0.2), (0.2, 0.1, 0.7)))


def _star():
    g = Graph(["a", "b", "c", "d"], {"a": ["d"], "b": ["d"], "c": ["d"]})
    d, _ = simulate_graph(g, 60.0, 11, type_marginal=(0.5, 0.3, 0.2), base_rate=0.3,
                          self_rate=0.25, neighbor_rate=0.2, transition=TRANS,
                          delay=ExponentialDelay(1.0))
    return g, d


@pytest.mark.parametrize("variant", ["shared_transition", "per_neighbor"])
@pytest.mark.parametrize("window", [(0.0, 42.0), (0.0, 60.0)], ids=["head", "whole"])
def test_node_fits_equal_the_public_em_loop(variant, window):
    g, d = _star()
    hyper = Hyperparams.uniform(3)
    for v in ("d", "a"):
        mask = d.node_ids == v
        model, _ = node_model(g, d, v, variant, hyper, 1.0, GammaDelay(1.5, 1.2), window)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = fit_node(g, d, v, variant, hyper, 1.0, pool_weight=0.25,
                           delay_init=GammaDelay(1.5, 1.2), window=window, max_iters=5,
                           tol=1e-9, with_counts=False)
            if variant == "per_neighbor" and g.incoming[v]:
                ref = _public_per_neighbor(model, d, mask, window, g.incoming[v], 0.25, 5,
                                           1e-9)
                assert graphs._fit_per_neighbor(model, d, mask, window, 0.25, 5,
                                                1e-9)[1] == ref[1]
            else:
                ref = _public_em(model, d, 5, 1e-9, mask, window, update_baseline_mark=False)
        _same((got.model, [got.train_ll], got.converged), (ref[0], ref[1][-1:], ref[2]))
        assert got.iterations == len(ref[1]) - 1 >= 1


# ---------------------------------------------------------------------------
# validation once per fit, and the public m_step's checks


def _count_validations(monkeypatch) -> list:
    calls, validate = [], engine.validate_model
    for module in (engine, graphs):
        monkeypatch.setattr(module, "validate_model",
                            lambda *args: calls.append(1) or validate(*args))
    return calls


@pytest.mark.parametrize("engine_name", ["direct", "fast"])
def test_a_fit_validates_its_model_once(monkeypatch, engine_name):
    model, d = _label_model(ExponentialDelay(1.3), 1e-6), _label_data(n=180, seed=32)
    calls = _count_validations(monkeypatch)
    steps, step = [], engine.m_step
    monkeypatch.setattr(engine, "m_step", lambda *args: steps.append(1) or step(*args))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = fit(model, d, max_iters=4, tol=0.0, engine=engine_name,
                     on_decrease="warn")
    assert report.engine == engine_name and len(steps) >= 4
    assert len(calls) == 1


def test_a_per_neighbor_fit_validates_its_model_once(monkeypatch):
    g, d = _star()
    model, _ = node_model(g, d, "d", "per_neighbor", Hyperparams.uniform(3), 1.0,
                          ExponentialDelay(1.0), (0.0, 60.0))
    calls = _count_validations(monkeypatch)
    _, trace, _ = graphs._fit_per_neighbor(model, d, d.node_ids == "d", (0.0, 60.0),
                                           0.5, 4, 0.0)
    assert len(trace) == 5 and len(calls) == 1


def _fit_statistics(monkeypatch, model, d, children, window):
    """The (model, statistics) of each m_step call a fit makes."""
    seen, step = [], engine.m_step
    monkeypatch.setattr(engine, "m_step",
                        lambda m, stats, *args: seen.append((m, stats))
                        or step(m, stats, *args))
    fit(model, d, max_iters=2, tol=0.0, children=children, window=window, engine="direct")
    monkeypatch.setattr(engine, "m_step", step)
    return seen


def test_m_step_keeps_its_checks_on_a_fits_statistics(monkeypatch):
    d = _label_data(n=180, seed=32)
    mask, window = d.times > 6.0, (5.0, 33.0)
    # exponential delays, whose refit reads the one sample fit leaves of
    # the pairs once its M-step has read them
    model = _label_model(ExponentialDelay(1.3), 1e-6)
    (m, stats), *_ = _fit_statistics(monkeypatch, model, d, mask, window)
    # the fit's own scope, which the M-step refits over
    assert stats.scope.d is d and stats.scope.children is mask and stats.model is m
    reused = m_step(m, stats)
    rebuilt = replace(stats, scope=engine._Scope(d, mask.copy(), window))
    assert serialize_model(reused) == serialize_model(m_step(m, rebuilt))

    wrong_labels = replace(m, baseline=replace(m.baseline, mark=LabelMarginal((0.5, 0.5))))
    dupes = replace(m, components=(m.components[0], m.components[0], m.components[2]))
    for bad in (wrong_labels, dupes):
        with pytest.raises(ConfigError) as want:
            engine.validate_model(bad, d.schema)
        with pytest.raises(ConfigError) as got:
            m_step(bad, stats)
        assert str(got.value) == str(want.value)


# ---------------------------------------------------------------------------
# the counted entry points keep their call counts

COUNTED = [(engine, "fit"), (engine, "m_step"), (engine, "e_step"),
           (engine, "windowed_log_likelihood"), (engine, "compensator"),
           (engine, "normalize"), (engine.fert_mod, "update"),
           (engine.delay_mod, "weighted_mle"), (graphs, "fit_node")]

# the calls a one-worker fit_round on _star() made before fits resolved
# their scope once
ROUND_CALLS = {
    "shared_transition": {"fit": 12, "m_step": 36, "e_step": 4,
                          "windowed_log_likelihood": 8, "compensator": 56, "normalize": 0,
                          "update": 45, "weighted_mle": 45, "fit_node": 12},
    "per_neighbor": {"fit": 15, "m_step": 60, "e_step": 4,
                     "windowed_log_likelihood": 16, "compensator": 96, "normalize": 0,
                     "update": 105, "weighted_mle": 60, "fit_node": 20},
}


def _count_calls(monkeypatch) -> dict:
    """Wrap each counted function in every package namespace that binds
    it, as the benchmark's tracer does."""
    counts = {}
    modules = [m for name, m in vars(cascades).items() if type(m) is type(engine)]
    for owner, attr in COUNTED:
        original = getattr(owner, attr)
        counts[attr] = 0

        def counted(*args, _attr=attr, _fn=original, **kw):
            counts[_attr] += 1
            return _fn(*args, **kw)

        for module in {owner, *modules}:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    return counts


@pytest.mark.parametrize("variant", sorted(ROUND_CALLS))
def test_a_round_calls_each_counted_entry_point_as_before(monkeypatch, variant):
    g, d = _star()
    counts = _count_calls(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fit_round(g, d, variant, Hyperparams.uniform(3), strength_grid=(1.0, 10.0),
                  pool_grid=(0.0, 1.0), max_iters=3, workers=1)
    assert counts == ROUND_CALLS[variant]
