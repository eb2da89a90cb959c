"""Families read mark patterns, never events: the schema's pattern view
(``pattern_codes``, ``fertility_patterns``) is the one map from events to
mark patterns, and the engine gathers per-event values from it where it
needs them. The per-event forms the package no longer carries live in
tests/oracles.py; the pattern forms must match them."""

import ast

import numpy as np
import pytest

from cascades import (CascadeModel, CategoricalMatrix, CombinedFertility, CompositeMark,
                      CompositeSchema, ConstantFertility, Dataset, Event, ExponentialDelay,
                      FeatureMixture, FeaturePrior, GammaDelay, HomogeneousBaseline,
                      IdentityTransition, KernelComponent, LabelMark, LabelMarginal,
                      LabelSchema, LinearFertility, MultiplicativeFertility, PeriodicBaseline,
                      PriorTransition, UniformDelay, compensator)
from cascades.events import BinaryMark, BinarySchema
from oracles import compensator as compensator_per_event
from oracles import mark_stats, probs_at
from test_estep_driver import _enclosing, _package_trees


def _trees():
    return dict(_package_trees())


def test_no_family_reads_marks_at_given_events():
    defined = {(name, node.name) for name, tree in _trees().items() for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and node.name in ("probs_at", "fertility_features")}
    assert defined == set()


def test_the_engine_reads_no_feature_matrix():
    reads = [node.lineno for node in ast.walk(_trees()["engine.py"])
             if isinstance(node, ast.Attribute) and node.attr == "feature_matrix"]
    assert reads == []


def test_g_pairs_has_one_engine_caller():
    callers = [func for node, func in _enclosing(_trees()["engine.py"])
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr == "g_pairs"]
    assert callers == ["_kernel_factors"]


# ---------------------------------------------------------------------------
# pattern forms against the per-event oracles, with tied timestamps


def _times(rng, n, horizon):
    return np.floor(rng.uniform(0, horizon, size=n) * 2) / 2  # ties on a grid


def _label_data(n=150, horizon=30.0, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset([Event(float(t), LabelMark(int(k)))
                    for t, k in zip(_times(rng, n, horizon), rng.integers(1, 4, size=n))],
                   horizon, LabelSchema(3))


def _binary_data(n=150, horizon=30.0, seed=0):
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, 2, size=(n, 3))
    return Dataset([Event(float(t), BinaryMark(tuple(int(b) for b in row)))
                    for t, row in zip(_times(rng, n, horizon), rows)],
                   horizon, BinarySchema(("a", "b", "c")))


def _composite_data(n=150, horizon=30.0, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset([Event(float(t), CompositeMark(int(k), str(v)))
                    for t, k, v in zip(_times(rng, n, horizon), rng.integers(1, 4, size=n),
                                       rng.choice(["u", "v", "w"], size=n))],
                   horizon, CompositeSchema(3, frozenset({"u", "v", "w"})))


PRIOR = FeaturePrior((0.3, 0.6, 0.5))
MARGINAL = LabelMarginal((0.2, 0.5, 0.3))
CAT3 = CategoricalMatrix(((0.6, 0.2, 0.2), (0.2, 0.6, 0.2), (0.1, 0.3, 0.6)))
CASES = {"label": (_label_data, MARGINAL), "binary": (_binary_data, PRIOR),
         "composite": (_composite_data, MARGINAL)}


@pytest.mark.parametrize("kind", sorted(CASES))
def test_pattern_probs_gathered_by_pattern_are_the_per_event_probabilities(kind):
    make, dist = CASES[kind]
    d = make(seed=1)
    codes = d.schema.pattern_codes(d)[0]
    rng = np.random.default_rng(2)
    prior = PriorTransition(dist)
    for events in (np.arange(len(d)), np.array([5, 17, 17, 149]),
                   np.sort(rng.choice(len(d), 60)), np.zeros(0, dtype=np.int64)):
        want = probs_at(dist, d, events)
        np.testing.assert_allclose(dist.pattern_probs(d)[codes[events]], want,
                                   rtol=1e-12, atol=0)
        np.testing.assert_allclose(prior.g_children(d, events), want, rtol=1e-12, atol=0)
        np.testing.assert_allclose(prior.g_pairs(d, 0)(events, np.zeros_like(events)), want,
                                   rtol=1e-12, atol=0)
    assert IdentityTransition().g_children(d, np.arange(len(d))) is None


@pytest.mark.parametrize("kind", sorted(CASES))
def test_pattern_statistics_are_the_per_event_statistics(kind):
    make, dist = CASES[kind]
    d = make(seed=3)
    n = len(d)
    codes, n_patterns = d.schema.pattern_codes(d)
    rng = np.random.default_rng(4)
    prior = PriorTransition(dist)
    # every event weighted once, as m_step's baseline mark statistic
    w = rng.random(n)
    np.testing.assert_allclose(
        dist.stats_from_patterns(d, np.bincount(codes, weights=w, minlength=n_patterns)),
        mark_stats(dist, d, w), rtol=1e-12, atol=0)
    # weights on children in any order, with repeats, as the pair kernel's
    for size, lo, hi in ((500, 0, n), (40, 60, 90), (1, n - 1, n), (0, 0, n)):
        children = rng.integers(lo, hi, size=size)
        z = rng.random(size)
        want = mark_stats(dist, d, z, children)
        for got in (prior.stats_from_children(d, z, children),
                    prior.stats_from_pairs(d, children, np.zeros(size, dtype=np.int64), z)):
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def _model(kind):
    if kind == "label":
        return CascadeModel(
            PeriodicBaseline(10.0, (0.3, 0.8), MARGINAL),
            (KernelComponent("cat", ConstantFertility(0.4), CAT3, GammaDelay(2.0, 1.5)),
             KernelComponent("any", ConstantFertility(0.1), PriorTransition(MARGINAL),
                             ExponentialDelay(0.5))))
    if kind == "binary":
        return CascadeModel(
            HomogeneousBaseline(0.9, PRIOR),
            (KernelComponent("mult", MultiplicativeFertility((0.4, 1.5, 0.7, 2.0)),
                             FeatureMixture(0.3, PRIOR), ExponentialDelay(1.0)),
             KernelComponent("lin", LinearFertility(0.05, (0.1, 0.0, 0.3)),
                             IdentityTransition(), GammaDelay(1.5, 1.0)),
             KernelComponent("sum", CombinedFertility((ConstantFertility(0.05),
                                                       LinearFertility(0.0, (0.1, 0.2, 0.0)))),
                             PriorTransition(PRIOR), UniformDelay(3.0))))
    return CascadeModel(
        HomogeneousBaseline(0.8, MARGINAL),
        (KernelComponent("self", ConstantFertility(0.3), CAT3, ExponentialDelay(1.0),
                         sources=("u",)),
         KernelComponent("nbrs", ConstantFertility(0.2), IdentityTransition(),
                         GammaDelay(2.0, 1.0), sources=("v", "w")),
         KernelComponent("none", ConstantFertility(0.2), CAT3, ExponentialDelay(1.0),
                         sources=("absent",))))


@pytest.mark.parametrize("kind", sorted(CASES))
def test_compensator_is_the_per_event_sum(kind):
    d, model = CASES[kind][0](seed=5), _model(kind)
    for window in (None, (5.0, 20.0), (12.5, 12.5), (0.0, 30.0)):
        assert compensator(model, d, window) == pytest.approx(
            compensator_per_event(model, d, window), rel=1e-12, abs=0)
