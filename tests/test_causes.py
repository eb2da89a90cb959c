"""Each event's most responsible cause, found for every event at once.

``Responsibilities.argmax_parents`` reduces every child's pairs with
arrays; ``oracles.argmax_cause`` is the per-event loop it replaced. The
two must choose the same parent for every event, ties included: the
baseline wins a tie, then the lower parent id. Which component a tied
parent comes from never changes the parent. ``parent_recovery_score``
scores those choices and must equal the loop's score exactly."""

import ast
import importlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascades import DataError, e_step, parent_recovery_score, simulate
from cascades.config import parse_model
from cascades.engine import Responsibilities
from cascades.simulate import CausalForest
from oracles import argmax_cause
from test_estep_driver import _package_trees

ENGINE = importlib.import_module("cascades.engine")

# few distinct values, so the baseline and pairs tie often
WEIGHTS = st.sampled_from([0.0, 0.25, 0.5])


def _oracle_parents(resp):
    causes = [argmax_cause(resp, i) for i in range(resp.n)]
    return np.array([-1 if cause is None else cause[0] for cause in causes])


def _oracle_score(forest, resp, triggered_only):
    """parent_recovery_score as the per-event loop computed it."""
    correct = total = 0
    for i, parent in enumerate(_oracle_parents(resp)):
        true_parent = int(forest.parents[i])
        if triggered_only and true_parent < 0:
            continue
        total += 1
        correct += int(parent) == true_parent
    return correct / total


@st.composite
def layouts(draw):
    """Responsibilities with few events, parents repeated across
    components and unsorted within a child, children without pairs and
    components without any pair."""
    n = draw(st.integers(1, 8))
    baseline = np.array(draw(st.lists(WEIGHTS, min_size=n, max_size=n)))
    offsets, parents, zs = [], [], []
    for _ in range(draw(st.integers(0, 3))):
        most = draw(st.sampled_from([0, 4]))
        per_child = [draw(st.lists(st.integers(0, 4), unique=True, max_size=most))
                     for _ in range(n)]
        cnt = [len(ps) for ps in per_child]
        offsets.append(np.concatenate([[0], np.cumsum(cnt)]).astype(np.int64))
        parents.append(np.array([p for ps in per_child for p in ps], dtype=np.int64))
        zs.append(np.array(draw(st.lists(WEIGHTS, min_size=sum(cnt), max_size=sum(cnt))),
                           dtype=np.float64))
    return Responsibilities(n, baseline, offsets, parents, zs)


@settings(max_examples=300, deadline=None)
@given(layouts(), st.data())
def test_argmax_parents_match_the_per_event_loop(resp, data):
    want = _oracle_parents(resp)
    assert resp.argmax_parents().tolist() == want.tolist()
    true = np.array(data.draw(st.lists(st.integers(-1, 4), min_size=resp.n,
                                       max_size=resp.n)))
    forest = CausalForest(true, np.zeros(resp.n, dtype=np.int64),
                          np.zeros(resp.n, dtype=np.int64))
    assert parent_recovery_score(forest, resp, triggered_only=False) \
        == _oracle_score(forest, resp, False)
    if (true < 0).all():
        with pytest.raises(DataError, match="no events to score"):
            parent_recovery_score(forest, resp)
    else:
        assert parent_recovery_score(forest, resp) == _oracle_score(forest, resp, True)


def test_a_parent_tied_under_two_components_is_chosen_once():
    # event 2: parent 0 under both components and parent 1 tie at 0.4
    # above a 0.2 baseline; event 1's one pair ties with its baseline
    resp = Responsibilities(
        3, np.array([1.0, 0.5, 0.2]),
        [np.array([0, 0, 1, 2]), np.array([0, 0, 0, 2])],
        [np.array([0, 0]), np.array([1, 0])],
        [np.array([0.5, 0.4]), np.array([0.4, 0.4])])
    assert resp.argmax_parents().tolist() == [-1, -1, 0]
    assert _oracle_parents(resp).tolist() == [-1, -1, 0]


@settings(max_examples=200, deadline=None)
@given(layouts(), st.integers(1, 6))
def test_argmax_parents_over_runs_of_few_pairs_match_the_per_event_loop(resp, chunk):
    # runs of whole children of at most ``chunk`` pairs, or one child with more
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ENGINE, "PAIR_CHUNK", chunk)
        assert resp.argmax_parents().tolist() == _oracle_parents(resp).tolist()


def _wide_layout(n, per_child, seed):
    """n children with ``per_child`` pairs under one component and half as
    many under another, weights on a coarse grid so that ties are common."""
    rng = np.random.default_rng(seed)
    offsets, parents, zs = [], [], []
    for k in (per_child, per_child // 2):
        offsets.append(np.arange(n + 1, dtype=np.int64) * k)
        parents.append(rng.integers(0, n, n * k))
        zs.append(rng.integers(0, 8, n * k) / 16.0)
    return Responsibilities(n, rng.integers(0, 8, n) / 16.0, offsets, parents, zs)


def _transient_bytes(fn):
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_argmax_parents_holds_no_array_per_pair(monkeypatch):
    # the transient stays within a bound per child and per run, whatever
    # the pair count: 0.3M and 1.2M pairs in 2000 children
    chunk, n = 4096, 2000
    monkeypatch.setattr(ENGINE, "PAIR_CHUNK", chunk)
    bound = 16 * 8 * (n + chunk)
    small, large = _wide_layout(n, 100, 0), _wide_layout(n, 400, 1)
    assert large.argmax_parents().tolist() == _oracle_parents(large).tolist()
    for resp in (small, large):
        assert _transient_bytes(resp.argmax_parents) < bound
    assert 8 * sum(p.size for p in large.comp_parents) > bound  # an int64 per pair would not fit


LABELS_LONG = {
    "baseline": {"kind": "homogeneous", "rate": 0.8,
                 "mark": {"kind": "labels", "probs": [0.4, 0.3, 0.2, 0.1]}},
    "components": [
        {"name": "fast", "fertility": {"kind": "constant", "rate": 0.35},
         "transition": {"kind": "categorical",
                        "matrix": [[0.55, 0.15, 0.15, 0.15], [0.15, 0.55, 0.15, 0.15],
                                   [0.15, 0.15, 0.55, 0.15], [0.15, 0.15, 0.15, 0.55]]},
         "delay": {"kind": "exponential", "rate": 1.0}},
        {"name": "slow", "fertility": {"kind": "constant", "rate": 0.25},
         "transition": {"kind": "prior",
                        "mark": {"kind": "labels", "probs": [0.1, 0.2, 0.3, 0.4]}},
         "delay": {"kind": "exponential", "rate": 0.05}}]}


def test_a_long_delay_stream_under_its_true_model():
    # a fast and a slow kernel: every earlier event is a candidate parent
    # under the slow one, and the two share their nearby parents
    model = parse_model(LABELS_LONG, "model", data=None)
    d, forest = simulate(model, 150.0, seed=1)
    resp = e_step(model, d)
    assert len(d) > 200 and resp.comp_parents[1].size > 100 * len(d)
    assert resp.argmax_parents().tolist() == _oracle_parents(resp).tolist()
    for triggered_only in (True, False):
        assert parent_recovery_score(forest, resp, triggered_only) \
            == _oracle_score(forest, resp, triggered_only)


def test_the_per_event_loops_and_the_bound_are_gone():
    defined = {(name, node.name) for name, tree in _package_trees() for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and node.name in ("argmax_cause", "total", "em_lower_bound")}
    assert defined == set()
