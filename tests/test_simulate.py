import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import special
from scipy import stats as sp_stats

import cascades
from cascades import (CascadeModel, CategoricalMatrix, ConfigError,
                      ConstantFertility, DataError, ExponentialDelay,
                      FeatureMixture, FeaturePrior, GammaDelay, HomogeneousBaseline,
                      IdentityTransition, KernelComponent, LabelMarginal,
                      MultiplicativeFertility, NumericalError, PeriodicBaseline,
                      PriorTransition, e_step, load_forest, parent_recovery_score,
                      simulate, simulate_graph, substream, write_events, write_forest)
from cascades.engine import Responsibilities
from cascades.events import BinarySchema, CompositeSchema
from cascades.graphs import Graph
from cascades.simulate import (CDF_TABLE_SIZE, CausalForest, _cdf_table, _offspring,
                               _poisson_count)

SIM = sys.modules["cascades.simulate"]  # the package exports a function of that name


def label_model(rate=1.2, alpha=0.5, delay=1.0):
    return CascadeModel(
        HomogeneousBaseline(rate, LabelMarginal((0.5, 0.3, 0.2))),
        (KernelComponent("k", ConstantFertility(alpha), IdentityTransition(),
                         ExponentialDelay(delay)),))


def test_same_seed_reproduces_everything():
    model = label_model()
    d1, f1 = simulate(model, 60.0, seed=42)
    d2, f2 = simulate(model, 60.0, seed=42)
    assert np.array_equal(d1.times, d2.times)
    assert d1.events == d2.events
    assert np.array_equal(f1.parents, f2.parents)
    assert np.array_equal(f1.components, f2.components)
    d3, _ = simulate(model, 60.0, seed=43)
    assert len(d3) != len(d1) or not np.array_equal(d3.times, d1.times)


def test_forest_structure_invariants():
    d, forest = simulate(label_model(), 120.0, seed=0)
    n = len(d)
    assert forest.parents.shape == (n,)
    roots = forest.parents == -1
    assert forest.n_roots == roots.sum() > 0
    assert np.all(forest.components[roots] == -1)
    assert np.all(forest.generations[roots] == 0)
    kids = ~roots
    assert np.all(forest.parents[kids] < np.nonzero(kids)[0])
    assert np.all(d.times[forest.parents[kids]] <= d.times[kids])
    assert np.all(forest.components[kids] == 0)
    assert np.all(forest.generations[kids]
                  == forest.generations[forest.parents[kids]] + 1)


def test_identity_transition_children_inherit_marks():
    d, forest = simulate(label_model(alpha=0.7), 100.0, seed=5)
    kids = np.nonzero(forest.parents >= 0)[0]
    assert kids.size > 10
    evs = d.events
    for k in kids:
        assert evs[k].mark == evs[forest.parents[k]].mark


def test_categorical_transition_children_follow_rows():
    trans = CategoricalMatrix(((0.0, 1.0), (1.0, 0.0)))  # deterministic flip
    model = CascadeModel(
        HomogeneousBaseline(1.0, LabelMarginal((0.5, 0.5))),
        (KernelComponent("k", ConstantFertility(0.6), trans,
                         ExponentialDelay(1.0)),))
    d, forest = simulate(model, 150.0, seed=6)
    kids = np.nonzero(forest.parents >= 0)[0]
    assert kids.size > 20
    evs = d.events
    for k in kids:
        assert evs[k].mark.label != evs[forest.parents[k]].mark.label


def test_periodic_baseline_respects_zero_buckets():
    model = CascadeModel(PeriodicBaseline(10.0, (2.0, 0.0),
                                          LabelMarginal((1.0,))))
    d, forest = simulate(model, 200.0, seed=7)
    assert len(d) > 50
    assert np.all(forest.parents == -1)
    phases = d.times % 10.0
    assert np.all(phases < 5.0)


def test_root_count_matches_poisson_rate():
    model = CascadeModel(HomogeneousBaseline(2.0, LabelMarginal((1.0,))))
    counts = [len(simulate(model, 50.0, seed=s)[0]) for s in range(40)]
    mu = 2.0 * 50.0
    se = np.sqrt(mu / 40)
    assert abs(np.mean(counts) - mu) < 4 * se


def test_binary_marks_simulate_and_resample():
    model = CascadeModel(
        HomogeneousBaseline(1.0, FeaturePrior((0.7, 0.2))),
        (KernelComponent("k", ConstantFertility(0.5),
                         FeatureMixture(0.4, FeaturePrior((0.5, 0.5))),
                         ExponentialDelay(1.0)),))
    d, forest = simulate(model, 80.0, seed=8)
    assert isinstance(d.schema, BinarySchema)
    assert d.feature_matrix.shape[1] == 2
    assert set(np.unique(d.feature_matrix)) <= {0, 1}
    assert np.any(forest.parents >= 0)


def test_event_cap_raises():
    with pytest.raises(NumericalError, match="max_events"):
        simulate(label_model(rate=5.0), 100.0, seed=1, max_events=20)


def test_event_cap_counts_roots_without_components():
    model = CascadeModel(HomogeneousBaseline(1.0, LabelMarginal((1.0,))))
    with pytest.raises(NumericalError, match=r"max_events=1000: the baseline drew \d+ root"):
        simulate(model, 50000.0, 1, max_events=1000)
    # a root count far too large to allocate is refused before any allocation
    with pytest.raises(NumericalError, match="root events"):
        simulate(model, 1e10, 1, max_events=1000)


def test_event_cap_blames_roots_not_offspring():
    with pytest.raises(NumericalError, match="root events") as err:
        simulate(label_model(rate=1.0, alpha=0.5), 50000.0, 1, max_events=1000)
    assert "supercritical" not in str(err.value)


def test_event_cap_leaves_streams_under_it_unchanged():
    d1, f1 = simulate(label_model(), 60.0, seed=42)
    d2, f2 = simulate(label_model(), 60.0, seed=42, max_events=len(d1))
    assert d1.events == d2.events and np.array_equal(f1.parents, f2.parents)
    with pytest.raises(NumericalError, match="max_events"):
        simulate(label_model(), 60.0, seed=42, max_events=len(d1) - 1)


# a count far too large to allocate: at mean 1e12 pdtrik gives a root near
# the mean for these seeds' first offspring uniforms (and nan for others)
HUGE_COUNT = r"max_events=1000: one offspring draw at mean 1000000000000.0 gave \d{13} children"


@pytest.mark.parametrize("seed", [1, 2, 4])
def test_event_cap_refuses_a_huge_offspring_count_before_its_delays(seed):
    with pytest.raises(NumericalError, match=HUGE_COUNT):
        simulate(label_model(alpha=1e12), 10.0, seed, max_events=1000)


def test_graph_event_cap_refuses_a_huge_offspring_count_before_its_delays():
    graph = Graph(("a", "b"), {"a": ("b",), "b": ()})
    with pytest.raises(NumericalError, match=HUGE_COUNT):
        simulate_graph(graph, 10.0, 2, type_marginal=(1.0,), base_rate=1.0, self_rate=1e12,
                       neighbor_rate=0.0, transition=CategoricalMatrix(((1.0,),)),
                       delay=ExponentialDelay(1.0), max_events=1000)


def _graph_sim(horizon, max_events, base_rate=1.0):
    graph = Graph(("a", "b", "c"), {"a": ("b",), "b": ("c",), "c": ()})
    return simulate_graph(graph, horizon, 3, type_marginal=(1.0,), base_rate=base_rate,
                          self_rate=0.0, neighbor_rate=0.0,
                          transition=CategoricalMatrix(((1.0,),)),
                          delay=ExponentialDelay(1.0), max_events=max_events)


def _ring_sim(max_events, self_rate=0.3):
    graph = Graph(("a", "b", "c"), {"a": ("b",), "b": ("c",), "c": ("a",)})
    return simulate_graph(graph, 40.0, 5, type_marginal=(0.6, 0.4), base_rate=0.2,
                          self_rate=self_rate, neighbor_rate=0.2,
                          transition=CategoricalMatrix(((0.9, 0.1), (0.2, 0.8))),
                          delay=ExponentialDelay(1.0), max_events=max_events)


def test_graph_event_cap_leaves_streams_under_it_unchanged():
    d1, f1 = _ring_sim(1_000_000)
    assert np.any(f1.parents >= 0)
    d2, f2 = _ring_sim(len(d1))
    assert d1.events == d2.events
    for a, b in ((f1.parents, f2.parents), (f1.components, f2.components),
                 (f1.generations, f2.generations)):
        assert np.array_equal(a, b)
    with pytest.raises(NumericalError, match="max_events"):
        _ring_sim(len(d1) - 1)


def test_supercritical_graph_hits_the_shared_offspring_cap():
    with pytest.raises(NumericalError, match="max_events=500; mean offspring .* supercritical"):
        _ring_sim(500, self_rate=1.5)


def test_graph_event_cap_counts_roots_per_node():
    # each node alone stays under the cap; the running total crosses it
    with pytest.raises(DataError, match=r"max_events=1000: \d+ root events through node"):
        _graph_sim(500.0, 1000)
    with pytest.raises(DataError, match="through node 'a'"):
        _graph_sim(1e10, 1000)
    d, forest = _graph_sim(500.0, 10_000)
    assert len(d) > 1000 and np.all(forest.parents == -1)


@pytest.mark.parametrize("change, message", [
    ({"base_rate": {"a": 1.0, "b": 1.0}}, "base_rate: no rate for node 'c'"),
    ({"base_rate": {"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0}}, "base_rate: unknown node 'd'"),
    ({"base_rate": {"a": 1.0, "b": -0.5, "c": 1.0}},
     "base_rate of node 'b' must be finite and nonnegative, got -0.5"),
    ({"base_rate": float("inf")}, "base_rate of node 'a' must be finite and nonnegative"),
    ({"base_rate": float("nan")}, "base_rate of node 'a' must be finite and nonnegative"),
    ({"type_marginal": (1.5, -0.5)}, "type_marginal entry -0.5 is negative or not finite"),
    ({"type_marginal": (0.5, float("nan"))}, "type_marginal entry nan is negative"),
    ({"type_marginal": (0.0, 0.0)}, r"type_marginal \(0.0, 0.0\) sums to zero"),
    ({"self_rate": -1.0}, "self_rate must be finite and nonnegative, got -1.0"),
    ({"self_rate": float("nan")}, "self_rate must be finite and nonnegative, got nan"),
    ({"self_rate": float("inf")}, "self_rate must be finite and nonnegative, got inf"),
    ({"neighbor_rate": -0.5}, "neighbor_rate must be finite and nonnegative, got -0.5"),
    ({"neighbor_rate": float("nan")}, "neighbor_rate must be finite and nonnegative, got nan"),
    ({"neighbor_rate": float("inf")}, "neighbor_rate must be finite and nonnegative, got inf"),
    # checked before any draw, so an empty stream does not hide them
    ({"base_rate": 0.0, "self_rate": -1.0, "neighbor_rate": float("nan")},
     "self_rate must be finite and nonnegative, got -1.0"),
    ({"base_rate": 0.0, "neighbor_rate": float("nan")},
     "neighbor_rate must be finite and nonnegative, got nan")])
def test_graph_simulator_rejects_bad_rates_and_marginals(change, message):
    graph = Graph(("a", "b", "c"), {"a": ("b",), "b": ("c",), "c": ()})
    args = dict(type_marginal=(0.6, 0.4), base_rate=1.0, self_rate=0.2, neighbor_rate=0.1,
                transition=CategoricalMatrix(((0.5, 0.5), (0.5, 0.5))),
                delay=ExponentialDelay(1.0))
    with pytest.raises(ConfigError, match=message):
        simulate_graph(graph, 10.0, 3, **dict(args, **change))
    simulate_graph(graph, 10.0, 3, **args)


def test_composite_schema_redirects_to_graph_simulator():
    schema = CompositeSchema(2, frozenset({"u"}))
    with pytest.raises(ConfigError, match="graph"):
        simulate(label_model(), 10.0, seed=1, schema=schema)


def test_forest_io_round_trip(tmp_path):
    _, forest = simulate(label_model(), 40.0, seed=9)
    path = tmp_path / "forest.jsonl"
    write_forest(forest, path)
    back = load_forest(path)
    assert np.array_equal(back.parents, forest.parents)
    assert np.array_equal(back.components, forest.components)
    assert np.array_equal(back.generations, forest.generations)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    assert lines == [json.dumps({"id": i, "parent": int(forest.parents[i]),
                                 "component": int(forest.components[i]),
                                 "gen": int(forest.generations[i])}) + "\n"
                     for i in range(len(forest))]


def test_forest_loader_requires_sequential_ids(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": 0, "parent": -1, "component": -1, "gen": 0}\n'
                    '{"id": 2, "parent": -1, "component": -1, "gen": 0}\n')
    with pytest.raises(DataError, match="id"):
        load_forest(path)


ROOT_LINE = '{"id": 0, "parent": -1, "component": -1, "gen": 0}\n'


@pytest.mark.parametrize("line, message", [
    ('[1, 2]', "expected a JSON object"),
    ('"x"', "expected a JSON object"),
    ('{"id": 1, "parent": 0, "gen": 1}', r"missing keys \['component'\]"),
    ('{"id": 1, "parent": "x", "component": 0, "gen": 1}', "parent must be an integer"),
    ('{"id": 1, "parent": 0.0, "component": 0, "gen": 1}', "parent must be an integer"),
    ('{"id": 1, "parent": 0, "component": 1.5, "gen": 1}', "component must be an integer"),
    ('{"id": 1, "parent": 0, "component": 0, "gen": true}', "gen must be an integer"),
    ('{"id": true, "parent": 0, "component": 0, "gen": 1}', "id must be an integer"),
    ('{"id": 1, "parent": -2, "component": 0, "gen": 1}', "parent must be an integer"),
    ('{"id": 1, "parent": 0, "component": 0, "gen": 1e400}', "gen must be an integer"),
    ('{"id": 1, "parent": 0, "component": 0, "gen": ' + "9" * 30 + '}',
     "gen must be an integer"),
    ('{"id": 1, "parent": 1, "component": 0, "gen": 1}', "parent 1 is neither"),
    ('{"id": 1, "parent": 5, "component": 0, "gen": 1}', "parent 5 is neither"),
])
def test_forest_loader_rejects_malformed_records(tmp_path, line, message):
    path = tmp_path / "bad.jsonl"
    path.write_text(ROOT_LINE + line + "\n")
    with pytest.raises(DataError, match=f"bad.jsonl:2: {message}"):
        load_forest(path)


def test_parent_recovery_score_hand_case():
    forest = CausalForest(parents=np.array([-1, 0, 0]),
                          components=np.array([-1, 0, 0]),
                          generations=np.array([0, 1, 1]))
    # event 1 puts most weight on parent 0 (correct); event 2 prefers the
    # baseline (wrong); the root itself prefers the baseline (correct).
    resp = Responsibilities(
        3,
        np.array([1.0, 0.3, 0.8]),
        [np.array([0, 0, 1, 2])],
        [np.array([0, 0])],
        [np.array([0.7, 0.2])])
    assert parent_recovery_score(forest, resp) == pytest.approx(0.5)
    assert parent_recovery_score(forest, resp, triggered_only=False) \
        == pytest.approx(2 / 3)


def test_recovery_score_at_truth_beats_chance():
    model = label_model(rate=0.8, alpha=0.6, delay=2.0)
    d, forest = simulate(model, 100.0, seed=10)
    resp = e_step(model, d)
    assert parent_recovery_score(forest, resp) > 0.3


def test_substream_determinism_and_separation():
    a1 = substream(7, "roots").random(5)
    a2 = substream(7, "roots").random(5)
    b = substream(7, "marks").random(5)
    c = substream(8, "roots").random(5)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert not np.array_equal(a1, c)


def test_poisson_count_consumes_one_uniform():
    r1 = np.random.default_rng(3)
    r2 = np.random.default_rng(3)
    k = _poisson_count(r1, 3.5)
    u = r2.random()
    assert k == int(sp_stats.poisson.ppf(u, 3.5))
    assert r1.random() == r2.random()  # streams stay aligned
    assert _poisson_count(np.random.default_rng(0), 0.0) == 0


def test_poisson_count_distribution():
    rng = np.random.default_rng(11)
    draws = np.array([_poisson_count(rng, 4.0) for _ in range(4000)])
    assert abs(draws.mean() - 4.0) < 4 * np.sqrt(4.0 / 4000)
    assert abs(draws.var() - 4.0) < 0.5


class _FixedUniform:
    """Generator stub whose random() returns one fixed value and counts calls."""

    def __init__(self, u):
        self.u = u
        self.calls = 0

    def random(self):
        self.calls += 1
        return self.u


def test_poisson_count_zero_uniform_gives_zero():
    for mu in (0.0, 1e-9, 0.7, 3.5, 5000.0):
        rng = _FixedUniform(0.0)
        assert _poisson_count(rng, mu) == 0
        assert rng.calls == 1


def test_poisson_count_rejects_bad_means():
    for mu in (-1e-12, np.inf, np.nan):
        with pytest.raises(NumericalError, match="offspring mean"):
            _poisson_count(_FixedUniform(0.5), mu)
    # scipy's inverse has no value here either: poisson.ppf gives nan
    assert np.isnan(sp_stats.poisson.ppf(0.3, 1e12))
    with pytest.raises(NumericalError, match="Poisson inverse"):
        _poisson_count(_FixedUniform(0.3), 1e12)


def test_poisson_count_matches_scipy_ppf_on_dense_grid():
    grid = np.random.default_rng(2024)
    mus = np.concatenate([np.logspace(-9, np.log10(2e4), 120),
                          grid.uniform(0.0, 60.0, 40), [0.5, 1.0, 3.5, 4000.0]])
    checked = 0
    for mu in mus:
        sd = np.sqrt(mu)
        ks = np.arange(max(0, int(mu - 8 * sd) - 3), int(mu + 8 * sd) + 4)
        steps = special.pdtr(ks, mu)
        us = np.concatenate([grid.random(60), steps,
                             np.nextafter(steps, 0.0), np.nextafter(steps, 2.0)])
        us = us[(us > 0.0) & (us < 1.0)]
        expected = sp_stats.poisson.ppf(us, mu)
        got = [_poisson_count(_FixedUniform(float(u)), float(mu)) for u in us]
        assert np.array_equal(got, expected), f"mu={mu!r}"
        table = _cdf_table(float(mu))
        got = [_poisson_count(_FixedUniform(float(u)), float(mu), table) for u in us]
        assert np.array_equal(got, expected), f"table, mu={mu!r}"
        checked += us.size
    assert checked > 20_000


def test_cdf_table_gives_the_inverse_count_just_above_every_step():
    # where the inverse's rounding decides (within about 1e-14 above a
    # step), the table must defer to it rather than give the exact answer
    for mu in (0.05, 0.3, 0.5704, 1.0, 2.2778, 3.6143, 17.0, 58.85, 81.97, 179.8):
        table = _cdf_table(mu)
        assert len(table) <= CDF_TABLE_SIZE
        assert all(a <= b for a, b in zip(table, table[1:]))
        for step in table:
            for ulps in (1, 2, 3, 8, 64, 512, 4096, 1 << 15):
                u = step + ulps * np.spacing(step)
                if not 0.0 < u < 1.0:
                    continue
                fixed = _FixedUniform(u)
                assert _poisson_count(fixed, mu, table) == _poisson_count(fixed, mu), \
                    (mu, step, ulps)


def test_cdf_table_is_bounded_and_a_huge_mean_still_fails_in_the_inverse():
    table = _cdf_table(1e12)
    assert 0 < len(table) <= CDF_TABLE_SIZE and max(table) == 0.0
    with pytest.raises(NumericalError, match="Poisson inverse failed"):
        _poisson_count(_FixedUniform(0.3), 1e12, table)
    model = CascadeModel(
        HomogeneousBaseline(1.0, LabelMarginal((0.5, 0.5))),
        (KernelComponent("huge", ConstantFertility(1e12), IdentityTransition(),
                         ExponentialDelay(1.0)),))
    # seed 1's first offspring draw has a uniform below 0.5, where the
    # inverse at this mean has no value (above it, its root is near 1e12)
    with pytest.raises(NumericalError, match="Poisson inverse failed at mean 1000000000000.0"):
        simulate(model, 5.0, seed=1)


def _counting(monkeypatch, name):
    """Replace the simulate module's function ``name`` (as the benchmark's
    tracer does) with a wrapper that records each call's arguments."""
    calls, fn = [], getattr(SIM, name)
    monkeypatch.setattr(SIM, name, lambda *a: calls.append(a) or fn(*a))
    return calls


def test_one_count_per_event_and_rule(monkeypatch):
    counts = _counting(monkeypatch, "_poisson_count")
    d, forest = _stream("binary", 1)
    # the root count, then one count per event under each of three components
    assert len(counts) == 1 + 3 * len(d)


def test_a_table_only_for_a_mean_drawn_more_than_once(monkeypatch):
    counts = _counting(monkeypatch, "_poisson_count")
    tables = _counting(monkeypatch, "_cdf_table")
    delay = ExponentialDelay(1e-12)  # every child falls past the horizon

    def draw(code, rng, m):
        return [code] * m

    rules = {tag: [(0.4, delay, draw, 0), (1.0 + tag, delay, draw, 1)] for tag in range(5)}
    parents, gens = _offspring(np.random.default_rng(0), [0.0] * 5, [0] * 5, list(range(5)),
                               lambda code, tag: rules[tag], 1.0, 100)
    assert parents == [-1] * 5 and gens == [0] * 5
    assert [a[1] for a in counts] == [m for tag in range(5) for m, *_ in rules[tag]]
    assert tables == [(0.4,)]  # built on its second draw, searched by the later ones
    assert [a[2] is not None for a in counts[::2]] == [False, True, True, True, True]
    assert all(a[2] is None for a in counts[1::2])


@pytest.mark.parametrize("seed", [-1, 1.5, True, "1", None])
def test_simulators_reject_bad_seeds(seed):
    with pytest.raises(ConfigError, match=f"seed must be a nonnegative integer, got {seed!r}"):
        simulate(label_model(), 10.0, seed=seed)
    graph = Graph(("a", "b"), {"a": ("b",), "b": ()})
    with pytest.raises(ConfigError, match="seed"):
        simulate_graph(graph, 10.0, seed, type_marginal=(1.0,), base_rate=0.5,
                       self_rate=0.1, neighbor_rate=0.1,
                       transition=CategoricalMatrix(((1.0,),)), delay=ExponentialDelay(1.0))


def test_a_numpy_integer_seed_is_the_same_seed():
    d1, _ = simulate(label_model(), 20.0, seed=np.int64(4))
    d2, _ = simulate(label_model(), 20.0, seed=4)
    assert np.array_equal(d1.times, d2.times)


def test_cli_import_does_not_load_scipy_stats():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cascades.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, cascades.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


# sha256 of write_events and write_forest output, recorded before marks
# were drawn as codes: the simulators must keep drawing these streams
STREAMS = {
    ("labels", 1): ("f3448a6a62248e368e123269f28844ee04eeb4ead9664eeafd57d013c67b8897",
                    "74e96bd1b802d2e9fe98fbd159c21aa0ac8d8ac2a6e951600f30967711474e4f"),
    ("labels", 2): ("2278b1bfad3bd2771bfea0d47e2a8cf3732b18a2afb650cee066e0ac15da0336",
                    "d32d1f145670a6df7b388d5465c549e33406928ec7ccde61ec730a304eb73203"),
    ("binary", 1): ("328d815e5462219de70217eda8b1fd1650b1022a556b47fba38a93bac701dfdb",
                    "9a250b364a5188a7d6a8d9a4ab1eae838b12ca6d3fc8eb37af670c54acaee764"),
    ("binary", 2): ("be65efbf9ad54a349a2f523d7c25130ae5ec6ee58233ddf9b02e93d01cce255d",
                    "44e9807d06b38f45f1b4435d50389a04c8d6c6a8140765c83219f55d6691dda6"),
    ("graph", 1): ("d3b2de5955b9a4ed0458d835082ea11f1639ad99f1e47579787cf0021e3052d7",
                   "e9290a8972af7b4214e6b9c5040aecdd6e68e4c9939e07412ee35033fa3e13aa"),
    ("graph", 2): ("2444e1967b40444f24ea25eb5f2c57c2e596a22d112a901d0e8b34597503f58d",
                   "7a2251c882f7a954a7aa54b571635a88df716ad498bf3c5ff08d33f489b7f989"),
}


def _stream(kind, seed):
    """A short stream of each kind: labels under a categorical, a prior and
    an identity component; binary marks under multiplicative fertility with
    a feature mixture, a binary prior and identity; a small graph."""
    if kind == "graph":
        names = [f"n{i}" for i in range(8)]
        graph = Graph(names, {names[i]: [names[(i + 1) % 8], names[(i + 3) % 8]]
                              for i in range(8)})
        return simulate_graph(graph, 25.0, seed, type_marginal=(0.5, 0.3, 0.2),
                              base_rate={v: 0.1 + 0.05 * i for i, v in enumerate(names)},
                              self_rate=0.2, neighbor_rate=0.15,
                              transition=CategoricalMatrix(((0.1, 0.8, 0.1), (0.3, 0.3, 0.4),
                                                            (0.6, 0.2, 0.2))),
                              delay=ExponentialDelay(1.0))
    if kind == "labels":
        model = CascadeModel(
            HomogeneousBaseline(0.8, LabelMarginal((0.4, 0.3, 0.2, 0.1))),
            (KernelComponent("cat", ConstantFertility(0.3), CategoricalMatrix(
                ((0.1, 0.6, 0.2, 0.1), (0.25, 0.25, 0.25, 0.25), (0.0, 0.0, 0.5, 0.5),
                 (0.7, 0.1, 0.1, 0.1))), ExponentialDelay(1.0)),
             KernelComponent("prior", ConstantFertility(0.2),
                             PriorTransition(LabelMarginal((0.1, 0.2, 0.3, 0.4))),
                             GammaDelay(2.0, 0.5)),
             KernelComponent("same", ConstantFertility(0.1), IdentityTransition(),
                             ExponentialDelay(0.2))))
        return simulate(model, 150.0, seed)
    prior = FeaturePrior((0.5, 0.2, 0.7, 0.5))
    model = CascadeModel(
        HomogeneousBaseline(2.0, prior),
        (KernelComponent("mix", MultiplicativeFertility((0.3, 1.3, 0.8, 1.5, 0.6)),
                         FeatureMixture(0.3, prior), ExponentialDelay(1.0)),
         KernelComponent("prior", ConstantFertility(0.1),
                         PriorTransition(FeaturePrior((0.9, 0.1, 0.5, 0.3))),
                         ExponentialDelay(2.0)),
         KernelComponent("same", ConstantFertility(0.05), IdentityTransition(),
                         ExponentialDelay(0.5))))
    return simulate(model, 80.0, seed)


@pytest.mark.parametrize("kind, seed", sorted(STREAMS))
def test_simulated_streams_are_pinned(tmp_path, kind, seed):
    d, forest = _stream(kind, seed)
    write_events(d, str(tmp_path / "events.jsonl"))
    write_forest(forest, str(tmp_path / "forest.jsonl"))
    got = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                for name in ("events.jsonl", "forest.jsonl"))
    assert got == STREAMS[kind, seed]
