import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascades import (CategoricalMatrix, ConfigError, DataError, Dataset,
                      Event, ExponentialDelay, GammaDelay, Graph, Hyperparams,
                      fit_graph, fit_node, fit_round, graph_log_likelihood,
                      load_graph, node_model, regularized_rates, simulate_graph,
                      update_hyperparams, windowed_log_likelihood, write_graph)
from cascades import engine, graphs
from cascades.config import serialize_model
from cascades.events import CompositeMark, CompositeSchema, split
from cascades.fertility import ConstantFertility
from cascades.graphs import VARIANTS, _smoothed_marginal, local_data
from oracles import resp_stats

TRANS = CategoricalMatrix(((0.7, 0.2, 0.1), (0.1, 0.8, 0.1), (0.2, 0.2, 0.6)))


def line_graph():
    return Graph(["a", "b", "c"], {"a": ["b"], "b": ["c"]})


def sim(graph, horizon=60.0, seed=0, base=0.3):
    return simulate_graph(graph, horizon, seed, type_marginal=(0.5, 0.3, 0.2),
                          base_rate=base, self_rate=0.25, neighbor_rate=0.2,
                          transition=TRANS, delay=ExponentialDelay(1.0))


def test_graph_construction_and_validation():
    g = line_graph()
    assert g.nodes == ("a", "b", "c")
    assert g.out["a"] == ("b",) and g.out["c"] == ()
    assert g.incoming["b"] == ("a",) and g.incoming["a"] == ()
    assert len(g) == 3
    with pytest.raises(DataError, match="unknown node"):
        Graph(["a"], {"a": ["zz"]})
    with pytest.raises(DataError, match="self-loop"):
        Graph(["a", "b"], {"a": ["a"]})
    with pytest.raises(DataError, match="duplicate edges"):
        Graph(["a", "b"], {"a": ["b", "b"]})
    with pytest.raises(DataError, match="duplicate node"):
        Graph(["a", "a"], {})


def test_graph_rejects_strings_for_node_collections():
    # a string would be read letter by letter as node ids
    for nodes, edges in ((["a", "b", "c"], {"a": "bc"}), ("abc", {}),
                         (("a", "b"), {"a": ["b"], "b": "a"})):
        with pytest.raises(DataError, match="not strings"):
            Graph(nodes, edges)
    # and ids that are not strings, which load_graph could not read back
    for nodes, edges, message in (([1, 2], {1: [2]}, "ids must be strings"),
                                  (["a", "b"], {"a": 5}, "lists or tuples"),
                                  (["a", 1], {}, "ids must be strings")):
        with pytest.raises(DataError, match=message):
            Graph(nodes, edges)


def test_graph_rejects_edges_out_of_unknown_nodes():
    with pytest.raises(DataError, match="unknown nodes.*'zz'"):
        Graph(["a", "b"], {"zz": ["a"], "a": ["b"]})


def test_graph_io_round_trip(tmp_path):
    g = line_graph()
    path = tmp_path / "graph.jsonl"
    write_graph(g, path)
    back = load_graph(path)
    assert back.nodes == g.nodes and back.out == g.out


def test_graph_loader_rejects_bad_rows(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"node": "a", "out": [], "extra": 1}\n')
    with pytest.raises(DataError, match="unknown keys"):
        load_graph(path)
    path.write_text('{"node": "a"}\n{"node": "a"}\n')
    with pytest.raises(DataError, match="twice"):
        load_graph(path)


def test_regularized_rates_identity_and_limits():
    n = np.array([3.0, 0.0, 1.5, 0.0])
    m = np.array([10.0, 4.0, 3.0, 0.0])
    for w in (0.0, 0.3, 1.0):
        rates = regularized_rates(n, m, w)
        assert np.dot(rates, m) == pytest.approx(n.sum(), rel=1e-12)
    assert regularized_rates(n, m, 0.0) == pytest.approx(
        [0.3, 0.0, 0.5, 0.0])
    pooled = n.sum() / m.sum()
    assert regularized_rates(n, m, 1.0) == pytest.approx([pooled] * 4)
    # the silent neighbor keeps whatever pooling assigns it
    assert regularized_rates(n, m, 0.5)[3] == pytest.approx(0.5 * pooled)
    assert regularized_rates(np.zeros(2), np.zeros(2), 0.5) == pytest.approx(
        [0.0, 0.0])
    with pytest.raises(ConfigError):
        regularized_rates(n, m, 1.5)
    with pytest.raises(DataError):
        regularized_rates(n[:2], m, 0.5)
    # an infinite count would break the identity above; a NaN, every rate
    for bad in (np.nan, np.inf, -1.0):
        with pytest.raises(DataError, match="finite and nonnegative"):
            regularized_rates([bad], [1.0], 0.5)
        with pytest.raises(DataError, match="finite and nonnegative"):
            regularized_rates([1.0], [bad], 0.5)


@pytest.mark.parametrize("variant", ["shared_transition", "per_neighbor"])
@pytest.mark.parametrize("limits, message", [
    ({"max_iters": -1}, "max_iters must be nonnegative"),
    ({"tol": -1.0}, "tol must be nonnegative"),
    ({"tol": float("nan")}, "tol must be nonnegative")])
def test_node_and_graph_fits_check_their_em_limits(variant, limits, message):
    # in a two-node cycle every node has a neighbor, so per_neighbor fits
    # run their own EM loop rather than fit's
    g = Graph(["a", "b"], {"a": ["b"], "b": ["a"]})
    d, _ = sim(g, horizon=30.0, seed=4)
    hyper = Hyperparams.uniform(d.n_label_values)
    with pytest.raises(ConfigError, match=message):
        fit_node(g, d, "a", variant, hyper, 1.0, **limits)
    with pytest.raises(ConfigError, match=message):
        fit_graph(g, d, variant, rounds=1, strength_grid=(1.0,), pool_grid=(0.5,), **limits)


@pytest.mark.parametrize("variant, grids, name", [
    ("shared_transition", {"strength_grid": ()}, "strength_grid: must be nonempty"),
    ("per_neighbor", {"strength_grid": ()}, "strength_grid: must be nonempty"),
    ("per_neighbor", {"pool_grid": ()}, "pool_grid: must be nonempty"),
    ("shared_transition", {"strength_grid": (1.0, -2.0)}, "strength_grid: strengths must"),
    ("per_neighbor", {"pool_grid": (0.5, 1.5)}, "pool_grid: must be nonempty"),
    # a repeated value would count its candidate's validation score twice
    ("shared_transition", {"strength_grid": (1.0, 10.0, 10.0)},
     "strength_grid: values must be distinct"),
    ("per_neighbor", {"strength_grid": (1.0,), "pool_grid": (0.0, 1.0, 1.0)},
     "pool_grid: values must be distinct")])
def test_fit_round_rejects_a_bad_grid_before_any_fit(monkeypatch, variant, grids, name):
    g = line_graph()
    d, _ = sim(g, horizon=30.0, seed=4)
    monkeypatch.setattr(graphs, "fit_node", lambda *args, **kwargs: pytest.fail("fitted"))
    with pytest.raises(ConfigError, match=name):
        fit_round(g, d, variant, Hyperparams.uniform(d.n_label_values), **grids)


def test_simulate_graph_basics():
    g = line_graph()
    d, forest = sim(g, seed=3)
    assert isinstance(d.schema, CompositeSchema)
    assert set(np.unique(d.node_ids)) <= {"a", "b", "c"}
    assert d.n_label_values == 3
    d2, f2 = sim(g, seed=3)
    assert d.events == d2.events and np.array_equal(forest.parents, f2.parents)
    # triggered events live at the parent's node or one of its out-neighbors
    kids = np.nonzero(forest.parents >= 0)[0]
    assert kids.size > 0
    for k in kids:
        pv = d.node_ids[forest.parents[k]]
        assert d.node_ids[k] == pv or d.node_ids[k] in g.out[pv]
        assert d.times[forest.parents[k]] <= d.times[k]


def test_simulate_graph_per_node_rates():
    g = line_graph()
    d, forest = simulate_graph(
        g, 80.0, 4, type_marginal=(1.0,), base_rate={"a": 0.5, "b": 0.0, "c": 0.0},
        self_rate=0.0, neighbor_rate=0.0, transition=CategoricalMatrix(((1.0,),)),
        delay=ExponentialDelay(1.0))
    assert len(d) > 10
    assert set(np.unique(d.node_ids)) == {"a"}
    assert np.all(forest.parents == -1)


def test_node_model_variants_shape():
    g = line_graph()
    d, _ = sim(g, seed=5)
    hyper = Hyperparams.uniform(3)
    window = (0.0, d.horizon)
    m0, ctx0 = node_model(g, d, "b", "no_neighbors", hyper, 1.0,
                          ExponentialDelay(1.0), window)
    assert len(m0.components) == 1 and ctx0 == ("self",)
    assert m0.components[0].sources == ("b",)
    assert m0.normalization is False

    m1, ctx1 = node_model(g, d, "b", "shared_transition", hyper, 1.0,
                          ExponentialDelay(1.0), window)
    assert len(m1.components) == 2 and ctx1 == ("shared", "shared")
    assert m1.components[1].sources == ("a",)
    assert m1.components[0].transition_group == m1.components[1].transition_group

    m2, ctx2 = node_model(g, d, "b", "separate_transitions", hyper, 1.0,
                          ExponentialDelay(1.0), window)
    assert ctx2 == ("self", "neighbor")
    # no group tags: each component refits its transition on its own
    assert m2.components[0].transition_group is None
    assert m2.components[1].transition_group is None
    assert m2.components[1].sources == ("a",)

    m3, ctx3 = node_model(g, d, "c", "per_neighbor", hyper, 1.0,
                          ExponentialDelay(1.0), window)
    assert [c.name for c in m3.components] == ["self", "nbr:b"]
    assert ctx3 == ("self", "neighbor")

    with pytest.raises(ConfigError):
        node_model(g, d, "b", "nope", hyper, 1.0, ExponentialDelay(1.0), window)


def test_node_model_counts_the_node_events_its_fit_scores():
    # the origin is closed: a fit over (0, 10] scores b's event at t = 0
    g = Graph(["a", "b"], {"a": ["b"]})
    d = Dataset([Event(t, CompositeMark(1, v))
                 for t, v in ((0.0, "b"), (1.0, "b"), (2.0, "a"), (3.0, "b"))],
                10.0, CompositeSchema(1, frozenset(g.nodes)))
    for window, scored in (((0.0, 10.0), 3), ((1.0, 10.0), 1)):
        model, _ = node_model(g, d, "b", "no_neighbors", Hyperparams.uniform(1), 1.0,
                              ExponentialDelay(1.0), window)
        assert engine._child_ids(d, d.node_ids == "b", window).size == scored
        assert model.baseline.rate == scored / (window[1] - window[0])


def test_node_model_rejects_negative_strength():
    g = line_graph()
    d, _ = sim(g, seed=5)
    with pytest.raises(ConfigError, match="strength"):
        node_model(g, d, "b", "shared_transition", Hyperparams.uniform(3), -5.0,
                   ExponentialDelay(1.0), (0.0, d.horizon))


def test_fit_node_returns_counts_per_context():
    g = line_graph()
    d, _ = sim(g, seed=6)
    hyper = Hyperparams.uniform(3)
    nf = fit_node(g, d, "b", "separate_transitions", hyper, 1.0, max_iters=4)
    assert nf.node == "b"
    assert set(nf.counts) <= {"self", "neighbor"}
    assert np.isfinite(nf.train_ll)
    mat = nf.counts["self"]
    assert mat.shape == (3, 3) and np.all(mat >= 0)


def test_isolated_node_matches_no_neighbor_variant():
    g = Graph(["a", "b"], {"a": ["b"]})  # node a has no incoming edges
    d, _ = sim(g, seed=7)
    hyper = Hyperparams.uniform(3)
    lone = fit_node(g, d, "a", "no_neighbors", hyper, 1.0, max_iters=6)
    shared = fit_node(g, d, "a", "shared_transition", hyper, 1.0, max_iters=6)
    assert lone.train_ll == pytest.approx(shared.train_ll, rel=1e-9)


def test_update_hyperparams_rules():
    counts = {"self": np.array([[4.0, 0.0], [0.0, 0.0]])}
    vals = {0.1: -10.0, 1.0: -5.0, 10.0: -5.0}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hyper = update_hyperparams(counts, vals, (0.1, 1.0, 10.0))
    assert hyper.strength == 1.0  # tie resolved to the smaller strength
    assert hyper.directions["self"][0] == pytest.approx((1.0, 0.0))
    assert hyper.directions["self"][1] == pytest.approx((0.5, 0.5))
    with pytest.warns(UserWarning, match="boundary"):
        update_hyperparams(counts, {0.1: -1.0, 1.0: -2.0}, (0.1, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # single-point grids never warn
        update_hyperparams(counts, {0.1: -1.0}, (0.1,))


def shapes_graph():
    """a has no in-neighbours, q gets no events in the head window, z is
    isolated, and q has two in-neighbours (two per-neighbor components)."""
    return Graph(["a", "b", "c", "q", "z"],
                 {"a": ["b"], "b": ["c", "q"], "c": ["q"]})


def shapes_data(seed=8, horizon=40.0, head=0.7):
    """Simulated events with node q's events before the head cut removed."""
    d, _ = sim(shapes_graph(), horizon=horizon, seed=seed)
    cut = head * horizon
    keep = [ev for ev in d.events if ev.mark.node != "q" or ev.t > cut]
    return Dataset(keep, d.horizon, d.schema)


def assert_fits_equal(r1, r2):
    assert (r1.strength, r1.pool_weight, r1.val_total) == (r2.strength, r2.pool_weight,
                                                           r2.val_total)
    assert r1.val_table == r2.val_table
    assert r1.hyper == r2.hyper
    assert list(r1.fits) == list(r2.fits)
    for v, f1 in r1.fits.items():
        f2 = r2.fits[v]
        assert (f1.node, f1.model, f1.train_ll, f1.iterations, f1.converged,
                f1.ll_decreases) == (f2.node, f2.model, f2.train_ll, f2.iterations,
                                     f2.converged, f2.ll_decreases)
        assert f1.counts.keys() == f2.counts.keys()
        for ctx in f1.counts:
            assert np.array_equal(f1.counts[ctx], f2.counts[ctx])


def test_fit_round_worker_count_is_invisible():
    hyper = Hyperparams.uniform(3)
    kw = dict(strength_grid=(1.0, 10.0), pool_grid=(0.0, 1.0), val_fraction=0.3,
              max_iters=3, tol=1e-4)
    cases = [(line_graph(), sim(line_graph(), horizon=40.0, seed=8)[0], "shared_transition"),
             (shapes_graph(), shapes_data(), "shared_transition"),
             (shapes_graph(), shapes_data(), "per_neighbor")]
    for g, d, variant in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rounds = [fit_round(g, d, variant, hyper, workers=w, **kw) for w in (1, 2, 3)]
        for r in rounds[1:]:
            assert_fits_equal(rounds[0], r)


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 1000), shape=st.sampled_from(["line", "shapes", "ring"]),
       variant=st.sampled_from(VARIANTS))
def test_fit_round_at_two_and_three_workers_equals_one(seed, shape, variant):
    # the one-worker round runs first, so the forked workers inherit the
    # node masks it cached on d, and build masks and parent pools of their
    # own for the block data they receive
    g = {"line": line_graph, "shapes": shapes_graph, "ring": ring_graph}[shape]()
    d, _ = sim(g, horizon=20.0, seed=seed)
    kw = dict(strength_grid=(1.0, 10.0), pool_grid=(0.0, 1.0), val_fraction=0.3,
              max_iters=3, tol=1e-4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rounds = [fit_round(g, d, variant, Hyperparams.uniform(3), workers=w, **kw)
                  for w in (1, 2, 3)]
    for r in rounds[1:]:
        assert_fits_equal(rounds[0], r)


def test_fit_round_rejects_worker_counts_below_one():
    g = line_graph()
    d, _ = sim(g, horizon=20.0, seed=8)
    for workers in (0, -3):
        with pytest.raises(ConfigError, match="workers"):
            fit_round(g, d, "no_neighbors", Hyperparams.uniform(3), workers=workers)


def old_round(graph, d, variant, hyper, *, strength_grid, pool_grid, val_fraction,
              delay_init, max_iters, tol):
    """fit_round as it was: every node fits every candidate on the head
    and on the whole window, each fit on the whole dataset."""
    a, b = d.start, d.horizon
    cut = a + (1.0 - val_fraction) * (b - a)
    if variant == "per_neighbor":
        candidates = [(float(c), float(w)) for c in strength_grid for w in pool_grid]
    else:
        candidates = [(float(c), None) for c in strength_grid]
    results = {}
    for v in graph.nodes:
        mask = d.node_ids == v
        per = {}
        for strength, w in candidates:
            kw = dict(pool_weight=0.5 if w is None else w, delay_init=delay_init,
                      max_iters=max_iters, tol=tol)
            head = fit_node(graph, d, v, variant, hyper, strength, window=(a, cut), **kw)
            val = windowed_log_likelihood(head.model, d, mask, (cut, b))
            full = fit_node(graph, d, v, variant, hyper, strength, window=(a, b), **kw)
            per[(strength, w)] = (float(val), full)
        results[v] = per
    totals = {cand: sum(results[v][cand][0] for v in graph.nodes) for cand in candidates}
    best = min(candidates, key=lambda c: (-totals[c], -(c[1] or 0.0), c[0]))
    fits = {v: results[v][best][1] for v in graph.nodes}
    val_by_strength = {}
    for cand in candidates:
        val_by_strength[cand[0]] = max(val_by_strength.get(cand[0], -np.inf), totals[cand])
    pooled = {}
    for v in graph.nodes:
        for ctx, mat in fits[v].counts.items():
            pooled[ctx] = pooled.get(ctx, 0) + mat
    return dict(fits=fits, strength=best[0], pool_weight=best[1],
                val_table=[(c[0], c[1], totals[c]) for c in candidates],
                hyper=update_hyperparams(pooled, val_by_strength, tuple(strength_grid)))


def assert_close(x, y, path=""):
    """Equal structure, and floats equal to 1e-12 relative."""
    if isinstance(x, dict):
        assert x.keys() == y.keys(), path
        for k in x:
            assert_close(x[k], y[k], f"{path}/{k}")
    elif isinstance(x, (list, tuple)):
        assert len(x) == len(y), path
        for i, (a, b) in enumerate(zip(x, y)):
            assert_close(a, b, f"{path}[{i}]")
    elif isinstance(x, float):
        assert x == pytest.approx(y, rel=1e-12, abs=1e-300), path
    else:
        assert x == y, path


# the winner is (10.0, 1.0) here, so one grid order puts it last, the other first
@pytest.mark.parametrize("delay, grids", [
    (ExponentialDelay(1.0), ((1.0, 10.0), (0.0, 1.0))),
    (GammaDelay(1.5, 1.2), ((10.0, 1.0), (1.0, 0.0)))])
@pytest.mark.parametrize("variant", VARIANTS)
def test_fit_round_matches_the_old_loop(variant, delay, grids):
    g = shapes_graph()
    d = shapes_data()
    kw = dict(strength_grid=grids[0], pool_grid=grids[1], val_fraction=0.3,
              delay_init=delay, max_iters=3, tol=1e-4)
    hyper = Hyperparams.uniform(3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        new = fit_round(g, d, variant, hyper, workers=2, **kw)
        old = old_round(g, d, variant, hyper, **kw)
    assert (new.strength, new.pool_weight) == (old["strength"], old["pool_weight"])
    assert [row[:2] for row in new.val_table] == [row[:2] for row in old["val_table"]]
    assert_close([row[2] for row in new.val_table], [row[2] for row in old["val_table"]])
    assert new.hyper.strength == old["hyper"].strength
    assert_close(new.hyper.directions, old["hyper"].directions)
    assert list(new.fits) == list(old["fits"]) == list(g.nodes)
    for v in g.nodes:
        f_new, f_old = new.fits[v], old["fits"][v]
        assert (f_new.iterations, f_new.converged) == (f_old.iterations, f_old.converged)
        assert f_new.ll_decreases == f_old.ll_decreases
        assert_close(f_new.train_ll, f_old.train_ll, v)
        assert_close(serialize_model(f_new.model), serialize_model(f_old.model), v)
        assert f_new.counts.keys() == f_old.counts.keys()
        for ctx in f_new.counts:
            np.testing.assert_allclose(f_new.counts[ctx], f_old.counts[ctx], rtol=1e-12,
                                       atol=0)
    # the shapes the data was built to have
    assert g.incoming["a"] == () and g.out["z"] == g.incoming["z"] == ()
    head = d.times <= 0.7 * d.horizon
    assert not np.any(head & (d.node_ids == "q")) and np.any(d.node_ids == "q")


@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 1000), order=st.permutations("wxyz"))
@pytest.mark.parametrize("variant", VARIANTS)
def test_node_relabeling_changes_no_fit(variant, seed, order):
    # a 4-node ring a -> b -> c -> d -> a plus a -> c, so c has two
    # in-neighbours; a sorts after b once renamed, which reorders c's
    # per-neighbor components and the sorted node order
    names = dict(zip("abcd", order))
    if names["a"] < names["b"]:
        names["a"], names["b"] = names["b"], names["a"]
    edges = {"a": ["b", "c"], "b": ["c"], "c": ["d"], "d": ["a"]}
    g = Graph(list(edges), edges)
    g_new = Graph(list(names.values()),
                  {names[u]: [names[v] for v in vs] for u, vs in edges.items()})
    assert g_new.incoming[names["c"]] == (names["b"], names["a"])
    d, _ = sim(g, horizon=30.0, seed=seed)
    d_new = Dataset([Event(ev.t, CompositeMark(ev.mark.type, names[ev.mark.node]))
                     for ev in d.events], d.horizon,
                    CompositeSchema(d.schema.n_types, frozenset(names.values())))
    kw = dict(strength_grid=(1.0, 10.0), pool_grid=(0.0, 1.0), val_fraction=0.3,
              max_iters=3, tol=1e-4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ref = fit_round(g, d, variant, Hyperparams.uniform(3), **kw)
        got = fit_round(g_new, d_new, variant, Hyperparams.uniform(3), **kw)
    assert (got.strength, got.pool_weight) == (ref.strength, ref.pool_weight)
    assert got.val_total == pytest.approx(ref.val_total, rel=1e-9, abs=0)
    for v in g.nodes:
        assert got.fits[names[v]].train_ll == pytest.approx(ref.fits[v].train_ll,
                                                            rel=1e-9, abs=0), v


def ring_graph(n=12):
    names = [f"n{i:02d}" for i in range(n)]
    return Graph(names, {names[i]: [names[(i + 1) % n], names[(i + 3) % n]]
                         for i in range(n)})


@pytest.mark.parametrize("variant", VARIANTS)
def test_fit_node_on_local_data_equals_the_whole_dataset(variant):
    # the baseline credit sums over the node's children only, so events
    # that the node's fit never reads cannot move a bit of it
    g = ring_graph()
    d, _ = sim(g, horizon=40.0, seed=14)
    hyper = Hyperparams.uniform(3)
    marginal = _smoothed_marginal(d)
    for v in g.nodes:
        dv = local_data(g, d, (v,))
        assert len(dv) < len(d)
        fits = [fit_node(g, data, v, variant, hyper, 1.0, max_iters=4, marginal=marginal)
                for data in (d, dv)]
        whole, local = fits
        assert local.train_ll == whole.train_ll, v
        assert serialize_model(local.model) == serialize_model(whole.model), v
        assert (local.iterations, local.converged) == (whole.iterations, whole.converged)
        assert local.counts.keys() == whole.counts.keys()
        for ctx in whole.counts:
            assert local.counts[ctx].tobytes() == whole.counts[ctx].tobytes()


def test_only_phase_two_fits_collect_transition_counts(monkeypatch):
    calls = []
    counted = engine.e_step
    monkeypatch.setattr(graphs, "e_step", lambda *args: calls.append(args[2]) or counted(*args))
    g = shapes_graph()
    d = shapes_data()
    kw = dict(strength_grid=(1.0, 10.0), pool_grid=(0.0, 1.0), val_fraction=0.3,
              delay_init=ExponentialDelay(1.0), max_iters=3, tol=1e-4)
    hyper = Hyperparams.uniform(3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        new = fit_round(g, d, "shared_transition", hyper, workers=1, **kw)
        assert len(calls) == len(g.nodes)  # one per node, from its phase-two fit
        old = old_round(g, d, "shared_transition", hyper, **kw)
    assert (new.strength, new.pool_weight) == (old["strength"], old["pool_weight"])
    assert new.val_table == old["val_table"]
    assert new.hyper == old["hyper"]
    assert list(new.fits) == list(old["fits"])
    for v, f_new in new.fits.items():
        f_old = old["fits"][v]
        assert (f_new.model, f_new.train_ll, f_new.iterations, f_new.converged,
                f_new.ll_decreases) == (f_old.model, f_old.train_ll, f_old.iterations,
                                        f_old.converged, f_old.ll_decreases)
        assert f_new.counts.keys() == f_old.counts.keys()
        for ctx in f_new.counts:
            assert f_new.counts[ctx].tobytes() == f_old.counts[ctx].tobytes()
    head = fit_node(g, d, "b", "shared_transition", hyper, 1.0, max_iters=3,
                    with_counts=False)
    assert head.counts is None


def test_fit_round_warns_once_naming_nodes_whose_ll_fell():
    # only node a has events, and every child's type is the next one;
    # strong shrinkage toward "same type again" lowers a's likelihood
    g = Graph(["a", "b"], {"a": ["b"]})
    shift = CategoricalMatrix(((0.02, 0.96, 0.02), (0.02, 0.02, 0.96),
                               (0.96, 0.02, 0.02)))
    d, _ = simulate_graph(g, 60.0, 3, type_marginal=(1 / 3,) * 3,
                          base_rate={"a": 0.4, "b": 0.0}, self_rate=0.5,
                          neighbor_rate=0.0, transition=shift,
                          delay=ExponentialDelay(1.0))
    same = tuple(tuple(0.96 if r == c else 0.02 for c in range(3)) for r in range(3))
    hyper = Hyperparams({"shared": same}, 1.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = fit_round(g, d, "shared_transition", hyper, strength_grid=(1e4,),
                        max_iters=5, tol=1e-9)
    messages = [str(w.message) for w in caught]
    assert res.fits["a"].ll_decreases > 0 and res.fits["b"].ll_decreases == 0
    assert len(messages) == 1, messages
    assert messages[0].endswith("this round: a")


def test_ll_decreases_count_drops_beyond_fit_tolerance():
    from cascades.graphs import _ll_decreases
    assert _ll_decreases([-10.0]) == 0
    assert _ll_decreases([-10.0, -9.0, -9.5, -9.5 - 1e-9, -9.4, -9.6]) == 2


def test_parent_pool_cache_matches_isin_and_stays_on_its_dataset():
    g = line_graph()
    d, _ = sim(g, seed=12)
    train, test = split(d, 0.7)
    for data in (d, train, test.merge_history(train), d.subset(np.arange(0, len(d), 3))):
        assert data not in engine._pools
        for sources in (("b",), ("c", "a"), ("absent",)):
            expect = np.isin(data.node_ids, sources)
            mask, index = data.at_nodes(sources)
            pool = engine._pool(data, sources)
            for got in (mask, pool.mask):
                np.testing.assert_array_equal(got, expect)
            for got in (index, pool.index):
                np.testing.assert_array_equal(got, np.nonzero(expect)[0])
            np.testing.assert_array_equal(pool.times, data.times[expect])
            assert engine._pool(data, sources) is pool
            for got in (mask, index, pool.mask, pool.index):
                assert not got.flags.writeable
        assert sorted(engine._pools[data]) == [("absent",), ("b",), ("c", "a")]
    # datasets derived after the pools were built start with none
    assert d.subset(np.arange(len(d))) not in engine._pools
    assert train in engine._pools and test.merge_history(train) not in engine._pools


def test_local_data_keeps_the_node_and_its_in_neighbours():
    g = shapes_graph()
    d = shapes_data()
    dq = local_data(g, d, ("q",))
    assert set(np.unique(dq.node_ids)) == {"b", "c", "q"}
    assert [ev.t for ev in dq.events] == [ev.t for ev in d.events
                                          if ev.mark.node in ("b", "c", "q")]
    assert (dq.start, dq.horizon, dq.schema) == (d.start, d.horizon, d.schema)
    assert local_data(g, d, g.nodes) is d


def test_fit_graph_runs_rounds_and_scores():
    g = line_graph()
    d, _ = sim(g, horizon=50.0, seed=9)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = fit_graph(g, d, "shared_transition", rounds=2,
                        strength_grid=(1.0, 10.0), max_iters=3, tol=1e-4)
    assert set(res.models) == set(g.nodes)
    assert len(res.rounds) == 2
    assert res.hyper.strength in (1.0, 10.0)
    total = graph_log_likelihood(res.models, d, g)
    manual = sum(windowed_log_likelihood(res.models[v], d, d.node_ids == v)
                 for v in g.nodes)
    assert total == pytest.approx(manual, rel=1e-12)
    assert np.isfinite(total)


@pytest.mark.parametrize("variant", ["no_neighbors", "separate_transitions",
                                     "per_neighbor"])
def test_fit_graph_end_to_end_per_variant(variant):
    g = shapes_graph()
    d = shapes_data(seed=13)
    train, test = split(d, 0.8)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = fit_graph(g, train, variant, rounds=2, strength_grid=(1.0, 10.0),
                        pool_grid=(0.0, 0.5), max_iters=3, tol=1e-4, workers=2)
    assert list(res.models) == list(g.nodes) and len(res.rounds) == 2
    last = res.rounds[-1]
    assert res.hyper is last.hyper and last.strength in (1.0, 10.0)
    assert (last.pool_weight in (0.0, 0.5)) if variant == "per_neighbor" else (
        last.pool_weight is None)
    expect_ctx = {"no_neighbors": {"self"}, "separate_transitions": {"self", "neighbor"},
                  "per_neighbor": {"self", "neighbor"}}[variant]
    assert set(res.hyper.directions) == expect_ctx
    n_comps = {v: len(m.components) for v, m in res.models.items()}
    if variant == "no_neighbors":
        assert set(n_comps.values()) == {1}
    elif variant == "separate_transitions":
        assert n_comps == {"a": 1, "b": 2, "c": 2, "q": 2, "z": 1}
    else:
        assert n_comps == {"a": 1, "b": 2, "c": 2, "q": 3, "z": 1}
    merged = test.merge_history(train)
    total = graph_log_likelihood(res.models, merged, g)
    manual = sum(windowed_log_likelihood(res.models[v], merged, merged.node_ids == v)
                 for v in g.nodes)
    assert np.isfinite(total) and total == pytest.approx(manual, rel=1e-12)


def test_fit_round_rejects_label_data():
    from cascades import (CascadeModel, HomogeneousBaseline, LabelMarginal,
                          simulate)
    model = CascadeModel(HomogeneousBaseline(1.0, LabelMarginal((1.0,))))
    d, _ = simulate(model, 20.0, seed=1)
    with pytest.raises(DataError, match="composite"):
        fit_round(line_graph(), d, "no_neighbors", Hyperparams.uniform(1))


def test_fit_round_rejects_unknown_nodes():
    g = line_graph()
    d, _ = sim(g, seed=10)
    schema = CompositeSchema(3, frozenset({"a", "b", "c", "zz"}))
    evs = [Event(ev.t, CompositeMark(ev.mark.type, "zz")) for ev in d.events[:3]]
    bad = Dataset(evs, horizon=d.horizon, schema=schema)
    with pytest.raises(DataError, match="missing from the graph"):
        fit_round(g, bad, "no_neighbors", Hyperparams.uniform(3))


def test_per_neighbor_pooling_changes_rates():
    g = Graph(["a", "b", "c", "d"], {"a": ["d"], "b": ["d"], "c": ["d"]})
    d, _ = sim(g, horizon=80.0, seed=11)
    hyper = Hyperparams.uniform(3)
    own = fit_node(g, d, "d", "per_neighbor", hyper, 1.0, pool_weight=0.0,
                   max_iters=5)
    pooled = fit_node(g, d, "d", "per_neighbor", hyper, 1.0, pool_weight=1.0,
                      max_iters=5)
    own_rates = [c.fertility.rate for c in own.model.components[1:]]
    pooled_rates = [c.fertility.rate for c in pooled.model.components[1:]]
    assert np.ptp(pooled_rates) < 1e-12  # fully pooled rates are all equal
    assert np.ptp(own_rates) > 1e-6 or np.allclose(own_rates, pooled_rates)


def two_estep_per_neighbor(model, d, mask, window, neighbors, pool_weight, max_iters, tol):
    """graphs._fit_per_neighbor as it was: each iteration runs e_step for
    the M-step and the neighbor credits, then a second E-step for the LL
    of the updated model."""
    a, b = window
    nbr_idx = [ci for ci, comp in enumerate(model.components)
               if comp.name.startswith("nbr:")]
    m_counts = np.array([np.sum((d.node_ids == u) & (d.times < b)) for u in neighbors],
                        dtype=np.float64)
    trace = [windowed_log_likelihood(model, d, mask, window)]
    if engine._child_ids(d, mask, window).size == 0:
        return model, trace, True
    for _ in range(max_iters):
        resp = engine.e_step(model, d, mask, window)
        stats = replace(resp_stats(model, d, resp), model=model,
                        scope=engine._Scope(d, mask, window))
        model = engine.m_step(model, stats, update_baseline_mark=False)
        n = np.array([resp.comp_z[ci].sum() for ci in nbr_idx])
        rates = regularized_rates(n, m_counts, pool_weight)
        comps = list(model.components)
        for k, ci in enumerate(nbr_idx):
            comps[ci] = replace(comps[ci], fertility=ConstantFertility(float(rates[k])))
        model = replace(model, components=tuple(comps))
        trace.append(windowed_log_likelihood(model, d, mask, window))
        if abs(trace[-1] - trace[-2]) < tol * max(abs(trace[-1]), 1e-12):
            return model, trace, True
    return model, trace, False


def star_graph():
    return Graph(["a", "b", "c", "d"], {"a": ["d"], "b": ["d"], "c": ["d"]})


def per_neighbor_cases():
    """(graph, data, node, window) for every node with in-neighbours; the
    shapes graph's head window leaves node q without children."""
    d_star, _ = sim(star_graph(), horizon=60.0, seed=11)
    d_shapes = shapes_data()
    cut = 0.7 * d_shapes.horizon
    out = [(star_graph(), d_star, "d", (0.0, 60.0))]
    for v in ("b", "c", "q"):
        for window in ((0.0, cut), (0.0, d_shapes.horizon)):
            out.append((shapes_graph(), d_shapes, v, window))
    return out


@pytest.mark.parametrize("delay", [ExponentialDelay(1.0), GammaDelay(1.5, 1.2)],
                         ids=["exponential", "gamma"])
@pytest.mark.parametrize("pool_weight", [0.0, 0.5, 1.0])
def test_per_neighbor_fit_matches_the_two_estep_loop(delay, pool_weight):
    hyper = Hyperparams.uniform(3)
    for g, d, v, window in per_neighbor_cases():
        model, _ = node_model(g, d, v, "per_neighbor", hyper, 1.0, delay, window)
        mask = d.node_ids == v
        args = (model, d, mask, window, pool_weight, 6, 1e-5)
        got, trace, converged = graphs._fit_per_neighbor(*args)
        ref, ref_trace, ref_converged = two_estep_per_neighbor(
            model, d, mask, window, g.incoming[v], pool_weight, 6, 1e-5)
        assert (len(trace), converged) == (len(ref_trace), ref_converged), v
        assert_close(trace, ref_trace, v)
        assert_close(serialize_model(got), serialize_model(ref), v)


def test_per_neighbor_fit_makes_one_estep_per_iteration(monkeypatch):
    calls = []
    choose = engine._on_scan
    monkeypatch.setattr(engine, "_on_scan", lambda *a: calls.append(choose(*a)) or calls[-1])
    g, d, v, window = per_neighbor_cases()[0]
    model, _ = node_model(g, d, v, "per_neighbor", Hyperparams.uniform(3), 1.0,
                          ExponentialDelay(1.0), window)
    for k in (0, 1, 4):
        args = (model, d, d.node_ids == v, window, 0.5, k, 0.0)
        calls[:] = []
        _, trace, _ = graphs._fit_per_neighbor(*args)
        assert len(trace) == k + 1 and len(calls) == k + 1
        calls[:] = []
        two_estep_per_neighbor(*args[:4], g.incoming[v], *args[4:])
        assert len(calls) == 2 * k + 1
