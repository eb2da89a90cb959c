import csv
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascades import (CascadeModel, CategoricalMatrix, ConfigError,
                      ConstantFertility, ExponentialDelay, GammaDelay,
                      HomogeneousBaseline, IdentityTransition, KernelComponent,
                      LabelMarginal, PeriodicBaseline, simulate_graph,
                      write_events, write_graph)
from cascades.cli import main
from cascades.config import (parse_em_options, parse_graph_options,
                             parse_model, serialize_model)
from cascades.delays import ExpMixtureDelay, PiecewiseUniformDelay, UniformDelay
from cascades.fertility import (CombinedFertility, LinearFertility,
                                MultiplicativeFertility)
from cascades.transitions import FeatureMixture, FeaturePrior, PriorTransition

LABEL_MODEL_CONF = {
    "baseline": {"kind": "homogeneous", "rate": 0.8,
                 "mark": {"kind": "labels", "probs": [0.5, 0.3, 0.2]}},
    "components": [
        {"name": "k",
         "fertility": {"kind": "constant", "rate": 0.5},
         "transition": {"kind": "categorical",
                        "matrix": [[0.6, 0.2, 0.2], [0.2, 0.6, 0.2],
                                   [0.2, 0.2, 0.6]]},
         "delay": {"kind": "exponential", "rate": 1.0}}],
}


def rich_model():
    return CascadeModel(
        PeriodicBaseline(24.0, (0.5, 1.5, 0.2), FeaturePrior((0.7, 0.2))),
        (KernelComponent(
            "a",
            CombinedFertility((LinearFertility(0.1, (0.2, 0.3)),
                               MultiplicativeFertility((0.4, 1.2, 0.8)))),
            FeatureMixture(0.3, FeaturePrior((0.6, 0.4))),
            ExpMixtureDelay((0.7, 0.3), (2.0, 0.1))),
         KernelComponent(
            "b", ConstantFertility(0.2), IdentityTransition(),
            PiecewiseUniformDelay((0.0, 1.0, 5.0), (0.8, 0.2)),
            delay_group="g1"),
         KernelComponent(
            "c", ConstantFertility(0.1),
            PriorTransition(FeaturePrior((0.5, 0.5))),
            UniformDelay(3.0)),
         KernelComponent(
            "d", ConstantFertility(0.1), IdentityTransition(),
            GammaDelay(2.0, 1.5), delay_group="g2")),
        normalization=False, truncation_mass=1e-7)


def test_model_round_trip_through_config():
    model = rich_model()
    blob = serialize_model(model)
    json.dumps(blob)  # must be plain JSON data
    back = parse_model(blob)
    assert back == model


def test_parse_model_rejects_unknown_keys():
    conf = json.loads(json.dumps(LABEL_MODEL_CONF))
    conf["componentz"] = []
    with pytest.raises(ConfigError, match="componentz"):
        parse_model(conf)
    conf = json.loads(json.dumps(LABEL_MODEL_CONF))
    conf["components"][0]["delay"]["rte"] = 1.0
    with pytest.raises(ConfigError, match="delay"):
        parse_model(conf)
    conf = json.loads(json.dumps(LABEL_MODEL_CONF))
    conf["baseline"]["kind"] = "weekly"
    with pytest.raises(ConfigError, match="weekly"):
        parse_model(conf)


def test_empirical_mark_needs_data():
    conf = {"baseline": {"kind": "homogeneous", "rate": 1.0,
                         "mark": {"kind": "empirical"}}}
    with pytest.raises(ConfigError, match="empirical"):
        parse_model(conf)


def test_em_and_graph_option_parsing():
    opts = parse_em_options({"max_iters": 7, "tol": 1e-4, "engine": "direct"})
    assert (opts.max_iters, opts.tol, opts.engine) == (7, 1e-4, "direct")
    assert parse_em_options(None).max_iters == 50
    with pytest.raises(ConfigError, match="engine"):
        parse_em_options({"engine": "warp"})
    g = parse_graph_options({"variant": "per_neighbor", "rounds": 3,
                             "strength_grid": [1.0, 2.0],
                             "delay": {"kind": "exponential", "rate": 2.0}})
    assert g.variant == "per_neighbor" and g.rounds == 3
    assert g.delay == ExponentialDelay(2.0)
    with pytest.raises(ConfigError):
        parse_graph_options({"variant": "bogus"})


@pytest.mark.parametrize("field, value", [
    ("max_iters", -1), ("tol", -1), ("strength_grid", [-5]), ("pool_grid", [2.0]),
    ("pool_grid", []), ("val_fraction", 1.5), ("strength_grid", [1, 1, 10]),
    ("pool_grid", [0.5, 0.5])])
def test_graph_options_reject_out_of_range_values(field, value):
    with pytest.raises(ConfigError, match=f"^graph_fit.{field}: "):
        parse_graph_options({field: value})


def _write(path, obj):
    path.write_text(json.dumps(obj, indent=1))
    return str(path)


def test_cli_simulate_fit_compare_round_trip(tmp_path, capsys):
    sim_conf = _write(tmp_path / "sim.json",
                      {"model": LABEL_MODEL_CONF, "horizon": 120.0})
    out_sim = tmp_path / "sim_out"
    assert main(["simulate", "--config", sim_conf, "--out", str(out_sim),
                 "--seed", "11"]) == 0
    assert (out_sim / "events.jsonl").exists()
    assert (out_sim / "forest.jsonl").exists()
    said = capsys.readouterr().out
    assert "events" in said

    fit_conf = _write(tmp_path / "fit.json",
                      {"model": LABEL_MODEL_CONF,
                       "em": {"max_iters": 8, "tol": 1e-5},
                       "split": 0.75})
    out_fit = tmp_path / "fit_out"
    assert main(["fit", "--config", fit_conf,
                 "--data", str(out_sim / "events.jsonl"),
                 "--out", str(out_fit)]) == 0
    for name in ("model.json", "trace.csv", "summary.json"):
        assert (out_fit / name).exists(), name
    summary = json.loads((out_fit / "summary.json").read_text())
    assert summary["train_ll"] >= summary["initial_ll"]
    assert "test_ll" in summary
    fitted = parse_model(json.loads((out_fit / "model.json").read_text()))
    assert isinstance(fitted, CascadeModel)
    trace = (out_fit / "trace.csv").read_text().splitlines()
    assert trace[0].startswith("iteration,log_likelihood")
    assert len(trace) >= 3
    # per-component transition tables come out as CSV as well
    assert (out_fit / "transition_k.csv").exists()
    assert (out_fit / "transition_k_logratio.csv").exists()

    cmp_conf = _write(
        tmp_path / "cmp.json",
        {"models": {"full": LABEL_MODEL_CONF,
                    "baseline_only": {"baseline": LABEL_MODEL_CONF["baseline"]}},
         "em": {"max_iters": 5}, "split": 0.75})
    out_cmp = tmp_path / "cmp_out"
    assert main(["compare", "--config", cmp_conf,
                 "--data", str(out_sim / "events.jsonl"),
                 "--out", str(out_cmp)]) == 0
    table = (out_cmp / "compare.csv").read_text().splitlines()
    assert table[0].startswith("model,")
    assert len(table) == 3
    assert (out_cmp / "model_full.json").exists()
    assert (out_cmp / "model_baseline_only.json").exists()


def test_cli_reports_the_engine(tmp_path):
    sim_conf = _write(tmp_path / "sim.json", {"model": LABEL_MODEL_CONF, "horizon": 60.0})
    assert main(["simulate", "--config", sim_conf, "--out", str(tmp_path / "sim"),
                 "--seed", "3"]) == 0
    data = str(tmp_path / "sim" / "events.jsonl")
    gamma = json.loads(json.dumps(LABEL_MODEL_CONF))
    gamma["components"][0]["delay"] = {"kind": "gamma", "shape": 2.0, "rate": 2.0}
    for engine, model in (("auto", LABEL_MODEL_CONF), ("direct", LABEL_MODEL_CONF)):
        conf = _write(tmp_path / f"fit_{engine}.json",
                      {"model": model, "em": {"max_iters": 2, "engine": engine},
                       "split": 0.75})
        assert main(["fit", "--config", conf, "--data", data,
                     "--out", str(tmp_path / engine)]) == 0
    summaries = {engine: json.loads((tmp_path / engine / "summary.json").read_text())
                 for engine in ("auto", "direct")}
    assert summaries["auto"]["engine"] == "fast"
    assert summaries["direct"]["engine"] == "direct"
    conf = _write(tmp_path / "cmp.json",
                  {"models": {"exp": LABEL_MODEL_CONF, "gamma": gamma},
                   "em": {"max_iters": 2}, "split": 0.75})
    assert main(["compare", "--config", conf, "--data", data,
                 "--out", str(tmp_path / "cmp")]) == 0
    with open(tmp_path / "cmp" / "compare.csv", newline="") as fh:
        rows = {row["model"]: row for row in csv.DictReader(fh)}
    assert {name: row["engine"] for name, row in rows.items()} == {
        "exp": "fast", "gamma": "direct"}
    assert float(rows["exp"]["train_ll"]) == summaries["auto"]["train_ll"]


def test_cli_simulate_is_byte_deterministic(tmp_path):
    conf = _write(tmp_path / "sim.json",
                  {"model": LABEL_MODEL_CONF, "horizon": 60.0})
    outs = []
    for name in ("o1", "o2"):
        out = tmp_path / name
        assert main(["simulate", "--config", conf, "--out", str(out),
                     "--seed", "3"]) == 0
        outs.append(out)
    for fname in ("events.jsonl", "forest.jsonl"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()
    leftovers = list(outs[0].glob("*.tmp"))
    assert leftovers == []


def test_cli_graph_fit(tmp_path, capsys):
    from cascades import Graph
    g = Graph(["a", "b", "c"], {"a": ["b"], "b": ["c"], "c": ["a"]})
    trans = CategoricalMatrix(((0.7, 0.3), (0.4, 0.6)))
    d, _ = simulate_graph(g, 50.0, 7, type_marginal=(0.6, 0.4), base_rate=0.3,
                          self_rate=0.2, neighbor_rate=0.2, transition=trans,
                          delay=ExponentialDelay(1.0))
    events = tmp_path / "events.jsonl"
    graph_file = tmp_path / "graph.jsonl"
    write_events(d, events)
    write_graph(g, graph_file)
    conf = _write(tmp_path / "gf.json",
                  {"graph_fit": {"variant": "shared_transition", "rounds": 1,
                                 "strength_grid": [1.0, 10.0], "max_iters": 3,
                                 "tol": 1e-4},
                   "split": 0.8})
    out = tmp_path / "gf_out"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(["graph-fit", "--config", conf, "--data", str(events),
                     "--graph", str(graph_file), "--out", str(out)])
    assert code == 0
    blob = json.loads((out / "graph_fit.json").read_text())
    assert blob["variant"] == "shared_transition"
    assert set(blob["models"]) == {"a", "b", "c"}
    assert blob["strength"] in (1.0, 10.0)
    assert "test_ll" in blob and "val_ll" in blob
    rounds = (out / "rounds.csv").read_text().splitlines()
    assert rounds[0].startswith("round,")
    assert len(rounds) >= 2
    for v in ("a", "b", "c"):
        parse_model(blob["models"][v])  # stored models re-parse cleanly


def test_cli_graph_fit_worker_equivalence(tmp_path):
    from cascades import Graph
    g = Graph(["a", "b"], {"a": ["b"], "b": ["a"]})
    trans = CategoricalMatrix(((0.7, 0.3), (0.4, 0.6)))
    d, _ = simulate_graph(g, 40.0, 8, type_marginal=(0.6, 0.4), base_rate=0.3,
                          self_rate=0.2, neighbor_rate=0.2, transition=trans,
                          delay=ExponentialDelay(1.0))
    events = tmp_path / "events.jsonl"
    graph_file = tmp_path / "graph.jsonl"
    write_events(d, events)
    write_graph(g, graph_file)
    conf = _write(tmp_path / "gf.json",
                  {"graph_fit": {"variant": "no_neighbors", "rounds": 1,
                                 "strength_grid": [1.0], "max_iters": 3,
                                 "tol": 1e-4}})
    blobs = []
    for workers, name in ((1, "w1"), (3, "w3")):
        out = tmp_path / name
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["graph-fit", "--config", conf, "--data", str(events),
                         "--graph", str(graph_file), "--out", str(out),
                         "--workers", str(workers)]) == 0
        blobs.append((out / "graph_fit.json").read_bytes())
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_cli_graph_fit_rejects_worker_counts_below_one(tmp_path, capsys, workers):
    from cascades import Graph
    g = Graph(["a", "b"], {"a": ["b"]})
    d, _ = simulate_graph(g, 20.0, 8, type_marginal=(0.6, 0.4), base_rate=0.3,
                          self_rate=0.2, neighbor_rate=0.2,
                          transition=CategoricalMatrix(((0.7, 0.3), (0.4, 0.6))),
                          delay=ExponentialDelay(1.0))
    write_events(d, tmp_path / "events.jsonl")
    write_graph(g, tmp_path / "graph.jsonl")
    assert main(["graph-fit", "--data", str(tmp_path / "events.jsonl"),
                 "--graph", str(tmp_path / "graph.jsonl"),
                 "--out", str(tmp_path / "out"), "--workers", workers]) == 2
    assert "--workers" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_exit_codes(tmp_path, capsys):
    conf = _write(tmp_path / "sim.json", {"model": LABEL_MODEL_CONF})
    # missing data file -> data error
    fit_conf = _write(tmp_path / "fit.json", {"model": LABEL_MODEL_CONF})
    assert main(["fit", "--config", fit_conf, "--data",
                 str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "x")]) == 3
    assert "nope.jsonl" in capsys.readouterr().err

    # malformed config -> config error
    bad = tmp_path / "bad.json"
    bad.write_text("{\"model\": {\"baselin\": {}}}")
    assert main(["simulate", "--config", str(bad), "--out",
                 str(tmp_path / "y"), "--seed", "1"]) == 2
    assert "baselin" in capsys.readouterr().err

    # numerical failure (zero intensity everywhere) -> numerics error
    sim_out = tmp_path / "sim_out"
    assert main(["simulate", "--config", conf, "--out", str(sim_out),
                 "--seed", "2", "--horizon", "30"]) == 0
    capsys.readouterr()
    dead = {"baseline": {"kind": "homogeneous", "rate": 0.0,
                         "mark": {"kind": "labels", "probs": [0.5, 0.3, 0.2]}}}
    dead_conf = _write(tmp_path / "dead.json", {"model": dead})
    assert main(["fit", "--config", dead_conf,
                 "--data", str(sim_out / "events.jsonl"),
                 "--out", str(tmp_path / "z")]) == 4
    assert "intensity" in capsys.readouterr().err


def test_cli_simulate_exits_2_on_a_negative_seed(tmp_path, capsys):
    conf = _write(tmp_path / "sim.json", {"model": LABEL_MODEL_CONF, "horizon": 10.0})
    assert main(["simulate", "--config", conf, "--out", str(tmp_path / "out"),
                 "--seed", "-1"]) == 2
    assert "seed must be a nonnegative integer, got -1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_simulate_exits_4_on_a_huge_offspring_count(tmp_path, capsys):
    huge = dict(LABEL_MODEL_CONF, components=[
        dict(LABEL_MODEL_CONF["components"][0], fertility={"kind": "constant", "rate": 1e12})])
    conf = _write(tmp_path / "sim.json", {"model": huge, "horizon": 10.0})
    assert main(["simulate", "--config", conf, "--out", str(tmp_path / "out"),
                 "--seed", "1"]) == 4
    assert "children" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_rejects_unknown_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_fit_takes_the_test_ll_from_the_heldout_trace(monkeypatch):
    from cascades import Dataset, engine, simulate
    from cascades.cli import _fit_one
    from cascades.config import EmOptions
    from cascades.events import split
    exp_model = parse_model(LABEL_MODEL_CONF, "model")
    gamma_conf = dict(LABEL_MODEL_CONF, components=[
        dict(LABEL_MODEL_CONF["components"][0],
             delay={"kind": "gamma", "shape": 2.0, "rate": 1.5})])
    d, _ = simulate(exp_model, 100.0, seed=5)
    train, test = split(d, 0.75)
    scored = []
    log_likelihood = engine.log_likelihood
    monkeypatch.setattr(engine, "log_likelihood",
                        lambda *args, **kw: scored.append(1) or log_likelihood(*args, **kw))
    merged = test.merge_history(train)
    for model in (exp_model, parse_model(gamma_conf, "model")):
        for name in ("auto", "direct"):
            opts = EmOptions(max_iters=4, tol=0.0, engine=name)
            report, test_ll = _fit_one(model, train, test, merged, opts, trace=True)
            assert scored == []
            assert test_ll == log_likelihood(report.model, test, history=train)
            # compare's path scores the fitted model once, to the same rows
            once, once_ll = _fit_one(model, train, test, merged, opts, trace=False)
            assert once.heldout_trace is None and scored == []
            assert once_ll == test_ll and once.ll_trace[-1] == report.ll_trace[-1]
    # a present but empty test split is still scored on its own
    empty = Dataset([], d.horizon, d.schema, start=d.horizon)
    for trace in (True, False):
        report, test_ll = _fit_one(exp_model, train, empty, None, EmOptions(max_iters=2),
                                   trace=trace)
        assert report.heldout_trace is None
        assert test_ll == log_likelihood(report.model, empty, history=train)
    assert scored == [1, 1]


@pytest.mark.parametrize("parse, where, field, value", [
    (parse_em_options, "em", "max_iters", "x"),
    (parse_em_options, "em", "max_iters", 2.7),
    (parse_em_options, "em", "max_iters", True),
    (parse_em_options, "em", "tol", "abc"),
    (parse_em_options, "em", "tol", False),
    (parse_graph_options, "graph_fit", "rounds", "two"),
    (parse_graph_options, "graph_fit", "rounds", 2.7),
    (parse_graph_options, "graph_fit", "rounds", True),
    (parse_graph_options, "graph_fit", "max_iters", 2.5),
    (parse_graph_options, "graph_fit", "strength_grid", 5),
    (parse_graph_options, "graph_fit", "pool_grid", ["a"]),
    (parse_graph_options, "graph_fit", "val_fraction", "half"),
    (parse_graph_options, "graph_fit", "tol", None)])
def test_run_options_reject_malformed_values(parse, where, field, value):
    with pytest.raises(ConfigError, match=f"^{where}.{field}: expected "):
        parse({field: value})


def test_run_option_defaults_come_from_the_dataclasses_and_graphs():
    from cascades import config, graphs
    assert parse_em_options({}) == parse_em_options(None) == config.EmOptions()
    assert parse_graph_options({}) == parse_graph_options(None) == config.GraphOptions()
    assert config.GraphOptions().strength_grid is graphs.STRENGTH_GRID
    assert config.GraphOptions().pool_grid is graphs.POOL_GRID
    assert not hasattr(config, "graph_variants")
    g = parse_graph_options({"rounds": 3, "max_iters": 0, "pool_grid": [1]})
    assert (g.rounds, g.max_iters, g.pool_grid) == (3, 0, (1.0,))
    assert type(g.rounds) is int and type(g.pool_grid[0]) is float


@pytest.mark.parametrize("section, field, value", [
    ("em", "max_iters", "x"), ("em", "tol", "abc"), ("em", "max_iters", 2.7),
    ("em", "max_iters", True)])
def test_cli_exits_2_on_malformed_em_options(tmp_path, capsys, section, field, value):
    data = tmp_path / "e.jsonl"
    data.write_text('{"T": 2.0, "schema": {"labels": 3}}\n{"t": 1.0, "label": 1}\n')
    conf = _write(tmp_path / "fit.json", {"model": LABEL_MODEL_CONF, section: {field: value}})
    assert main(["fit", "--config", conf, "--data", str(data),
                 "--out", str(tmp_path / "o")]) == 2
    assert f"{section}.{field}" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["-1", "nan"])
def test_cli_fit_exits_2_on_a_negative_or_nan_tol(tmp_path, capsys, tol):
    # --tol overrides the config after its checks, so fit checks it
    data = tmp_path / "e.jsonl"
    data.write_text(_DATA)
    conf = _write(tmp_path / "fit.json", {"model": LABEL_MODEL_CONF})
    out = tmp_path / "o"
    assert main(["fit", "--config", conf, "--data", str(data), "--out", str(out),
                 "--tol", tol]) == 2
    assert "tol must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field, value", [("rounds", "two"), ("strength_grid", 5)])
def test_cli_graph_fit_exits_2_on_malformed_options(tmp_path, capsys, field, value):
    conf = _write(tmp_path / "gf.json", {"graph_fit": {field: value}})
    assert main(["graph-fit", "--config", conf, "--data", str(tmp_path / "none.jsonl"),
                 "--graph", str(tmp_path / "none.jsonl"), "--out", str(tmp_path / "o")]) == 2
    assert f"graph_fit.{field}" in capsys.readouterr().err


def test_compare_merges_the_test_history_once(tmp_path, monkeypatch):
    from cascades import Dataset, engine
    sim_conf = _write(tmp_path / "sim.json", {"model": LABEL_MODEL_CONF, "horizon": 40.0})
    assert main(["simulate", "--config", sim_conf, "--out", str(tmp_path / "s"),
                 "--seed", "3"]) == 0
    cmp_conf = _write(tmp_path / "cmp.json", {
        "models": {"full": LABEL_MODEL_CONF,
                   "baseline_only": {"baseline": LABEL_MODEL_CONF["baseline"]}},
        "em": {"max_iters": 2}, "split": 0.75})
    merges = []
    merge = Dataset.merge_history
    monkeypatch.setattr(Dataset, "merge_history",
                        lambda self, h: merges.append(merge(self, h)) or merges[-1])
    # and scores each fitted model's test window once: one E-step per model
    # on the merged dataset, however many EM iterations the fit takes
    scored = []
    evaluate = engine._evaluate

    def counting(model, scope, *args, **kw):
        if merges and scope.d is merges[0]:
            scored.append(model)
        return evaluate(model, scope, *args, **kw)

    monkeypatch.setattr(engine, "_evaluate", counting)
    assert main(["compare", "--config", cmp_conf, "--data", str(tmp_path / "s/events.jsonl"),
                 "--out", str(tmp_path / "c")]) == 0
    assert len(merges) == 1
    assert len(scored) == 2


# ---------------------------------------------------------------------------
# the spec codec against the per-family writers it replaced


def _oracle_mark_dist(dist):
    if isinstance(dist, FeaturePrior):
        return {"kind": "features", "probs": list(dist.probs)}
    return {"kind": "labels", "probs": list(dist.probs)}


def _oracle_delay(spec):
    if isinstance(spec, ExponentialDelay):
        return {"kind": "exponential", "rate": spec.rate}
    if isinstance(spec, GammaDelay):
        return {"kind": "gamma", "shape": spec.shape, "rate": spec.rate}
    if isinstance(spec, UniformDelay):
        return {"kind": "uniform", "width": spec.width}
    if isinstance(spec, PiecewiseUniformDelay):
        return {"kind": "piecewise_uniform", "edges": list(spec.edges),
                "probs": list(spec.probs)}
    return {"kind": "exp_mixture", "weights": list(spec.weights),
            "rates": list(spec.rates)}


def _oracle_fertility(spec):
    if isinstance(spec, ConstantFertility):
        return {"kind": "constant", "rate": spec.rate}
    if isinstance(spec, LinearFertility):
        return {"kind": "linear", "bias": spec.bias, "slopes": list(spec.slopes)}
    if isinstance(spec, MultiplicativeFertility):
        return {"kind": "multiplicative", "weights": list(spec.weights)}
    return {"kind": "combined",
            "terms": [_oracle_fertility(t) for t in spec.terms]}


def _oracle_transition(spec):
    if isinstance(spec, IdentityTransition):
        return {"kind": "identity"}
    if isinstance(spec, PriorTransition):
        return {"kind": "prior", "mark": _oracle_mark_dist(spec.mark)}
    if isinstance(spec, FeatureMixture):
        return {"kind": "feature_mixture", "resample_prob": spec.resample_prob,
                "prior": _oracle_mark_dist(spec.prior)}
    direction = spec.prior_direction
    if direction is not None and isinstance(direction[0], tuple):
        direction = [list(r) for r in direction]
    elif direction is not None:
        direction = list(direction)
    return {"kind": "categorical", "matrix": [list(r) for r in spec.matrix],
            "prior_direction": direction, "prior_strength": spec.prior_strength}


def _oracle_baseline(baseline):
    if isinstance(baseline, HomogeneousBaseline):
        return {"kind": "homogeneous", "rate": baseline.rate,
                "mark": _oracle_mark_dist(baseline.mark)}
    return {"kind": "periodic", "period": baseline.period,
            "rates": list(baseline.rates),
            "mark": _oracle_mark_dist(baseline.mark)}


def _oracle_component(comp):
    out = {"name": comp.name,
           "fertility": _oracle_fertility(comp.fertility),
           "transition": _oracle_transition(comp.transition),
           "delay": _oracle_delay(comp.delay)}
    if comp.sources is not None:
        out["sources"] = list(comp.sources)
    if comp.transition_group is not None:
        out["transition_group"] = comp.transition_group
    if comp.delay_group is not None:
        out["delay_group"] = comp.delay_group
    return out


def _oracle_model(model):
    return {"baseline": _oracle_baseline(model.baseline),
            "components": [_oracle_component(c) for c in model.components],
            "normalization": model.normalization,
            "truncation_mass": model.truncation_mass}


_pos = st.floats(0.01, 50.0)
_unit = st.floats(0.0, 1.0)


def _simplex(n):
    return st.lists(_pos, min_size=n, max_size=n).map(
        lambda xs: tuple((np.asarray(xs) / sum(xs)).tolist()))


def _mark_dists(width):
    return st.one_of(st.lists(_unit, min_size=width, max_size=width).map(
        lambda ps: FeaturePrior(tuple(ps))), _simplex(width).map(LabelMarginal))


_widths = st.integers(1, 4)
_delays = st.one_of(
    _pos.map(ExponentialDelay),
    st.builds(GammaDelay, _pos, _pos),
    _pos.map(UniformDelay),
    _widths.flatmap(lambda k: st.builds(
        PiecewiseUniformDelay,
        st.lists(_pos, min_size=k, max_size=k).map(
            lambda gaps: (0.0,) + tuple(np.cumsum(gaps).tolist())),
        _simplex(k))),
    _widths.flatmap(lambda k: st.builds(
        ExpMixtureDelay, _simplex(k), st.lists(_pos, min_size=k, max_size=k).map(tuple))))
_terms = st.one_of(
    _pos.map(ConstantFertility),
    st.builds(LinearFertility, _pos, st.lists(_pos, max_size=4).map(tuple)),
    st.lists(_pos, min_size=1, max_size=5).map(lambda w: MultiplicativeFertility(tuple(w))))
_fertilities = st.one_of(
    _terms, st.lists(_terms, min_size=1, max_size=3).map(
        lambda ts: CombinedFertility(tuple(ts))))
# (matrix, direction, strength); a positive strength needs a direction
_directions = _widths.flatmap(lambda k: st.tuples(
    st.lists(_simplex(k), min_size=k, max_size=k).map(tuple),
    st.one_of(st.none(), _simplex(k),
              st.lists(_simplex(k), min_size=k, max_size=k).map(tuple)),
    st.floats(0.0, 20.0)).map(lambda a: a if a[1] is not None else (a[0], None, 0.0)))
_transitions = st.one_of(
    st.just(IdentityTransition()),
    _widths.flatmap(_mark_dists).map(PriorTransition),
    st.builds(FeatureMixture, _unit, _widths.flatmap(
        lambda k: st.lists(_unit, min_size=k, max_size=k)).map(
            lambda ps: FeaturePrior(tuple(ps)))),
    _directions.map(lambda args: CategoricalMatrix(*args)))
_names = st.text("abc", min_size=1, max_size=3)
_components = st.builds(
    KernelComponent, _names, _fertilities, _transitions, _delays,
    st.one_of(st.none(), st.lists(_names, max_size=2).map(tuple)),
    st.one_of(st.none(), _names), st.one_of(st.none(), _names))
_baselines = _widths.flatmap(lambda k: st.one_of(
    st.builds(HomogeneousBaseline, _pos, _mark_dists(k)),
    st.builds(PeriodicBaseline, _pos, st.lists(_pos, min_size=1, max_size=4).map(tuple),
              _mark_dists(k))))
_models = st.builds(CascadeModel, _baselines, st.lists(_components, max_size=3).map(tuple),
                    st.booleans(), st.floats(0.0, 1e-3))


@settings(max_examples=300, deadline=None)
@given(_models)
def test_codec_writes_the_old_bytes_and_reads_them_back(model):
    blob = serialize_model(model)
    assert json.dumps(blob) == json.dumps(_oracle_model(model))
    assert parse_model(json.loads(json.dumps(blob))) == model


def test_every_spec_class_has_a_unique_kind():
    import typing

    import cascades
    from cascades.engine import BaselineSpec
    from cascades.transitions import MarkDistribution
    specs = [cls for alias in (cascades.DelaySpec, cascades.FertilitySpec,
                               cascades.TransitionSpec, MarkDistribution, BaselineSpec)
             for cls in typing.get_args(alias)]
    assert len(specs) == 17
    assert all(getattr(cascades, cls.__name__) is cls for cls in specs)
    kinds = [cls.kind for cls in specs]
    assert all(isinstance(k, str) for k in kinds) and len(set(kinds)) == len(kinds)


def _component(**parts):
    return {"baseline": LABEL_MODEL_CONF["baseline"],
            "components": [dict(LABEL_MODEL_CONF["components"][0], **parts)]}


@pytest.mark.parametrize("parts, where", [
    ({"fertility": {"kind": "exponential", "rate": 1.0}}, "components[0].fertility"),
    ({"transition": {"kind": "feature_mixture", "resample_prob": 0.3,
                     "prior": {"kind": "labels", "probs": [0.5, 0.5]}}},
     "components[0].transition.prior"),
    ({"fertility": {"kind": "combined", "terms": [
        {"kind": "combined", "terms": [{"kind": "constant", "rate": 0.1}]}]}},
     "components[0].fertility.terms[0]"),
])
def test_specs_of_the_wrong_family_name_their_path(parts, where):
    with pytest.raises(ConfigError, match=re.escape(f"model.{where}: unknown kind")):
        parse_model(_component(**parts))


_DATA = '{"T": 2.0, "schema": {"labels": 3}}\n{"t": 1.0, "label": 1}\n'


def _transition(**fields):
    return {"model": _component(transition=dict(
        LABEL_MODEL_CONF["components"][0]["transition"], **fields))}


@pytest.mark.parametrize("command, conf, where", [
    ("simulate", {"model": LABEL_MODEL_CONF, "horizon": "abc"}, "horizon"),
    ("simulate", {"model": LABEL_MODEL_CONF, "horizon": True}, "horizon"),
    ("fit", {"model": LABEL_MODEL_CONF, "split": "half"}, "split"),
    ("fit", {"model": LABEL_MODEL_CONF, "split": [0.5]}, "split"),
    ("fit", {"model": LABEL_MODEL_CONF, "split": False}, "split"),
    ("fit", {"model": LABEL_MODEL_CONF, "split": 1.5}, "split: must lie strictly between"),
    ("fit", {"model": LABEL_MODEL_CONF, "split": 0}, "split: must lie strictly between"),
    ("fit", {"model": LABEL_MODEL_CONF, "split": float("nan")}, "split: must lie strictly"),
    ("fit", _transition(matrix=[["a"]]), "model.components[0].transition.matrix"),
    ("fit", _transition(matrix=[[True]]), "model.components[0].transition.matrix"),
    ("fit", _transition(prior_direction=["x"]),
     "model.components[0].transition.prior_direction"),
    ("fit", _transition(prior_direction=[[True]]),
     "model.components[0].transition.prior_direction"),
    ("fit", _transition(prior_strength=True),
     "model.components[0].transition.prior_strength"),
    # json writes and reads the NaN literal
    ("fit", _transition(matrix=[[float("nan"), 0.5, 0.5]] * 3),
     "model.components[0].transition: transition matrix rows must be distributions"),
    ("simulate", {"model": dict(LABEL_MODEL_CONF, baseline=dict(
        LABEL_MODEL_CONF["baseline"], mark={"kind": "labels", "probs": [float("nan"), 1.0, 0.0]})),
        "horizon": 5.0},
     "model.baseline.mark: label marginal probabilities must be finite"),
    ("fit", _transition(prior_strength=5.0), "model.components[0].transition: a positive"),
])
def test_cli_exits_2_naming_malformed_numbers(tmp_path, capsys, command, conf, where):
    data = tmp_path / "e.jsonl"
    data.write_text(_DATA)
    path = _write(tmp_path / "conf.json", conf)
    args = ["--data", str(data)] if command == "fit" else ["--seed", "1"]
    assert main([command, "--config", path, "--out", str(tmp_path / "o")] + args) == 2
    assert where in capsys.readouterr().err


def test_fit_exits_2_when_two_components_share_a_transition_file(tmp_path, capsys):
    # "x:y" and "x_y" both map to transition_x_y.csv, where the last would win
    data = tmp_path / "e.jsonl"
    data.write_text(_DATA)
    comp = LABEL_MODEL_CONF["components"][0]
    conf = dict(LABEL_MODEL_CONF, components=[dict(comp, name="x:y"), dict(comp, name="x_y")])
    path = _write(tmp_path / "conf.json", {"model": conf})
    out = tmp_path / "o"
    assert main(["fit", "--config", path, "--data", str(data), "--out", str(out)]) == 2
    assert ("components 'x:y' and 'x_y' would both write transition_x_y.csv"
            in capsys.readouterr().err)
    assert not out.exists()  # refused before fitting
    # names that stay apart still fit and write one file pair each
    conf["components"][1]["name"] = "x_z"
    path = _write(tmp_path / "conf.json", {"model": conf})
    assert main(["fit", "--config", path, "--data", str(data), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.glob("transition_*")) == [
        "transition_x_y.csv", "transition_x_y_logratio.csv",
        "transition_x_z.csv", "transition_x_z_logratio.csv"]


def test_compare_exits_2_when_two_models_share_a_model_file(tmp_path, capsys):
    # "a/b" and "a_b" both map to model_a_b.json, where the last would win
    data = tmp_path / "e.jsonl"
    data.write_text(_DATA)
    conf = {"models": {"a/b": LABEL_MODEL_CONF, "a_b": LABEL_MODEL_CONF}}
    out = tmp_path / "o"
    path = _write(tmp_path / "conf.json", conf)
    assert main(["compare", "--config", path, "--data", str(data), "--out", str(out)]) == 2
    assert "models 'a/b' and 'a_b' would both write model_a_b.json" in capsys.readouterr().err
    assert not out.exists()  # refused before fitting
    # names that stay apart still fit and write one file each
    conf["models"]["a_c"] = conf["models"].pop("a_b")
    path = _write(tmp_path / "conf.json", conf)
    assert main(["compare", "--config", path, "--data", str(data), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.glob("model_*")) == ["model_a_b.json", "model_a_c.json"]


def _baseline(**fields):
    return {"baseline": dict(LABEL_MODEL_CONF["baseline"], **fields),
            "components": LABEL_MODEL_CONF["components"]}


@pytest.mark.parametrize("conf, where", [
    (_baseline(rate=10 ** 400), "model.baseline.rate"),
    (_baseline(mark={"kind": "labels", "probs": [0.5, 10 ** 400, 0.2]}),
     "model.baseline.mark.probs[1]"),
    (_transition(matrix=[[0.6, 0.2, 10 ** 400]] * 3)["model"],
     "model.components[0].transition.matrix[0][2]"),
])
def test_cli_exits_2_on_integers_past_the_float_range(tmp_path, capsys, conf, where):
    # float() of such a JSON integer raises OverflowError, not ValueError
    data = tmp_path / "e.jsonl"
    data.write_text(_DATA)
    path = _write(tmp_path / "conf.json", {"model": conf})
    assert main(["fit", "--config", path, "--data", str(data),
                 "--out", str(tmp_path / "o")]) == 2
    assert f"{where}: number out of floating-point range" in capsys.readouterr().err


@pytest.mark.parametrize("mass", [1.0, 5.0, float("inf")])
def test_cli_fit_exits_2_on_a_truncation_mass_of_1_or_more(tmp_path, capsys, mass):
    # at such a mass no parent enters any E-step, while the compensator
    # still charges every kernel's full mass
    data = tmp_path / "e.jsonl"
    data.write_text(_DATA)
    path = _write(tmp_path / "conf.json",
                  {"model": dict(LABEL_MODEL_CONF, truncation_mass=mass)})
    assert main(["fit", "--config", path, "--data", str(data),
                 "--out", str(tmp_path / "o")]) == 2
    assert "model: truncation mass must be below 1" in capsys.readouterr().err


@pytest.mark.parametrize("conf, message", [
    (_baseline(rate="x"), "model.baseline.rate: expected a number, got 'x'"),
    (_baseline(rate=-1.0), "model.baseline: baseline rate must be finite and nonnegative"),
    (_component(delay={"kind": "gamma", "shape": 0.0, "rate": 1.0}),
     "model.components[0].delay: gamma shape must be positive and finite, got 0.0"),
    (dict(LABEL_MODEL_CONF, truncation_mass=-1.0),
     "model: truncation mass must be nonnegative"),
    (dict(LABEL_MODEL_CONF, truncation_mass=float("nan")),
     "model: truncation mass must be nonnegative"),
    (dict(LABEL_MODEL_CONF, truncation_mass=1.0), "model: truncation mass must be below 1"),
    (dict(LABEL_MODEL_CONF, truncation_mass=5.0), "model: truncation mass must be below 1"),
    (dict(LABEL_MODEL_CONF, truncation_mass=float("inf")),
     "model: truncation mass must be below 1"),
    (_baseline(mark={"kind": "labels", "probs": [float("nan"), 1.0, 0.0]}),
     "model.baseline.mark: label marginal probabilities must be finite and nonnegative"),
    (_transition(matrix=[[0.6, 0.2, 0.2], [float("nan"), 0.5, 0.5], [0.2, 0.2, 0.6]])["model"],
     "model.components[0].transition: transition matrix rows must be distributions"),
    (_transition(prior_direction=[0.5, 0.5], prior_strength=1.0)["model"],
     "model.components[0].transition: prior direction must be a length-L simplex "
     "or an LxL matrix"),
    (_transition(prior_direction=[0.9, 0.9, 0.9], prior_strength=1.0)["model"],
     "model.components[0].transition: prior direction rows must be distributions"),
    (_transition(prior_strength=5.0)["model"],
     "model.components[0].transition: a positive Dirichlet strength needs a prior direction"),
])
def test_config_errors_name_their_path_once(conf, message):
    with pytest.raises(ConfigError) as err:
        parse_model(conf)
    assert str(err.value) == message
