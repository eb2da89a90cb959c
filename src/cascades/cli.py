"""Command line interface.

Subcommands: simulate (draw events from a configured model), fit (EM on
one model), compare (fit several models and tabulate train/test
scores), graph-fit (per-node neighborhood models with pooled
shrinkage). Exit codes: 0 success, 2 configuration problems, 3 data
problems, 4 numerical failures.

All output files are written atomically (temp file in the same
directory, then os.replace), and floats are serialized with repr so
reruns with the same seed produce byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import replace

from . import config as cfg
from . import engine, events, graphs
from .errors import ConfigError, DataError, NumericalError
from .events import CompositeSchema, Dataset
from .simulate import simulate as run_simulation
from .simulate import write_forest
from .transitions import CategoricalMatrix, LabelMarginal, write_matrix_csv


def _atomic_write(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_json(path: str, obj) -> None:
    _atomic_write(path, json.dumps(obj, indent=2) + "\n")


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])
    _atomic_write(path, buf.getvalue())


def _load_events(path: str) -> Dataset:
    try:
        return events.ingest(path)
    except OSError as exc:
        raise DataError(f"cannot read events {path}: {exc}") from exc


def _test_ll(model: engine.CascadeModel, train: Dataset, test: Dataset | None,
             merged: Dataset | None):
    """The test LL of ``model`` fitted on train: the held-out window of
    ``merged`` (see _split_data), or an empty test split scored on its
    own with train as history; None without a split."""
    if merged is not None:
        return engine.windowed_log_likelihood(model, merged)
    if test is not None:
        return engine.log_likelihood(model, test, history=train)
    return None


def _component_shares(model: engine.CascadeModel, d: Dataset) -> list[float]:
    """Each component's mean fertility rate over d's events, as a share
    of their sum (zeros when the sum is not positive)."""
    if not model.components or not len(d):
        return [0.0 for _ in model.components]
    rows, pattern, n_patterns = d.schema.fertility_patterns(d)
    means = [float(c.fertility.rates(rows, n_patterns)[pattern].mean())
             for c in model.components]
    total = sum(means)
    if total <= 0:
        return [0.0 for _ in model.components]
    return [m / total for m in means]


def _trace_rows(report: engine.FitReport, train: Dataset, held: list[float] | None):
    """trace.csv: one row per iterate of ``report``, with its held-out LL
    from ``held`` when given, and its component shares over train and
    delay means."""
    names = [c.name for c in report.model.components]
    header = ["iteration", "log_likelihood"]
    if held is not None:
        header.append("heldout_log_likelihood")
    header.extend(f"share_{name}" for name in names)
    header.extend(f"delay_mean_{name}" for name in names)
    rows = []
    for it, (ll, m) in enumerate(zip(report.ll_trace, report.models)):
        row: list = [it, float(ll)]
        if held is not None:
            row.append(float(held[it]))
        row.extend(_component_shares(m, train))
        row.extend(float(c.delay.mean()) for c in m.components)
        rows.append(row)
    return header, rows


def _dump_transitions(model, out_dir: str | None) -> None:
    """Write fitted categorical transitions (and their log-ratio against
    the baseline marginal) as CSV, one pair of files per component. With
    ``out_dir`` None, write nothing: only raise ConfigError if two
    components would write the same files, as cmd_fit checks first."""
    named = {}
    for comp in model.components:
        if isinstance(comp.transition, CategoricalMatrix):
            safe = comp.name.replace("/", "_").replace(":", "_")
            if safe in named:
                raise ConfigError(f"components {named[safe].name!r} and {comp.name!r} "
                                  f"would both write transition_{safe}.csv")
            named[safe] = comp
    if out_dir is None:
        return
    marginal = None
    if isinstance(model.baseline.mark, LabelMarginal):
        marginal = model.baseline.mark.as_array
    for safe, comp in named.items():
        labels = [str(i + 1) for i in range(len(comp.transition.matrix))]
        path = os.path.join(out_dir, f"transition_{safe}.csv")
        ratio = os.path.join(out_dir, f"transition_{safe}_logratio.csv")
        write_matrix_csv(comp.transition.as_array, labels, path + ".tmp",
                         marginal=marginal, logratio_path=ratio + ".tmp")
        os.replace(path + ".tmp", path)
        if marginal is not None:
            os.replace(ratio + ".tmp", ratio)


def cmd_simulate(args) -> int:
    conf = cfg.load_config(args.config)
    cfg._require(conf, args.config, ("model",), ("schema", "horizon"))
    schema = None
    if "schema" in conf:
        schema = events._schema_from_header(conf["schema"], f"{args.config}: schema")
    model = cfg.parse_model(conf["model"], "model", data=None)
    horizon = args.horizon if args.horizon is not None else conf.get("horizon")
    if horizon is None:
        raise ConfigError("no horizon: pass --horizon or set it in the config")
    horizon = cfg._number(horizon, "horizon")
    d, forest = run_simulation(model, horizon, args.seed, schema=schema)
    os.makedirs(args.out, exist_ok=True)
    tmp_events = os.path.join(args.out, "events.jsonl")
    events.write_events(d, tmp_events + ".tmp")
    os.replace(tmp_events + ".tmp", tmp_events)
    tmp_forest = os.path.join(args.out, "forest.jsonl")
    write_forest(forest, tmp_forest + ".tmp")
    os.replace(tmp_forest + ".tmp", tmp_forest)
    print(f"simulated {len(d)} events ({forest.n_roots} baseline) "
          f"over (0, {horizon!r}] -> {tmp_events}")
    return 0


def _em_options(conf: dict, args) -> cfg.EmOptions:
    given = {"max_iters": args.iters, "tol": args.tol}
    return replace(cfg.parse_em_options(conf.get("em")),
                   **{key: v for key, v in given.items() if v is not None})


def _split_data(d: Dataset, args, conf: dict):
    """Train, test, and test with the train history prepended (None if empty)."""
    fraction = args.split if args.split is not None else conf.get("split")
    if fraction is None:
        return d, None, None
    fraction = cfg._number(fraction, "split")
    if not 0.0 < fraction < 1.0:  # NaN too
        raise ConfigError(f"split: must lie strictly between 0 and 1, got {fraction!r}")
    train, test = events.split(d, fraction)
    return train, test, test.merge_history(train) if len(test) else None


def cmd_fit(args) -> int:
    conf = cfg.load_config(args.config)
    cfg._require(conf, args.config, ("model",), ("em", "split"))
    d = _load_events(args.data)
    train, test, merged = _split_data(d, args, conf)
    model = cfg.parse_model(conf["model"], "model", data=train)
    _dump_transitions(model, None)
    opts = _em_options(conf, args)
    report = engine.fit(model, train, max_iters=opts.max_iters, tol=opts.tol,
                        engine=opts.engine)
    # every iterate's held-out LL; the fitted model's is the test LL
    held = None
    if merged is not None:
        held = [_test_ll(m, train, test, merged) for m in report.models]
    test_ll = held[-1] if held else _test_ll(report.model, train, test, merged)
    os.makedirs(args.out, exist_ok=True)
    _write_json(os.path.join(args.out, "model.json"),
                cfg.serialize_model(report.model))
    header, rows = _trace_rows(report, train, held)
    _write_csv(os.path.join(args.out, "trace.csv"), header, rows)
    summary = {"n_train": len(train),
               "n_test": len(test) if test is not None else None,
               "initial_ll": report.ll_trace[0],
               "train_ll": report.ll_trace[-1],
               "test_ll": test_ll,
               "iterations": report.iterations,
               "converged": report.converged,
               "engine": report.engine}
    _write_json(os.path.join(args.out, "summary.json"), summary)
    _dump_transitions(report.model, args.out)
    line = (f"fit: {report.iterations} iterations, train LL "
            f"{report.ll_trace[-1]:.4f}")
    if test_ll is not None:
        line += f", test LL {test_ll:.4f}"
    print(line)
    return 0


def cmd_compare(args) -> int:
    conf = cfg.load_config(args.config)
    cfg._require(conf, args.config, ("models",), ("em", "split"))
    models_conf = conf["models"]
    if not isinstance(models_conf, dict) or not models_conf:
        raise ConfigError("models: expected a nonempty object of named models")
    named: dict = {}  # each model's file stem, checked before any fit
    for name in models_conf:
        safe = name.replace("/", "_")
        if safe in named:
            raise ConfigError(f"models {named[safe]!r} and {name!r} would both write "
                              f"model_{safe}.json")
        named[safe] = name
    d = _load_events(args.data)
    train, test, merged = _split_data(d, args, conf)
    opts = _em_options(conf, args)
    os.makedirs(args.out, exist_ok=True)
    rows = []
    for safe, name in named.items():
        model = cfg.parse_model(models_conf[name], f"models.{name}", data=train)
        report = engine.fit(model, train, max_iters=opts.max_iters, tol=opts.tol,
                            engine=opts.engine)
        test_ll = _test_ll(report.model, train, test, merged)
        rows.append([name, float(report.ll_trace[-1]),
                     float(test_ll) if test_ll is not None else "",
                     report.iterations, report.converged, report.engine])
        _write_json(os.path.join(args.out, f"model_{safe}.json"),
                    cfg.serialize_model(report.model))
        print(f"{name}: train LL {report.ll_trace[-1]:.4f}"
              + (f", test LL {test_ll:.4f}" if test_ll is not None else ""))
    _write_csv(os.path.join(args.out, "compare.csv"),
               ["model", "train_ll", "test_ll", "iterations", "converged", "engine"], rows)
    return 0


def cmd_graph_fit(args) -> int:
    if args.workers < 1:
        raise ConfigError(f"--workers: must be at least 1, got {args.workers}")
    conf = cfg.load_config(args.config) if args.config else {}
    if conf:
        cfg._require(conf, args.config, (), ("graph_fit", "split"))
    opts = cfg.parse_graph_options(conf.get("graph_fit"))
    given = {"variant": args.variant, "rounds": args.rounds}
    opts = replace(opts, **{key: v for key, v in given.items() if v is not None})
    try:
        graph = graphs.load_graph(args.graph)
    except OSError as exc:
        raise DataError(f"cannot read graph {args.graph}: {exc}") from exc
    d = _load_events(args.data)
    if not isinstance(d.schema, CompositeSchema):
        raise DataError("graph fitting needs composite-marked events "
                        "(types plus node ids)")
    train, test, merged = _split_data(d, args, conf)
    result = graphs.fit_graph(graph, train, opts.variant, rounds=opts.rounds,
                              strength_grid=opts.strength_grid, pool_grid=opts.pool_grid,
                              val_fraction=opts.val_fraction, delay_init=opts.delay,
                              max_iters=opts.max_iters, tol=opts.tol, workers=args.workers)
    test_ll = None
    if merged is not None:
        test_ll = graphs.graph_log_likelihood(result.models, merged, graph)
    os.makedirs(args.out, exist_ok=True)
    last = result.rounds[-1]
    payload = {
        "variant": opts.variant,
        "strength": last.strength,
        "pool_weight": last.pool_weight,
        "val_ll": last.val_total,
        "test_ll": test_ll,
        "hyper": {"strength": result.hyper.strength,
                  "directions": {ctx: [list(r) for r in mat]
                                 for ctx, mat in sorted(result.hyper.directions.items())}},
        "models": {v: cfg.serialize_model(m)
                   for v, m in sorted(result.models.items())},
    }
    _write_json(os.path.join(args.out, "graph_fit.json"), payload)
    rows = []
    for rnd, rr in enumerate(result.rounds, start=1):
        for strength, pool, val in rr.val_table:
            rows.append([rnd, float(strength),
                         float(pool) if pool is not None else "",
                         float(val),
                         int(strength == rr.strength and pool == rr.pool_weight)])
    _write_csv(os.path.join(args.out, "rounds.csv"),
               ["round", "strength", "pool_weight", "val_ll", "chosen"], rows)
    line = (f"graph-fit: {len(graph)} nodes, variant {opts.variant}, "
            f"strength {last.strength}, validation LL {last.val_total:.4f}")
    if test_ll is not None:
        line += f", test LL {test_ll:.4f}"
    print(line)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cascades",
        description="Simulate and fit cascades of triggered events.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="draw events from a configured model")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--horizon", type=float, default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_fit = sub.add_parser("fit", help="fit one model with EM")
    p_fit.add_argument("--config", required=True)
    p_fit.add_argument("--data", required=True)
    p_fit.add_argument("--out", required=True)
    p_fit.add_argument("--iters", type=int, default=None)
    p_fit.add_argument("--tol", type=float, default=None)
    p_fit.add_argument("--split", type=float, default=None)
    p_fit.set_defaults(func=cmd_fit)

    p_cmp = sub.add_parser("compare", help="fit several models, tabulate scores")
    p_cmp.add_argument("--config", required=True)
    p_cmp.add_argument("--data", required=True)
    p_cmp.add_argument("--out", required=True)
    p_cmp.add_argument("--iters", type=int, default=None)
    p_cmp.add_argument("--tol", type=float, default=None)
    p_cmp.add_argument("--split", type=float, default=None)
    p_cmp.set_defaults(func=cmd_compare)

    p_gf = sub.add_parser("graph-fit", help="fit per-node neighborhood models")
    p_gf.add_argument("--config", default=None)
    p_gf.add_argument("--data", required=True)
    p_gf.add_argument("--graph", required=True)
    p_gf.add_argument("--out", required=True)
    p_gf.add_argument("--variant", default=None, choices=graphs.VARIANTS)
    p_gf.add_argument("--rounds", type=int, default=None)
    p_gf.add_argument("--workers", type=int, default=1)
    p_gf.add_argument("--split", type=float, default=None)
    p_gf.set_defaults(func=cmd_graph_fit)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
