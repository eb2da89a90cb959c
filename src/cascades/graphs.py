"""Per-node cascade models over a directed graph.

Each node gets its own small model: a baseline for spontaneous events
plus kernel components whose parents are restricted to the node itself
and to its incoming neighbors. Because every node has little data, the
categorical type transitions are shrunk toward directions pooled across
all nodes, with the shrinkage strength picked on a validation window,
and per-neighbor rates can be blended with their pooled average.

A round (``fit_round``) runs in two phases: every node fits every
candidate setting on the head of the window and scores the rest, then
every node fits only the winning setting on the whole window. A node's
fits and scores read only its local data (``local_data``: the events at
the node and at its in-neighbours), so ``workers`` processes each take a
contiguous block of nodes and receive only that block's local data.
Every node fit runs ``fit``'s EM loop (``engine._em``); a ``per_neighbor``
fit gives it an M-step that also blends the neighbour rates, and a fit
that fails names its node and candidate. The loop counts a node fit's
likelihood decreases instead of raising (``FitReport.ll_decreases``);
each ``NodeFit`` keeps its count and ``fit_round`` reports them in one
warning per round. ``simulate_graph`` draws the roots node by node
and leaves their offspring to ``simulate``'s queue, with one rule per
node an event triggers at.
"""

from __future__ import annotations

import json
import warnings
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace
from functools import partial
from multiprocessing import get_context

import numpy as np

from .delays import DelaySpec, ExponentialDelay
from .engine import (CascadeModel, HomogeneousBaseline, KernelComponent, _child_ids, _em,
                     _pool, _Scope, e_step, expected_transition_counts, fit,
                     m_step, validate_model, windowed_log_likelihood)
from .errors import CascadesError, ConfigError, DataError
from .events import CompositeSchema, Dataset, _jsonl_objects
from .fertility import ConstantFertility
from .simulate import CausalForest, _offspring, _poisson_count, _time_ordered, substream
from .transitions import CategoricalMatrix, LabelMarginal, draw_index

VARIANTS = ("no_neighbors", "shared_transition", "separate_transitions",
            "per_neighbor")
STRENGTH_GRID = (0.1, 1.0, 10.0, 100.0)
POOL_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
CONTEXTS = ("self", "neighbor", "shared")


def _grid_rules(strength_grid, pool_grid) -> tuple:
    """(name, holds, needs) for the shrinkage grids a round searches. A
    repeated value would count its candidate's validation score twice."""
    return (("strength_grid", len(strength_grid) > 0, "must be nonempty"),
            ("strength_grid", all(0.0 <= c < float("inf") for c in strength_grid),
             "strengths must be finite and nonnegative"),
            ("pool_grid", len(pool_grid) > 0 and all(0.0 <= w <= 1.0 for w in pool_grid),
             "must be nonempty, with pool weights in [0, 1]"),
            ("strength_grid", len(set(strength_grid)) == len(strength_grid),
             "values must be distinct"),
            ("pool_grid", len(set(pool_grid)) == len(pool_grid), "values must be distinct"))


class Graph:
    """Directed graph over string node ids; edges point influence flow
    (an edge u -> v lets events at u trigger events at v)."""

    def __init__(self, nodes, out_edges: dict):
        # a string would be read as a collection of one-letter node ids
        if isinstance(nodes, str) or any(isinstance(us, str) for us in out_edges.values()):
            raise DataError("graph nodes and edge lists must be collections of node ids, "
                            "not strings")
        nodes = tuple(nodes)
        if not all(isinstance(us, (list, tuple)) for us in out_edges.values()):
            raise DataError("graph edge lists must be lists or tuples of node ids")
        # load_graph reads back only string ids
        if not all(isinstance(u, str) for us in (nodes, *out_edges.values()) for u in us):
            raise DataError("graph node ids must be strings")
        self.nodes = tuple(sorted(nodes))
        if len(set(self.nodes)) != len(self.nodes):
            raise DataError("duplicate node ids in graph")
        known = set(self.nodes)
        strays = sorted(set(out_edges) - known, key=str)
        if strays:
            raise DataError(f"edges out of unknown nodes {strays}")
        self.out = {}
        for v in self.nodes:
            targets = tuple(sorted(out_edges.get(v, ())))
            for u in targets:
                if u not in known:
                    raise DataError(f"edge {v!r} -> {u!r} points at an unknown node")
                if u == v:
                    raise DataError(f"self-loop on {v!r}; self-excitation is "
                                    "modeled separately, drop the edge")
            if len(set(targets)) != len(targets):
                raise DataError(f"duplicate edges out of {v!r}")
            self.out[v] = targets
        incoming: dict[str, list[str]] = {v: [] for v in self.nodes}
        for v in self.nodes:
            for u in self.out[v]:
                incoming[u].append(v)
        self.incoming = {v: tuple(sorted(us)) for v, us in incoming.items()}

    def __len__(self) -> int:
        return len(self.nodes)


def load_graph(path: str) -> Graph:
    """Read a graph from JSONL rows {"node": id, "out": [ids...]}."""
    nodes: list[str] = []
    out: dict[str, list[str]] = {}
    for lineno, obj in _jsonl_objects(path):
        if "node" not in obj:
            raise DataError(f"{path}:{lineno}: expected an object with a 'node' key")
        unknown = set(obj) - {"node", "out"}
        if unknown:
            raise DataError(f"{path}:{lineno}: unknown keys {sorted(unknown)}")
        v = obj["node"]
        if not isinstance(v, str):
            raise DataError(f"{path}:{lineno}: node ids must be strings")
        if v in out:
            raise DataError(f"{path}:{lineno}: node {v!r} appears twice")
        targets = obj.get("out", [])
        if not isinstance(targets, list) or not all(isinstance(u, str) for u in targets):
            raise DataError(f"{path}:{lineno}: 'out' must be a list of node ids")
        nodes.append(v)
        out[v] = targets
    return Graph(nodes, out)


def write_graph(graph: Graph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for v in graph.nodes:
            fh.write(json.dumps({"node": v, "out": list(graph.out[v])}) + "\n")


@dataclass(frozen=True)
class Hyperparams:
    """Shared shrinkage state: per-context Dirichlet directions (row
    distributions over child types) and one strength used for them all."""

    directions: dict
    strength: float

    @staticmethod
    def uniform(n_types: int, strength: float = 1.0) -> "Hyperparams":
        row = tuple(1.0 / n_types for _ in range(n_types))
        mat = tuple(row for _ in range(n_types))
        return Hyperparams({ctx: mat for ctx in CONTEXTS}, strength)


def regularized_rates(triggered, revisions, pool_weight: float) -> np.ndarray:
    """Blend per-neighbor rates with their pooled value.

    rate_i = w * (sum n / sum m) + (1 - w) * n_i / m_i, with n_i the
    expected count triggered by neighbor i and m_i its raw revision
    count. Entries with m_i = 0 fall back to the pooled part alone, and
    the blend preserves sum(rate_i * m_i) = sum(n_i) exactly for any w.
    """
    n = np.asarray(triggered, dtype=np.float64)
    m = np.asarray(revisions, dtype=np.float64)
    if n.shape != m.shape:
        raise DataError("triggered and revision counts must align")
    if not 0.0 <= pool_weight <= 1.0:
        raise ConfigError("pool weight must lie in [0, 1]")
    if not np.all((0.0 <= n) & (n < np.inf) & (0.0 <= m) & (m < np.inf)):  # NaN too
        raise DataError("counts must be finite and nonnegative")
    total_m = m.sum()
    pooled = n.sum() / total_m if total_m > 0 else 0.0
    own = np.divide(n, m, out=np.zeros_like(n), where=m > 0)
    return pool_weight * pooled + (1.0 - pool_weight) * own


def _smoothed_marginal(d: Dataset) -> LabelMarginal:
    """Global type frequencies with half-count smoothing, so every type
    keeps positive baseline mass even if it never occurs."""
    L = d.n_label_values
    counts = (np.bincount(d.label_index, minlength=L).astype(np.float64)
              if len(d) else np.zeros(L))
    probs = (counts + 0.5) / (counts.sum() + 0.5 * L)
    return LabelMarginal(tuple(probs.tolist()))


def node_model(graph: Graph, d: Dataset, v: str, variant: str,
               hyper: Hyperparams, strength: float, delay_init: DelaySpec,
               window: tuple[float, float],
               marginal: LabelMarginal | None = None) -> tuple[CascadeModel, tuple[str, ...]]:
    """Initial model for one node, with the per-component shrinkage
    context names it pools statistics under. ``marginal`` is the
    baseline type distribution, by default ``d``'s smoothed type
    frequencies."""
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if v not in graph.out:
        raise ConfigError(f"node {v!r} is not in the graph")
    if not 0.0 <= strength < np.inf:
        raise ConfigError(f"shrinkage strength must be finite and nonnegative, got {strength}")
    a, b = window
    duration = b - a
    if duration <= 0:
        raise DataError("node fits need a window of positive length")
    L = d.n_label_values
    if marginal is None:
        marginal = _smoothed_marginal(d)
    # the node's events the fit scores: an event at t = 0 counts when a == 0
    n_v = _child_ids(d, d.at_nodes((v,))[0], window).size
    baseline = HomogeneousBaseline(max(n_v, 0.5) / duration, marginal)

    uniform_dir = tuple(tuple(1.0 / L for _ in range(L)) for _ in range(L))

    def trans(ctx: str) -> CategoricalMatrix:
        rows = tuple(marginal.probs for _ in range(L))
        direction = hyper.directions.get(ctx, uniform_dir) if strength > 0 else None
        return CategoricalMatrix(rows, prior_direction=direction,
                                 prior_strength=float(strength))

    neighbors = graph.incoming[v]
    comps: list[KernelComponent] = []
    contexts: list[str] = []
    if variant == "no_neighbors":
        comps.append(KernelComponent("self", ConstantFertility(0.3), trans("self"),
                                     delay_init, sources=(v,)))
        contexts.append("self")
    elif variant == "shared_transition":
        shared = trans("shared")
        comps.append(KernelComponent("self", ConstantFertility(0.3), shared,
                                     delay_init, sources=(v,),
                                     transition_group="shared"))
        contexts.append("shared")
        if neighbors:
            comps.append(KernelComponent("nbrs", ConstantFertility(0.3), shared,
                                         delay_init, sources=neighbors,
                                         transition_group="shared"))
            contexts.append("shared")
    elif variant == "separate_transitions":
        comps.append(KernelComponent("self", ConstantFertility(0.3), trans("self"),
                                     delay_init, sources=(v,)))
        contexts.append("self")
        if neighbors:
            comps.append(KernelComponent("nbrs", ConstantFertility(0.3),
                                         trans("neighbor"), delay_init,
                                         sources=neighbors))
            contexts.append("neighbor")
    else:  # per_neighbor
        comps.append(KernelComponent("self", ConstantFertility(0.3), trans("self"),
                                     delay_init, sources=(v,)))
        contexts.append("self")
        shared = trans("neighbor")
        for u in neighbors:
            comps.append(KernelComponent(f"nbr:{u}",
                                         ConstantFertility(0.3 / len(neighbors)),
                                         shared, delay_init, sources=(u,),
                                         transition_group="nbr", delay_group="nbr"))
            contexts.append("neighbor")
    model = CascadeModel(baseline, tuple(comps), normalization=False)
    return model, tuple(contexts)


@dataclass
class NodeFit:
    """One node's fitted model with its training LL, its transition
    counts by shrinkage context (None when not collected), and how its
    EM run went: iterations, whether the tolerance test stopped it, and
    how many iterations lowered the LL (``FitReport.ll_decreases``)."""

    node: str
    model: CascadeModel
    train_ll: float
    counts: dict | None
    iterations: int
    converged: bool
    ll_decreases: int


def fit_node(graph: Graph, d: Dataset, v: str, variant: str, hyper: Hyperparams,
             strength: float, *, pool_weight: float = 0.5,
             delay_init: DelaySpec = ExponentialDelay(1.0),
             window: tuple[float, float] | None = None,
             max_iters: int = 25, tol: float = 1e-5,
             marginal: LabelMarginal | None = None,
             with_counts: bool = True) -> NodeFit:
    """Fit one node's model on the given window and, ``with_counts``,
    collect its pooled transition statistics keyed by shrinkage context
    (one more E-step under the fitted model).

    Only the events at v and at its in-neighbours matter, so ``d`` may
    be the whole dataset or just those events (``local_data``); pass
    ``marginal`` to keep the initial model the same either way."""
    if window is None:
        window = (d.start, d.horizon)
    model, contexts = node_model(graph, d, v, variant, hyper, strength,
                                 delay_init, window, marginal)
    mask = d.at_nodes((v,))[0]
    try:
        if variant == "per_neighbor" and graph.incoming[v]:
            # fit's loop, with the neighbour rates replaced by their blend
            # after every M-step; as node_model builds the model, each
            # component after "self" is one in-neighbour's, whose raw count is
            # its pool's events before the window's end
            validate_model(model, d.schema)
            scope = _Scope(d, mask, window)
            raw = np.array([np.searchsorted(_pool(d, c.sources).times, window[1], side="left")
                            for c in model.components[1:]], dtype=np.float64)

            def improve(m: CascadeModel, stats, freeze_delays: bool) -> CascadeModel:
                m = m_step(m, stats, False, freeze_delays)
                rates = regularized_rates(stats.comp_z[1:], raw, pool_weight)
                return replace(m, components=m.components[:1] + tuple(
                    replace(c, fertility=ConstantFertility(float(r)))
                    for c, r in zip(m.components[1:], rates)))

            report = _em(model, scope, max_iters, tol, improve, False, "count")
        else:
            report = fit(model, d, max_iters, tol, children=mask, window=window,
                         update_baseline_mark=False, on_decrease="count",
                         engine="direct")
        model, counts = report.model, None
        if with_counts:
            counts = {}
            resp = e_step(model, d, mask, window)
            for ctx, mat in zip(contexts, expected_transition_counts(model, d, resp)):
                if mat is not None:
                    counts[ctx] = counts.get(ctx, 0) + mat
    except CascadesError as exc:
        # a graph-fit runs hundreds of node fits: say which one failed
        pooled = f", pool weight {pool_weight}" if variant == "per_neighbor" else ""
        raise type(exc)(f"node {v!r} (strength {strength}{pooled}, window {window}): "
                        f"{exc}") from exc
    trace = report.ll_trace
    return NodeFit(v, model, trace[-1], counts, len(trace) - 1, report.converged,
                   report.ll_decreases)


def local_data(graph: Graph, d: Dataset, nodes) -> Dataset:
    """The events of ``d`` at ``nodes`` or at their in-neighbours: all
    that the fits and scores of those nodes read."""
    keep = set(nodes)
    for v in nodes:
        keep.update(graph.incoming[v])
    index = d.at_nodes(tuple(sorted(keep)))[1]
    return d if index.size == len(d) else d.subset(index)


def _score_block(task) -> list:
    """Phase one for a block of nodes: per node and candidate, fit the
    head window of the node's local data, without the transition counts
    that only phase two's fits feed, and score the validation window.
    Returns (node, {candidate: (validation LL, LL decreases)}) pairs in
    node order."""
    fit_one, graph, d, nodes, candidates, cut = task
    a, b = d.start, d.horizon
    out = []
    for v in nodes:
        dv = local_data(graph, d, (v,))
        mask = dv.at_nodes((v,))[0]
        scores = {}
        for strength, w in candidates:
            head = fit_one(graph, dv, v, strength=strength,
                           pool_weight=0.5 if w is None else w, window=(a, cut),
                           with_counts=False)
            val_ll = windowed_log_likelihood(head.model, dv, mask, (cut, b))
            scores[strength, w] = (float(val_ll), head.ll_decreases)
        out.append((v, scores))
    return out


def _fit_block(task) -> list:
    """Phase two for a block of nodes: fit the winning candidate on the
    whole window of each node's local data; (node, NodeFit) pairs."""
    fit_one, graph, d, nodes, (strength, w) = task
    return [(v, fit_one(graph, local_data(graph, d, (v,)), v, strength=strength,
                        pool_weight=0.5 if w is None else w, window=(d.start, d.horizon),
                        with_counts=True))
            for v in nodes]


def _blocks(nodes: tuple, workers: int) -> list:
    """At most ``workers`` contiguous blocks of near-equal size."""
    k = max(1, min(workers, len(nodes)))
    bounds = [len(nodes) * i // k for i in range(k + 1)]
    return [nodes[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def update_hyperparams(counts_by_context: dict, val_by_strength: dict,
                       grid=STRENGTH_GRID) -> Hyperparams:
    """Next round's shared shrinkage state.

    Directions are the row-normalized pooled transition counts per
    context (zero rows fall back to uniform); the strength is the grid
    value with the best total validation score, smallest value on ties,
    with a warning when the winner sits on the grid boundary.
    """
    grid = tuple(grid)
    best = min(grid, key=lambda c: (-val_by_strength[c], c))
    if len(grid) > 1 and best in (min(grid), max(grid)):
        warnings.warn(f"selected shrinkage strength {best} lies on the grid "
                      "boundary; consider widening the grid")
    directions = {}
    for ctx, counts in counts_by_context.items():
        counts = np.asarray(counts, dtype=np.float64)
        L = counts.shape[0]
        rows = np.empty_like(counts)
        for r in range(L):
            total = counts[r].sum()
            rows[r] = counts[r] / total if total > 0 else 1.0 / L
        directions[ctx] = tuple(map(tuple, rows))
    return Hyperparams(directions, float(best))


@dataclass
class RoundResult:
    fits: dict
    hyper: Hyperparams
    strength: float
    pool_weight: float | None
    val_total: float
    val_table: list


def fit_round(graph: Graph, d: Dataset, variant: str, hyper: Hyperparams, *,
              strength_grid=STRENGTH_GRID, pool_grid=POOL_GRID,
              val_fraction: float = 0.25,
              delay_init: DelaySpec = ExponentialDelay(1.0),
              max_iters: int = 25, tol: float = 1e-5,
              workers: int = 1) -> RoundResult:
    """One alternation in two phases. First every node fits every
    candidate shrinkage setting on the head of the window and scores
    the rest; the candidate with the best summed validation score wins.
    Then every node fits only the winner on the whole window, and the
    pooled directions are refreshed from those fits.

    Each node fit reads only the node's local data (``local_data``),
    with the initial type marginal taken from all of ``d``. The nodes
    are split into ``workers`` contiguous blocks, one task per block in
    each phase, run in one pool of forked workers; a task carries only
    its block's local data. Results are reduced in sorted node order, so
    the outcome does not depend on the worker count. LL decreases in any
    node fit are counted per fit and reported in one warning per round.
    """
    if not isinstance(d.schema, CompositeSchema):
        raise DataError("graph fitting needs composite-marked events")
    unknown = set(d.node_ids[~d.at_nodes(graph.nodes)[0]].tolist())
    if unknown:
        raise DataError(f"events mention nodes missing from the graph: {sorted(unknown)}")
    if not 0.0 < val_fraction < 1.0:
        raise ConfigError("val_fraction must lie strictly between 0 and 1")
    if workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")
    for name, holds, needs in _grid_rules(strength_grid, pool_grid):
        if not holds:
            raise ConfigError(f"{name}: {needs}")
    a, b = d.start, d.horizon
    cut = a + (1.0 - val_fraction) * (b - a)
    if variant == "per_neighbor":
        candidates = [(float(c), float(w)) for c in strength_grid for w in pool_grid]
    else:
        candidates = [(float(c), None) for c in strength_grid]
    # what every node fit of the round shares; each task carries it
    fit_one = partial(fit_node, variant=variant, hyper=hyper, delay_init=delay_init,
                      max_iters=max_iters, tol=tol, marginal=_smoothed_marginal(d))
    blocks = [(nodes, local_data(graph, d, nodes))
              for nodes in _blocks(graph.nodes, workers)]
    pool = (ProcessPoolExecutor(max_workers=len(blocks), mp_context=get_context("fork"))
            if len(blocks) > 1 else None)
    run = map if pool is None else pool.map

    def each_block(task, *args) -> dict:
        """The task's results over every block, by node."""
        outs = run(task, [(fit_one, graph, bd, nodes, *args) for nodes, bd in blocks])
        return {v: res for out in outs for v, res in out}

    with pool or nullcontext():
        scored = each_block(_score_block, candidates, cut)
        totals = {cand: 0.0 for cand in candidates}
        for v in graph.nodes:
            for cand in candidates:
                totals[cand] += scored[v][cand][0]

        # best summed validation score; ties prefer stronger pooling, then
        # smaller strength
        def sort_key(cand):
            strength, w = cand
            return (-totals[cand], -(w if w is not None else 0.0), strength)

        best = min(candidates, key=sort_key)
        fits = each_block(_fit_block, best)

    decreased = [v for v in graph.nodes if fits[v].ll_decreases
                 or any(dec for _, dec in scored[v].values())]
    if decreased:
        warnings.warn(f"log likelihood decreased in the fits of {len(decreased)} "
                      f"node(s) this round: {', '.join(decreased)}")
    val_by_strength = {}
    for cand in candidates:
        c = cand[0]
        val_by_strength[c] = max(val_by_strength.get(c, -np.inf), totals[cand])
    pooled: dict[str, np.ndarray] = {}
    for v in graph.nodes:
        for ctx, mat in fits[v].counts.items():
            pooled[ctx] = pooled.get(ctx, 0) + mat
    hyper_next = update_hyperparams(pooled, val_by_strength, tuple(strength_grid))
    table = [(cand[0], cand[1], totals[cand]) for cand in candidates]
    return RoundResult(fits=fits, hyper=hyper_next, strength=best[0],
                       pool_weight=best[1], val_total=totals[best],
                       val_table=table)


@dataclass
class GraphFitResult:
    models: dict
    hyper: Hyperparams
    rounds: list


def fit_graph(graph: Graph, d: Dataset, variant: str, *, rounds: int = 2,
              strength_grid=STRENGTH_GRID, pool_grid=POOL_GRID,
              val_fraction: float = 0.25,
              delay_init: DelaySpec = ExponentialDelay(1.0),
              max_iters: int = 25, tol: float = 1e-5, workers: int = 1,
              hyper: Hyperparams | None = None) -> GraphFitResult:
    """Alternate node fits and hyperparameter refreshes for a fixed
    number of rounds; later rounds shrink toward directions learned
    from the whole graph in earlier ones."""
    if rounds < 1:
        raise ConfigError("at least one round is required")
    if hyper is None:
        hyper = Hyperparams.uniform(d.n_label_values)
    history = []
    result = None
    for _ in range(rounds):
        result = fit_round(graph, d, variant, hyper, strength_grid=strength_grid,
                           pool_grid=pool_grid, val_fraction=val_fraction,
                           delay_init=delay_init, max_iters=max_iters, tol=tol,
                           workers=workers)
        hyper = result.hyper
        history.append(result)
    models = {v: nf.model for v, nf in result.fits.items()}
    return GraphFitResult(models=models, hyper=hyper, rounds=history)


def graph_log_likelihood(models: dict, d: Dataset, graph: Graph,
                         window: tuple[float, float] | None = None) -> float:
    """Sum of each node's windowed log likelihood under its own model,
    scored on the node's local data: node models draw their parents from
    the node and its in-neighbours only (``node_model``)."""
    total = 0.0
    for v in graph.nodes:
        dv = local_data(graph, d, (v,))
        total += windowed_log_likelihood(models[v], dv, dv.at_nodes((v,))[0], window)
    return float(total)


def simulate_graph(graph: Graph, horizon: float, seed: int, *,
                   type_marginal, base_rate, self_rate: float,
                   neighbor_rate: float, transition: CategoricalMatrix,
                   delay: DelaySpec,
                   max_events: int = 1_000_000) -> tuple[Dataset, CausalForest]:
    """Draw coupled node processes on (0, horizon].

    Every node emits baseline events with its own rate and iid types
    from the marginal; each event then triggers offspring at its own
    node (rate self_rate) and at each outgoing neighbor (rate
    neighbor_rate), with types drawn from the transition row of the
    parent type. base_rate is a scalar or a dict with a rate for every
    node; every rate and marginal entry must be finite and nonnegative,
    and the marginal must not sum to zero. Once more than max_events
    accumulate this raises DataError while root events are counted node
    by node (before their times are allocated), and among the offspring
    ``simulate``'s NumericalError (the model may be supercritical).
    """
    if horizon <= 0 or not np.isfinite(horizon):
        raise ConfigError(f"horizon must be positive and finite, got {horizon}")
    marginal = np.asarray(type_marginal, dtype=np.float64)
    for p in marginal.ravel().tolist():
        if not 0.0 <= p < np.inf:
            raise ConfigError(f"type_marginal entry {p!r} is negative or not finite")
    if not marginal.sum() > 0:
        raise ConfigError(f"type_marginal {tuple(marginal.tolist())} sums to zero")
    rates = base_rate if isinstance(base_rate, dict) else dict.fromkeys(graph.nodes, base_rate)
    missing = [v for v in graph.nodes if v not in rates]
    unknown = [v for v in rates if v not in graph.out]
    if missing or unknown:
        raise ConfigError(f"base_rate: no rate for node {missing[0]!r}" if missing
                          else f"base_rate: unknown node {unknown[0]!r}")
    named = [(f"base_rate of node {v!r}", rates[v]) for v in graph.nodes]
    for name, rate in named + [("self_rate", self_rate), ("neighbor_rate", neighbor_rate)]:
        if not 0.0 <= rate < np.inf:
            raise ConfigError(f"{name} must be finite and nonnegative, got {rate!r}")
    L = marginal.size
    if transition.as_array.shape != (L, L):
        raise ConfigError("transition size does not match the type marginal")
    rng = substream(seed, "graph")
    schema = CompositeSchema(L, frozenset(graph.nodes))
    cum_marginal, cum_rows = np.cumsum(marginal).tolist(), transition.cumulative

    def draw_types(cum: list[float], m: int) -> list[int]:
        return [draw_index(cum, rng.random() * cum[-1]) for _ in range(m)]

    def child_types(code: int, rng, m: int) -> list[int]:
        return draw_types(cum_rows[code], m)

    times, types, nodes = [], [], []  # an event's code is its type index
    for v in graph.nodes:
        count = _poisson_count(rng, rates[v] * horizon)
        if len(times) + count > max_events:
            raise DataError(f"graph simulation exceeded max_events={max_events}: "
                            f"{len(times) + count} root events through node {v!r}")
        times += np.sort(rng.random(count) * horizon).tolist()
        types += draw_types(cum_marginal, count)
        nodes += [v] * count

    # an event triggers at its own node, then at each outgoing neighbor
    by_node = {v: [(self_rate, delay, child_types, v)]
               + [(neighbor_rate, delay, child_types, u) for u in graph.out[v]]
               for v in graph.nodes}
    parents, gens = _offspring(rng, times, types, nodes, lambda code, v: by_node[v],
                               horizon, max_events)
    # every triggered event is component 0's
    return _time_ordered(times, schema.code_columns(types, nodes), parents,
                         np.minimum(parents, 0), gens, horizon, schema)
