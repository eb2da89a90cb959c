"""Acceptance gate: nine end-to-end checks covering EM monotonicity,
the fast recursive path, parameter recovery, model laddering, branching
means, closed-form updates against brute-force oracles, shrinkage gains
on graphs, byte-level determinism, and parent recovery. Each test
prints a single PASS/FAIL line."""

import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from cascades import (CascadeModel, CategoricalMatrix, ConstantFertility,
                      Dataset, Event, ExponentialDelay, FeatureMixture,
                      FeaturePrior, GammaDelay, Graph, HomogeneousBaseline,
                      IdentityTransition, KernelComponent, LabelMark,
                      LabelMarginal, PeriodicBaseline, PriorTransition,
                      e_step, fast_applicable, fast_estep, fit, fit_graph,
                      graph_log_likelihood, log_likelihood,
                      parent_recovery_score, regularized_rates, simulate,
                      simulate_graph, split, write_events, write_graph)
from cascades.cli import main
from cascades.delays import (ExpMixtureDelay, PiecewiseUniformDelay,
                             UniformDelay, weighted_mle)
from cascades.engine import estep_stats
from cascades.events import BinaryMark, BinarySchema, LabelSchema
from cascades.fertility import (CombinedFertility, LinearFertility,
                                MultiplicativeFertility)
from cascades.fertility import update as fert_update
from cascades.transitions import fit_categorical
from cascades.simulate import CausalForest
from oracles import fit_mixture


def _verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    print(f"[acceptance {num}] {'PASS' if ok else 'FAIL'}: {label}{tail}")
    assert ok, f"acceptance {num} failed: {label}{tail}"


# -------------------------------------------------------------------------
# 1. EM monotonicity across every model family


_DELAY_TRUTH = (ExponentialDelay(1.2), GammaDelay(2.0, 1.5), UniformDelay(2.0),
                PiecewiseUniformDelay((0.0, 0.5, 2.0), (0.7, 0.3)),
                ExpMixtureDelay((0.6, 0.4), (3.0, 0.3)))
_DELAY_INIT = (ExponentialDelay(0.8), GammaDelay(1.5, 1.0), UniformDelay(2.0),
               PiecewiseUniformDelay((0.0, 0.5, 2.0), (0.5, 0.5)),
               ExpMixtureDelay((0.5, 0.5), (2.0, 0.5)))

_CAT_TRUTH = ((0.7, 0.2, 0.1), (0.15, 0.7, 0.15), (0.1, 0.2, 0.7))
_CAT_INIT = ((1 / 3,) * 3,) * 3


def _monotone_instance(i: int):
    """One seeded toy: delay family cycles with period 5, cause family
    with period 4, baseline kind with period 2."""
    delay_t, delay_0 = _DELAY_TRUTH[i % 5], _DELAY_INIT[i % 5]
    tkind = i % 4
    label_marks = tkind == 3
    if label_marks:
        mark_t, mark_0 = LabelMarginal((0.5, 0.3, 0.2)), LabelMarginal((1 / 3,) * 3)
        trans_t = CategoricalMatrix(_CAT_TRUTH)
        trans_0 = CategoricalMatrix(_CAT_INIT)
        fert_t, fert_0 = ConstantFertility(0.45), ConstantFertility(0.25)
    else:
        mark_t, mark_0 = FeaturePrior((0.4, 0.6)), FeaturePrior((0.5, 0.5))
        trans_t, trans_0 = [(IdentityTransition(), IdentityTransition()),
                            (PriorTransition(FeaturePrior((0.3, 0.7))),
                             PriorTransition(FeaturePrior((0.5, 0.5)))),
                            (FeatureMixture(0.35, FeaturePrior((0.4, 0.6))),
                             FeatureMixture(0.5, FeaturePrior((0.5, 0.5))))][tkind]
        fkind = (i // 4) % 4
        fert_t, fert_0 = [
            (ConstantFertility(0.45), ConstantFertility(0.25)),
            (LinearFertility(0.15, (0.2, 0.15)), LinearFertility(0.1, (0.1, 0.1))),
            (MultiplicativeFertility((0.3, 1.4, 0.7)),
             MultiplicativeFertility((0.25, 1.0, 1.0))),
            (CombinedFertility((LinearFertility(0.1, (0.1, 0.1)),
                                MultiplicativeFertility((0.2, 1.2, 0.9)))),
             CombinedFertility((LinearFertility(0.08, (0.08, 0.08)),
                                MultiplicativeFertility((0.15, 1.0, 1.0))))),
        ][fkind]
    if i % 2:
        base_t = PeriodicBaseline(10.0, (1.6, 0.4), mark_t)
        base_0 = PeriodicBaseline(10.0, (1.0, 1.0), mark_0)
    else:
        base_t = HomogeneousBaseline(1.0, mark_t)
        base_0 = HomogeneousBaseline(0.6, mark_0)
    truth = CascadeModel(base_t, (KernelComponent("k", fert_t, trans_t, delay_t),))
    init = CascadeModel(base_0, (KernelComponent("k", fert_0, trans_0, delay_0),))
    return truth, init


def test_acceptance_1_em_monotone_over_families():
    sizes = np.random.default_rng(10).uniform(0.45, 2.6, size=100)
    worst = np.inf
    counts = []
    for i in range(100):
        truth, init = _monotone_instance(i)
        horizon = 90.0 * float(sizes[i])
        for _ in range(4):  # land inside the 50..500 event envelope
            d, _ = simulate(truth, horizon, seed=1000 + i)
            if len(d) < 50:
                horizon *= 2.0
            elif len(d) > 500:
                horizon *= 0.55
            else:
                break
        counts.append(len(d))
        report = fit(init, d, max_iters=6, tol=0.0)
        lls = np.asarray(report.ll_trace)
        slack = np.diff(lls) + 1e-8 * np.abs(lls[:-1])
        worst = min(worst, float(slack.min()))
    ok = worst >= 0.0 and min(counts) >= 50 and max(counts) <= 500
    _verdict(1, "EM log-likelihood nondecreasing on 100 toy fits", ok,
             f"worst step slack {worst:.3e}, sizes {min(counts)}..{max(counts)}")


# -------------------------------------------------------------------------
# 2. Fast recursive path matches the direct pairwise E-step


def test_acceptance_2_fast_path_equivalence():
    rng = np.random.default_rng(77)
    worst = 0.0

    def rel_gap(a, b):
        a, b = np.asarray(a, float), np.asarray(b, float)
        scale = np.maximum(np.abs(b), 1e-30)
        return float(np.max(np.abs(a - b) / scale)) if a.size else 0.0

    for i in range(50):
        L = int(rng.integers(2, 9))
        n_comp = int(rng.integers(1, 4))
        marg = rng.dirichlet(np.full(L, 2.0))
        comps = []
        for c in range(n_comp):
            kind = (i + c) % 3
            if kind == 0:
                trans = IdentityTransition()
            elif kind == 1:
                trans = PriorTransition(LabelMarginal(tuple(
                    rng.dirichlet(np.full(L, 2.0)).tolist())))
            else:
                rows = rng.dirichlet(np.full(L, 1.5), size=L)
                trans = CategoricalMatrix(tuple(map(tuple, rows.tolist())))
            comps.append(KernelComponent(
                f"c{c}", ConstantFertility(float(rng.uniform(0.1, 0.5 / n_comp))),
                trans, ExponentialDelay(float(rng.uniform(0.3, 3.0)))))
        model = CascadeModel(
            HomogeneousBaseline(float(rng.uniform(0.5, 1.5)),
                                LabelMarginal(tuple(marg.tolist()))),
            tuple(comps))
        d, _ = simulate(model, float(rng.uniform(30, 120)), seed=2000 + i)
        if len(d) > 500:
            d = split(d, 500 / len(d) * 0.9)[0]
        if len(d) < 3:
            continue
        if i % 2:  # collide timestamps so tie handling is exercised
            floored = [Event(math.floor(ev.t * 4) / 4, ev.mark) for ev in d.events]
            d = Dataset(floored, horizon=d.horizon, schema=d.schema)
        assert fast_applicable(model, d)
        fast = fast_estep(model, d)
        direct = estep_stats(replace(model, truncation_mass=0.0), d)
        worst = max(worst,
                    rel_gap(fast.z_base, direct.z_base),
                    rel_gap(fast.intensity, direct.intensity),
                    rel_gap(fast.comp_z, direct.comp_z),
                    rel_gap(fast.comp_zdt, direct.comp_zdt),
                    # identity keeps no transition statistics, on both paths
                    max((np.inf if (a.transition is None) != (b.transition is None)
                         else 0.0 if b.transition is None
                         else rel_gap(a.transition + 1e-30, b.transition + 1e-30))
                        for a, b in zip(fast.components, direct.components)))
    _verdict(2, "fast-path sufficient statistics match direct E-step",
             worst < 1e-9, f"worst relative gap {worst:.3e}")


# -------------------------------------------------------------------------
# 3. Parameter recovery on a 20k-event simulation


def test_acceptance_3_parameter_recovery():
    mu, gamma, w = 2.0, 0.3, (0.3, 1.3, 0.8, 1.5, 0.6)
    delay_rate = 1.0
    truth = CascadeModel(
        HomogeneousBaseline(mu, FeaturePrior((0.5,) * 4)),
        (KernelComponent("k", MultiplicativeFertility(w),
                         FeatureMixture(gamma, FeaturePrior((0.5,) * 4)),
                         ExponentialDelay(delay_rate)),))
    m = 0.3 * 1.15 * 0.9 * 1.25 * 0.8
    horizon = 20_000 * (1 - m) / mu
    d, _ = simulate(truth, horizon, seed=31)
    init = CascadeModel(
        HomogeneousBaseline(1.2, FeaturePrior((0.5,) * 4)),
        (KernelComponent("k", MultiplicativeFertility((0.45, 1.0, 1.0, 1.0, 1.0)),
                         FeatureMixture(0.5, FeaturePrior((0.5,) * 4)),
                         ExponentialDelay(0.6)),))
    # the mixing weight moves slowly under EM, so give it room to settle
    report = fit(init, d, max_iters=150, tol=1e-9)
    got = report.model
    rels = {
        "baseline": abs(got.baseline.rate - mu) / mu,
        "resample": abs(got.components[0].transition.resample_prob - gamma) / gamma,
        "delay": abs(got.components[0].delay.rate - delay_rate) / delay_rate,
    }
    for j, wj in enumerate(w):
        rels[f"w{j}"] = abs(got.components[0].fertility.weights[j] - wj) / wj
    fresh, _ = simulate(truth, horizon, seed=32)
    ll_truth = log_likelihood(truth, fresh)
    ll_got = log_likelihood(got, fresh)
    ll_gap = abs(ll_got - ll_truth) / abs(ll_truth)
    ok = max(rels.values()) < 0.10 and ll_gap < 0.005
    worst_name = max(rels, key=rels.get)
    _verdict(3, "rates, mixing weight and fertility weights recovered",
             ok, f"n={len(d)}, worst rel err {worst_name}="
                 f"{rels[worst_name]:.3f}, fresh-LL gap {ll_gap:.4%}")


# -------------------------------------------------------------------------
# 4. Model ladder: richer specifications win on held-out data


def _ladder_configs():
    L = 4
    cat_uniform = [[1.0 / L] * L for _ in range(L)]
    comp_fast = {"name": "fast",
                 "fertility": {"kind": "constant", "rate": 0.2},
                 "transition": {"kind": "identity"},
                 "delay": {"kind": "exponential", "rate": 4.0}}
    comp_med = {"name": "med",
                "fertility": {"kind": "constant", "rate": 0.2},
                "transition": {"kind": "categorical", "matrix": cat_uniform},
                "delay": {"kind": "exponential", "rate": 1.0}}
    comp_slow = {"name": "slow",
                 "fertility": {"kind": "constant", "rate": 0.2},
                 "transition": {"kind": "prior", "mark": {"kind": "empirical"}},
                 "delay": {"kind": "exponential", "rate": 0.2}}
    homog = {"kind": "homogeneous", "rate": 1.0, "mark": {"kind": "empirical"}}
    periodic = {"kind": "periodic", "period": 50.0, "rates": [1.0, 1.0],
                "mark": {"kind": "empirical"}}
    return {
        "baseline_only": {"baseline": homog},
        "periodic": {"baseline": periodic},
        "k1": {"baseline": periodic, "components": [comp_fast]},
        "k2": {"baseline": periodic, "components": [comp_fast, comp_med]},
        "k3": {"baseline": homog,
               "components": [comp_fast, comp_med, comp_slow]},
        "k5": {"baseline": periodic,
               "components": [comp_fast, comp_med, comp_slow]},
    }


def test_acceptance_4_model_ladder(tmp_path):
    truth = CascadeModel(
        PeriodicBaseline(50.0, (2.2, 0.4), LabelMarginal((0.4, 0.3, 0.2, 0.1))),
        (KernelComponent("fast", ConstantFertility(0.25), IdentityTransition(),
                         ExponentialDelay(8.0)),
         KernelComponent("med", ConstantFertility(0.25), CategoricalMatrix(
             ((0.05, 0.85, 0.05, 0.05), (0.05, 0.05, 0.85, 0.05),
              (0.05, 0.05, 0.05, 0.85), (0.85, 0.05, 0.05, 0.05))),
             ExponentialDelay(1.0)),
         KernelComponent("slow", ConstantFertility(0.2),
                         PriorTransition(LabelMarginal((0.1, 0.2, 0.3, 0.4))),
                         ExponentialDelay(0.08))))
    d, _ = simulate(truth, 600.0, seed=44)
    events = tmp_path / "events.jsonl"
    write_events(d, events)
    conf = tmp_path / "compare.json"
    conf.write_text(json.dumps({"models": _ladder_configs(),
                                "em": {"max_iters": 25, "tol": 1e-6},
                                "split": 0.75}))
    out = tmp_path / "cmp"
    assert main(["compare", "--config", str(conf), "--data", str(events),
                 "--out", str(out)]) == 0
    rows = (out / "compare.csv").read_text().splitlines()[1:]
    test_ll = {}
    for row in rows:
        cells = row.split(",")
        test_ll[cells[0]] = float(cells[2])
    others = {k: v for k, v in test_ll.items() if k != "k5"}
    ok = (all(test_ll["k5"] > v for v in others.values())
          and all(test_ll["baseline_only"] < v for k, v in test_ll.items()
                  if k != "baseline_only"))
    order = sorted(test_ll, key=test_ll.get)
    _verdict(4, "full model strictly best, bare baseline strictly worst on "
                "held-out data", ok,
             "test LL order " + " < ".join(order) + f", n={len(d)}")


# -------------------------------------------------------------------------
# 5. Mean cascade size matches rate * T / (1 - m)


def test_acceptance_5_branching_mean():
    mu, horizon, n_sims = 2.0, 50.0, 500
    details = []
    ok = True
    for m in (0.2, 0.5, 0.8):
        model = CascadeModel(
            HomogeneousBaseline(mu, LabelMarginal((1.0,))),
            (KernelComponent("k", ConstantFertility(m), IdentityTransition(),
                             ExponentialDelay(20.0)),))
        counts = np.array([len(simulate(model, horizon, seed=5000 + int(m * 10) * 1000 + s)[0])
                           for s in range(n_sims)], dtype=float)
        target = mu * horizon / (1.0 - m)
        se = counts.std(ddof=1) / math.sqrt(n_sims)
        gap = abs(counts.mean() - target)
        ok = ok and gap < 3 * se
        details.append(f"m={m}: mean {counts.mean():.1f} vs {target:.1f} "
                       f"({gap / se:.2f} se)")
    _verdict(5, "mean simulated count matches rate*T/(1-m) within 3 se", ok,
             "; ".join(details))


# -------------------------------------------------------------------------
# 6. Closed-form updates against brute-force / grid oracles


def _weighted_ll_delay(spec, dts, w):
    from cascades.delays import density
    return float(np.dot(w, np.log(np.maximum(density(spec, dts), 1e-300))))


def test_acceptance_6_closed_form_oracles():
    rng = np.random.default_rng(66)
    checks = []

    # exponential rate: argmax over a fine grid
    for _ in range(20):
        dts = rng.exponential(1.0 / rng.uniform(0.3, 3.0), size=40)
        w = rng.uniform(0.1, 1.0, size=40)
        fitted = weighted_mle(ExponentialDelay(1.0), dts, w)
        grid = np.linspace(fitted.rate * 0.5, fitted.rate * 1.5, 2001)
        scores = [_weighted_ll_delay(ExponentialDelay(float(r)), dts, w)
                  for r in grid]
        best = grid[int(np.argmax(scores))]
        checks.append(abs(fitted.rate - best) <= grid[1] - grid[0] + 1e-12)

    # gamma shape: profile likelihood on a shape grid
    for _ in range(20):
        dts = rng.gamma(rng.uniform(0.8, 4.0), 1.0, size=60)
        w = rng.uniform(0.2, 1.0, size=60)
        fitted = weighted_mle(GammaDelay(1.0, 1.0), dts, w)
        ll_fit = _weighted_ll_delay(fitted, dts, w)
        best_grid = -np.inf
        for shape in np.geomspace(0.2, 10.0, 300):
            scale = float(np.dot(w, dts) / (w.sum() * shape))
            best_grid = max(best_grid, _weighted_ll_delay(
                GammaDelay(float(shape), scale), dts, w))
        checks.append(ll_fit >= best_grid - 1e-8)

    # piecewise bin probabilities: beat random simplex points
    for _ in range(20):
        knots = (0.0, 1.0, 3.0, 6.0)
        dts = rng.uniform(0.0, 6.0, size=50) + 1e-9
        w = rng.uniform(0.1, 1.0, size=50)
        fitted = weighted_mle(PiecewiseUniformDelay(knots, (1 / 3,) * 3), dts, w)
        ll_fit = _weighted_ll_delay(fitted, dts, w)
        samples = rng.dirichlet((1.0,) * 3, size=200)
        ll_rand = max(_weighted_ll_delay(
            PiecewiseUniformDelay(knots, tuple(p.tolist())), dts, w)
            for p in samples)
        checks.append(ll_fit >= ll_rand - 1e-10)

    # feature-resampling mixture weight: 2001-point grid
    for _ in range(20):
        F = int(rng.integers(1, 4))
        n = 60
        prior = FeaturePrior(tuple(rng.uniform(0.2, 0.8, size=F).tolist()))
        pairs = []
        for _ in range(n):
            pb = tuple(int(b) for b in rng.integers(0, 2, size=F))
            cb = tuple(int(b) for b in rng.integers(0, 2, size=F))
            pairs.append((BinaryMark(pb), BinaryMark(cb),
                          float(rng.uniform(0.1, 1.0))))

        def mix_ll(g):
            total = 0.0
            for parent, child, w in pairs:
                for f in range(F):
                    q = prior.probs[f] if child.bits[f] else 1 - prior.probs[f]
                    same = parent.bits[f] == child.bits[f]
                    total += w * math.log((1 - g) * same + g * q)
            return total

        fitted = fit_mixture(pairs, prior)
        grid = np.linspace(1e-6, 1 - 1e-6, 2001)
        best = max(mix_ll(g) for g in grid)
        checks.append(mix_ll(fitted) >= best - 1e-8)

    # multiplicative fertility coordinates: profiled 2-feature grid
    for _ in range(20):
        n = 40
        X = rng.integers(0, 2, size=(n, 2))
        credit = rng.uniform(0.0, 2.0, size=n)
        exposure = rng.uniform(0.3, 1.0, size=n)

        def mult_obj(weights):
            a = weights[0] * np.prod(np.where(X > 0, weights[1:], 1.0), axis=1)
            return float(np.dot(credit, np.log(a)) - np.dot(exposure, a))

        start = MultiplicativeFertility((0.5, 1.0, 1.0))
        fitted = fert_update(start, X, credit, exposure)
        best = -np.inf
        for w1 in np.geomspace(0.2, 5.0, 40):
            for w2 in np.geomspace(0.2, 5.0, 40):
                prod = w1 ** X[:, 0] * w2 ** X[:, 1]
                w0 = credit.sum() / np.dot(exposure, prod)
                best = max(best, mult_obj((w0, w1, w2)))
        checks.append(mult_obj(fitted.weights) >= best - 1e-6)

    # Dirichlet-shrunk rows: closed form
    for _ in range(20):
        L = int(rng.integers(2, 6))
        counts = rng.uniform(0.0, 5.0, size=(L, L))
        direction = rng.dirichlet((1.0,) * L, size=L)
        c = float(rng.uniform(0.1, 20.0))
        fitted = fit_categorical(counts, tuple(map(tuple, direction.tolist())), c)
        expect = (counts + c * direction) / (counts.sum(axis=1, keepdims=True) + c)
        checks.append(np.allclose(fitted.as_array, expect, rtol=1e-12, atol=1e-15))

    # regularized per-neighbor rates: blend formula and conservation
    for _ in range(20):
        k = int(rng.integers(2, 7))
        mcounts = rng.integers(0, 20, size=k).astype(float)
        ncounts = np.where(mcounts > 0, rng.uniform(0.0, 5.0, size=k), 0.0)
        wpool = float(rng.uniform(0.0, 1.0))
        got = regularized_rates(ncounts, mcounts, wpool)
        pooled = ncounts.sum() / mcounts.sum() if mcounts.sum() else 0.0
        own = np.divide(ncounts, mcounts, out=np.zeros(k), where=mcounts > 0)
        checks.append(np.allclose(got, wpool * pooled + (1 - wpool) * own,
                                  rtol=1e-12, atol=1e-15)
                      and abs(np.dot(got, mcounts) - ncounts.sum()) < 1e-9)

    # exponential-mixture single pass: formula reimplementation
    for _ in range(20):
        dts = rng.exponential(1.0, size=50)
        w = rng.uniform(0.1, 1.0, size=50)
        spec = ExpMixtureDelay((0.6, 0.4), (float(rng.uniform(1.5, 4.0)),
                                            float(rng.uniform(0.05, 0.5))))
        fitted = weighted_mle(spec, dts, w)
        dens = np.array([pi * lam * np.exp(-lam * dts)
                         for pi, lam in zip(spec.weights, spec.rates)])
        r = dens / dens.sum(axis=0)
        wr = r * w
        exp_pis = wr.sum(axis=1) / w.sum()
        exp_lams = wr.sum(axis=1) / (wr * dts).sum(axis=1)
        checks.append(np.allclose(fitted.weights, exp_pis, rtol=1e-12)
                      and np.allclose(fitted.rates, exp_lams, rtol=1e-12))

    bad = len(checks) - sum(checks)
    _verdict(6, "all closed-form updates match their brute-force oracles",
             bad == 0, f"{sum(checks)}/{len(checks)} instances agree")


# -------------------------------------------------------------------------
# 7. Dirichlet shrinkage beats unregularized fits on sparse graph data


def _ring_graph(n=50):
    nodes = [f"n{i:02d}" for i in range(n)]
    out = {nodes[i]: [nodes[(i + 1) % n], nodes[(i + 7) % n]] for i in range(n)}
    return Graph(nodes, out)


def test_acceptance_7_shrinkage_beats_unregularized():
    L = 6
    rows = []
    for i in range(L):
        row = [0.05] * L
        row[(i + 1) % L] = 0.75
        rows.append(tuple(row))
    trans = CategoricalMatrix(tuple(rows))
    graph = _ring_graph(50)
    wins = 0
    for trial in range(50):
        d, _ = simulate_graph(graph, 20.0, 7000 + trial,
                              type_marginal=(1 / L,) * L, base_rate=0.25,
                              self_rate=0.2, neighbor_rate=0.15,
                              transition=trans, delay=ExponentialDelay(1.0))
        cut = 15.0
        head_idx = np.nonzero(d.times <= cut)[0]
        evs = d.events
        train = Dataset([evs[int(j)] for j in head_idx], horizon=cut,
                        schema=d.schema)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            plain = fit_graph(graph, train, "shared_transition", rounds=1,
                              strength_grid=(0.0,), max_iters=4, tol=1e-3)
            shrunk = fit_graph(graph, train, "shared_transition", rounds=2,
                               strength_grid=(1.0, 10.0), max_iters=4, tol=1e-3)
        ll_plain = graph_log_likelihood(plain.models, d, graph, (cut, 20.0))
        ll_shrunk = graph_log_likelihood(shrunk.models, d, graph, (cut, 20.0))
        wins += ll_shrunk > ll_plain
    _verdict(7, "shrunk transition rows beat unregularized held-out LL in "
                ">= 45/50 sparse-graph trials", wins >= 45, f"{wins}/50 wins")


# -------------------------------------------------------------------------
# 8. Byte-identical outputs across reruns and worker counts


def _tree_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def test_acceptance_8_byte_determinism(tmp_path):
    model_conf = {
        "baseline": {"kind": "homogeneous", "rate": 0.9,
                     "mark": {"kind": "labels", "probs": [0.5, 0.3, 0.2]}},
        "components": [{
            "name": "k",
            "fertility": {"kind": "constant", "rate": 0.4},
            "transition": {"kind": "categorical",
                           "matrix": [[0.6, 0.2, 0.2], [0.2, 0.6, 0.2],
                                      [0.2, 0.2, 0.6]]},
            "delay": {"kind": "exponential", "rate": 1.0}}],
    }
    sim_conf = tmp_path / "sim.json"
    sim_conf.write_text(json.dumps({"model": model_conf, "horizon": 80.0}))
    fit_conf = tmp_path / "fit.json"
    fit_conf.write_text(json.dumps({"model": model_conf,
                                    "em": {"max_iters": 6}, "split": 0.8}))

    sims, fits = [], []
    for rep in ("r1", "r2"):
        sim_out = tmp_path / f"sim_{rep}"
        assert main(["simulate", "--config", str(sim_conf), "--out",
                     str(sim_out), "--seed", "17"]) == 0
        sims.append(_tree_bytes(sim_out))
        fit_out = tmp_path / f"fit_{rep}"
        assert main(["fit", "--config", str(fit_conf), "--data",
                     str(sim_out / "events.jsonl"), "--out", str(fit_out)]) == 0
        fits.append(_tree_bytes(fit_out))
    ok = sims[0] == sims[1] and fits[0] == fits[1]

    graph = Graph(["a", "b", "c", "d"],
                  {"a": ["b"], "b": ["c"], "c": ["d"], "d": ["a"]})
    trans = CategoricalMatrix(((0.7, 0.3), (0.4, 0.6)))
    d, _ = simulate_graph(graph, 60.0, 19, type_marginal=(0.6, 0.4),
                          base_rate=0.3, self_rate=0.2, neighbor_rate=0.2,
                          transition=trans, delay=ExponentialDelay(1.0))
    events = tmp_path / "gevents.jsonl"
    graph_file = tmp_path / "graph.jsonl"
    write_events(d, events)
    write_graph(graph, graph_file)
    gf_conf = tmp_path / "gf.json"
    gf_conf.write_text(json.dumps(
        {"graph_fit": {"variant": "shared_transition", "rounds": 1,
                       "strength_grid": [1.0, 10.0], "max_iters": 3,
                       "tol": 1e-4},
         "split": 0.8}))
    gfs = []
    for workers in (1, 4, 8, 1):
        out = tmp_path / f"gf_w{workers}_{len(gfs)}"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["graph-fit", "--config", str(gf_conf), "--data",
                         str(events), "--graph", str(graph_file), "--out",
                         str(out), "--workers", str(workers)]) == 0
        gfs.append(_tree_bytes(out))
    ok = ok and all(g == gfs[0] for g in gfs[1:])
    _verdict(8, "simulate/fit/graph-fit outputs byte-identical across reruns "
                "and worker counts {1,4,8}", ok)


# -------------------------------------------------------------------------
# 9. Argmax-responsibility parent recovery beats chance by 2x


def test_acceptance_9_parent_recovery_beats_chance():
    L = 8
    model = CascadeModel(
        HomogeneousBaseline(0.8, LabelMarginal((1 / L,) * L)),
        (KernelComponent("k", ConstantFertility(0.6), IdentityTransition(),
                         ExponentialDelay(2.0)),))
    d, forest = simulate(model, 800.0, seed=91)
    resp = e_step(model, d)
    score = parent_recovery_score(forest, resp)

    # Monte Carlo chance rate: pick uniformly among each triggered
    # event's candidate causes (its admissible parents plus the baseline)
    rng = np.random.default_rng(92)
    triggered = np.nonzero(forest.parents >= 0)[0]
    hits, draws = 0, 0
    reps = 200
    offsets = resp.comp_offsets[0]
    parents = resp.comp_parents[0]
    for i in triggered:
        cands = parents[offsets[i]:offsets[i + 1]]
        n_choice = cands.size + 1  # slot 0 is the baseline
        picks = rng.integers(0, n_choice, size=reps)
        true_pos = np.nonzero(cands == forest.parents[i])[0]
        if true_pos.size:
            hits += int(np.sum(picks == 1 + true_pos[0]))
        draws += reps
    chance = hits / draws
    ok = score >= 2 * chance and chance > 0
    _verdict(9, "argmax parent recovery at least twice the random-pick rate",
             ok, f"recovery {score:.3f} vs chance {chance:.3f} "
                 f"on {triggered.size} triggered events")
