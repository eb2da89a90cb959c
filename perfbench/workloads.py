"""The three benchmark workloads: seeded inputs, the CLI operations of
one cycle, and the checks every operation's output must pass.

Only the seed varies between runs; every model, size and option below
is fixed. ``smoke`` shrinks the inputs so the whole pipeline runs in
seconds (see test_smoke.py). The rationale for each workload is in
README.md.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

# Expected-count EM is run for exactly this many iterations (tol 0), so a
# fit does the same amount of work whatever the data.
FIT_ITERS = 8
SPLIT = 0.8
# fit() raises when the log likelihood drops by more than this share.
LL_DROP_RULE = 1e-8
# Recorded reference values must match to this relative tolerance; it
# admits reordered floating-point sums, not a change of algorithm.
LL_RTOL = 1e-8


class CheckFailed(Exception):
    """An operation finished but its output is wrong."""


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def tree_digest(root: str) -> str:
    """sha256 over every file name and content under root, in name order."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(root)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(root, name), "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= LL_RTOL * max(abs(a), abs(b))


def check_ll_trace(trace_csv: str) -> None:
    with open(trace_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    lls = [float(r["log_likelihood"]) for r in rows]
    for it, (prev, cur) in enumerate(zip(lls, lls[1:]), start=1):
        if prev - cur > LL_DROP_RULE * abs(prev) + 1e-12:
            raise CheckFailed(f"log likelihood fell at iteration {it}: {prev!r} -> {cur!r}")


def check_iterations(iterations: int, converged: bool, where: str) -> None:
    if iterations != FIT_ITERS and not (converged and iterations < FIT_ITERS):
        raise CheckFailed(f"{where}: {iterations} iterations, expected {FIT_ITERS} "
                          "or fewer with convergence")


def _check_reference(got: dict, ref: dict | None, where: str) -> None:
    """Compare recorded values: strings and integers exactly, floats to LL_RTOL."""
    if ref is None:
        return
    for key, want in ref.items():
        have = got.get(key)
        if isinstance(want, float):
            ok = isinstance(have, float) and _close(have, want)
        else:
            ok = have == want
        if not ok:
            raise CheckFailed(f"{where}: {key} is {have!r}, recorded {want!r}")


class Workload:
    """Base class: subclasses define inputs, operations and checks."""

    name = ""
    ops: tuple[str, ...] = ()

    def __init__(self, smoke: bool = False):
        self.smoke = smoke

    def generate(self, seed: int, inputs: str) -> int:
        """Write every input file into ``inputs``; return the event count."""
        raise NotImplementedError

    def argv(self, op: str, seed: int, inputs: str, out: str, workers: int) -> list[str]:
        raise NotImplementedError

    def check(self, op: str, seed: int, inputs: str, out: str) -> dict:
        """Raise CheckFailed on a wrong output; return the values that the
        reference file records for this operation."""
        raise NotImplementedError

    def cross_check(self, values: dict) -> None:
        """Checks across the operations of one cycle; ``values`` maps each
        operation to what check() returned for it."""


# ---------------------------------------------------------------------------
# label marks with one fast and one slow kernel


_CAT4 = [[0.55, 0.15, 0.15, 0.15], [0.15, 0.55, 0.15, 0.15],
         [0.15, 0.15, 0.55, 0.15], [0.15, 0.15, 0.15, 0.55]]
_UNIFORM4 = [[0.25] * 4 for _ in range(4)]


def _label_fit_model(slow_delay: dict) -> dict:
    return {"baseline": {"kind": "homogeneous", "rate": 0.5, "mark": {"kind": "empirical"}},
            "components": [
                {"name": "fast", "fertility": {"kind": "constant", "rate": 0.2},
                 "transition": {"kind": "categorical", "matrix": _UNIFORM4},
                 "delay": {"kind": "exponential", "rate": 0.8}},
                {"name": "slow", "fertility": {"kind": "constant", "rate": 0.2},
                 "transition": {"kind": "prior", "mark": {"kind": "empirical"}},
                 "delay": slow_delay}]}


class SimulateAndFit(Workload):
    """Shared set-up for the workloads that simulate a configured model and
    then fit the simulated stream."""

    truth: dict = {}
    fit_model: dict = {}
    horizon = 0.0
    smoke_horizon = 0.0

    def generate(self, seed: int, inputs: str) -> int:
        from cascades import config as cfg
        from cascades import events
        from cascades.simulate import simulate

        horizon = self.smoke_horizon if self.smoke else self.horizon
        _write_json(os.path.join(inputs, "simulate.json"),
                    {"model": self.truth, "horizon": horizon})
        em = {"max_iters": FIT_ITERS, "tol": 0.0}
        _write_json(os.path.join(inputs, "fit.json"),
                    {"model": self.fit_model, "em": em, "split": SPLIT})
        self.write_extra_configs(inputs, em)
        # the same calls `cascades simulate` makes, so the simulate
        # operation must reproduce this file byte for byte
        model = cfg.parse_model(self.truth, "model", data=None)
        d, _ = simulate(model, float(horizon), seed)
        events.write_events(d, os.path.join(inputs, "events.jsonl"))
        return len(d)

    def write_extra_configs(self, inputs: str, em: dict) -> None:
        pass

    def argv(self, op, seed, inputs, out, workers):
        data = os.path.join(inputs, "events.jsonl")
        if op == "simulate":
            return ["simulate", "--config", os.path.join(inputs, "simulate.json"),
                    "--out", out, "--seed", str(seed)]
        if op == "fit":
            return ["fit", "--config", os.path.join(inputs, "fit.json"),
                    "--data", data, "--out", out]
        if op == "compare":
            return ["compare", "--config", os.path.join(inputs, "compare.json"),
                    "--data", data, "--out", out]
        raise ValueError(op)

    def check(self, op, seed, inputs, out):
        if op == "simulate":
            digest = sha256_file(os.path.join(out, "events.jsonl"))
            if digest != sha256_file(os.path.join(inputs, "events.jsonl")):
                raise CheckFailed("simulate: events differ from the set-up stream "
                                  "drawn with the same model and seed")
            return {"events_sha256": digest,
                    "forest_sha256": sha256_file(os.path.join(out, "forest.jsonl"))}
        if op == "fit":
            check_ll_trace(os.path.join(out, "trace.csv"))
            with open(os.path.join(out, "summary.json")) as fh:
                summary = json.load(fh)
            check_iterations(summary["iterations"], summary["converged"], "fit")
            for key in ("train_ll", "test_ll"):
                if not math.isfinite(summary[key]):
                    raise CheckFailed(f"fit: {key} is not finite")
            return {"train_ll": summary["train_ll"], "test_ll": summary["test_ll"],
                    "iterations": summary["iterations"]}
        if op == "compare":
            with open(os.path.join(out, "compare.csv"), newline="") as fh:
                rows = {r["model"]: r for r in csv.DictReader(fh)}
            if sorted(rows) != ["exp", "gamma"]:
                raise CheckFailed(f"compare: models {sorted(rows)}, expected exp and gamma")
            got = {}
            for name, row in rows.items():
                check_iterations(int(row["iterations"]), row["converged"] == "True",
                                 f"compare {name}")
                got[f"{name}_train_ll"] = float(row["train_ll"])
                got[f"{name}_test_ll"] = float(row["test_ll"])
            return got
        raise ValueError(op)

    def cross_check(self, values):
        fit, cmp = values.get("fit"), values.get("compare")
        if fit is None or cmp is None:
            return
        # compare's "exp" entry is the fit config's model under the same options
        for key in ("train_ll", "test_ll"):
            if cmp[f"exp_{key}"] != fit[key]:
                raise CheckFailed(f"compare exp {key} {cmp[f'exp_{key}']!r} differs "
                                  f"from fit {fit[key]!r}")


class LabelsLong(SimulateAndFit):
    """4 labels, a fast categorical kernel and a slow prior kernel whose
    truncation window holds hundreds of candidate parents per event."""

    name = "labels-long"
    ops = ("simulate", "fit", "compare")
    truth = {
        "baseline": {"kind": "homogeneous", "rate": 0.8,
                     "mark": {"kind": "labels", "probs": [0.4, 0.3, 0.2, 0.1]}},
        "components": [
            {"name": "fast", "fertility": {"kind": "constant", "rate": 0.35},
             "transition": {"kind": "categorical", "matrix": _CAT4},
             "delay": {"kind": "exponential", "rate": 1.0}},
            {"name": "slow", "fertility": {"kind": "constant", "rate": 0.25},
             "transition": {"kind": "prior",
                            "mark": {"kind": "labels", "probs": [0.1, 0.2, 0.3, 0.4]}},
             "delay": {"kind": "exponential", "rate": 0.05}}]}
    # branching ratio 0.6: about 0.8 / 0.4 = 2 events per unit time
    horizon = 5000.0
    smoke_horizon = 150.0
    fit_model = _label_fit_model({"kind": "exponential", "rate": 0.1})

    def write_extra_configs(self, inputs, em):
        # "exp" qualifies for the recursive E-step under engine=auto;
        # "gamma" forces the pairwise E-step over the slow kernel's window
        models = {"exp": self.fit_model,
                  "gamma": _label_fit_model({"kind": "gamma", "shape": 2.0, "rate": 0.1})}
        _write_json(os.path.join(inputs, "compare.json"),
                    {"models": models, "em": dict(em, engine="auto"), "split": SPLIT})


class BinaryMult(SimulateAndFit):
    """Acceptance 3's model: 4 binary features, multiplicative fertility,
    feature-mixture transitions and a short exponential delay."""

    name = "binary-mult"
    ops = ("simulate", "fit")
    _weights = [0.3, 1.3, 0.8, 1.5, 0.6]
    _prior = {"kind": "features", "probs": [0.5] * 4}
    truth = {
        "baseline": {"kind": "homogeneous", "rate": 2.0, "mark": _prior},
        "components": [
            {"name": "k", "fertility": {"kind": "multiplicative", "weights": _weights},
             "transition": {"kind": "feature_mixture", "resample_prob": 0.3,
                            "prior": _prior},
             "delay": {"kind": "exponential", "rate": 1.0}}]}
    # mean offspring m = 0.3 * 1.15 * 0.9 * 1.25 * 0.8 = 0.3105, so about
    # 14k events over 14000 * (1 - m) / 2.0
    horizon = 4826.5
    smoke_horizon = 150.0
    fit_model = {
        "baseline": {"kind": "homogeneous", "rate": 1.2, "mark": _prior},
        "components": [
            {"name": "k",
             "fertility": {"kind": "multiplicative", "weights": [0.45, 1.0, 1.0, 1.0, 1.0]},
             "transition": {"kind": "feature_mixture", "resample_prob": 0.5,
                            "prior": _prior},
             "delay": {"kind": "exponential", "rate": 0.6}}]}


# ---------------------------------------------------------------------------
# per-node graph fits


class GraphRing(Workload):
    """A ring with edges i -> i+1 and i -> i+7 and 6 types; graph-fit runs
    thousands of small per-node fits."""

    name = "graph-ring"
    ops = ("graph-fit",)
    types = 6
    strength_grid = (1.0, 10.0)

    def __init__(self, smoke: bool = False):
        super().__init__(smoke)
        self.nodes = 12 if smoke else 100
        self.horizon = 20.0 if smoke else 40.0

    def generate(self, seed, inputs):
        from cascades import events
        from cascades.delays import ExponentialDelay
        from cascades.graphs import Graph, simulate_graph, write_graph
        from cascades.transitions import CategoricalMatrix

        n, L = self.nodes, self.types
        names = [f"n{i:03d}" for i in range(n)]
        graph = Graph(names, {names[i]: [names[(i + 1) % n], names[(i + 7) % n]]
                              for i in range(n)})
        rows = []
        for i in range(L):
            row = [0.05] * L
            row[(i + 1) % L] = 0.75
            rows.append(tuple(row))
        d, _ = simulate_graph(graph, self.horizon, seed, type_marginal=(1 / L,) * L,
                              base_rate=0.25, self_rate=0.2, neighbor_rate=0.15,
                              transition=CategoricalMatrix(tuple(rows)),
                              delay=ExponentialDelay(1.0))
        events.write_events(d, os.path.join(inputs, "events.jsonl"))
        write_graph(graph, os.path.join(inputs, "graph.jsonl"))
        _write_json(os.path.join(inputs, "graph_fit.json"),
                    {"graph_fit": {"variant": "shared_transition", "rounds": 2,
                                   "strength_grid": list(self.strength_grid),
                                   "max_iters": 4},
                     "split": SPLIT})
        return len(d)

    def argv(self, op, seed, inputs, out, workers):
        return ["graph-fit", "--config", os.path.join(inputs, "graph_fit.json"),
                "--data", os.path.join(inputs, "events.jsonl"),
                "--graph", os.path.join(inputs, "graph.jsonl"),
                "--out", out, "--workers", str(workers)]

    def check(self, op, seed, inputs, out):
        with open(os.path.join(out, "graph_fit.json")) as fh:
            result = json.load(fh)
        if result["strength"] not in self.strength_grid:
            raise CheckFailed(f"graph-fit: strength {result['strength']} not in the grid")
        if len(result["models"]) != self.nodes:
            raise CheckFailed(f"graph-fit: {len(result['models'])} node models, "
                              f"expected {self.nodes}")
        for key in ("val_ll", "test_ll"):
            if not isinstance(result[key], float) or not math.isfinite(result[key]):
                raise CheckFailed(f"graph-fit: {key} is not a finite number")
        return {"strength": result["strength"], "test_ll": result["test_ll"]}


WORKLOADS = {w.name: w for w in (LabelsLong, BinaryMult, GraphRing)}


def check_against_reference(workload: Workload, op: str, seed: int, got: dict,
                            reference: dict) -> None:
    """Compare an operation's values with those recorded for this seed at
    the commit the benchmark was defined on; seeds without a record pass."""
    if workload.smoke:
        return
    ref = reference.get(workload.name, {}).get(str(seed), {}).get(op)
    _check_reference(got, ref, f"{op} (seed {seed})")
