"""JSON configuration for models and runs.

Configs are strict: unknown keys are rejected with the offending JSON
path in the message, so typos fail loudly instead of silently falling
back to defaults. Mark distributions (and transition priors) may be the
placeholder {"kind": "empirical"}, which is resolved from the training
data when the model is parsed with a dataset at hand.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import transitions as trans_mod
from .delays import (DelaySpec, ExponentialDelay, ExpMixtureDelay, GammaDelay,
                     PiecewiseUniformDelay, UniformDelay)
from .delays import validate as validate_delay
from .engine import (CascadeModel, HomogeneousBaseline, KernelComponent,
                     PeriodicBaseline)
from .errors import CascadesError, ConfigError
from .events import BinarySchema, Dataset
from .fertility import (CombinedFertility, ConstantFertility, FertilitySpec,
                        LinearFertility, MultiplicativeFertility)
from .transitions import (CategoricalMatrix, FeatureMixture, FeaturePrior,
                          IdentityTransition, LabelMarginal, MarkDistribution,
                          PriorTransition, TransitionSpec)


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: malformed JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return obj


def _require(obj: dict, where: str, required: tuple, optional: tuple = ()) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected a JSON object")
    missing = [k for k in required if k not in obj]
    if missing:
        raise ConfigError(f"{where}: missing keys {missing}")
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")


def _number(obj: dict, key: str, where: str) -> float:
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where}.{key}: expected a number, got {v!r}")
    return float(v)


def _number_list(obj: dict, key: str, where: str) -> list[float]:
    v = obj[key]
    if not isinstance(v, list) or any(isinstance(x, bool) or
                                      not isinstance(x, (int, float)) for x in v):
        raise ConfigError(f"{where}.{key}: expected a list of numbers")
    return [float(x) for x in v]


def _kind(obj: dict, where: str) -> str:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError(f"{where}: expected an object with a 'kind' key")
    return obj["kind"]


def _wrap(where: str, build):
    try:
        return build()
    except CascadesError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


# ---------------------------------------------------------------------------
# mark distributions


def parse_mark_dist(obj: dict, where: str, data: Dataset | None = None) -> MarkDistribution:
    kind = _kind(obj, where)
    if kind == "features":
        _require(obj, where, ("kind", "probs"))
        return _wrap(where, lambda: FeaturePrior(tuple(_number_list(obj, "probs", where))))
    if kind == "labels":
        _require(obj, where, ("kind", "probs"))
        return _wrap(where, lambda: LabelMarginal(tuple(_number_list(obj, "probs", where))))
    if kind == "empirical":
        _require(obj, where, ("kind",))
        if data is None:
            raise ConfigError(f"{where}: empirical distribution needs training data")
        if len(data) == 0:
            raise ConfigError(f"{where}: empirical distribution needs at least one event")
        if isinstance(data.schema, BinarySchema):
            return trans_mod.fit_prior(data)
        return trans_mod.fit_marginal(data)
    raise ConfigError(f"{where}: unknown mark distribution kind {kind!r}")


def serialize_mark_dist(dist: MarkDistribution) -> dict:
    if isinstance(dist, FeaturePrior):
        return {"kind": "features", "probs": list(dist.probs)}
    return {"kind": "labels", "probs": list(dist.probs)}


# ---------------------------------------------------------------------------
# delays


def parse_delay(obj: dict, where: str) -> DelaySpec:
    kind = _kind(obj, where)
    if kind == "exponential":
        _require(obj, where, ("kind", "rate"))
        spec: DelaySpec = ExponentialDelay(_number(obj, "rate", where))
    elif kind == "gamma":
        _require(obj, where, ("kind", "shape", "rate"))
        spec = GammaDelay(_number(obj, "shape", where), _number(obj, "rate", where))
    elif kind == "uniform":
        _require(obj, where, ("kind", "width"))
        spec = UniformDelay(_number(obj, "width", where))
    elif kind == "piecewise_uniform":
        _require(obj, where, ("kind", "edges", "probs"))
        spec = _wrap(where, lambda: PiecewiseUniformDelay(
            tuple(_number_list(obj, "edges", where)),
            tuple(_number_list(obj, "probs", where))))
    elif kind == "exp_mixture":
        _require(obj, where, ("kind", "weights", "rates"))
        spec = _wrap(where, lambda: ExpMixtureDelay(
            tuple(_number_list(obj, "weights", where)),
            tuple(_number_list(obj, "rates", where))))
    else:
        raise ConfigError(f"{where}: unknown delay kind {kind!r}")
    _wrap(where, lambda: validate_delay(spec))
    return spec


def serialize_delay(spec: DelaySpec) -> dict:
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


# ---------------------------------------------------------------------------
# fertility


def parse_fertility(obj: dict, where: str, nested: bool = False) -> FertilitySpec:
    kind = _kind(obj, where)
    if kind == "constant":
        _require(obj, where, ("kind", "rate"))
        return _wrap(where, lambda: ConstantFertility(_number(obj, "rate", where)))
    if kind == "linear":
        _require(obj, where, ("kind", "bias", "slopes"))
        return _wrap(where, lambda: LinearFertility(
            _number(obj, "bias", where), tuple(_number_list(obj, "slopes", where))))
    if kind == "multiplicative":
        _require(obj, where, ("kind", "weights"))
        return _wrap(where, lambda: MultiplicativeFertility(
            tuple(_number_list(obj, "weights", where))))
    if kind == "combined":
        if nested:
            raise ConfigError(f"{where}: combined fertilities cannot nest")
        _require(obj, where, ("kind", "terms"))
        terms = obj["terms"]
        if not isinstance(terms, list) or not terms:
            raise ConfigError(f"{where}.terms: expected a nonempty list")
        parsed = tuple(parse_fertility(t, f"{where}.terms[{i}]", nested=True)
                       for i, t in enumerate(terms))
        return _wrap(where, lambda: CombinedFertility(parsed))
    raise ConfigError(f"{where}: unknown fertility kind {kind!r}")


def serialize_fertility(spec: FertilitySpec) -> dict:
    if isinstance(spec, ConstantFertility):
        return {"kind": "constant", "rate": spec.rate}
    if isinstance(spec, LinearFertility):
        return {"kind": "linear", "bias": spec.bias, "slopes": list(spec.slopes)}
    if isinstance(spec, MultiplicativeFertility):
        return {"kind": "multiplicative", "weights": list(spec.weights)}
    return {"kind": "combined",
            "terms": [serialize_fertility(t) for t in spec.terms]}


# ---------------------------------------------------------------------------
# transitions


def parse_transition(obj: dict, where: str, data: Dataset | None = None) -> TransitionSpec:
    kind = _kind(obj, where)
    if kind == "identity":
        _require(obj, where, ("kind",))
        return IdentityTransition()
    if kind == "prior":
        _require(obj, where, ("kind", "mark"))
        return PriorTransition(parse_mark_dist(obj["mark"], f"{where}.mark", data))
    if kind == "feature_mixture":
        _require(obj, where, ("kind", "resample_prob", "prior"))
        prior_obj = obj["prior"]
        if prior_obj == "empirical":
            prior_obj = {"kind": "empirical"}
        prior = parse_mark_dist(prior_obj, f"{where}.prior", data)
        if not isinstance(prior, FeaturePrior):
            raise ConfigError(f"{where}.prior: feature mixtures need a feature prior")
        return _wrap(where, lambda: FeatureMixture(
            _number(obj, "resample_prob", where), prior))
    if kind == "categorical":
        _require(obj, where, ("kind", "matrix"), ("prior_direction", "prior_strength"))
        matrix = obj["matrix"]
        if not isinstance(matrix, list) or not all(isinstance(r, list) for r in matrix):
            raise ConfigError(f"{where}.matrix: expected a list of rows")
        rows = tuple(tuple(float(x) for x in r) for r in matrix)
        direction = obj.get("prior_direction")
        if direction is not None:
            if isinstance(direction, list) and direction and isinstance(direction[0], list):
                direction = tuple(tuple(float(x) for x in r) for r in direction)
            elif isinstance(direction, list):
                direction = tuple(float(x) for x in direction)
            else:
                raise ConfigError(f"{where}.prior_direction: expected a list")
        strength = obj.get("prior_strength", 0.0)
        if isinstance(strength, bool) or not isinstance(strength, (int, float)):
            raise ConfigError(f"{where}.prior_strength: expected a number")
        return _wrap(where, lambda: CategoricalMatrix(rows, prior_direction=direction,
                                                      prior_strength=float(strength)))
    raise ConfigError(f"{where}: unknown transition kind {kind!r}")


def serialize_transition(spec: TransitionSpec) -> dict:
    if isinstance(spec, IdentityTransition):
        return {"kind": "identity"}
    if isinstance(spec, PriorTransition):
        return {"kind": "prior", "mark": serialize_mark_dist(spec.dist)}
    if isinstance(spec, FeatureMixture):
        return {"kind": "feature_mixture", "resample_prob": spec.resample_prob,
                "prior": serialize_mark_dist(spec.prior)}
    direction = spec.prior_direction
    if direction is not None and isinstance(direction[0], tuple):
        direction = [list(r) for r in direction]
    elif direction is not None:
        direction = list(direction)
    return {"kind": "categorical", "matrix": [list(r) for r in spec.matrix],
            "prior_direction": direction, "prior_strength": spec.prior_strength}


# ---------------------------------------------------------------------------
# baseline, components, model


def parse_baseline(obj: dict, where: str, data: Dataset | None = None):
    kind = _kind(obj, where)
    if kind == "homogeneous":
        _require(obj, where, ("kind", "rate", "mark"))
        return _wrap(where, lambda: HomogeneousBaseline(
            _number(obj, "rate", where),
            parse_mark_dist(obj["mark"], f"{where}.mark", data)))
    if kind == "periodic":
        _require(obj, where, ("kind", "period", "rates", "mark"))
        return _wrap(where, lambda: PeriodicBaseline(
            _number(obj, "period", where),
            tuple(_number_list(obj, "rates", where)),
            parse_mark_dist(obj["mark"], f"{where}.mark", data)))
    raise ConfigError(f"{where}: unknown baseline kind {kind!r}")


def serialize_baseline(baseline) -> dict:
    if isinstance(baseline, HomogeneousBaseline):
        return {"kind": "homogeneous", "rate": baseline.rate,
                "mark": serialize_mark_dist(baseline.mark)}
    return {"kind": "periodic", "period": baseline.period,
            "rates": list(baseline.rates),
            "mark": serialize_mark_dist(baseline.mark)}


def parse_component(obj: dict, where: str, data: Dataset | None = None) -> KernelComponent:
    _require(obj, where, ("name", "fertility", "transition", "delay"),
             ("sources", "transition_group", "delay_group"))
    name = obj["name"]
    if not isinstance(name, str) or not name:
        raise ConfigError(f"{where}.name: expected a nonempty string")
    sources = obj.get("sources")
    if sources is not None:
        if not isinstance(sources, list) or not all(isinstance(s, str) for s in sources):
            raise ConfigError(f"{where}.sources: expected a list of node ids")
        sources = tuple(sources)
    for key in ("transition_group", "delay_group"):
        val = obj.get(key)
        if val is not None and not isinstance(val, str):
            raise ConfigError(f"{where}.{key}: expected a string")
    return KernelComponent(
        name=name,
        fertility=parse_fertility(obj["fertility"], f"{where}.fertility"),
        transition=parse_transition(obj["transition"], f"{where}.transition", data),
        delay=parse_delay(obj["delay"], f"{where}.delay"),
        sources=sources,
        transition_group=obj.get("transition_group"),
        delay_group=obj.get("delay_group"))


def serialize_component(comp: KernelComponent) -> dict:
    out = {"name": comp.name,
           "fertility": serialize_fertility(comp.fertility),
           "transition": serialize_transition(comp.transition),
           "delay": serialize_delay(comp.delay)}
    if comp.sources is not None:
        out["sources"] = list(comp.sources)
    if comp.transition_group is not None:
        out["transition_group"] = comp.transition_group
    if comp.delay_group is not None:
        out["delay_group"] = comp.delay_group
    return out


def parse_model(obj: dict, where: str = "model",
                data: Dataset | None = None) -> CascadeModel:
    _require(obj, where, ("baseline",),
             ("components", "normalization", "truncation_mass"))
    comps = obj.get("components", [])
    if not isinstance(comps, list):
        raise ConfigError(f"{where}.components: expected a list")
    normalization = obj.get("normalization", True)
    if not isinstance(normalization, bool):
        raise ConfigError(f"{where}.normalization: expected true or false")
    truncation = obj.get("truncation_mass", 1e-6)
    if isinstance(truncation, bool) or not isinstance(truncation, (int, float)):
        raise ConfigError(f"{where}.truncation_mass: expected a number")
    return _wrap(where, lambda: CascadeModel(
        baseline=parse_baseline(obj["baseline"], f"{where}.baseline", data),
        components=tuple(parse_component(c, f"{where}.components[{i}]", data)
                         for i, c in enumerate(comps)),
        normalization=normalization,
        truncation_mass=float(truncation)))


def serialize_model(model: CascadeModel) -> dict:
    return {"baseline": serialize_baseline(model.baseline),
            "components": [serialize_component(c) for c in model.components],
            "normalization": model.normalization,
            "truncation_mass": model.truncation_mass}


# ---------------------------------------------------------------------------
# run options


@dataclass(frozen=True)
class EmOptions:
    max_iters: int = 50
    tol: float = 1e-6
    engine: str = "auto"


def parse_em_options(obj: dict | None, where: str = "em") -> EmOptions:
    if obj is None:
        return EmOptions()
    _require(obj, where, (), ("max_iters", "tol", "engine"))
    opts = EmOptions(
        max_iters=int(obj.get("max_iters", 50)),
        tol=float(obj.get("tol", 1e-6)),
        engine=obj.get("engine", "auto"))
    if opts.max_iters < 0:
        raise ConfigError(f"{where}.max_iters: must be nonnegative")
    if opts.engine not in ("auto", "direct", "fast"):
        raise ConfigError(f"{where}.engine: must be 'auto', 'direct' or 'fast'")
    if not opts.tol >= 0:
        raise ConfigError(f"{where}.tol: must be nonnegative")
    return opts


@dataclass(frozen=True)
class GraphOptions:
    variant: str = "shared_transition"
    rounds: int = 2
    strength_grid: tuple = (0.1, 1.0, 10.0, 100.0)
    pool_grid: tuple = (0.0, 0.25, 0.5, 0.75, 1.0)
    val_fraction: float = 0.25
    delay: DelaySpec = ExponentialDelay(1.0)
    max_iters: int = 25
    tol: float = 1e-5


def graph_variants() -> tuple:
    from .graphs import VARIANTS
    return VARIANTS


def parse_graph_options(obj: dict | None, where: str = "graph_fit") -> GraphOptions:
    if obj is None:
        return GraphOptions()
    _require(obj, where, (), ("variant", "rounds", "strength_grid", "pool_grid",
                              "val_fraction", "delay", "max_iters", "tol"))
    delay = (parse_delay(obj["delay"], f"{where}.delay")
             if "delay" in obj else ExponentialDelay(1.0))
    opts = GraphOptions(
        variant=obj.get("variant", "shared_transition"),
        rounds=int(obj.get("rounds", 2)),
        strength_grid=tuple(float(x) for x in obj.get("strength_grid",
                                                      (0.1, 1.0, 10.0, 100.0))),
        pool_grid=tuple(float(x) for x in obj.get("pool_grid",
                                                  (0.0, 0.25, 0.5, 0.75, 1.0))),
        val_fraction=float(obj.get("val_fraction", 0.25)),
        delay=delay,
        max_iters=int(obj.get("max_iters", 25)),
        tol=float(obj.get("tol", 1e-5)))
    if opts.variant not in graph_variants():
        raise ConfigError(f"{where}.variant: unknown variant {opts.variant!r}, "
                          f"expected one of {', '.join(graph_variants())}")
    if opts.rounds < 1:
        raise ConfigError(f"{where}.rounds: must be at least 1")
    if not opts.strength_grid:
        raise ConfigError(f"{where}.strength_grid: must be nonempty")
    if not all(0.0 <= c < float("inf") for c in opts.strength_grid):
        raise ConfigError(f"{where}.strength_grid: strengths must be finite and "
                          "nonnegative")
    if not opts.pool_grid or not all(0.0 <= w <= 1.0 for w in opts.pool_grid):
        raise ConfigError(f"{where}.pool_grid: must be nonempty, with pool weights "
                          "in [0, 1]")
    if not 0.0 < opts.val_fraction < 1.0:
        raise ConfigError(f"{where}.val_fraction: must lie strictly between 0 and 1")
    if opts.max_iters < 0:
        raise ConfigError(f"{where}.max_iters: must be nonnegative")
    if not opts.tol >= 0:
        raise ConfigError(f"{where}.tol: must be nonnegative")
    return opts
