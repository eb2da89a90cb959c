"""JSON configuration for models and runs.

Configs are strict: unknown keys are rejected with the offending JSON
path in the message, so typos fail loudly instead of silently falling
back to defaults. Mark distributions (and transition priors) may be the
placeholder {"kind": "empirical"}, which is resolved from the training
data when the model is parsed with a dataset at hand.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

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
from .graphs import POOL_GRID, STRENGTH_GRID, VARIANTS
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


def _integer(obj: dict, key: str, where: str) -> int:
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{where}.{key}: expected an integer, got {v!r}")
    return v


def _options(cls, obj: dict | None, where: str, checks):
    """``cls()`` with the fields that ``obj`` sets, each read by the type
    of its default (integer, number, list of numbers, string or delay),
    then ``checks(opts)``: (field, holds, what it needs) triples."""
    opts = cls()
    if obj is not None:
        _require(obj, where, (), tuple(vars(opts)))
        read = {int: _integer, float: _number, str: lambda o, key, w: o[key],
                tuple: lambda o, key, w: tuple(_number_list(o, key, w))}
        opts = replace(opts, **{
            key: read.get(type(getattr(opts, key)),
                          lambda o, key, w: parse_delay(o[key], f"{w}.{key}"))(obj, key, where)
            for key in obj})
    for key, holds, needs in checks(opts):
        if not holds:
            raise ConfigError(f"{where}.{key}: {needs}")
    return opts


@dataclass(frozen=True)
class EmOptions:
    max_iters: int = 50
    tol: float = 1e-6
    engine: str = "auto"


def parse_em_options(obj: dict | None, where: str = "em") -> EmOptions:
    return _options(EmOptions, obj, where, lambda o: (
        ("max_iters", o.max_iters >= 0, "must be nonnegative"),
        ("engine", o.engine in ("auto", "direct", "fast"), "must be 'auto', 'direct' or 'fast'"),
        ("tol", o.tol >= 0, "must be nonnegative")))


@dataclass(frozen=True)
class GraphOptions:
    variant: str = "shared_transition"
    rounds: int = 2
    strength_grid: tuple = STRENGTH_GRID
    pool_grid: tuple = POOL_GRID
    val_fraction: float = 0.25
    delay: DelaySpec = ExponentialDelay(1.0)
    max_iters: int = 25
    tol: float = 1e-5


def parse_graph_options(obj: dict | None, where: str = "graph_fit") -> GraphOptions:
    return _options(GraphOptions, obj, where, lambda o: (
        ("variant", o.variant in VARIANTS,
         f"unknown variant {o.variant!r}, expected one of {', '.join(VARIANTS)}"),
        ("rounds", o.rounds >= 1, "must be at least 1"),
        ("strength_grid", len(o.strength_grid) > 0, "must be nonempty"),
        ("strength_grid", all(0.0 <= c < float("inf") for c in o.strength_grid),
         "strengths must be finite and nonnegative"),
        ("pool_grid", len(o.pool_grid) > 0 and all(0.0 <= w <= 1.0 for w in o.pool_grid),
         "must be nonempty, with pool weights in [0, 1]"),
        ("val_fraction", 0.0 < o.val_fraction < 1.0, "must lie strictly between 0 and 1"),
        ("max_iters", o.max_iters >= 0, "must be nonnegative"),
        ("tol", o.tol >= 0, "must be nonnegative")))
