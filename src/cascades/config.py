"""JSON configuration for models and runs.

Configs are strict: unknown keys are rejected with the offending JSON
path in the message, so typos fail loudly instead of silently falling
back to defaults.

Every spec (delay, fertility, transition, mark distribution, baseline)
goes through one codec driven by its dataclass. Reading, ``kind`` picks
a class among those the annotation at that JSON path allows, the fields
without defaults are the required keys, and each value is read by its
field's annotated type: numbers, lists of numbers, nested specs.
Writing gives ``kind`` and then the fields in declaration order. Run
options are read by the same typed-value reader. Mark distributions may
be the placeholder {"kind": "empirical"}, which is resolved from the
training data when the model is parsed with a dataset at hand.
"""

from __future__ import annotations

import json
import types
from dataclasses import MISSING, dataclass, fields, replace
from typing import Union, get_args, get_origin, get_type_hints

from . import transitions as trans_mod
from .delays import DelaySpec, ExponentialDelay
from .engine import BaselineSpec, CascadeModel, KernelComponent
from .errors import CascadesError, ConfigError
from .events import BinarySchema, Dataset
from .fertility import FertilitySpec
from .graphs import POOL_GRID, STRENGTH_GRID, VARIANTS, _grid_rules
from .transitions import FeaturePrior, LabelMarginal, TransitionSpec


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


def _number(v, where: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {v!r}")
    try:
        return float(v)
    except OverflowError:  # a JSON integer past the float range
        raise ConfigError(f"{where}: number out of floating-point range") from None


def _number_list(v, where: str) -> tuple[float, ...]:
    if not isinstance(v, list) or any(isinstance(x, bool) or
                                      not isinstance(x, (int, float)) for x in v):
        raise ConfigError(f"{where}: expected a list of numbers")
    return tuple(_number(x, f"{where}[{i}]") for i, x in enumerate(v))


def _integer(v, where: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{where}: expected an integer, got {v!r}")
    return v


def _string(v, where: str) -> str:
    if not isinstance(v, str):
        raise ConfigError(f"{where}: expected a string, got {v!r}")
    return v


def _wrap(where: str, build):
    try:
        return build()
    except CascadesError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


# ---------------------------------------------------------------------------
# the spec codec


def _value(v, typ, where: str, data: Dataset | None):
    """The JSON value ``v`` at path ``where`` read as the annotated type
    ``typ``. A union of specs picks its member by ``kind``; any other
    union takes its first member that reads."""
    readers = {float: _number, int: _integer, str: _string}
    if typ in readers:
        return readers[typ](v, where)
    if typ == tuple[float, ...]:
        return _number_list(v, where)
    if get_origin(typ) is tuple:
        if not isinstance(v, list):
            raise ConfigError(f"{where}: expected a list")
        return tuple(_value(x, get_args(typ)[0], f"{where}[{i}]", data)
                     for i, x in enumerate(v))
    family = get_args(typ) if get_origin(typ) in (Union, types.UnionType) else (typ,)
    if v is None and type(None) in family:
        return None
    family = tuple(t for t in family if t is not type(None))
    if all(hasattr(t, "kind") for t in family):
        return _spec(v, family, where, data)
    for alt in family[:-1]:
        try:
            return _value(v, alt, where, data)
        except ConfigError:
            pass
    return _value(v, family[-1], where, data)


def _spec(obj, family: tuple, where: str, data: Dataset | None):
    """A spec of one of the ``family`` classes from its JSON object."""
    if obj != "empirical" and (not isinstance(obj, dict) or "kind" not in obj):
        raise ConfigError(f"{where}: expected an object with a 'kind' key")
    kind = obj if obj == "empirical" else obj["kind"]
    if kind == "empirical" and set(family) <= {FeaturePrior, LabelMarginal}:
        return _empirical(obj, family, where, data)
    cls = next((c for c in family if c.kind == kind), None)
    if cls is None:
        raise ConfigError(f"{where}: unknown kind {kind!r}, expected one of "
                          + ", ".join(repr(c.kind) for c in family))
    hints = get_type_hints(cls)
    optional = {f.name for f in fields(cls)
                if f.default is not MISSING or f.default_factory is not MISSING}
    _require(obj, where, ("kind",) + tuple(f.name for f in fields(cls)
                                           if f.name not in optional), tuple(optional))
    values = {key: _value(obj[key], hints[key], f"{where}.{key}", data)
              for key in obj if key != "kind"}
    return _wrap(where, lambda: cls(**values))


def _empirical(obj, family: tuple, where: str, data: Dataset | None):
    """The placeholder mark distribution, fitted to ``data``."""
    if obj != "empirical":
        _require(obj, where, ("kind",))
    if data is None:
        raise ConfigError(f"{where}: empirical distribution needs training data")
    if len(data) == 0:
        raise ConfigError(f"{where}: empirical distribution needs at least one event")
    dist = (trans_mod.fit_prior(data) if isinstance(data.schema, BinarySchema)
            else trans_mod.fit_marginal(data))
    if type(dist) not in family:
        raise ConfigError(f"{where}: the data's marks give a {dist.kind!r} distribution, "
                          f"expected {family[0].kind!r}")
    return dist


def _encode(value):
    """JSON data of a spec (``kind``, then its fields in declaration
    order), of a tuple, or a plain value as it is."""
    if hasattr(value, "kind"):
        return {"kind": value.kind,
                **{f.name: _encode(getattr(value, f.name)) for f in fields(value)}}
    if isinstance(value, tuple):
        return [_encode(x) for x in value]
    return value


# ---------------------------------------------------------------------------
# components and model


def parse_component(obj: dict, where: str, data: Dataset | None = None) -> KernelComponent:
    _require(obj, where, ("name", "fertility", "transition", "delay"),
             ("sources", "transition_group", "delay_group"))
    if not isinstance(obj["name"], str) or not obj["name"]:
        raise ConfigError(f"{where}.name: expected a nonempty string")
    hints = get_type_hints(KernelComponent)
    return KernelComponent(**{key: _value(v, hints[key], f"{where}.{key}", data)
                              for key, v in obj.items()})


def serialize_component(comp: KernelComponent) -> dict:
    """Every field but the unset optional ones (sources, groups)."""
    return {f.name: _encode(getattr(comp, f.name)) for f in fields(comp)
            if getattr(comp, f.name) is not None}


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
    truncation = _number(obj.get("truncation_mass", 1e-6), f"{where}.truncation_mass")
    # the nested readers name their own paths; only the model's own
    # checks need this one
    baseline = _value(obj["baseline"], BaselineSpec, f"{where}.baseline", data)
    components = tuple(parse_component(c, f"{where}.components[{i}]", data)
                       for i, c in enumerate(comps))
    return _wrap(where, lambda: CascadeModel(baseline, components, normalization, truncation))


def serialize_model(model: CascadeModel) -> dict:
    return {"baseline": _encode(model.baseline),
            "components": [serialize_component(c) for c in model.components],
            "normalization": model.normalization,
            "truncation_mass": model.truncation_mass}


# ---------------------------------------------------------------------------
# run options


def _options(cls, obj: dict | None, where: str, checks):
    """``cls()`` with the fields that ``obj`` sets, each read by its
    annotated type, then ``checks(opts)``: (field, holds, what it needs)
    triples."""
    opts = cls()
    if obj is not None:
        _require(obj, where, (), tuple(vars(opts)))
        hints = get_type_hints(cls)
        opts = replace(opts, **{key: _value(obj[key], hints[key], f"{where}.{key}", None)
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
    strength_grid: tuple[float, ...] = STRENGTH_GRID
    pool_grid: tuple[float, ...] = POOL_GRID
    val_fraction: float = 0.25
    delay: DelaySpec = ExponentialDelay(1.0)
    max_iters: int = 25
    tol: float = 1e-5


def parse_graph_options(obj: dict | None, where: str = "graph_fit") -> GraphOptions:
    return _options(GraphOptions, obj, where, lambda o: (
        ("variant", o.variant in VARIANTS,
         f"unknown variant {o.variant!r}, expected one of {', '.join(VARIANTS)}"),
        ("rounds", o.rounds >= 1, "must be at least 1"),
        *_grid_rules(o.strength_grid, o.pool_grid),
        ("val_fraction", 0.0 < o.val_fraction < 1.0, "must lie strictly between 0 and 1"),
        ("max_iters", o.max_iters >= 0, "must be nonnegative"),
        ("tol", o.tol >= 0, "must be nonnegative")))
