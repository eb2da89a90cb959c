"""Fertility models: expected offspring counts as functions of the
parent's mark.

Constant fertility works for any mark kind; linear and multiplicative
forms read binary feature vectors, and a combined form sums such terms.
M-step updates maximize the weighted Poisson likelihood

    sum_e credit_e * log(alpha(x_e)) - exposure_e * alpha(x_e)

where credits are expected triggered counts and exposures are the
edge-corrected delay masses accumulated per potential parent.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ConfigError, DataError, NumericalError
from .events import BinaryMark, BinarySchema, Mark, MarkSchema

WEIGHT_FLOOR = 1e-12


@dataclass(frozen=True)
class ConstantFertility:
    rate: float

    def __post_init__(self):
        if self.rate < 0 or not np.isfinite(self.rate):
            raise DataError("constant fertility must be finite and nonnegative")


@dataclass(frozen=True)
class LinearFertility:
    """bias + sum of slopes over active features; all coefficients >= 0."""

    bias: float
    slopes: tuple[float, ...]

    def __post_init__(self):
        if self.bias < 0 or any(s < 0 for s in self.slopes):
            raise DataError("linear fertility coefficients must be nonnegative")


@dataclass(frozen=True)
class MultiplicativeFertility:
    """weights[0] * product of weights[1 + i] over active features i.

    All weights are strictly positive; updates clamp at a small floor
    rather than reaching zero so the form stays log-linear.
    """

    weights: tuple[float, ...]

    def __post_init__(self):
        if not self.weights:
            raise DataError("multiplicative fertility needs at least the bias weight")
        if any(w <= 0 for w in self.weights):
            raise DataError("multiplicative fertility weights must be positive")


@dataclass(frozen=True)
class CombinedFertility:
    terms: tuple

    def __post_init__(self):
        if not self.terms:
            raise DataError("combined fertility needs at least one term")
        for term in self.terms:
            if isinstance(term, CombinedFertility):
                raise DataError("combined fertility terms cannot nest")


FertilitySpec = Union[ConstantFertility, LinearFertility,
                      MultiplicativeFertility, CombinedFertility]


def check_schema(spec: FertilitySpec, schema: MarkSchema, where: str) -> None:
    """Raise ConfigError when ``spec`` cannot score marks of ``schema``."""
    if isinstance(spec, ConstantFertility):
        return
    if not isinstance(schema, BinarySchema):
        raise ConfigError(f"{where}: feature-based fertility needs binary marks")
    for term in spec.terms if isinstance(spec, CombinedFertility) else (spec,):
        if ((isinstance(term, LinearFertility) and len(term.slopes) != schema.width)
                or (isinstance(term, MultiplicativeFertility)
                    and len(term.weights) - 1 != schema.width)):
            raise ConfigError(f"{where}: fertility width mismatch")


def evaluate(spec: FertilitySpec, mark: Mark) -> float:
    """Expected offspring count for an event with this mark."""
    if isinstance(spec, ConstantFertility):
        return spec.rate
    if isinstance(spec, CombinedFertility):
        return float(sum(evaluate(term, mark) for term in spec.terms))
    if not isinstance(mark, BinaryMark):
        raise DataError("feature-based fertility needs binary marks")
    x = np.asarray(mark.bits, dtype=np.float64)
    if isinstance(spec, LinearFertility):
        if x.size != len(spec.slopes):
            raise DataError("mark width does not match linear fertility")
        return float(spec.bias + np.dot(np.asarray(spec.slopes), x))
    if isinstance(spec, MultiplicativeFertility):
        if x.size != len(spec.weights) - 1:
            raise DataError("mark width does not match multiplicative fertility")
        w = np.asarray(spec.weights)
        return float(w[0] * np.exp(np.dot(x, np.log(w[1:]))))
    raise DataError(f"unknown fertility spec {type(spec).__name__}")


def evaluate_many(spec: FertilitySpec, X: np.ndarray | None, n: int) -> np.ndarray:
    """Vectorized evaluate over a dataset; X is the (n, F) feature matrix
    for binary marks and None otherwise."""
    if isinstance(spec, ConstantFertility):
        return np.full(n, spec.rate, dtype=np.float64)
    if X is None:
        raise DataError("feature-based fertility needs binary marks")
    if isinstance(spec, LinearFertility):
        return spec.bias + X.astype(np.float64) @ np.asarray(spec.slopes)
    if isinstance(spec, MultiplicativeFertility):
        w = np.asarray(spec.weights)
        return w[0] * np.exp(X.astype(np.float64) @ np.log(w[1:]))
    if isinstance(spec, CombinedFertility):
        return np.sum([evaluate_many(t, X, n) for t in spec.terms], axis=0)
    raise DataError(f"unknown fertility spec {type(spec).__name__}")


def update_linear(credit_bias: float, credits: np.ndarray,
                  exposure_bias: float, exposures: np.ndarray) -> LinearFertility:
    """Per-term Poisson MLE: each coefficient is credit over exposure."""
    credits = np.asarray(credits, dtype=np.float64)
    exposures = np.asarray(exposures, dtype=np.float64)
    if exposure_bias <= 0:
        if credit_bias > 1e-12:
            raise NumericalError("linear fertility bias has credit but no exposure")
        bias = 0.0
    else:
        bias = credit_bias / exposure_bias
    stuck = np.nonzero((exposures <= 0) & (credits > 1e-12))[0]
    if stuck.size:
        raise NumericalError(f"linear fertility slope {stuck[0]} has credit but no exposure")
    slopes = np.divide(credits, exposures, out=np.zeros_like(credits), where=exposures > 0)
    return LinearFertility(float(bias), tuple(slopes.tolist()))


def poisson_objective(spec: FertilitySpec, X: np.ndarray | None,
                      credits: np.ndarray, exposures: np.ndarray) -> float:
    """Weighted Poisson log likelihood driving the M-step updates."""
    vals = evaluate_many(spec, X, credits.size)
    mask = credits > 0
    if np.any(vals[mask] <= 0):
        return -np.inf
    return float(np.dot(credits[mask], np.log(vals[mask])) - np.dot(exposures, vals))


def update_multiplicative(spec: MultiplicativeFertility, X: np.ndarray,
                          credits: np.ndarray, exposures: np.ndarray,
                          tol: float = 1e-8, max_sweeps: int = 200,
                          ) -> MultiplicativeFertility:
    """Coordinate ascent on the weighted Poisson likelihood.

    Each coordinate has the closed-form maximizer

        w_j <- sum_e credit_e x_ej / sum_e x_ej exposure_e prod_{i != j} w_i^x_ei

    with the bias treated as an always-active coordinate. The objective
    is concave in log-weights, so sweeping in fixed order converges; a
    per-sweep assertion guards against regressions. Coordinates with no
    credit are clamped at a small positive floor.
    """
    credits = np.asarray(credits, dtype=np.float64)
    exposures = np.asarray(exposures, dtype=np.float64)
    X = np.asarray(X)
    n, width = X.shape
    if len(spec.weights) != width + 1:
        raise DataError("feature width does not match multiplicative fertility")
    w = np.asarray(spec.weights, dtype=np.float64).copy()
    alpha = evaluate_many(spec, X, n)
    active = [np.ones(n, dtype=bool)] + [X[:, j - 1] == 1 for j in range(1, width + 1)]
    numer = [credits.sum()] + [float(credits[active[j]].sum()) for j in range(1, width + 1)]
    obj = poisson_objective(spec, X, credits, exposures)
    for _ in range(max_sweeps):
        max_change = 0.0
        for j in range(width + 1):
            sel = active[j]
            if not np.any(sel):
                continue  # feature never active: no information, keep w_j
            denom = float(np.dot(exposures[sel], alpha[sel])) / w[j]
            if numer[j] <= 0:
                new = WEIGHT_FLOOR
                if w[j] > WEIGHT_FLOOR:
                    warnings.warn(f"multiplicative fertility coordinate {j} lost all "
                                  "credit; clamping at the floor")
            elif denom <= 0:
                raise NumericalError(f"multiplicative fertility coordinate {j} has "
                                     "credit but zero exposure; likelihood is unbounded")
            else:
                new = max(numer[j] / denom, WEIGHT_FLOOR)
            if new != w[j]:
                alpha[sel] *= new / w[j]
                max_change = max(max_change, abs(new - w[j]) / max(w[j], WEIGHT_FLOOR))
                w[j] = new
        new_obj = poisson_objective(MultiplicativeFertility(tuple(w.tolist())), X,
                                    credits, exposures)
        if new_obj < obj - 1e-10 * (1.0 + abs(obj)):
            raise NumericalError("multiplicative fertility sweep decreased the objective")
        obj = new_obj
        if max_change < tol:
            break
    return MultiplicativeFertility(tuple(w.tolist()))


def update(spec: FertilitySpec, X: np.ndarray | None, credits: np.ndarray,
           exposures: np.ndarray) -> FertilitySpec:
    """Dispatch the M-step update for any fertility spec.

    ``credits`` holds expected triggered counts per potential parent and
    ``exposures`` the matching edge-corrected delay masses. Fertility
    depends on the mark alone, so parents with equal marks may share one
    row (X holding the mark, the row summing their credits and
    exposures) and the update stays the same. Combined
    specs first split each parent's credit across terms in proportion
    to the terms' contributions (Poisson superposition), then update
    each term on its share.
    """
    credits = np.asarray(credits, dtype=np.float64)
    exposures = np.asarray(exposures, dtype=np.float64)
    if credits.shape != exposures.shape:
        raise DataError("credits and exposures must align")
    if isinstance(spec, ConstantFertility):
        total_credit = credits.sum()
        total_exposure = exposures.sum()
        if total_exposure <= 0:
            if total_credit > 1e-9:
                raise NumericalError("constant fertility has credit but no exposure")
            return spec
        return ConstantFertility(float(total_credit / total_exposure))
    if X is None:
        raise DataError("feature-based fertility needs binary marks")
    if isinstance(spec, LinearFertility):
        vals = evaluate_many(spec, X, credits.size)
        bad = (credits > 0) & (vals <= 0)
        if np.any(bad):
            raise NumericalError("linear fertility received credit on zero-value marks")
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = np.where(vals > 0, credits / vals, 0.0)
        credit_bias = float(spec.bias * ratio.sum())
        Xf = X.astype(np.float64)
        credit_feats = np.asarray(spec.slopes) * (Xf.T @ ratio)
        exposure_bias = float(exposures.sum())
        exposure_feats = Xf.T @ exposures
        return update_linear(credit_bias, credit_feats, exposure_bias, exposure_feats)
    if isinstance(spec, MultiplicativeFertility):
        return update_multiplicative(spec, X, credits, exposures)
    if isinstance(spec, CombinedFertility):
        totals = evaluate_many(spec, X, credits.size)
        if np.any((credits > 0) & (totals <= 0)):
            raise NumericalError("combined fertility received credit on zero-value marks")
        new_terms = []
        for term in spec.terms:
            vals = evaluate_many(term, X, credits.size)
            with np.errstate(invalid="ignore", divide="ignore"):
                share = np.where(totals > 0, vals / totals, 0.0)
            new_terms.append(update(term, X, credits * share, exposures))
        return CombinedFertility(tuple(new_terms))
    raise DataError(f"unknown fertility spec {type(spec).__name__}")


def scaled(spec: FertilitySpec, factor: float) -> FertilitySpec:
    """Scale overall fertility by a positive factor.

    Multiplicative specs scale through the bias weight only, keeping
    the per-feature ratios intact.
    """
    if factor <= 0 or not np.isfinite(factor):
        raise NumericalError(f"fertility scale factor must be positive, got {factor}")
    if isinstance(spec, ConstantFertility):
        return ConstantFertility(spec.rate * factor)
    if isinstance(spec, LinearFertility):
        return LinearFertility(spec.bias * factor,
                               tuple(s * factor for s in spec.slopes))
    if isinstance(spec, MultiplicativeFertility):
        return MultiplicativeFertility((spec.weights[0] * factor,) + spec.weights[1:])
    if isinstance(spec, CombinedFertility):
        return CombinedFertility(tuple(scaled(t, factor) for t in spec.terms))
    raise DataError(f"unknown fertility spec {type(spec).__name__}")
