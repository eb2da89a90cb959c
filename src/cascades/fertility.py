"""Fertility models: expected offspring counts as functions of the
parent's mark.

Each family is one frozen dataclass that checks its coefficients when it
is built and owns its math: ``check_schema``, ``rates`` over a feature
matrix (one row per parent, or None for marks without features),
``update`` (the M-step) and ``scaled``. ``kind`` names the family in
JSON configs. Constant fertility works for any mark kind; linear and
multiplicative forms read binary feature vectors, and a combined form
sums such terms. M-step updates maximize the weighted Poisson likelihood

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
from .events import BinarySchema, MarkSchema

WEIGHT_FLOOR = 1e-12
SWEEP_TOL = 1e-8  # multiplicative coordinate ascent stops below this relative change
MAX_SWEEPS = 200


def _features(X: np.ndarray | None) -> np.ndarray:
    """The feature matrix ``X``; marks without features have none."""
    if X is None:
        raise DataError("feature-based fertility needs binary marks")
    return X


def _binary(schema: MarkSchema, where: str) -> None:
    if not isinstance(schema, BinarySchema):
        raise ConfigError(f"{where}: feature-based fertility needs binary marks")


@dataclass(frozen=True)
class ConstantFertility:
    rate: float

    kind = "constant"

    def __post_init__(self):
        if self.rate < 0 or not np.isfinite(self.rate):
            raise DataError("constant fertility must be finite and nonnegative")

    def check_schema(self, schema: MarkSchema, where: str) -> None:
        pass

    def rates(self, X: np.ndarray | None, n: int) -> np.ndarray:
        return np.full(n, self.rate, dtype=np.float64)

    def update(self, X, credits: np.ndarray, exposures: np.ndarray) -> ConstantFertility:
        total_credit = credits.sum()
        total_exposure = exposures.sum()
        if total_exposure <= 0:
            if total_credit > 1e-9:
                raise NumericalError("constant fertility has credit but no exposure")
            return self
        return ConstantFertility(float(total_credit / total_exposure))

    def scaled(self, factor: float) -> ConstantFertility:
        return ConstantFertility(self.rate * factor)


@dataclass(frozen=True)
class LinearFertility:
    """bias + sum of slopes over active features; all coefficients >= 0."""

    bias: float
    slopes: tuple[float, ...]

    kind = "linear"

    def __post_init__(self):
        if self.bias < 0 or any(s < 0 for s in self.slopes):
            raise DataError("linear fertility coefficients must be nonnegative")

    def check_schema(self, schema: MarkSchema, where: str) -> None:
        _binary(schema, where)
        if len(self.slopes) != schema.width:
            raise ConfigError(f"{where}: fertility width mismatch")

    def rates(self, X: np.ndarray | None, n: int) -> np.ndarray:
        return self.bias + _features(X).astype(np.float64) @ np.asarray(self.slopes)

    def update(self, X, credits: np.ndarray, exposures: np.ndarray) -> LinearFertility:
        """Per-term Poisson MLE: each coefficient's share of the credit
        over its exposure."""
        vals = self.rates(X, credits.size)
        bad = (credits > 0) & (vals <= 0)
        if np.any(bad):
            raise NumericalError("linear fertility received credit on zero-value marks")
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = np.where(vals > 0, credits / vals, 0.0)
        credit_bias = float(self.bias * ratio.sum())
        Xf = X.astype(np.float64)
        credit_feats = np.asarray(self.slopes) * (Xf.T @ ratio)
        exposure_bias = float(exposures.sum())
        exposure_feats = Xf.T @ exposures
        if exposure_bias <= 0:
            if credit_bias > 1e-12:
                raise NumericalError("linear fertility bias has credit but no exposure")
            bias = 0.0
        else:
            bias = credit_bias / exposure_bias
        stuck = np.nonzero((exposure_feats <= 0) & (credit_feats > 1e-12))[0]
        if stuck.size:
            raise NumericalError(f"linear fertility slope {stuck[0]} has credit but no exposure")
        slopes = np.divide(credit_feats, exposure_feats, out=np.zeros_like(credit_feats),
                           where=exposure_feats > 0)
        return LinearFertility(float(bias), tuple(slopes.tolist()))

    def scaled(self, factor: float) -> LinearFertility:
        return LinearFertility(self.bias * factor, tuple(s * factor for s in self.slopes))


@dataclass(frozen=True)
class MultiplicativeFertility:
    """weights[0] * product of weights[1 + i] over active features i.

    All weights are strictly positive; updates clamp at a small floor
    rather than reaching zero so the form stays log-linear.
    """

    weights: tuple[float, ...]

    kind = "multiplicative"

    def __post_init__(self):
        if not self.weights:
            raise DataError("multiplicative fertility needs at least the bias weight")
        if any(w <= 0 for w in self.weights):
            raise DataError("multiplicative fertility weights must be positive")

    def check_schema(self, schema: MarkSchema, where: str) -> None:
        _binary(schema, where)
        if len(self.weights) - 1 != schema.width:
            raise ConfigError(f"{where}: fertility width mismatch")

    def rates(self, X: np.ndarray | None, n: int) -> np.ndarray:
        w = np.asarray(self.weights)
        return w[0] * np.exp(_features(X).astype(np.float64) @ np.log(w[1:]))

    def update(self, X, credits: np.ndarray,
               exposures: np.ndarray) -> MultiplicativeFertility:
        """Coordinate ascent on the weighted Poisson likelihood.

        Each coordinate has the closed-form maximizer

            w_j <- sum_e credit_e x_ej / sum_e x_ej exposure_e prod_{i != j} w_i^x_ei

        with the bias treated as an always-active coordinate. The
        objective is concave in log-weights, so sweeping in fixed order
        converges; a per-sweep assertion guards against regressions.
        Coordinates with no credit are clamped at a small positive floor.
        """
        X = np.asarray(_features(X))
        n, width = X.shape
        if len(self.weights) != width + 1:
            raise DataError("feature width does not match multiplicative fertility")
        w = np.asarray(self.weights, dtype=np.float64).copy()
        alpha = self.rates(X, n)
        active = [np.ones(n, dtype=bool)] + [X[:, j - 1] == 1 for j in range(1, width + 1)]
        numer = [credits.sum()] + [float(credits[active[j]].sum()) for j in range(1, width + 1)]
        obj = poisson_objective(self, X, credits, exposures)
        for _ in range(MAX_SWEEPS):
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
            if max_change < SWEEP_TOL:
                break
        return MultiplicativeFertility(tuple(w.tolist()))

    def scaled(self, factor: float) -> MultiplicativeFertility:
        """Scales the bias weight only, keeping the per-feature ratios."""
        return MultiplicativeFertility((self.weights[0] * factor,) + self.weights[1:])


FertilityTerm = Union[ConstantFertility, LinearFertility, MultiplicativeFertility]


@dataclass(frozen=True)
class CombinedFertility:
    """Sum of constant, linear and multiplicative terms."""

    terms: tuple[FertilityTerm, ...]

    kind = "combined"

    def __post_init__(self):
        if not self.terms:
            raise DataError("combined fertility needs at least one term")
        if any(term.kind == "combined" for term in self.terms):
            raise DataError("combined fertility terms cannot nest")

    def check_schema(self, schema: MarkSchema, where: str) -> None:
        _binary(schema, where)
        for term in self.terms:
            term.check_schema(schema, where)

    def rates(self, X: np.ndarray | None, n: int) -> np.ndarray:
        _features(X)
        return np.sum([t.rates(X, n) for t in self.terms], axis=0)

    def update(self, X, credits: np.ndarray, exposures: np.ndarray) -> CombinedFertility:
        """Splits each parent's credit across the terms in proportion to
        their contributions (Poisson superposition), then updates each
        term on its share."""
        totals = self.rates(X, credits.size)
        if np.any((credits > 0) & (totals <= 0)):
            raise NumericalError("combined fertility received credit on zero-value marks")
        new_terms = []
        for term in self.terms:
            vals = term.rates(X, credits.size)
            with np.errstate(invalid="ignore", divide="ignore"):
                share = np.where(totals > 0, vals / totals, 0.0)
            new_terms.append(update(term, X, credits * share, exposures))
        return CombinedFertility(tuple(new_terms))

    def scaled(self, factor: float) -> CombinedFertility:
        return CombinedFertility(tuple(t.scaled(factor) for t in self.terms))


FertilitySpec = Union[FertilityTerm, CombinedFertility]


def poisson_objective(spec: FertilitySpec, X: np.ndarray | None,
                      credits: np.ndarray, exposures: np.ndarray) -> float:
    """Weighted Poisson log likelihood driving the M-step updates."""
    vals = spec.rates(X, credits.size)
    mask = credits > 0
    if np.any(vals[mask] <= 0):
        return -np.inf
    return float(np.dot(credits[mask], np.log(vals[mask])) - np.dot(exposures, vals))


def update(spec: FertilitySpec, X: np.ndarray | None, credits: np.ndarray,
           exposures: np.ndarray) -> FertilitySpec:
    """The M-step update of any fertility spec.

    ``credits`` holds expected triggered counts per potential parent and
    ``exposures`` the matching edge-corrected delay masses. Fertility
    depends on the mark alone, so parents with equal marks may share one
    row (X holding the mark, the row summing their credits and
    exposures) and the update stays the same.
    """
    credits = np.asarray(credits, dtype=np.float64)
    exposures = np.asarray(exposures, dtype=np.float64)
    if credits.shape != exposures.shape:
        raise DataError("credits and exposures must align")
    return spec.update(X, credits, exposures)
