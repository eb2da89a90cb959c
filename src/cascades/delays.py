"""Parametric delay distributions on (0, inf) and their weighted MLEs.

Every family exposes a density, a CDF, forward sampling, an analytic
mean, a tail cutoff used for truncation windows, and a weighted maximum
likelihood update used by the EM M-step. Densities are zero for
nonpositive delays in every family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy import optimize, special

from .errors import DataError, NumericalError


@dataclass(frozen=True)
class ExponentialDelay:
    rate: float


@dataclass(frozen=True)
class GammaDelay:
    shape: float
    rate: float


@dataclass(frozen=True)
class UniformDelay:
    """Uniform on (0, width]; the width is a fixed hyperparameter."""

    width: float


@dataclass(frozen=True)
class PiecewiseUniformDelay:
    """Histogram density over fixed bin edges 0 = e_0 < ... < e_B."""

    edges: tuple[float, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        if len(self.edges) < 2 or self.edges[0] != 0.0:
            raise DataError("piecewise delay needs edges starting at 0")
        if any(b <= a for a, b in zip(self.edges, self.edges[1:])):
            raise DataError("piecewise delay edges must be strictly increasing")
        if len(self.probs) != len(self.edges) - 1:
            raise DataError("piecewise delay needs one probability per bin")
        if abs(sum(self.probs) - 1.0) > 1e-9 or any(p < 0 for p in self.probs):
            raise DataError("piecewise delay probabilities must form a distribution")


@dataclass(frozen=True)
class ExpMixtureDelay:
    """Convex mixture of exponentials; weights sum to one."""

    weights: tuple[float, ...]
    rates: tuple[float, ...]

    def __post_init__(self):
        if len(self.weights) != len(self.rates) or not self.weights:
            raise DataError("exp mixture needs matching, nonempty weights and rates")
        if abs(sum(self.weights) - 1.0) > 1e-9 or any(w < 0 for w in self.weights):
            raise DataError("exp mixture weights must form a distribution")
        if any(r <= 0 for r in self.rates):
            raise DataError("exp mixture rates must be positive")


DelaySpec = Union[ExponentialDelay, GammaDelay, UniformDelay,
                  PiecewiseUniformDelay, ExpMixtureDelay]


def _positive(name: str, value: float) -> None:
    if not np.isfinite(value) or value <= 0:
        raise DataError(f"{name} must be positive and finite, got {value}")


def validate(spec: DelaySpec) -> None:
    if isinstance(spec, ExponentialDelay):
        _positive("exponential rate", spec.rate)
    elif isinstance(spec, GammaDelay):
        _positive("gamma shape", spec.shape)
        _positive("gamma rate", spec.rate)
    elif isinstance(spec, UniformDelay):
        _positive("uniform width", spec.width)
    # piecewise and mixture specs validate in __post_init__


def _positive_density(spec: DelaySpec, x: np.ndarray) -> np.ndarray:
    """Density at delays that are all > 0."""
    if isinstance(spec, ExponentialDelay):
        return spec.rate * np.exp(-spec.rate * x)
    if isinstance(spec, GammaDelay):
        k, r = spec.shape, spec.rate
        return np.exp(k * np.log(r) + (k - 1.0) * np.log(x) - r * x - special.gammaln(k))
    if isinstance(spec, UniformDelay):
        return np.where(x <= spec.width, 1.0 / spec.width, 0.0)
    if isinstance(spec, PiecewiseUniformDelay):
        edges = np.asarray(spec.edges)
        probs = np.asarray(spec.probs)
        # x > 0 = edges[0], so every index is at least 1
        idx = np.searchsorted(edges, x, side="left")
        heights = (probs / np.diff(edges))[np.minimum(idx, len(probs)) - 1]
        return np.where(idx <= len(probs), heights, 0.0)
    if isinstance(spec, ExpMixtureDelay):
        acc = np.zeros_like(x)
        for w, r in zip(spec.weights, spec.rates):
            acc += w * r * np.exp(-r * x)
        return acc
    raise DataError(f"unknown delay spec {type(spec).__name__}")


def density(spec: DelaySpec, dt) -> np.ndarray | float:
    """Density h(dt); zero for dt <= 0. Accepts scalars or arrays."""
    arr = np.asarray(dt, dtype=np.float64)
    pos = arr > 0
    if pos.all():  # every E-step delay: no gather and scatter
        out = _positive_density(spec, arr)
    else:
        out = np.zeros_like(arr, dtype=np.float64)
        out[pos] = _positive_density(spec, arr[pos])
    return out if arr.ndim else float(out)


def cdf(spec: DelaySpec, dt) -> np.ndarray | float:
    """Cumulative mass H(dt) = integral of the density over (0, dt]."""
    arr = np.asarray(dt, dtype=np.float64)
    pos = arr > 0
    out = np.zeros_like(arr, dtype=np.float64)
    if isinstance(spec, ExponentialDelay):
        out[pos] = -np.expm1(-spec.rate * arr[pos])
    elif isinstance(spec, GammaDelay):
        out[pos] = special.gammainc(spec.shape, spec.rate * arr[pos])
    elif isinstance(spec, UniformDelay):
        out[pos] = np.clip(arr[pos] / spec.width, 0.0, 1.0)
    elif isinstance(spec, PiecewiseUniformDelay):
        edges = np.asarray(spec.edges)
        probs = np.asarray(spec.probs)
        cum = np.concatenate([[0.0], np.cumsum(probs)])
        x = arr[pos]
        idx = np.clip(np.searchsorted(edges, x, side="left"), 1, len(probs))
        left = edges[idx - 1]
        width = edges[idx] - left
        inside = cum[idx - 1] + probs[idx - 1] * np.clip((x - left) / width, 0.0, 1.0)
        out[pos] = np.where(x >= edges[-1], 1.0, inside)
    elif isinstance(spec, ExpMixtureDelay):
        x = arr[pos]
        acc = np.zeros_like(x)
        for w, r in zip(spec.weights, spec.rates):
            acc += w * -np.expm1(-r * x)
        out[pos] = acc
    else:
        raise DataError(f"unknown delay spec {type(spec).__name__}")
    return out if arr.ndim else float(out)


def delay_mean(spec: DelaySpec) -> float:
    if isinstance(spec, ExponentialDelay):
        return 1.0 / spec.rate
    if isinstance(spec, GammaDelay):
        return spec.shape / spec.rate
    if isinstance(spec, UniformDelay):
        return spec.width / 2.0
    if isinstance(spec, PiecewiseUniformDelay):
        edges = np.asarray(spec.edges)
        mids = 0.5 * (edges[:-1] + edges[1:])
        return float(np.dot(mids, spec.probs))
    if isinstance(spec, ExpMixtureDelay):
        return float(sum(w / r for w, r in zip(spec.weights, spec.rates)))
    raise DataError(f"unknown delay spec {type(spec).__name__}")


def tail_cutoff(spec: DelaySpec, tail_mass: float) -> float:
    """Smallest dt whose right tail mass is at most tail_mass.

    Truncation windows in the EM engine come from this; tail_mass <= 0
    yields an infinite window (no truncation).
    """
    if tail_mass <= 0:
        return np.inf
    if tail_mass >= 1:
        return 0.0
    if isinstance(spec, ExponentialDelay):
        return -np.log(tail_mass) / spec.rate
    if isinstance(spec, GammaDelay):
        return float(special.gammainccinv(spec.shape, tail_mass) / spec.rate)
    if isinstance(spec, UniformDelay):
        return spec.width
    if isinstance(spec, PiecewiseUniformDelay):
        return spec.edges[-1]
    if isinstance(spec, ExpMixtureDelay):
        hi = -np.log(tail_mass) / min(spec.rates)
        if 1.0 - cdf(spec, hi) >= tail_mass:
            return hi
        return float(optimize.brentq(lambda x: (1.0 - cdf(spec, x)) - tail_mass, 0.0, hi))
    raise DataError(f"unknown delay spec {type(spec).__name__}")


def sample(spec: DelaySpec, rng: np.random.Generator, size: int | None = None):
    """Draw delays; scalars when size is None, else an array of length size."""
    n = 1 if size is None else size
    if isinstance(spec, ExponentialDelay):
        out = rng.exponential(1.0 / spec.rate, size=n)
    elif isinstance(spec, GammaDelay):
        out = rng.gamma(spec.shape, 1.0 / spec.rate, size=n)
    elif isinstance(spec, UniformDelay):
        # 1 - U keeps the support at (0, width]
        out = spec.width * (1.0 - rng.random(n))
    elif isinstance(spec, PiecewiseUniformDelay):
        cum = np.cumsum(spec.probs)
        bins = np.searchsorted(cum, rng.random(n), side="right")
        bins = np.clip(bins, 0, len(spec.probs) - 1)
        lo = np.asarray(spec.edges)[bins]
        hi = np.asarray(spec.edges)[bins + 1]
        out = hi - (hi - lo) * rng.random(n)
    elif isinstance(spec, ExpMixtureDelay):
        cum = np.cumsum(spec.weights)
        comp = np.clip(np.searchsorted(cum, rng.random(n), side="right"),
                       0, len(spec.rates) - 1)
        out = rng.exponential(1.0, size=n) / np.asarray(spec.rates)[comp]
    else:
        raise DataError(f"unknown delay spec {type(spec).__name__}")
    return float(out[0]) if size is None else out


def _clean_samples(deltas, weights) -> tuple[np.ndarray, np.ndarray]:
    d = np.asarray(deltas, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if d.shape != w.shape or d.ndim != 1:
        raise DataError("delays and weights must be 1-d arrays of the same length")
    if np.any(w < 0):
        raise DataError("sample weights must be nonnegative")
    keep = w > 0
    if not keep.all():
        d, w = d[keep], w[keep]
    if d.size == 0 or w.sum() <= 0:
        raise DataError("weighted MLE needs positive total weight")
    if np.any(d <= 0):
        raise DataError("weighted MLE needs strictly positive delays")
    return d, w


def _gamma_shape_mle(s: float, init: float) -> float:
    """Solve log(k) - digamma(k) = s by guarded Newton iteration."""
    lo, hi = 1e-8, 1e8
    k = min(max(init, lo), hi)
    for _ in range(100):
        score = np.log(k) - special.digamma(k) - s
        if abs(score) < 1e-10:
            return k
        # log k - digamma(k) decreases in k, so bracket accordingly
        if score > 0:
            lo = max(lo, k)
        else:
            hi = min(hi, k)
        deriv = 1.0 / k - special.polygamma(1, k)
        step = k - score / deriv
        k = step if lo < step < hi else 0.5 * (lo + hi)
    raise NumericalError(f"gamma shape update did not converge (score gap {s:.3e})")


def weighted_mle(spec: DelaySpec, deltas, weights) -> DelaySpec:
    """Weighted maximum likelihood update within the family of ``spec``.

    The incumbent spec supplies the family, any fixed hyperparameters
    (uniform width, piecewise bin edges) and, for the exponential
    mixture, the current parameters used for its single inner EM pass.
    Zero-weight samples are ignored; weights may be scaled freely.
    """
    d, w = _clean_samples(deltas, weights)
    total = w.sum()
    if isinstance(spec, ExponentialDelay):
        return ExponentialDelay(rate=float(total / np.dot(w, d)))
    if isinstance(spec, GammaDelay):
        mean = np.dot(w, d) / total
        mean_log = np.dot(w, np.log(d)) / total
        s = np.log(mean) - mean_log
        if s < 1e-12:
            raise DataError("gamma MLE is degenerate: all delays at a single point")
        var = np.dot(w, (d - mean) ** 2) / total
        init = mean * mean / var if var > 0 else 1.0
        shape = _gamma_shape_mle(s, init)
        return GammaDelay(shape=float(shape), rate=float(shape / mean))
    if isinstance(spec, UniformDelay):
        return spec
    if isinstance(spec, PiecewiseUniformDelay):
        edges = np.asarray(spec.edges)
        idx = np.searchsorted(edges, d, side="left")
        ok = (idx >= 1) & (idx <= len(spec.probs))
        if not np.any(ok):
            raise DataError("piecewise MLE: no weighted samples fall inside the bins")
        sums = np.bincount(idx[ok] - 1, weights=w[ok], minlength=len(spec.probs))
        return PiecewiseUniformDelay(spec.edges, tuple((sums / sums.sum()).tolist()))
    if isinstance(spec, ExpMixtureDelay):
        # one E/M pass over the mixture with the caller-supplied weights
        rates = np.asarray(spec.rates)
        mix = np.asarray(spec.weights)
        dens = mix[None, :] * rates[None, :] * np.exp(-np.outer(d, rates))
        norm = dens.sum(axis=1)
        if np.any(norm <= 0):
            raise NumericalError("exp mixture responsibilities vanished")
        resp = dens / norm[:, None]
        comp_w = w @ resp
        comp_wd = (w * d) @ resp
        new_mix, new_rates = [], []
        for c in range(len(rates)):
            if comp_w[c] <= 0:
                new_mix.append(0.0)
                new_rates.append(float(rates[c]))
            else:
                new_mix.append(float(comp_w[c] / total))
                new_rates.append(float(comp_w[c] / comp_wd[c]))
        drift = 1.0 - sum(new_mix)
        new_mix[int(np.argmax(new_mix))] += drift  # keep an exact simplex
        return ExpMixtureDelay(tuple(new_mix), tuple(new_rates))
    raise DataError(f"unknown delay spec {type(spec).__name__}")
