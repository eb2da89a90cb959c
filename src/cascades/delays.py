"""Parametric delay distributions on (0, inf) and their weighted MLEs.

Each family is one frozen dataclass that checks its parameters when it
is built and owns its math, on positive delays only: ``pdf`` and
``cdf``, the analytic ``mean``, ``cutoff`` (the delay past which a given
tail mass lies, for truncation windows), ``draw``, ``stats`` and
``refit``. ``stats(d, w)`` is the family's sufficient statistic of a
weighted sample: a fixed-size array that adds across disjoint parts of
the sample, so a sample of any length is read slice by slice.
``refit(stats)`` is the weighted maximum likelihood update of the EM
M-step from that statistic. ``decay_rate`` is
the rate of a single exponential, whose decayed sums the engine's
prefix-sum scan can carry, and None for every other family. ``kind``
names the family in JSON configs. The module functions add what every
family shares: scalar or array arguments, zero density and mass at
nonpositive delays, the trivial tail masses and the checks on weighted
samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy import special

from .errors import DataError, NumericalError

# candidate pairs the pairwise E-step evaluates at once, and samples
# weighted_mle reads at once
PAIR_CHUNK = 1 << 18


def _positive(name: str, value: float) -> None:
    if not np.isfinite(value) or value <= 0:
        raise DataError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class ExponentialDelay:
    rate: float

    kind = "exponential"

    def __post_init__(self):
        _positive("exponential rate", self.rate)

    @property
    def decay_rate(self) -> float:
        return self.rate

    def pdf(self, x: np.ndarray) -> np.ndarray:
        return self.rate * np.exp(-self.rate * x)

    def cdf(self, x: np.ndarray) -> np.ndarray:
        return -np.expm1(-self.rate * x)

    def mean(self) -> float:
        return 1.0 / self.rate

    def cutoff(self, tail_mass: float) -> float:
        return -np.log(tail_mass) / self.rate

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.exponential(1.0 / self.rate, size=n)

    def stats(self, d: np.ndarray, w: np.ndarray) -> np.ndarray:
        return np.array([w.sum(), np.dot(w, d)])

    def refit(self, stats: np.ndarray) -> ExponentialDelay:
        return ExponentialDelay(rate=float(stats[0] / stats[1]))


@dataclass(frozen=True)
class GammaDelay:
    shape: float
    rate: float

    kind = "gamma"
    decay_rate = None

    def __post_init__(self):
        _positive("gamma shape", self.shape)
        _positive("gamma rate", self.rate)

    def pdf(self, x: np.ndarray) -> np.ndarray:
        k, r = self.shape, self.rate
        return np.exp(k * np.log(r) + (k - 1.0) * np.log(x) - r * x - special.gammaln(k))

    def cdf(self, x: np.ndarray) -> np.ndarray:
        return special.gammainc(self.shape, self.rate * x)

    def mean(self) -> float:
        return self.shape / self.rate

    def cutoff(self, tail_mass: float) -> float:
        return float(special.gammainccinv(self.shape, tail_mass) / self.rate)

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.gamma(self.shape, 1.0 / self.rate, size=n)

    def stats(self, d: np.ndarray, w: np.ndarray) -> np.ndarray:
        # the second moment only starts the Newton iteration (Minka, 2002)
        return np.array([w.sum(), np.dot(w, d), np.dot(w, d * d), np.dot(w, np.log(d))])

    def refit(self, stats: np.ndarray) -> GammaDelay:
        total, sum_d, sum_d2, sum_log = stats
        mean = sum_d / total
        s = np.log(mean) - sum_log / total
        if s < 1e-12:
            raise DataError("gamma MLE is degenerate: all delays at a single point")
        var = sum_d2 / total - mean * mean
        init = mean * mean / var if var > 0 else 1.0
        shape = _gamma_shape_mle(s, init)
        return GammaDelay(shape=float(shape), rate=float(shape / mean))


@dataclass(frozen=True)
class UniformDelay:
    """Uniform on (0, width]; the width is a fixed hyperparameter."""

    width: float

    kind = "uniform"
    decay_rate = None

    def __post_init__(self):
        _positive("uniform width", self.width)

    def pdf(self, x: np.ndarray) -> np.ndarray:
        return np.where(x <= self.width, 1.0 / self.width, 0.0)

    def cdf(self, x: np.ndarray) -> np.ndarray:
        return np.clip(x / self.width, 0.0, 1.0)

    def mean(self) -> float:
        return self.width / 2.0

    def cutoff(self, tail_mass: float) -> float:
        return self.width

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        # 1 - U keeps the support at (0, width]
        return self.width * (1.0 - rng.random(n))

    def stats(self, d: np.ndarray, w: np.ndarray) -> np.ndarray:
        return np.array([w.sum()])

    def refit(self, stats: np.ndarray) -> UniformDelay:
        return self


@dataclass(frozen=True)
class PiecewiseUniformDelay:
    """Histogram density over fixed bin edges 0 = e_0 < ... < e_B."""

    edges: tuple[float, ...]
    probs: tuple[float, ...]

    kind = "piecewise_uniform"
    decay_rate = None

    def __post_init__(self):
        if len(self.edges) < 2 or self.edges[0] != 0.0:
            raise DataError("piecewise delay needs edges starting at 0")
        if any(b <= a for a, b in zip(self.edges, self.edges[1:])):
            raise DataError("piecewise delay edges must be strictly increasing")
        if len(self.probs) != len(self.edges) - 1:
            raise DataError("piecewise delay needs one probability per bin")
        if abs(sum(self.probs) - 1.0) > 1e-9 or any(p < 0 for p in self.probs):
            raise DataError("piecewise delay probabilities must form a distribution")

    def pdf(self, x: np.ndarray) -> np.ndarray:
        edges = np.asarray(self.edges)
        probs = np.asarray(self.probs)
        # x > 0 = edges[0], so every index is at least 1
        idx = np.searchsorted(edges, x, side="left")
        heights = (probs / np.diff(edges))[np.minimum(idx, len(probs)) - 1]
        return np.where(idx <= len(probs), heights, 0.0)

    def cdf(self, x: np.ndarray) -> np.ndarray:
        edges = np.asarray(self.edges)
        probs = np.asarray(self.probs)
        cum = np.concatenate([[0.0], np.cumsum(probs)])
        idx = np.clip(np.searchsorted(edges, x, side="left"), 1, len(probs))
        left = edges[idx - 1]
        width = edges[idx] - left
        inside = cum[idx - 1] + probs[idx - 1] * np.clip((x - left) / width, 0.0, 1.0)
        return np.where(x >= edges[-1], 1.0, inside)

    def mean(self) -> float:
        edges = np.asarray(self.edges)
        mids = 0.5 * (edges[:-1] + edges[1:])
        return float(np.dot(mids, self.probs))

    def cutoff(self, tail_mass: float) -> float:
        return self.edges[-1]

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        cum = np.cumsum(self.probs)
        bins = np.searchsorted(cum, rng.random(n), side="right")
        bins = np.clip(bins, 0, len(self.probs) - 1)
        lo = np.asarray(self.edges)[bins]
        hi = np.asarray(self.edges)[bins + 1]
        return hi - (hi - lo) * rng.random(n)

    def stats(self, d: np.ndarray, w: np.ndarray) -> np.ndarray:
        """The weight in each bin; samples past the last edge add none."""
        idx = np.searchsorted(np.asarray(self.edges), d, side="left")
        ok = (idx >= 1) & (idx <= len(self.probs))
        return np.bincount(idx[ok] - 1, weights=w[ok], minlength=len(self.probs))

    def refit(self, stats: np.ndarray) -> PiecewiseUniformDelay:
        if not np.any(stats > 0):
            raise DataError("piecewise MLE: no weighted samples fall inside the bins")
        return PiecewiseUniformDelay(self.edges, tuple((stats / stats.sum()).tolist()))


@dataclass(frozen=True)
class ExpMixtureDelay:
    """Convex mixture of exponentials; weights sum to one."""

    weights: tuple[float, ...]
    rates: tuple[float, ...]

    kind = "exp_mixture"
    decay_rate = None

    def __post_init__(self):
        if len(self.weights) != len(self.rates) or not self.weights:
            raise DataError("exp mixture needs matching, nonempty weights and rates")
        if abs(sum(self.weights) - 1.0) > 1e-9 or any(w < 0 for w in self.weights):
            raise DataError("exp mixture weights must form a distribution")
        if any(r <= 0 for r in self.rates):
            raise DataError("exp mixture rates must be positive")

    def pdf(self, x: np.ndarray) -> np.ndarray:
        acc = np.zeros_like(x)
        for w, r in zip(self.weights, self.rates):
            acc += w * r * np.exp(-r * x)
        return acc

    def cdf(self, x: np.ndarray) -> np.ndarray:
        acc = np.zeros_like(x)
        for w, r in zip(self.weights, self.rates):
            acc += w * -np.expm1(-r * x)
        return acc

    def mean(self) -> float:
        return float(sum(w / r for w, r in zip(self.weights, self.rates)))

    def _tail(self, x: float) -> float:
        """Mass beyond x >= 0, summed term by term."""
        return float(np.dot(self.weights, np.exp(-np.asarray(self.rates) * x)))

    def cutoff(self, tail_mass: float) -> float:
        """The smallest double whose tail mass is at most ``tail_mass``.

        The tail falls monotonically, and so do nonnegative doubles
        ordered by their bit patterns, so a bisection on those patterns
        ends at the crossing in at most 64 steps. The search starts from
        the slowest term's cutoff, which bounds the crossing from above
        when the weights sum to one, and widens it while rounding of the
        weights keeps its tail above the mass."""
        if self._tail(0.0) <= tail_mass:
            return 0.0
        top = -np.log(tail_mass) / min(self.rates)
        while self._tail(top) > tail_mass:
            top *= 2.0
        lo, hi = 0, _bits(top)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self._tail(_double(mid)) <= tail_mass:
                hi = mid
            else:
                lo = mid
        return _double(hi)

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        cum = np.cumsum(self.weights)
        comp = np.clip(np.searchsorted(cum, rng.random(n), side="right"),
                       0, len(self.rates) - 1)
        return rng.exponential(1.0, size=n) / np.asarray(self.rates)[comp]

    def stats(self, d: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Total weight, then per term the weight and the weighted delay
        under the term's responsibilities at the incumbent parameters."""
        rates = np.asarray(self.rates)
        mix = np.asarray(self.weights)
        dens = mix[None, :] * rates[None, :] * np.exp(-np.outer(d, rates))
        norm = dens.sum(axis=1)
        if np.any(norm <= 0):
            raise NumericalError("exp mixture responsibilities vanished")
        resp = dens / norm[:, None]
        return np.concatenate(([w.sum()], w @ resp, (w * d) @ resp))

    def refit(self, stats: np.ndarray) -> ExpMixtureDelay:
        # one E/M pass over the mixture with the caller-supplied weights
        rates = np.asarray(self.rates)
        total, comp_w, comp_wd = stats[0], stats[1:rates.size + 1], stats[rates.size + 1:]
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


def _bits(x: float) -> int:
    return int(np.array(x, dtype=np.float64).view(np.int64))


def _double(bits: int) -> float:
    return float(np.array(bits, dtype=np.int64).view(np.float64))


DelaySpec = Union[ExponentialDelay, GammaDelay, UniformDelay,
                  PiecewiseUniformDelay, ExpMixtureDelay]


def density(spec: DelaySpec, dt) -> np.ndarray | float:
    """Density h(dt); zero for dt <= 0. Accepts scalars or arrays."""
    arr = np.asarray(dt, dtype=np.float64)
    pos = arr > 0
    out = np.zeros_like(arr, dtype=np.float64)
    out[pos] = spec.pdf(arr[pos])
    return out if arr.ndim else float(out)


def cdf(spec: DelaySpec, dt) -> np.ndarray | float:
    """Cumulative mass H(dt) = integral of the density over (0, dt]."""
    arr = np.asarray(dt, dtype=np.float64)
    pos = arr > 0
    out = np.zeros_like(arr, dtype=np.float64)
    out[pos] = spec.cdf(arr[pos])
    return out if arr.ndim else float(out)


def tail_cutoff(spec: DelaySpec, tail_mass: float) -> float:
    """Smallest dt whose right tail mass is at most tail_mass.

    Truncation windows in the EM engine come from this; tail_mass <= 0
    yields an infinite window (no truncation).
    """
    if tail_mass <= 0:
        return np.inf
    if tail_mass >= 1:
        return 0.0
    return spec.cutoff(tail_mass)


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


def weighted_stats(spec: DelaySpec, deltas, weights) -> np.ndarray | None:
    """``spec.stats`` of the samples with positive weight, summed over
    slices of at most ``PAIR_CHUNK`` samples, so that the temporaries
    stay that size whatever the sample's; None when no weight is
    positive. Zero-weight samples are ignored, whatever their delay.
    A bad weight anywhere is reported before a bad delay."""
    deltas = np.asarray(deltas, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if deltas.shape != weights.shape or deltas.ndim != 1:
        raise DataError("delays and weights must be 1-d arrays of the same length")
    total, fault = None, None
    for lo in range(0, deltas.size, PAIR_CHUNK):
        d, w = deltas[lo:lo + PAIR_CHUNK], weights[lo:lo + PAIR_CHUNK]
        # one min and one max per array find any fault, which is then named
        low = w.min()
        if not (low >= 0 and w.max() < np.inf):
            if (w < 0).any():
                raise DataError("sample weights must be nonnegative")
            raise DataError(f"sample weights must be finite, got {w[~np.isfinite(w)][0]}")
        if low == 0:
            keep = w > 0
            d, w = d[keep], w[keep]
        if fault is not None or not d.size:
            continue
        if not (d.min() > 0 and d.max() < np.inf):
            fault = ("weighted MLE needs strictly positive delays" if (d <= 0).any() else
                     f"weighted MLE needs finite delays, got {d[~np.isfinite(d)][0]}")
            continue
        part = spec.stats(d, w)
        total = part if total is None else total + part
    if fault is not None:
        raise DataError(fault)
    return total


def weighted_mle(spec: DelaySpec, deltas, weights) -> DelaySpec:
    """Weighted maximum likelihood update within the family of ``spec``.

    The incumbent spec supplies the family, any fixed hyperparameters
    (uniform width, piecewise bin edges) and, for the exponential
    mixture, the current parameters used for its single inner EM pass.
    Zero-weight samples are ignored; weights may be scaled freely. The
    sample is read slice by slice (``weighted_stats``) and refit once.
    """
    stats = weighted_stats(spec, deltas, weights)
    if stats is None:
        raise DataError("weighted MLE needs positive total weight")
    return spec.refit(stats)
