"""Mark priors and parent-to-child mark transition kernels.

Transitions are conditional mark distributions g(child mark | parent
mark). Four kinds are supported: identity (child copies the parent),
prior (child drawn independently of the parent), a per-feature
copy-or-resample mixture for binary marks, and a row-stochastic
categorical matrix for label marks with optional Dirichlet shrinkage.
For composite (type, node) marks transitions act on the type coordinate.

Each family is one frozen dataclass that checks its parameters when it
is built and owns its math. A mark distribution (``FeaturePrior``,
``LabelMarginal``) gives ``check_schema``, its probability per mark
pattern (``pattern_probs``), the statistic of weights per pattern
(``stats_from_patterns``), ``refit``, ``draw`` and its
``default_schema``. A transition gives ``check_schema``, g over mark
patterns (``g_patterns``, a (parent, child) matrix read by the
prefix-sum scan), g per child (``g_children``: a prior's, None for the
families that read the parent), g over (child, parent) event pairs
(``g_pairs``, read by the pair kernel), the M-step statistics of
weighted pairs, of a (parent pattern, child pattern) weight table and,
for a prior, of each child's weight (``stats_from_pairs``,
``stats_from_patterns``, ``stats_from_children``), ``refit`` and
``draw``. A mark pattern is a label (the type of a composite mark) or a
distinct binary feature row, and the schema's pattern view
(``pattern_codes``) is the one map from events to patterns: the
families read per-pattern values and gather them by pattern code, and
bin per-event weights by it. The statistics take the family's
shape: the (parent label, child label) table of a categorical matrix,
the (F, 2, 2) table of a feature mixture, a prior's weight per child
label or feature sums over the children, None for identity. They add
up, so components sharing a transition group pool theirs with ``+``.

Draws take and return mark codes (zero-based label indices or uint8
feature rows), m children at a time, child after child: one batch takes
the stream values of m single draws.
"""

from __future__ import annotations

import csv
import math
import warnings
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Sequence, Union

import numpy as np

from .errors import ConfigError, DataError
from .events import BinarySchema, Dataset, LabelSchema, MarkSchema


def _float_array(value, message: str) -> np.ndarray:
    """``value`` as a float array; a ragged nesting raises DataError."""
    try:
        return np.asarray(value, dtype=np.float64)
    except ValueError:
        raise DataError(message) from None


def _distributions(rows: np.ndarray) -> bool:
    """True when each row along the last axis is a finite distribution:
    a NaN fails the minimum's test, an infinity the sums'."""
    return bool(rows.min() >= 0 and np.abs(rows.sum(axis=-1) - 1.0).max() <= 1e-9)


def draw_index(cum: list[float], x: float) -> int:
    """The category a draw x in [0, cum[-1]) falls in, given running
    sums ``cum``: the first entry above x (numpy's ``searchsorted`` with
    side="right"), clipped to the last category for x >= cum[-1]."""
    return min(bisect_right(cum, x), len(cum) - 1)


# ---------------------------------------------------------------------------
# mark distributions


@dataclass(frozen=True)
class FeaturePrior:
    """Independent Bernoulli marginals, one per binary feature."""

    probs: tuple[float, ...]

    kind = "features"

    def __post_init__(self):
        if any(not 0.0 <= p <= 1.0 for p in self.probs):
            raise DataError("feature prior probabilities must lie in [0, 1]")

    @cached_property
    def as_array(self) -> np.ndarray:
        return np.asarray(self.probs, dtype=np.float64)

    def check_schema(self, schema: MarkSchema, where: str) -> None:
        if not isinstance(schema, BinarySchema) or len(self.probs) != schema.width:
            raise ConfigError(f"{where}: feature prior does not fit the mark schema")

    def default_schema(self) -> MarkSchema:
        return BinarySchema(tuple(f"f{i + 1}" for i in range(len(self.probs))))

    def pattern_probs(self, d: Dataset) -> np.ndarray:
        """The product of the feature marginals over each distinct feature
        row (``Dataset.feature_patterns``)."""
        p = self.as_array
        rows = d.feature_patterns[0]
        return np.prod(np.where(rows == 1, p[None, :], 1.0 - p[None, :]), axis=1)

    def stats_from_patterns(self, d: Dataset, weights: np.ndarray) -> np.ndarray:
        """The total of ``weights``, one per distinct feature row, followed
        by the weighted sum of the rows: the sufficient statistic of
        events weighted by pattern."""
        rows = d.feature_patterns[0]
        return np.concatenate([[weights.sum()], rows.T.astype(np.float64) @ weights])

    def refit(self, stats: np.ndarray) -> FeaturePrior:
        return fit_prior_weighted(stats)

    def draw(self, rng: np.random.Generator, m: int) -> np.ndarray:
        """m feature rows, as an (m, F) uint8 array."""
        return (rng.random((m, len(self.probs))) < self.as_array).astype(np.uint8)


@dataclass(frozen=True)
class LabelMarginal:
    """Categorical marginal over labels 1..L."""

    probs: tuple[float, ...]

    kind = "labels"

    def __post_init__(self):
        if any(not 0.0 <= p < math.inf for p in self.probs):
            raise DataError("label marginal probabilities must be finite and nonnegative")
        if abs(sum(self.probs) - 1.0) > 1e-9:
            raise DataError("label marginal probabilities must sum to one")

    @cached_property
    def as_array(self) -> np.ndarray:
        return np.asarray(self.probs, dtype=np.float64)

    @cached_property
    def cumulative(self) -> list[float]:
        """Running sums of the probabilities, the table draws search."""
        return np.cumsum(self.as_array).tolist()

    def check_schema(self, schema: MarkSchema, where: str) -> None:
        n = schema.label_count
        if n is None:
            raise ConfigError(f"{where}: label marginal needs label or composite marks")
        if len(self.probs) != n:
            raise ConfigError(f"{where}: label marginal has the wrong length")

    def default_schema(self) -> MarkSchema:
        return LabelSchema(len(self.probs))

    def pattern_probs(self, d: Dataset) -> np.ndarray:
        return self.as_array

    def stats_from_patterns(self, d: Dataset, weights: np.ndarray) -> np.ndarray:
        return weights

    def refit(self, stats: np.ndarray) -> LabelMarginal:
        return fit_marginal_weighted(stats)

    def draw(self, rng: np.random.Generator, m: int) -> list[int]:
        """m label indices."""
        return [draw_index(self.cumulative, rng.random()) for _ in range(m)]


MarkDistribution = Union[FeaturePrior, LabelMarginal]


def fit_prior(d: Dataset) -> FeaturePrior:
    """Empirical per-feature frequencies of a binary dataset."""
    if not isinstance(d.schema, BinarySchema):
        raise DataError("fit_prior requires a binary schema")
    if len(d) == 0:
        raise DataError("fit_prior needs at least one event")
    return FeaturePrior(tuple((d.feature_matrix.mean(axis=0)).tolist()))


def fit_prior_weighted(stats: np.ndarray) -> FeaturePrior:
    if stats[0] <= 0:
        raise DataError("weighted prior fit needs positive total weight")
    return FeaturePrior(tuple(np.clip(stats[1:] / stats[0], 0.0, 1.0).tolist()))


def fit_marginal(d: Dataset) -> LabelMarginal:
    """Empirical label frequencies of a label or composite dataset."""
    counts = np.bincount(d.label_index, minlength=d.n_label_values).astype(np.float64)
    if counts.sum() <= 0:
        raise DataError("fit_marginal needs at least one event")
    return LabelMarginal(tuple((counts / counts.sum()).tolist()))


def fit_marginal_weighted(stats: np.ndarray) -> LabelMarginal:
    total = stats.sum()
    if total <= 0:
        raise DataError("weighted marginal fit needs positive total weight")
    return LabelMarginal(tuple((stats / total).tolist()))


# ---------------------------------------------------------------------------
# transition kernels

# g_pairs gives g(mark of children[k] | mark of parents[k]) for every pair k
PairValues = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class IdentityTransition:
    """Child mark equals the parent mark (type equality for composites)."""

    kind = "identity"

    def check_schema(self, schema: MarkSchema, where: str) -> None:
        pass

    def g_patterns(self, d: Dataset) -> np.ndarray:
        return np.eye(d.schema.pattern_codes(d)[1])  # distinct patterns match only themselves

    def g_children(self, d: Dataset, events: np.ndarray) -> None:
        return None

    def g_pairs(self, d: Dataset, max_table: int) -> PairValues:
        codes = d.schema.pattern_codes(d)[0]
        return lambda children, parents: (codes[parents] == codes[children]).astype(np.float64)

    def stats_from_pairs(self, d: Dataset, children: np.ndarray, parents: np.ndarray,
                         z: np.ndarray) -> None:
        return None

    def stats_from_patterns(self, d: Dataset, table: np.ndarray) -> None:
        return None

    def refit(self, stats) -> IdentityTransition:
        return self

    def draw(self, parent, rng: np.random.Generator, m: int) -> list:
        return [parent] * m


@dataclass(frozen=True)
class PriorTransition:
    """Child mark drawn from a fixed marginal, independent of the parent."""

    mark: MarkDistribution

    kind = "prior"

    def check_schema(self, schema: MarkSchema, where: str) -> None:
        self.mark.check_schema(schema, where)

    def g_patterns(self, d: Dataset) -> np.ndarray:
        g = self.mark.pattern_probs(d)
        return np.tile(g, (g.size, 1))

    def g_children(self, d: Dataset, events: np.ndarray) -> np.ndarray:
        return self.mark.pattern_probs(d)[d.schema.pattern_codes(d)[0][events]]

    def g_pairs(self, d: Dataset, max_table: int) -> PairValues:
        probs, codes = self.mark.pattern_probs(d), d.schema.pattern_codes(d)[0]
        return lambda children, parents: probs[codes[children]]

    def stats_from_pairs(self, d: Dataset, children: np.ndarray, parents: np.ndarray,
                         z: np.ndarray) -> np.ndarray:
        return self.stats_from_children(d, z, children)

    def stats_from_patterns(self, d: Dataset, table: np.ndarray) -> np.ndarray:
        return self.mark.stats_from_patterns(d, table.sum(axis=0))

    def stats_from_children(self, d: Dataset, z: np.ndarray,
                            children: np.ndarray) -> np.ndarray:
        """The statistics of weights ``z`` on the children at ``children``
        (repeats add up), binned by the children's mark patterns."""
        codes, n_patterns = d.schema.pattern_codes(d)
        return self.mark.stats_from_patterns(
            d, np.bincount(codes[children], weights=z, minlength=n_patterns))

    def refit(self, stats: np.ndarray) -> PriorTransition:
        return PriorTransition(self.mark.refit(stats))

    def draw(self, parent, rng: np.random.Generator, m: int):
        return self.mark.draw(rng, m)


@dataclass(frozen=True)
class FeatureMixture:
    """Per-feature copy-or-resample kernel for binary marks.

    Each child feature independently copies the parent's value with
    probability 1 - resample_prob and otherwise redraws from the prior
    marginal for that feature. resample_prob = 0 is the identity and
    resample_prob = 1 is the fully independent prior.
    """

    resample_prob: float
    prior: FeaturePrior

    kind = "feature_mixture"

    def __post_init__(self):
        if not 0.0 <= self.resample_prob <= 1.0:
            raise DataError("resample_prob must lie in [0, 1]")

    def check_schema(self, schema: MarkSchema, where: str) -> None:
        if not isinstance(schema, BinarySchema) or len(self.prior.probs) != schema.width:
            raise ConfigError(f"{where}: feature mixture does not fit the schema")

    def _g(self, xp: np.ndarray, xc: np.ndarray) -> np.ndarray:
        """g(xc | xp) over the last axis of the feature rows, as a sum of
        logs so long products cannot underflow."""
        gamma = self.resample_prob
        p = self.prior.as_array
        q = np.where(xc == 1, p, 1.0 - p)
        with np.errstate(divide="ignore"):
            logs = np.where(xp == xc, np.log((1.0 - gamma) + gamma * q), np.log(gamma * q))
        return np.exp(logs.sum(axis=-1))

    def g_patterns(self, d: Dataset) -> np.ndarray:
        rows = d.feature_patterns[0]
        return self._g(rows[:, None, :], rows[None, :, :])

    def g_children(self, d: Dataset, events: np.ndarray) -> None:
        return None

    def g_pairs(self, d: Dataset, max_table: int) -> PairValues:
        """Gathers from the (parent pattern x child pattern) table when that
        holds at most ``max_table`` entries, and otherwise evaluates each
        pair (wide schemas, where distinct patterns can reach the event
        count)."""
        codes, n_patterns = d.schema.pattern_codes(d)
        if n_patterns ** 2 <= max_table:
            table = self.g_patterns(d)
            return lambda children, parents: table[codes[parents], codes[children]]
        X = d.feature_matrix
        return lambda children, parents: self._g(X[parents], X[children])

    def stats_from_pairs(self, d: Dataset, children: np.ndarray, parents: np.ndarray,
                         z: np.ndarray) -> np.ndarray:
        X = d.feature_matrix
        return _mixture_table(X[parents], X[children], z)

    def stats_from_patterns(self, d: Dataset, table: np.ndarray) -> np.ndarray:
        """The mixture table from each pattern pair's bit indicators."""
        rows = d.feature_patterns[0]
        parents, children = np.divmod(np.arange(table.size), len(rows))
        return _mixture_table(rows[parents], rows[children], table.ravel())

    def refit(self, stats: np.ndarray) -> FeatureMixture:
        return replace(self, resample_prob=fit_mixture_from_stats(stats, self.prior))

    def draw(self, parent: np.ndarray, rng: np.random.Generator, m: int) -> np.ndarray:
        u = rng.random((m, 2, len(self.prior.probs)))
        return np.where(u[:, 0] < self.resample_prob, u[:, 1] < self.prior.as_array,
                        parent).astype(np.uint8)


@dataclass(frozen=True)
class CategoricalMatrix:
    """Row-stochastic transition matrix over labels 1..L.

    ``prior_direction`` and ``prior_strength`` describe optional
    Dirichlet shrinkage applied when rows are refit from expected
    counts. The direction may be a single simplex applied to every row
    or one simplex per row; a positive strength needs one.
    """

    matrix: tuple[tuple[float, ...], ...]
    prior_direction: tuple[float, ...] | tuple[tuple[float, ...], ...] | None = None
    prior_strength: float = 0.0

    kind = "categorical"

    def __post_init__(self):
        rows = _float_array(self.matrix, "transition matrix must be square")
        if rows.ndim != 2 or rows.shape[0] != rows.shape[1]:
            raise DataError("transition matrix must be square")
        if not _distributions(rows):
            raise DataError("transition matrix rows must be distributions")
        _shrinkage_direction(self.prior_direction, self.prior_strength, rows.shape[0])

    @cached_property
    def as_array(self) -> np.ndarray:
        return np.asarray(self.matrix, dtype=np.float64)

    @cached_property
    def cumulative(self) -> list[list[float]]:
        """Running sums along each row, the tables draws search."""
        return np.cumsum(self.as_array, axis=1).tolist()

    def check_schema(self, schema: MarkSchema, where: str) -> None:
        n = schema.label_count
        if n is None:
            raise ConfigError(f"{where}: categorical transition needs label marks")
        if len(self.matrix) != n:
            raise ConfigError(f"{where}: categorical transition has the wrong size")

    def g_patterns(self, d: Dataset) -> np.ndarray:
        return self.as_array

    def g_children(self, d: Dataset, events: np.ndarray) -> None:
        return None

    def g_pairs(self, d: Dataset, max_table: int) -> PairValues:
        labels, table = d.label_index, self.as_array
        return lambda children, parents: table[labels[parents], labels[children]]

    def stats_from_pairs(self, d: Dataset, children: np.ndarray, parents: np.ndarray,
                         z: np.ndarray) -> np.ndarray:
        return label_pair_table(d, children, parents, z)

    def stats_from_patterns(self, d: Dataset, table: np.ndarray) -> np.ndarray:
        return table

    def refit(self, stats: np.ndarray) -> CategoricalMatrix:
        return fit_categorical(stats, self.prior_direction, self.prior_strength)

    def draw(self, parent: int, rng: np.random.Generator, m: int) -> list[int]:
        row = self.cumulative[parent]
        return [draw_index(row, rng.random()) for _ in range(m)]


TransitionSpec = Union[IdentityTransition, PriorTransition, FeatureMixture,
                       CategoricalMatrix]


# ---------------------------------------------------------------------------
# fitting


def _mixture_table(Xp: np.ndarray, Xc: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Weighted (parent row, child row) pairs summed into an (F, 2, 2)
    table: entry [f, b, m] is the total weight of pair-features with
    child bit b and match indicator m. Together with the prior this is
    sufficient for fitting the resample probability."""
    table = np.zeros((Xc.shape[1], 2, 2))
    match = Xp == Xc
    for b in (0, 1):
        childbit = Xc == b
        for m in (0, 1):
            table[:, b, m] = w @ (childbit & (match == bool(m)))
    return table


def fit_mixture_from_stats(table: np.ndarray, prior: FeaturePrior) -> float:
    """Maximize the weighted log likelihood of a FeatureMixture in its
    resample probability; the prior is held fixed.

    Each pair-feature contributes log((1-g) * match + g * q) with q the
    prior mass of the observed child bit, so the objective is concave
    and a guarded Newton iteration on [0, 1] suffices. It runs until a
    step moves g by at most a few ulps, so the result does not depend on
    the scale of the weights beyond rounding.
    """
    p = prior.as_array
    width = p.size
    # flatten groups: weight, match flag, prior mass of the child bit
    weights, matches, masses = [], [], []
    for f in range(width):
        for b in (0, 1):
            q = p[f] if b == 1 else 1.0 - p[f]
            for m in (0, 1):
                w = table[f, b, m]
                # a mismatch whose child bit has zero prior mass makes the
                # factor identically zero; it says nothing about the mixture
                if w > 0 and not (m == 0 and q == 0.0):
                    weights.append(w)
                    matches.append(float(m))
                    masses.append(q)
    if not weights:
        return 0.0
    w = np.asarray(weights)
    m = np.asarray(matches)
    q = np.asarray(masses)

    def deriv(g: float) -> float:
        return float(np.sum(w * (q - m) / (m + g * (q - m))))

    has_mismatch = bool(np.any((m == 0) & (q > 0)))
    if not has_mismatch:
        return 0.0  # every factor is maximized by pure copying
    with np.errstate(divide="ignore"):
        d1 = deriv(1.0)
    if d1 >= 0:
        return 1.0
    lo, hi = 0.0, 1.0  # derivative is +inf at 0+ and negative at 1
    g = 0.5
    for _ in range(200):
        d = deriv(g)
        if d == 0.0:
            break
        if d > 0:
            lo = g
        else:
            hi = g
        curv = float(np.sum(w * (q - m) ** 2 / (m + g * (q - m)) ** 2))
        step = g + d / curv  # objective is concave: second derivative is -curv
        prev, g = g, (step if lo < step < hi else 0.5 * (lo + hi))
        # a collapsed bracket also ends here: its midpoint is lo or hi
        if abs(g - prev) <= 4.0 * np.spacing(prev):
            break
    return float(min(max(g, 0.0), 1.0))


def label_pair_table(d: Dataset, children: np.ndarray, parents: np.ndarray,
                     z: np.ndarray) -> np.ndarray:
    """Pair weights summed into a (parent label, child label) table."""
    n = d.n_label_values
    cells = d.label_index[parents] * n + d.label_index[children]
    return np.bincount(cells, weights=z, minlength=n * n).reshape(n, n)


def _shrinkage_direction(direction, strength: float, n: int) -> np.ndarray | None:
    """The Dirichlet direction of an n-label categorical matrix as an
    array, (n,) for one simplex that applies to every row or (n, n), or
    None when there is none. Raises DataError unless every row is a
    distribution and the strength is finite, nonnegative, and 0 without
    a direction."""
    if not 0.0 <= strength < math.inf:
        raise DataError("Dirichlet strength must be finite and nonnegative")
    if direction is None:
        if strength > 0:
            raise DataError("a positive Dirichlet strength needs a prior direction")
        return None
    message = "prior direction must be a length-L simplex or an LxL matrix"
    rows = _float_array(direction, message)
    if rows.shape not in ((n,), (n, n)):
        raise DataError(message)
    if not _distributions(rows):
        raise DataError("prior direction rows must be distributions")
    return rows


def fit_categorical(counts, prior_direction=None, prior_strength: float = 0.0,
                    ) -> CategoricalMatrix:
    """Row-wise shrinkage estimate from (expected) transition counts.

    Row r becomes (counts[r] + c * direction_r) / (sum + c). With no
    prior, zero rows fall back to uniform with a warning; the result
    carries the prior so later refits keep shrinking the same way.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
        raise DataError("transition counts must form a square matrix")
    if np.any(counts < 0):
        raise DataError("transition counts must be nonnegative")
    n = counts.shape[0]
    direction = _shrinkage_direction(prior_direction, prior_strength, n)
    totals = counts.sum(axis=1)
    if prior_strength > 0:
        rows = (counts + prior_strength * direction) / (totals + prior_strength)[:, None]
    else:
        empty = totals <= 0
        for r in np.flatnonzero(empty):
            warnings.warn(f"transition row {r + 1} has no counts and no prior; using uniform")
        rows = np.where(empty[:, None], 1.0 / n, counts / np.where(empty, 1.0, totals)[:, None])
    keep_dir = (None if direction is None else tuple(direction.tolist()) if direction.ndim == 1
                else tuple(map(tuple, direction.tolist())))
    return CategoricalMatrix(tuple(map(tuple, rows.tolist())), prior_direction=keep_dir,
                             prior_strength=float(prior_strength))


def write_matrix_csv(matrix: np.ndarray, labels: Sequence[str], path: str,
                     marginal: np.ndarray | None = None,
                     logratio_path: str | None = None) -> None:
    """Dump a transition matrix as CSV with row and column labels.

    When a marginal over child labels is given, a companion table of
    log(matrix / marginal) is written too, showing how each source
    reshapes the child distribution relative to chance.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    labels = list(labels)

    def _write(p: str, rows: np.ndarray) -> None:
        with open(p, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["source"] + labels)
            for name, row in zip(labels, rows):
                writer.writerow([name] + [repr(float(v)) for v in row])

    _write(path, matrix)
    if marginal is not None:
        if logratio_path is None:
            stem, dot, ext = path.rpartition(".")
            logratio_path = (stem if dot else path) + "_logratio" + (dot + ext if dot else "")
        marginal = np.asarray(marginal, dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.log(matrix / marginal[None, :])
        _write(logratio_path, ratio)
