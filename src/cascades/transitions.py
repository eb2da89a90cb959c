"""Mark priors and parent-to-child mark transition kernels.

Transitions are conditional mark distributions g(child mark | parent
mark). Four kinds are supported: identity (child copies the parent),
prior (child drawn independently of the parent), a per-feature
copy-or-resample mixture for binary marks, and a row-stochastic
categorical matrix for label marks with optional Dirichlet shrinkage.
For composite (type, node) marks transitions act on the type coordinate.

Each family's math is written here once: schema checks, mark
probabilities per event (``mark_probs``), g over (child, parent) event
pairs (``PairProbs``, read by the pairwise E-step and ``intensity``) and
over mark patterns (``pattern_matrix``, read by the prefix-sum scan),
sampling, and the M-step statistics and refits. A mark pattern is a
label (the type of a composite mark) or a distinct binary feature row
(``pattern_codes``); the statistics of weighted pairs depend on the
pairs only through the (parent pattern, child pattern) weight table
(``pattern_stats``).
"""

from __future__ import annotations

import csv
import warnings
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence, Union

import numpy as np

from .errors import ConfigError, DataError
from .events import (BinaryMark, BinarySchema, CompositeMark, Dataset, LabelMark, Mark,
                     MarkSchema, label_count)


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


@dataclass(frozen=True)
class LabelMarginal:
    """Categorical marginal over labels 1..L."""

    probs: tuple[float, ...]

    kind = "labels"

    def __post_init__(self):
        if any(p < 0 for p in self.probs):
            raise DataError("label marginal probabilities must be nonnegative")
        if abs(sum(self.probs) - 1.0) > 1e-9:
            raise DataError("label marginal probabilities must sum to one")

    @cached_property
    def as_array(self) -> np.ndarray:
        return np.asarray(self.probs, dtype=np.float64)

    @cached_property
    def cumulative(self) -> list[float]:
        """Running sums of the probabilities, the table draws search."""
        return np.cumsum(self.as_array).tolist()


MarkDistribution = Union[FeaturePrior, LabelMarginal]


def _mark_label_index(mark: Mark) -> int:
    if isinstance(mark, LabelMark):
        return mark.label - 1
    if isinstance(mark, CompositeMark):
        return mark.type - 1
    raise DataError("expected a label or composite mark")


def check_mark_dist(dist: MarkDistribution, schema: MarkSchema, where: str) -> None:
    """Raise ConfigError when ``dist`` cannot score marks of ``schema``."""
    if isinstance(dist, FeaturePrior):
        if not isinstance(schema, BinarySchema) or len(dist.probs) != schema.width:
            raise ConfigError(f"{where}: feature prior does not fit the mark schema")
    elif isinstance(dist, LabelMarginal):
        n = label_count(schema)
        if n is None:
            raise ConfigError(f"{where}: label marginal needs label or composite marks")
        if len(dist.probs) != n:
            raise ConfigError(f"{where}: label marginal has the wrong length")
    else:
        raise ConfigError(f"{where}: unknown mark distribution")


def mark_probs(dist: MarkDistribution, d: Dataset) -> np.ndarray:
    """Probability of every event's mark under ``dist`` (the label's mass,
    or the product of independent feature marginals)."""
    if isinstance(dist, FeaturePrior):
        return _row_probs(dist, d.feature_matrix)
    return dist.as_array[d.label_index]


def _row_probs(dist: FeaturePrior, X: np.ndarray) -> np.ndarray:
    """Probability of each feature row of X under independent marginals."""
    p = dist.as_array
    return np.prod(np.where(X == 1, p[None, :], 1.0 - p[None, :]), axis=1)


def fit_prior(d: Dataset) -> FeaturePrior:
    """Empirical per-feature frequencies of a binary dataset."""
    if not isinstance(d.schema, BinarySchema):
        raise DataError("fit_prior requires a binary schema")
    if len(d) == 0:
        raise DataError("fit_prior needs at least one event")
    return FeaturePrior(tuple((d.feature_matrix.mean(axis=0)).tolist()))


def prior_stats(dist: MarkDistribution, d: Dataset, weights: np.ndarray) -> np.ndarray:
    """Additive statistics for refitting a mark distribution from
    per-event weights: the weight per label, or for a feature prior the
    total weight followed by X^T w."""
    if isinstance(dist, FeaturePrior):
        return _feature_sums(d.feature_matrix, weights)
    return np.bincount(d.label_index, weights=weights, minlength=d.n_label_values)


def _feature_sums(X: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The total weight followed by X^T w."""
    return np.concatenate([[weights.sum()], X.T.astype(np.float64) @ weights])


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


def fit_mark_dist(dist: MarkDistribution, stats: np.ndarray) -> MarkDistribution:
    """Refit a mark distribution of the kind of ``dist`` from ``prior_stats``."""
    if isinstance(dist, FeaturePrior):
        return fit_prior_weighted(stats)
    return fit_marginal_weighted(stats)


def draw_index(cum: list[float], x: float) -> int:
    """The category a draw x in [0, cum[-1]) falls in, given running
    sums ``cum``: the first entry above x (numpy's ``searchsorted`` with
    side="right"), clipped to the last category for x >= cum[-1]."""
    return min(bisect_right(cum, x), len(cum) - 1)


def sample_mark(dist: MarkDistribution, rng: np.random.Generator) -> Mark:
    if isinstance(dist, FeaturePrior):
        bits = tuple(int(u < p) for u, p in zip(rng.random(len(dist.probs)), dist.probs))
        return BinaryMark(bits)
    return LabelMark(draw_index(dist.cumulative, rng.random()) + 1)


# ---------------------------------------------------------------------------
# transition kernels


@dataclass(frozen=True)
class IdentityTransition:
    """Child mark equals the parent mark (type equality for composites)."""

    kind = "identity"


@dataclass(frozen=True)
class PriorTransition:
    """Child mark drawn from a fixed marginal, independent of the parent."""

    mark: MarkDistribution

    kind = "prior"


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


@dataclass(frozen=True)
class CategoricalMatrix:
    """Row-stochastic transition matrix over labels 1..L.

    ``prior_direction`` and ``prior_strength`` describe optional
    Dirichlet shrinkage applied when rows are refit from expected
    counts. The direction may be a single simplex applied to every row
    or one simplex per row.
    """

    matrix: tuple[tuple[float, ...], ...]
    prior_direction: tuple[float, ...] | tuple[tuple[float, ...], ...] | None = None
    prior_strength: float = 0.0

    kind = "categorical"

    def __post_init__(self):
        rows = np.asarray(self.matrix, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[0] != rows.shape[1]:
            raise DataError("transition matrix must be square")
        if np.any(rows < 0) or np.any(np.abs(rows.sum(axis=1) - 1.0) > 1e-9):
            raise DataError("transition matrix rows must be distributions")
        if self.prior_strength < 0:
            raise DataError("Dirichlet strength must be nonnegative")

    @cached_property
    def as_array(self) -> np.ndarray:
        return np.asarray(self.matrix, dtype=np.float64)

    @cached_property
    def cumulative(self) -> list[list[float]]:
        """Running sums along each row, the tables draws search."""
        return np.cumsum(self.as_array, axis=1).tolist()


TransitionSpec = Union[IdentityTransition, PriorTransition, FeatureMixture,
                       CategoricalMatrix]


def check_transition(spec: TransitionSpec, schema: MarkSchema, where: str) -> None:
    """Raise ConfigError when ``spec`` cannot score marks of ``schema``."""
    if isinstance(spec, FeatureMixture):
        if not isinstance(schema, BinarySchema) or len(spec.prior.probs) != schema.width:
            raise ConfigError(f"{where}: feature mixture does not fit the schema")
    elif isinstance(spec, CategoricalMatrix):
        n = label_count(schema)
        if n is None:
            raise ConfigError(f"{where}: categorical transition needs label marks")
        if len(spec.matrix) != n:
            raise ConfigError(f"{where}: categorical transition has the wrong size")
    elif isinstance(spec, PriorTransition):
        check_mark_dist(spec.mark, schema, where)
    elif not isinstance(spec, IdentityTransition):
        raise ConfigError(f"{where}: unknown transition")


def label_matrix(spec: TransitionSpec, n: int) -> np.ndarray:
    """g(child label | parent label) as an n x n matrix, for label families."""
    if isinstance(spec, IdentityTransition):
        return np.eye(n)
    if isinstance(spec, PriorTransition):
        return np.tile(spec.mark.as_array, (n, 1))
    if isinstance(spec, CategoricalMatrix):
        return spec.as_array
    raise DataError("transition not representable as a label matrix")


def pattern_codes(d: Dataset) -> tuple[np.ndarray, int]:
    """Each event's mark pattern and the pattern count: binary feature
    rows (``Dataset.feature_patterns``), otherwise labels."""
    if isinstance(d.schema, BinarySchema):
        rows, index = d.feature_patterns
        return index, len(rows)
    return d.label_index, d.n_label_values


def pattern_matrix(spec: TransitionSpec, d: Dataset) -> np.ndarray:
    """g(child pattern | parent pattern) as a (parent, child) matrix over
    the patterns of ``pattern_codes``."""
    if not isinstance(d.schema, BinarySchema):
        return label_matrix(spec, d.n_label_values)
    rows = d.feature_patterns[0]
    if isinstance(spec, FeatureMixture):
        return _mixture_probs(spec, rows[:, None, :], rows[None, :, :])
    if isinstance(spec, PriorTransition):
        return np.tile(_row_probs(spec.mark, rows), (len(rows), 1))
    return np.eye(len(rows))  # identity: distinct rows match only themselves


def _mixture_probs(spec: FeatureMixture, xp: np.ndarray, xc: np.ndarray) -> np.ndarray:
    """g(xc | xp) of a feature mixture over the last axis of the feature
    rows, as a sum of logs so long products cannot underflow."""
    gamma = spec.resample_prob
    p = spec.prior.as_array
    q = np.where(xc == 1, p, 1.0 - p)
    with np.errstate(divide="ignore"):
        logs = np.where(xp == xc, np.log((1.0 - gamma) + gamma * q), np.log(gamma * q))
    return np.exp(logs.sum(axis=-1))


class PairProbs:
    """g(child mark | parent mark) of one transition over (child, parent)
    event pairs of one dataset.

    A prior reads its child's mark probability. On label and composite
    marks identity and categorical transitions gather ``pattern_matrix``
    by (parent label, child label); on binary marks identity compares
    pattern codes. A feature mixture gathers its (parent pattern x child
    pattern) table when that holds at most ``max_table`` entries, and
    otherwise evaluates each pair (wide schemas, where distinct patterns
    can reach the event count).
    """

    def __init__(self, spec: TransitionSpec, d: Dataset, max_table: int):
        self.spec = spec
        self.child = self.table = None
        if isinstance(spec, PriorTransition):
            self.child = mark_probs(spec.mark, d)
            return
        self.codes, n_patterns = pattern_codes(d)
        if isinstance(spec, FeatureMixture):
            if n_patterns ** 2 <= max_table:
                self.table = pattern_matrix(spec, d)
            self.X = d.feature_matrix
        elif not isinstance(d.schema, BinarySchema):
            self.table = pattern_matrix(spec, d)

    def values(self, children: np.ndarray, parents: np.ndarray) -> np.ndarray:
        """g(mark of children[k] | mark of parents[k]) for every pair k."""
        if self.child is not None:
            return self.child[children]
        if self.table is not None:
            return self.table[self.codes[parents], self.codes[children]]
        if isinstance(self.spec, FeatureMixture):
            return _mixture_probs(self.spec, self.X[parents], self.X[children])
        return (self.codes[parents] == self.codes[children]).astype(np.float64)


def sample_child_mark(spec: TransitionSpec, parent: Mark,
                      rng: np.random.Generator) -> Mark:
    """Draw a child mark given the parent's; composite node handling is
    the caller's job (only the type coordinate is produced here)."""
    if isinstance(spec, IdentityTransition):
        return parent
    if isinstance(spec, PriorTransition):
        return sample_mark(spec.mark, rng)
    if isinstance(spec, FeatureMixture):
        width = len(spec.prior.probs)
        resample = rng.random(width) < spec.resample_prob
        draws = rng.random(width) < spec.prior.as_array
        bits = tuple(int(draws[i]) if resample[i] else parent.bits[i]
                     for i in range(width))
        return BinaryMark(bits)
    cum = spec.cumulative[_mark_label_index(parent)]  # a categorical matrix
    return LabelMark(draw_index(cum, rng.random()) + 1)


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


def transition_stats(spec: TransitionSpec, d: Dataset, children: np.ndarray,
                     parents: np.ndarray, z: np.ndarray):
    """Sufficient statistics for refitting ``spec`` from weighted
    (parent, child) event pairs, or None when the family has nothing to
    fit. They have a fixed size and add up, so components sharing a
    transition group pool theirs with ``+``:

    - feature mixture: the (F, 2, 2) table of ``_mixture_table``
    - feature prior: ``prior_stats`` of the children's weights
    - every family on label or composite marks: the (parent label,
      child label) weight table of ``label_pair_table``

    ``pattern_stats`` gives the same from pattern-pair weights.
    """
    if isinstance(spec, FeatureMixture):
        X = d.feature_matrix
        return _mixture_table(X[parents], X[children], z)
    if isinstance(spec, PriorTransition) and isinstance(spec.mark, FeaturePrior):
        # ``prior_stats`` of the children's weights, summed over the events
        # from the first child to the last only: a run of pairs costs its
        # own span, not the whole dataset
        lo = int(children.min()) if children.size else 0
        w = np.bincount(children - lo, weights=z)
        return _feature_sums(d.feature_matrix[lo:lo + w.size], w)
    if isinstance(d.schema, BinarySchema):
        return None
    return label_pair_table(d, children, parents, z)


def pattern_stats(spec: TransitionSpec, d: Dataset, table: np.ndarray):
    """``transition_stats`` of pairs whose weights are summed into
    ``table``, indexed (parent pattern, child pattern) over the patterns
    of ``pattern_codes``: on binary marks the mixture's bit indicators
    and the prior's feature sums are read per pattern row."""
    if not isinstance(d.schema, BinarySchema):
        return table
    rows = d.feature_patterns[0]
    if isinstance(spec, FeatureMixture):
        parents, children = np.divmod(np.arange(table.size), len(rows))
        return _mixture_table(rows[parents], rows[children], table.ravel())
    if isinstance(spec, PriorTransition):
        return _feature_sums(rows, table.sum(axis=0))
    return None


def fit_transition(spec: TransitionSpec, stats) -> TransitionSpec:
    """Weighted maximum likelihood refit of ``spec`` from its (pooled)
    ``transition_stats``."""
    if isinstance(spec, CategoricalMatrix):
        return fit_categorical(stats, spec.prior_direction, spec.prior_strength)
    if isinstance(spec, FeatureMixture):
        return replace(spec, resample_prob=fit_mixture_from_stats(stats, spec.prior))
    if isinstance(spec, PriorTransition):
        if isinstance(spec.mark, LabelMarginal):
            stats = stats.sum(axis=0)  # weight per child label
        return PriorTransition(fit_mark_dist(spec.mark, stats))
    return spec


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
    if prior_direction is not None:
        direction = np.asarray(prior_direction, dtype=np.float64)
        if direction.ndim == 1:
            direction = np.broadcast_to(direction, (n, n))
        if direction.shape != (n, n):
            raise DataError("prior direction must be a length-L simplex or an LxL matrix")
        if np.any(direction < 0) or np.any(np.abs(direction.sum(axis=1) - 1.0) > 1e-9):
            raise DataError("prior direction rows must be distributions")
        if prior_strength < 0:
            raise DataError("Dirichlet strength must be nonnegative")
    else:
        direction = None
        prior_strength = 0.0

    rows = np.empty_like(counts)
    for r in range(n):
        total = counts[r].sum()
        if direction is not None and prior_strength > 0:
            rows[r] = (counts[r] + prior_strength * direction[r]) / (total + prior_strength)
        elif total > 0:
            rows[r] = counts[r] / total
        else:
            warnings.warn(f"transition row {r + 1} has no counts and no prior; using uniform")
            rows[r] = 1.0 / n
    keep_dir = None
    if prior_direction is not None:
        arr = np.asarray(prior_direction, dtype=np.float64)
        keep_dir = tuple(map(tuple, arr)) if arr.ndim == 2 else tuple(arr.tolist())
    return CategoricalMatrix(tuple(map(tuple, rows)), prior_direction=keep_dir,
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
