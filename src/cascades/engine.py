"""EM fitting engine for cascade models.

A model is a baseline process plus additive kernel components; each
component triggers offspring through fertility(parent mark) *
transition(child mark | parent mark) * delay density(child t - parent
t). Fitting alternates an E-step that distributes each event's unit of
responsibility across its possible causes (baseline or any earlier
event under any component, restricted to per-component truncation
windows) and an M-step of weighted closed-form or Newton updates, with
an optional projection that rescales the model so the expected total
event count matches the observed one. The baseline families are
defined here, one class each with its rate, integral, refit and root
draws.

The E-step is array code over candidate pairs: per component,
``searchsorted`` bounds each child's window among the allowed parents,
the windows of a run of children expand into flat (child, parent) pair
arrays, the kernel factors that vary per pair are evaluated once over
those pairs, ``reduceat`` sums them per child, and the factors that read
only the child scale each child's sum (``_kernel_factors``). Mark
probabilities and transitions come from ``transitions`` (``mark_probs``,
``child_probs``, ``PairProbs``), which ``intensity`` and model
validation use too. Runs hold at most
``PAIR_CHUNK`` pairs and write into output arrays allocated once at full
size, so memory beyond the responsibilities stays bounded. For fitting,
the same loop sums each run's pairs into the M-step's statistics while
they are in hand (``estep_stats``), so no pair is visited twice.

A second kernel, ``fast_estep``, computes the same sufficient
statistics in O(N * P) for models whose delays are all exponential over
at most ``FAST_MAX_LABELS`` mark patterns P, labels or distinct binary
feature rows (Ozaki's recursion for exponential Hawkes likelihoods): per
component and source pattern, prefix sums over blocks of whole tie
groups, rebased on each block's first time, give every child's decayed
parent count and its age-weighted companion at once. Untruncated, it is
the fast engine; truncated, it subtracts the sums of the parents before
each child's window. Every truncated E-step (the direct engine's
training E-steps, held-out scores and the log likelihoods) picks its
kernel in ``_estep_core``: the scan when it applies and visits fewer
cells than there are candidate pairs, the pairwise E-step otherwise.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Union

import numpy as np

from . import delays as delay_mod
from . import fertility as fert_mod
from . import transitions as trans_mod
from .delays import DelaySpec
from .errors import ConfigError, DataError, NumericalError
from .events import (BinarySchema, CompositeSchema, Dataset, Mark, MarkSchema,
                     label_count)
from .fertility import FertilitySpec
from .transitions import MarkDistribution, PairProbs, TransitionSpec

ZERO_CREDIT = 0.0  # component credit at or below this skips parameter updates
PAIR_CHUNK = 1 << 18  # candidate pairs the pairwise E-step evaluates at once
FAST_MAX_LABELS = 256  # label count beyond which fast_estep does not apply
EXP_LIMIT = 300.0  # largest rate * (time span) inside one fast_estep block


@dataclass(frozen=True)
class HomogeneousBaseline:
    """Constant event rate over time, marks drawn from a fixed marginal."""

    rate: float
    mark: MarkDistribution

    kind = "homogeneous"

    def __post_init__(self):
        if self.rate < 0 or not np.isfinite(self.rate):
            raise ConfigError("baseline rate must be finite and nonnegative")

    def rate_at(self, times: np.ndarray) -> np.ndarray:
        return np.full(times.shape, self.rate, dtype=np.float64)

    def integral(self, a: float, b: float) -> float:
        """Expected baseline event count over (a, b], for a < b."""
        return self.rate * (b - a)

    def scaled(self, s: float) -> HomogeneousBaseline:
        return replace(self, rate=self.rate * s)

    def refit(self, times: np.ndarray, credit: np.ndarray,
              a: float, b: float) -> HomogeneousBaseline:
        """Rates refit from the baseline credit of the events at ``times``
        inside the window (a, b]."""
        duration = b - a
        if duration <= 0:
            raise DataError("baseline update needs a nonempty window")
        return replace(self, rate=float(credit.sum()) / duration)

    def draw_times(self, horizon: float, n: int, rng: np.random.Generator) -> np.ndarray:
        """Sorted times of n baseline events on (0, horizon]."""
        return np.sort(rng.random(n) * horizon)


@dataclass(frozen=True)
class PeriodicBaseline:
    """Piecewise-constant rate over equal buckets of a repeating period."""

    period: float
    rates: tuple[float, ...]
    mark: MarkDistribution

    kind = "periodic"

    def __post_init__(self):
        if self.period <= 0 or not np.isfinite(self.period):
            raise ConfigError("baseline period must be positive and finite")
        if not self.rates or any(r < 0 or not np.isfinite(r) for r in self.rates):
            raise ConfigError("baseline bucket rates must be finite and nonnegative")

    def _buckets(self, times: np.ndarray) -> np.ndarray:
        k = len(self.rates)
        width = self.period / k
        return np.clip((np.mod(times, self.period) / width).astype(np.int64), 0, k - 1)

    def _occupancy(self, a: float, b: float) -> np.ndarray:
        """Total time each bucket occupies within the window (a, b]."""
        k = len(self.rates)
        width = self.period / k

        def occ(t: float) -> np.ndarray:
            full, rem = divmod(t, self.period)
            starts = np.arange(k) * width
            return full * width + np.clip(rem - starts, 0.0, width)

        return occ(b) - occ(a)

    def rate_at(self, times: np.ndarray) -> np.ndarray:
        return np.asarray(self.rates, dtype=np.float64)[self._buckets(times)]

    def integral(self, a: float, b: float) -> float:
        return float(np.dot(self._occupancy(a, b), self.rates))

    def scaled(self, s: float) -> PeriodicBaseline:
        return replace(self, rates=tuple(r * s for r in self.rates))

    def refit(self, times: np.ndarray, credit: np.ndarray,
              a: float, b: float) -> PeriodicBaseline:
        occupancy = self._occupancy(a, b)
        k = len(self.rates)
        sums = np.bincount(self._buckets(times), weights=credit, minlength=k)
        stuck = np.nonzero((occupancy <= 0) & (sums > 1e-9))[0]
        if stuck.size:
            raise NumericalError(f"baseline bucket {stuck[0]} has credit but no exposure")
        rates = np.divide(sums, occupancy, out=np.zeros(k), where=occupancy > 0)
        return replace(self, rates=tuple(rates.tolist()))

    def draw_times(self, horizon: float, n: int, rng: np.random.Generator) -> np.ndarray:
        # invert the cumulative integral segment by segment
        k = len(self.rates)
        width = self.period / k
        n_seg = int(np.ceil(horizon / width + 1e-9))
        left = np.arange(n_seg) * width
        right = np.minimum(left + width, horizon)
        seg_rates = np.asarray(self.rates)[np.arange(n_seg) % k]
        mass = seg_rates * np.maximum(right - left, 0.0)
        cum = np.concatenate([[0.0], np.cumsum(mass)])
        u = rng.random(n) * cum[-1]
        idx = np.clip(np.searchsorted(cum, u, side="right") - 1, 0, n_seg - 1)
        times = left[idx] + (u - cum[idx]) / seg_rates[idx]
        return np.sort(np.minimum(times, horizon))


BaselineSpec = Union[HomogeneousBaseline, PeriodicBaseline]


@dataclass(frozen=True)
class KernelComponent:
    """One additive triggering kernel.

    ``sources`` optionally restricts which events may act as parents, by
    node id, for composite-marked graph data. Components sharing a
    ``transition_group`` (or ``delay_group``) pool their statistics in
    the M-step and receive the same fitted transition (or delay).
    """

    name: str
    fertility: FertilitySpec
    transition: TransitionSpec
    delay: DelaySpec
    sources: tuple[str, ...] | None = None
    transition_group: str | None = None
    delay_group: str | None = None


@dataclass(frozen=True)
class CascadeModel:
    baseline: BaselineSpec
    components: tuple[KernelComponent, ...] = ()
    normalization: bool = True
    truncation_mass: float = 1e-6

    def __post_init__(self):
        if self.truncation_mass < 0:
            raise ConfigError("truncation mass must be nonnegative")


class Responsibilities:
    """Sparse cause weights per child event.

    For child i, baseline[i] plus the z entries of every component slice
    sum to one. Component c stores flat arrays (parents, z) with slice
    offsets per child; entries exist exactly for in-window earlier
    parents, including zero-probability ones.
    """

    def __init__(self, n: int, baseline: np.ndarray,
                 comp_offsets: list[np.ndarray], comp_parents: list[np.ndarray],
                 comp_z: list[np.ndarray]):
        self.n = n
        self.baseline = baseline
        self.comp_offsets = comp_offsets
        self.comp_parents = comp_parents
        self.comp_z = comp_z

    @property
    def n_components(self) -> int:
        return len(self.comp_offsets)

    def argmax_cause(self, i: int) -> object:
        """Most responsible cause; ties prefer baseline, then lower parent
        id, then lower component index."""
        best_cause, best_z = None, float(self.baseline[i])
        candidates = []
        for c in range(self.n_components):
            lo, hi = self.comp_offsets[c][i], self.comp_offsets[c][i + 1]
            for k in range(lo, hi):
                candidates.append((int(self.comp_parents[c][k]), c, float(self.comp_z[c][k])))
        candidates.sort(key=lambda item: (item[0], item[1]))
        for parent, c, z in candidates:
            if z > best_z:
                best_cause, best_z = (parent, c), z
        return best_cause

    def total(self, i: int) -> float:
        s = float(self.baseline[i])
        for c in range(self.n_components):
            lo, hi = self.comp_offsets[c][i], self.comp_offsets[c][i + 1]
            s += float(self.comp_z[c][lo:hi].sum())
        return s


@dataclass
class ComponentStats:
    """One component's E-step weights in the forms its families' updates
    read: a weighted delay sample for ``delays.weighted_mle`` (every
    candidate pair's delay and weight from the pairwise E-step, or from
    fast_estep the one sample (sum z*dt / sum z, sum z), which has the
    same exponential MLE), the transition's statistic in its family's
    shape (``transitions.transition_stats``: the (parent label, child
    label) table of a categorical matrix, the (F, 2, 2) table of a
    feature mixture, a prior's weight per child label or feature sums
    over the children, None for identity), and expected offspring per
    parent mark pattern (``_mark_patterns``). The pairwise E-step sums
    the last two run by run, or from each child's total weight where they
    read only the children; fast_estep reads them off the pattern weight
    table (``transitions.pattern_stats``)."""

    deltas: np.ndarray
    weights: np.ndarray
    transition: object
    credits: np.ndarray


@dataclass
class EStepStats:
    """What m_step reads from an E-step, from either fast_estep or
    estep_stats: the baseline's share of each event, the intensity at
    each child event, and per-component statistics. Unlike
    ``Responsibilities`` it keeps no parent ids."""

    z_base: np.ndarray
    intensity: np.ndarray
    components: list[ComponentStats]

    @property
    def n_components(self) -> int:
        return len(self.components)

    @property
    def comp_z(self) -> np.ndarray:
        return np.array([c.weights.sum() for c in self.components])

    @property
    def comp_zdt(self) -> np.ndarray:
        return np.array([np.dot(c.deltas, c.weights) for c in self.components])


@dataclass
class FitReport:
    """What fit did. ``engine`` names what the training E-step computes:
    "fast" is the untruncated scan (fast_estep), which engine="auto"
    takes on label and composite marks whenever ``fast_applicable``;
    "direct" is the E-step truncated at the model's ``truncation_mass``,
    on whichever kernel visits fewer cells (``_estep_core``: the
    truncated scan or the pairwise E-step)."""

    model: CascadeModel
    ll_trace: list[float]
    iterations: int
    converged: bool
    engine: str
    heldout_trace: list[float] | None = None
    component_shares: list[list[float]] = field(default_factory=list)
    delay_means: list[list[float]] = field(default_factory=list)


# ---------------------------------------------------------------------------
# model validation and small helpers


def _groups(comps, attr: str) -> list[list[int]]:
    """Component indices that share a refit via ``attr``; unshared
    components form groups of one."""
    groups: dict[object, list[int]] = {}
    for ci, comp in enumerate(comps):
        key = getattr(comp, attr)
        groups.setdefault(ci if key is None else key, []).append(ci)
    return list(groups.values())


def validate_model(model: CascadeModel, schema: MarkSchema) -> None:
    """Raise ConfigError when the model cannot score marks of ``schema``."""
    trans_mod.check_mark_dist(model.baseline.mark, schema, "baseline")
    names = set()
    for comp in model.components:
        if comp.name in names:
            raise ConfigError(f"duplicate component name {comp.name!r}")
        names.add(comp.name)
        where = f"component {comp.name!r}"
        comp.fertility.check_schema(schema, where)
        trans_mod.check_transition(comp.transition, schema, where)
        if comp.sources is not None and not isinstance(schema, CompositeSchema):
            raise ConfigError(f"{where}: parent source restriction needs composite marks")
    for attr, label in (("transition_group", "transition"), ("delay_group", "delay")):
        for members in _groups(model.components, attr):
            comps = [model.components[ci] for ci in members]
            if len({type(getattr(c, label)) for c in comps}) != 1:
                raise ConfigError(f"{label} group {getattr(comps[0], attr)!r} "
                                  "mixes different spec kinds")


def baseline_integral(baseline: BaselineSpec, a: float, b: float) -> float:
    """Expected baseline event count over (a, b]."""
    return 0.0 if b <= a else baseline.integral(a, b)


def _fertility_matrix(model: CascadeModel, d: Dataset) -> list[np.ndarray]:
    X = d.feature_matrix if isinstance(d.schema, BinarySchema) else None
    return [c.fertility.rates(X, len(d)) for c in model.components]


def _source_entry(comp: KernelComponent, d: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """The (mask, indices) of the events at the component's source nodes,
    cached on the dataset per source tuple and read-only."""
    key = tuple(comp.sources)
    entry = d.source_pools.get(key)
    if entry is None:
        names, codes = d.node_codes
        mask = np.isin(names, key)[codes]
        pool = np.nonzero(mask)[0].astype(np.int64)
        mask.flags.writeable = pool.flags.writeable = False
        entry = d.source_pools[key] = (mask, pool)
    return entry


def _source_mask(comp: KernelComponent, d: Dataset) -> np.ndarray | None:
    """Which events may parent under this component; None when all may."""
    if comp.sources is None:
        return None
    return _source_entry(comp, d)[0]


def _parent_pool(comp: KernelComponent, d: Dataset) -> np.ndarray:
    """Sorted indices of the events allowed to parent under this component."""
    if comp.sources is None:
        return np.arange(len(d), dtype=np.int64)
    return _source_entry(comp, d)[1]


def _window_exposure(comp: KernelComponent, delay: DelaySpec, d: Dataset,
                     a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Events that may parent children inside (a, b] under this component,
    and the delay mass each of them puts there."""
    pool = _parent_pool(comp, d)
    pool = pool[d.times[pool] < b]
    t = d.times[pool]
    return pool, np.asarray(delay_mod.cdf(delay, b - t)) - np.asarray(delay_mod.cdf(delay, a - t))


def _mark_patterns(d: Dataset) -> tuple[np.ndarray | None, np.ndarray, int]:
    """Parent mark patterns that fertility can tell apart (distinct feature
    rows, or one pattern, given as None, for other marks), each event's
    pattern index and the pattern count."""
    if isinstance(d.schema, BinarySchema):
        rows, index = d.feature_patterns
        return rows, index, len(rows)
    return None, np.zeros(len(d), dtype=np.int64), 1


def _check_components(resp: Responsibilities | EStepStats, model: CascadeModel) -> None:
    if resp.n_components != len(model.components):
        raise DataError(f"responsibilities cover {resp.n_components} components, "
                        f"the model has {len(model.components)}")


def _resolve_window(d: Dataset, window: tuple[float, float] | None) -> tuple[float, float]:
    if window is None:
        return d.start, d.horizon
    a, b = window
    if not d.start <= a <= b <= d.horizon:
        raise DataError(f"window ({a}, {b}] outside the dataset window")
    return float(a), float(b)


def _child_ids(d: Dataset, children: np.ndarray | None,
               window: tuple[float, float]) -> np.ndarray:
    a, b = window
    # Windows are half-open (a, b] so an event at an interior cut is
    # scored exactly once (split puts it in the head), but the origin is
    # closed: an event at exactly t == 0 still belongs to the data.
    left = d.times >= a if a == 0.0 else d.times > a
    inside = left & (d.times <= b)
    if children is not None:
        inside &= np.asarray(children, dtype=bool)
    return np.nonzero(inside)[0].astype(np.int64)


# ---------------------------------------------------------------------------
# E-step


def _child_sums(vals: np.ndarray, cnt: np.ndarray) -> np.ndarray:
    """Sums of consecutive runs of ``cnt[k]`` values, 0 for empty runs
    (where a bare ``reduceat`` would repeat a value, or index past the
    end for a trailing one)."""
    out = np.zeros(cnt.size)
    has = cnt > 0
    out[has] = np.add.reduceat(vals, (np.cumsum(cnt) - cnt)[has])
    return out


def _pattern_credits(pattern: np.ndarray, n_patterns: int, parents: np.ndarray,
                     z: np.ndarray) -> np.ndarray:
    """Weighted pairs' credit per parent mark pattern; the credits of
    disjoint pair sets add up."""
    if n_patterns == 1:
        return np.array([z.sum()])
    return np.bincount(pattern[parents], weights=z, minlength=n_patterns)


def _kernel_factors(comp: KernelComponent, d: Dataset, kids: np.ndarray,
                    rows: np.ndarray | None, n_patterns: int):
    """Component comp's fertility(parent) * g(child | parent), split by
    what each factor reads, as (child, alpha, pair). ``child`` is one
    factor per child at ``kids``, or None: the fertility when it has one
    value, which it has whenever the data have one parent mark pattern
    (``_mark_patterns``: every label and composite schema), times a
    prior's g(child). ``alpha`` is the fertility per event when it may
    vary by parent, and ``pair`` the ``PairProbs`` of a transition that
    reads the parent's mark; None otherwise. The choice reads only the
    families and the pattern count."""
    g = trans_mod.child_probs(comp.transition, d, kids)
    pair = None if g is not None else PairProbs(comp.transition, d, PAIR_CHUNK)
    if n_patterns != 1:
        return g, comp.fertility.rates(d.feature_matrix, len(d)), pair
    alpha = float(comp.fertility.rates(rows, 1)[0])
    return (np.full(kids.size, alpha) if g is None else alpha * g), None, pair


def _estep_core(model: CascadeModel, d: Dataset, children: np.ndarray | None,
                window: tuple[float, float] | None, want_resp: bool = False,
                want_stats: bool = False, scan: bool = False):
    """The truncated E-step: (out, intensity, child ids), where ``out`` is
    the ``Responsibilities`` with ``want_resp``, the ``EStepStats`` with
    ``want_stats`` (summed chunk by chunk, so no pair is visited twice)
    and otherwise None.

    The E-step runs on candidate pairs unless ``scan`` lets it choose the
    truncated ``fast_estep``, which it takes when that is cheaper
    (``_scan_is_cheaper``). ``out`` is then the scan's ``EStepStats``
    whatever ``want_stats`` says.

    On pairs, each component's kernel factors apart (``_kernel_factors``):
    the pair loop evaluates the delay density and only those factors that
    vary by parent, each child's sum of them is scaled by its child
    factor, and a pair's weight is its value times (child factor /
    intensity). Statistics that read only the children (the credits on
    one mark pattern, a prior's ``transitions.prior_stats``) are summed
    from each child's total weight after the loop; the rest pair by
    pair."""
    window = _resolve_window(d, window)
    times = d.times
    n = len(d)
    kids = _child_ids(d, children, window)
    kid_times = times[kids]
    comps = model.components
    pools = [_parent_pool(c, d) for c in comps]
    pool_times = [times if c.sources is None else times[p] for c, p in zip(comps, pools)]
    cutoffs = [delay_mod.tail_cutoff(c.delay, model.truncation_mass) for c in comps]

    his = [np.searchsorted(pt, kid_times, side="left") for pt in pool_times]
    # an infinite cutoff searches for -inf, which lands on the first parent
    los = [np.searchsorted(pt, kid_times - cut, side="left")
           for pt, cut in zip(pool_times, cutoffs)]
    # per component: each child's candidate count and the offset of its
    # first pair among the pairs of all children
    counts = [hi - lo for lo, hi in zip(los, his)]
    starts = [np.concatenate(([0], np.cumsum(cnt))) for cnt in counts]
    if scan and not want_resp and _scan_is_cheaper(model, d, kids, cutoffs,
                                                   sum(int(st[-1]) for st in starts)):
        stats = fast_estep(model, d, children, window, truncated=True)
        return stats, stats.intensity, kids

    base_vals = (model.baseline.rate_at(kid_times)
                 * trans_mod.mark_probs(model.baseline.mark, d, kids))
    rows, pattern, n_patterns = _mark_patterns(d)
    factors = [_kernel_factors(c, d, kids, rows, n_patterns) for c in comps]

    lam = np.zeros(n, dtype=np.float64)
    z_base = np.zeros(n, dtype=np.float64)
    if want_resp or want_stats:
        comp_z = [np.empty(st[-1], dtype=np.float64) for st in starts]
    if want_resp:
        comp_offsets = [np.zeros(n + 1, dtype=np.int64) for _ in comps]
        for offsets, cnt in zip(comp_offsets, counts):
            offsets[kids + 1] = cnt
            np.cumsum(offsets, out=offsets)
        comp_parents = [np.empty(st[-1], dtype=np.int64) for st in starts]
    if want_stats:
        deltas = [np.empty(st[-1], dtype=np.float64) for st in starts]
        # each child's total weight per component, and the statistics
        # summed pair by pair, which start as those of no pairs
        kid_z = [np.zeros(kids.size) for _ in comps]
        none = np.zeros(0, dtype=np.int64)
        pair_trans = [None if pair is None else
                      trans_mod.transition_stats(c.transition, d, none, none, np.zeros(0))
                      for c, (_, _, pair) in zip(comps, factors)]
        pair_credits = [np.zeros(n_patterns) for _ in comps]

    # chunks are runs of whole children holding at most PAIR_CHUNK pairs
    # over all components (or one child with more)
    pair_ends = np.cumsum(sum(counts, np.zeros(kids.size, dtype=np.int64)))
    s = 0
    while s < kids.size:
        done = int(pair_ends[s - 1]) if s else 0
        e = max(int(np.searchsorted(pair_ends, done + PAIR_CHUNK, side="right")), s + 1)
        total = base_vals[s:e].copy()
        chunk = []
        for c, comp in enumerate(comps):
            p0, p1 = starts[c][s], starts[c][e]
            if p1 == p0:
                continue
            child, alpha, pair = factors[c]
            cnt = counts[c][s:e]
            at = np.arange(p0, p1) + np.repeat(los[c][s:e] - starts[c][s:e], cnt)
            js = at if comp.sources is None else pools[c][at]
            dt = deltas[c][p0:p1] if want_stats else None
            dt = np.subtract(np.repeat(kid_times[s:e], cnt), times[js], out=dt)
            vals = delay_mod.density(comp.delay, dt)
            ch = None
            if alpha is not None:
                vals *= alpha[js]
            if pair is not None:
                ch = np.repeat(kids[s:e], cnt)
                vals *= pair.values(ch, js)
            sums = _child_sums(vals, cnt)
            if child is not None:
                sums *= child[s:e]
            total += sums
            chunk.append((c, p0, p1, cnt, ch, js, vals, sums))
        bad = ~((total > 0.0) & np.isfinite(total))
        if bad.any():
            i = kids[s + int(np.argmax(bad))]
            raise NumericalError(
                f"event {int(i)} at t={times[i]!r} has zero intensity under every cause")
        lam[kids[s:e]] = total
        if want_resp or want_stats:
            z_base[kids[s:e]] = base_vals[s:e] / total
            for c, p0, p1, cnt, ch, js, vals, sums in chunk:
                child = factors[c][0]
                scale = (1.0 if child is None else child[s:e]) / total
                z = np.multiply(vals, np.repeat(scale, cnt), out=comp_z[c][p0:p1])
                if want_resp:
                    comp_parents[c][p0:p1] = js
                if want_stats:
                    kid_z[c][s:e] = sums / total
                    if ch is not None:
                        trans = trans_mod.transition_stats(comps[c].transition, d, ch, js, z)
                        if trans is not None:
                            pair_trans[c] = pair_trans[c] + trans
                    if n_patterns != 1:
                        pair_credits[c] = pair_credits[c] + _pattern_credits(
                            pattern, n_patterns, js, z)
        s = e

    out = None
    if want_resp:
        out = Responsibilities(n, z_base, comp_offsets, comp_parents, comp_z)
    elif want_stats:
        out = EStepStats(z_base, lam, [
            ComponentStats(deltas[c], comp_z[c],
                           (trans_mod.prior_stats(comp.transition.mark, d, kid_z[c], kids)
                            if factors[c][2] is None else pair_trans[c]),
                           (np.array([kid_z[c].sum()]) if n_patterns == 1
                            else pair_credits[c]))
            for c, comp in enumerate(comps)])
    return out, lam, kids


def e_step(model: CascadeModel, d: Dataset, children: np.ndarray | None = None,
           window: tuple[float, float] | None = None) -> Responsibilities:
    """Distribute each child event's responsibility across its causes.

    Weights are proportional to the kernel values (baseline intensity
    for the dummy root cause), so each child's row sums to one. Only
    strictly earlier parents inside each component's truncation window
    appear. Raises NumericalError if some event has zero intensity
    under every cause.
    """
    validate_model(model, d.schema)
    resp, _, _ = _estep_core(model, d, children, window, want_resp=True)
    return resp


def compensator(model: CascadeModel, d: Dataset,
                window: tuple[float, float] | None = None) -> float:
    """Expected event count over the window given the realized history."""
    a, b = _resolve_window(d, window)
    total = baseline_integral(model.baseline, a, b)
    for alpha, comp in zip(_fertility_matrix(model, d), model.components):
        pool, mass = _window_exposure(comp, comp.delay, d, a, b)
        total += float(np.dot(alpha[pool], mass))
    return float(total)


def _ll_value(model: CascadeModel, d: Dataset, lam: np.ndarray, kids: np.ndarray,
              window: tuple[float, float] | None) -> float:
    if kids.size and np.any(lam[kids] <= 0):
        raise NumericalError("zero intensity at an observed event")
    point = float(np.log(lam[kids]).sum()) if kids.size else 0.0
    return point - compensator(model, d, window)


def log_likelihood(model: CascadeModel, d: Dataset,
                   history: Dataset | None = None) -> float:
    """Log likelihood of the events in d's window (start, horizon]
    (closed on the left when the window starts at the origin).

    With ``history`` given, events before the window act as additional
    potential parents and contribute their leftover triggering mass to
    the compensator, which is how split tails are scored.
    """
    validate_model(model, d.schema)
    if history is not None:
        d = d.merge_history(history)
    _, lam, kids = _estep_core(model, d, None, None, scan=True)
    return _ll_value(model, d, lam, kids, None)


def windowed_log_likelihood(model: CascadeModel, d: Dataset,
                            children: np.ndarray | None = None,
                            window: tuple[float, float] | None = None) -> float:
    """Log likelihood of the masked events inside (a, b], with every
    earlier event (masked or not) still eligible as a parent and the
    compensator integrated over the same window."""
    validate_model(model, d.schema)
    _, lam, kids = _estep_core(model, d, children, window, scan=True)
    return _ll_value(model, d, lam, kids, window)


def intensity(model: CascadeModel, history: Dataset, t: float, x: Mark) -> float:
    """Conditional intensity at (t, x) given the events of ``history``
    strictly before t (truncation windows applied)."""
    validate_model(model, history.schema)
    cutoffs = [delay_mod.tail_cutoff(c.delay, model.truncation_mass)
               for c in model.components]
    # the events inside some component's truncation window, then (t, x)
    lo, hi = np.searchsorted(history.times, [t - max(cutoffs, default=0.0), t], side="left")
    d = history._with_query(int(lo), int(hi), t, x)
    q = len(d) - 1
    total = float(model.baseline.rate_at(d.times[q:])[0]
                  * trans_mod.mark_probs(model.baseline.mark, d, np.array([q]))[0])
    for alpha, comp, cut in zip(_fertility_matrix(model, d), model.components, cutoffs):
        pool = _parent_pool(comp, d)
        js = pool[np.searchsorted(d.times[pool], t - cut, side="left"):]
        js = js[js < q]
        g = PairProbs(comp.transition, d, PAIR_CHUNK).values(np.full(js.size, q), js)
        total += float(np.sum(alpha[js] * g * delay_mod.density(comp.delay, t - d.times[js])))
    return total


def em_lower_bound(model: CascadeModel, d: Dataset, resp: Responsibilities,
                   children: np.ndarray | None = None,
                   window: tuple[float, float] | None = None) -> float:
    """Jensen bound sum_i sum_causes z log(k / z) minus the compensator.

    ``resp`` must share the model's candidate layout (as produced by
    e_step on the same model). Equality with the log likelihood holds
    exactly when z came from e_step under this model.
    """
    _check_components(resp, model)
    fresh, lam, kids = _estep_core(model, d, children, window, want_resp=True)
    terms = [(resp.baseline[kids], fresh.baseline[kids] * lam[kids])]
    for c in range(len(model.components)):
        offsets = resp.comp_offsets[c]
        cnt = np.diff(fresh.comp_offsets[c])[kids]
        if len(offsets) != len(d) + 1 or np.any(np.diff(offsets)[kids] != cnt):
            raise DataError("responsibilities do not match the model's layout")
        # resp's pairs of the children, in fresh's order
        first = np.cumsum(cnt) - cnt
        at = np.arange(cnt.sum()) + np.repeat(offsets[kids] - first, cnt)
        terms.append((resp.comp_z[c][at], fresh.comp_z[c] * np.repeat(lam[kids], cnt)))
    bound = 0.0
    for z, k in terms:
        pos = z > 0
        if np.any(k[pos] <= 0):
            return -np.inf
        bound += float(np.dot(z[pos], np.log(k[pos] / z[pos])))
    return bound - compensator(model, d, window)


# ---------------------------------------------------------------------------
# M-step


def _pair_arrays(resp: Responsibilities, c: int):
    """Component c's candidate pairs as (child, parent, z) arrays."""
    children = np.repeat(np.arange(resp.n, dtype=np.int64), np.diff(resp.comp_offsets[c]))
    return children, resp.comp_parents[c], resp.comp_z[c]


def _component_stats(model: CascadeModel, d: Dataset,
                     resp: Responsibilities) -> list[ComponentStats]:
    """Per-component statistics of given responsibilities, for m_step."""
    if resp.n != len(d):
        raise DataError("responsibilities do not match the dataset")
    _, pattern, n_patterns = _mark_patterns(d)
    out = []
    for c, comp in enumerate(model.components):
        children, parents, z = _pair_arrays(resp, c)
        out.append(ComponentStats(
            d.times[children] - d.times[parents], z,
            trans_mod.transition_stats(comp.transition, d, children, parents, z),
            _pattern_credits(pattern, n_patterns, parents, z)))
    return out


def estep_stats(model: CascadeModel, d: Dataset, children: np.ndarray | None = None,
                window: tuple[float, float] | None = None) -> EStepStats:
    """The pairwise E-step, summed into the statistics m_step reads as it
    goes; no responsibilities are kept."""
    validate_model(model, d.schema)
    stats, _, _ = _estep_core(model, d, children, window, want_stats=True)
    return stats


def expected_transition_counts(model: CascadeModel, d: Dataset,
                               resp: Responsibilities) -> list[np.ndarray | None]:
    """Per-component z-weighted (parent label, child label) count matrices
    for label-like schemas; None entries for feature-marked components."""
    if label_count(d.schema) is None:
        return [None for _ in model.components]
    return [trans_mod.label_pair_table(d, *_pair_arrays(resp, c))
            for c in range(len(model.components))]


def m_step(model: CascadeModel, d: Dataset, resp: Responsibilities | EStepStats,
           children: np.ndarray | None = None,
           window: tuple[float, float] | None = None,
           update_baseline_mark: bool = True,
           freeze_delays: bool = False) -> CascadeModel:
    """Weighted maximum likelihood updates given fixed responsibilities:
    the statistics of estep_stats or fast_estep, or e_step's pairs,
    which are summed into the same statistics first.

    Delays refit from weighted delay samples; transitions from their
    family's statistics; fertilities from credits over edge-corrected
    exposures under the freshly updated delays, both summed per parent
    mark pattern; baseline rates from baseline-assigned weight over
    exposure. Delay and transition groups pool their members'
    statistics. Components with no credit keep their delay and
    transition parameters.

    The delay refit ignores how the edge-corrected compensator depends
    on the delay, so it can overshoot slightly when much of the delay
    mass falls past the horizon; with ``freeze_delays`` the delays are
    kept and every remaining update is an exact coordinate ascent, which
    fit() uses as a fallback to keep the likelihood nondecreasing.
    """
    validate_model(model, d.schema)
    window = _resolve_window(d, window)
    a, b = window
    _check_components(resp, model)
    if isinstance(resp, Responsibilities):
        z_base, stats = resp.baseline, _component_stats(model, d, resp)
    else:
        z_base, stats = resp.z_base, resp.components
    if z_base.size != len(d):
        raise DataError("responsibilities do not match the dataset")
    comps = model.components
    # baseline credit summed over the window's children only, so the sum
    # does not depend on how many other events the dataset holds
    kids = _child_ids(d, children, window)
    credit = z_base[kids]
    baseline = model.baseline.refit(d.times[kids], credit, a, b)
    if update_baseline_mark and float(credit.sum()) > 0:
        baseline = replace(baseline, mark=trans_mod.fit_mark_dist(
            baseline.mark, trans_mod.prior_stats(baseline.mark, d, z_base)))

    new_delays: list[DelaySpec] = [c.delay for c in comps]
    if not freeze_delays:
        for members in _groups(comps, "delay_group"):
            if len(members) == 1:
                deltas, weights = stats[members[0]].deltas, stats[members[0]].weights
            else:
                deltas = np.concatenate([stats[ci].deltas for ci in members])
                weights = np.concatenate([stats[ci].weights for ci in members])
            if weights.sum() > ZERO_CREDIT:
                fitted = delay_mod.weighted_mle(comps[members[0]].delay, deltas, weights)
                for ci in members:
                    new_delays[ci] = fitted

    new_transitions: list[TransitionSpec] = [c.transition for c in comps]
    for members in _groups(comps, "transition_group"):
        credit = sum(float(stats[ci].weights.sum()) for ci in members)
        if credit > ZERO_CREDIT and stats[members[0]].transition is not None:
            fitted = trans_mod.fit_transition(comps[members[0]].transition,
                                              sum(stats[ci].transition for ci in members))
            for ci in members:
                new_transitions[ci] = fitted

    # fertilities under the new delays, one row per parent mark pattern
    rows, pattern, n_patterns = _mark_patterns(d)
    new_ferts: list[FertilitySpec] = []
    for ci, comp in enumerate(comps):
        pool, exposure = _window_exposure(comp, new_delays[ci], d, a, b)
        seen = np.bincount(pattern[pool], minlength=n_patterns) > 0
        exposures = np.bincount(pattern[pool], weights=exposure, minlength=n_patterns)
        new_ferts.append(fert_mod.update(comp.fertility, None if rows is None else rows[seen],
                                         stats[ci].credits[seen], exposures[seen]))

    rebuilt = tuple(replace(comp, fertility=new_ferts[ci], transition=new_transitions[ci],
                            delay=new_delays[ci])
                    for ci, comp in enumerate(comps))
    return replace(model, baseline=baseline, components=rebuilt)


def normalize(model: CascadeModel, d: Dataset, children: np.ndarray | None = None,
              window: tuple[float, float] | None = None) -> CascadeModel:
    """Rescale all rates so the compensator equals the observed count.

    The optimal global scale for the point-process likelihood is
    N / compensator, so this projection never decreases the likelihood.
    Multiplicative fertilities rescale through their bias weight.
    """
    window = _resolve_window(d, window)
    n = _child_ids(d, children, window).size
    if n == 0:
        return model
    lam_total = compensator(model, d, window)
    if lam_total <= 0:
        raise NumericalError("cannot normalize: the compensator is zero")
    s = n / lam_total
    if not np.isfinite(s):
        raise NumericalError(f"cannot normalize: the scale factor {s} is not finite")
    rebuilt = tuple(replace(c, fertility=c.fertility.scaled(s)) for c in model.components)
    return replace(model, baseline=model.baseline.scaled(s), components=rebuilt)


# ---------------------------------------------------------------------------
# prefix-sum scan for exponential delays over few mark patterns


def scan_applicable(model: CascadeModel, d: Dataset) -> bool:
    """True when fast_estep covers this model on d, given that it passed
    validate_model for d's schema: every delay family carries a decay
    rate, and the marks form at most ``FAST_MAX_LABELS`` patterns.
    Fertilities become per-pattern factors and transitions pattern
    tables, so every family of those qualifies."""
    return (all(c.delay.decay_rate is not None for c in model.components)
            and trans_mod.pattern_codes(d)[1] <= FAST_MAX_LABELS)


def fast_applicable(model: CascadeModel, d: Dataset) -> bool:
    """True when the fast engine, the untruncated scan, fits this model:
    label or composite marks and ``scan_applicable``."""
    return label_count(d.schema) is not None and scan_applicable(model, d)


def _scan_blocks(times: np.ndarray, n: int, max_events: int, span: float):
    """Cut events [0, n) into blocks [s, e) of whole tie groups, each with
    at most ``max_events`` events whose times differ by less than
    ``span``; a tie group that alone breaks a bound is one block."""
    s = 0
    while s < n:
        e = min(n, s + max_events, int(np.searchsorted(times, times[s] + span, side="left")))
        if e < n and times[e] == times[e - 1]:
            e = int(np.searchsorted(times, times[e], side="left"))
        if e <= s:
            e = min(n, int(np.searchsorted(times, times[s], side="right")))
        yield s, e
        s = e


class _DecayedSums:
    """Per component and source pattern, the decayed parent count D and
    its age-weighted companion E, walked forward block by block.

    Between blocks (D, E) hold the sums at the block's first time t0 over
    the events before it. Inside the block [s, e), ``prefix[c, h, r]``
    sums exp(rate (t_j - t0)) over its first h events of pattern r, and
    ``aged[c, h, r]`` the same terms times (time of event h-1 - t_j),
    summed gap by gap so that every term is nonnegative. With
    ``counting``, N and ``seen`` count the same parents the same way.
    """

    def __init__(self, times: np.ndarray, codes: np.ndarray, sources: np.ndarray,
                 rates: np.ndarray, n_codes: int, blocks, counting: bool):
        self.times, self.codes, self.sources, self.rates = times, codes, sources, rates
        self.n_codes, self.blocks, self.counting = n_codes, blocks, counting
        self.D = np.zeros((rates.size, n_codes))
        self.E = np.zeros((rates.size, n_codes))
        self.N = np.zeros((rates.size, n_codes))
        self.s = self.e = None

    def next(self, lead: _DecayedSums | None = None, c: int = 0) -> bool:
        """Move to the next block; False past the last. When ``lead``, a
        walk over every component on the same blocks, stands at that
        block, component c's sums are read from it, not built again."""
        block = next(self.blocks, None)
        if block is None:
            return False
        s, e = block
        if lead is not None and lead.s == s:
            self.s, self.e, self.t0, self.last = s, e, lead.t0, lead.last
            self.D, self.E, self.N = lead.D[c:c + 1], lead.E[c:c + 1], lead.N[c:c + 1]
            self.prefix, self.aged = lead.prefix[c:c + 1], lead.aged[c:c + 1]
            self.seen = lead.seen[c:c + 1]
            return True
        rates = self.rates[:, None]
        t0 = self.times[s]
        if self.s is not None:
            if self.counting:
                self.N = self.N + self.seen[:, -1]
            # carry past the current block's last event, then on to t0
            t_end, width = self.times[self.e - 1], self.last[-1]
            decay = np.exp(-rates * width)
            E = decay * (self.E + width * self.D + self.aged[:, -1])
            D = decay * (self.D + self.prefix[:, -1])
            decay = np.exp(-rates * (t0 - t_end))
            self.E, self.D = decay * (E + (t0 - t_end) * D), decay * D
        self.s, self.e, self.t0 = s, e, t0
        loc = self.times[s:e] - t0
        cells = (slice(None), np.arange(1, e - s + 1), self.codes[s:e])
        if self.counting:
            self.seen = np.zeros((self.rates.size, e - s + 1, self.n_codes))
            self.seen[cells] = self.sources[:, s:e]
            np.cumsum(self.seen, axis=1, out=self.seen)
        prefix = np.zeros((self.rates.size, e - s + 1, self.n_codes))
        prefix[cells] = self.sources[:, s:e] * np.exp(rates * loc)
        np.cumsum(prefix, axis=1, out=prefix)
        self.last = np.concatenate(([0.0], loc))
        self.aged = np.zeros_like(prefix)
        np.cumsum(np.diff(self.last)[None, :, None] * prefix[:, :-1], axis=1,
                  out=self.aged[:, 1:])
        self.prefix = prefix
        return True

    def at(self, h: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(D, E), each (components, len(t), patterns), at times t over
        the events before s + h, for h in [0, e - s] and t no earlier
        than t0 or the time of event s + h - 1."""
        age = t - self.t0
        decay = np.exp(-self.rates[:, None] * age)[:, :, None]
        pk = np.take(self.prefix, h, axis=1)
        E = age[:, None] * self.D[:, None]
        E += self.E[:, None]
        E += np.take(self.aged, h, axis=1)
        E += (age - self.last[h])[:, None] * pk
        E *= decay
        pk += self.D[:, None]
        pk *= decay
        return pk, E

    def count(self, h: np.ndarray) -> np.ndarray:
        """Parents before s + h per component and pattern, (components,
        len(h), patterns); needs ``counting``."""
        return self.N[:, None] + np.take(self.seen, h, axis=1)


def _scan_events(model: CascadeModel, d: Dataset, kids: np.ndarray,
                 cutoffs: list[float]) -> np.ndarray:
    """The events the scan walks: from the first one inside some child's
    truncation window to the last child, those that may parent under
    some component or are children. Events that are neither never enter,
    so the scan of a node's fit reads only the node's children and its
    parent pools, as the pairwise E-step does."""
    if not kids.size:
        return kids
    t = d.times[kids[0]] - max(cutoffs, default=0.0)
    start, end = int(np.searchsorted(d.times, t, side="left")), int(kids[-1]) + 1
    if any(c.sources is None for c in model.components):
        return np.arange(start, end)
    keep = np.zeros(end - start, dtype=bool)
    keep[kids - start] = True
    for c in model.components:
        keep |= _source_mask(c, d)[start:end]
    return start + np.flatnonzero(keep)


def _scan_is_cheaper(model: CascadeModel, d: Dataset, kids: np.ndarray,
                     cutoffs: list[float], pairs: int) -> bool:
    """True when the truncated scan covers the model (``scan_applicable``)
    and visits fewer cells than the ``pairs`` candidate pairs: the events
    it walks (``_scan_events``) times its walks (one per component and a
    second per truncated component, to the starts of the windows) times
    the mark patterns. The walk holds every child, which settles small
    windows before the walked events are counted."""
    if not kids.size:
        return False
    per_event = ((len(model.components) + sum(cut < np.inf for cut in cutoffs))
                 * trans_mod.pattern_codes(d)[1])
    return (pairs > kids.size * per_event and scan_applicable(model, d)
            and pairs > _scan_events(model, d, kids, cutoffs).size * per_event)


def fast_estep(model: CascadeModel, d: Dataset, children: np.ndarray | None = None,
               window: tuple[float, float] | None = None,
               truncated: bool = False) -> EStepStats:
    """Exact E-step sufficient statistics from prefix sums over blocks.

    For exponential delays the triggered intensity by source mark pattern
    r (a label, or a distinct binary feature row) is a decayed count
    D[r] = sum_j exp(-rate (t - t_j)) over earlier parents j of pattern
    r, and the delay statistic needs its age-weighted companion E[r] =
    sum_j (t - t_j) exp(-rate (t - t_j)). Both replace explicit parent
    pairs: the kernel weight of (child pattern l, parent pattern r) is
    rate * fertility(r) * g(l | r). Events are cut into blocks of whole
    tie groups (``_scan_blocks``) holding at most ``PAIR_CHUNK`` cells
    over components and patterns, with rate * (time span) below
    ``EXP_LIMIT``, so ``exp(rate (t_j - t0))`` rebased on the block's
    first time t0 cannot overflow. Inside a block, exclusive ``cumsum``
    prefixes gathered at ``searchsorted(times, t, "left")`` give D and E
    at every child at once, so simultaneous events never explain each
    other (``_DecayedSums``).

    Untruncated (the fast engine), this matches estep_stats with zero
    tail mass. With ``truncated``, each component drops the parents
    before k = searchsorted(times, t - cut, "left") for its
    ``delays.tail_cutoff`` cut, as the pairwise E-step does. Their sums
    at t are exp(-rate (t - t_k)) D_k and exp(-rate (t - t_k)) (E_k +
    (t - t_k) D_k), from the sums (D_k, E_k) over them at t_k; a second
    walk per component gathers these from the block holding k
    (``_window_start_sums``), and they are subtracted, with rounding
    below zero clamped to 0 and patterns with no parent inside the
    window set to 0, as their pairs are. The walks then cover only the
    events from the first one inside any child's window
    (``_scan_events``). The transition statistics and per-pattern credits come from the (child
    pattern, parent pattern) weight table; the delay sample is one
    (sum z dt / sum z, sum z) per component, which has the same
    exponential MLE as the pairs.
    """
    validate_model(model, d.schema)
    if not scan_applicable(model, d):
        raise ConfigError("fast E-step needs exponential delays and at most "
                          f"{FAST_MAX_LABELS} mark patterns")
    window = _resolve_window(d, window)
    comps = model.components
    codes, P = trans_mod.pattern_codes(d)
    n, C = len(d), len(comps)
    kids = _child_ids(d, children, window)
    base = (model.baseline.rate_at(d.times[kids])
            * trans_mod.mark_probs(model.baseline.mark, d, kids))
    rates = np.array([c.delay.decay_rate for c in comps])
    rows = d.feature_patterns[0] if isinstance(d.schema, BinarySchema) else None
    # by_child[c, l, r]: delay rate * fertility(r) * g(l | r), read by child pattern l
    by_child = np.array([c.delay.decay_rate * c.fertility.rates(rows, P)[None, :]
                         * trans_mod.pattern_matrix(c.transition, d).T
                         for c in comps]).reshape(C, P, P)
    cutoffs = ([delay_mod.tail_cutoff(c.delay, model.truncation_mass) for c in comps]
               if truncated else [np.inf] * C)
    cut = [c for c in range(C) if np.isfinite(cutoffs[c])]
    # the walk runs over the events of _scan_events, numbered from 0
    walked = _scan_events(model, d, kids, cutoffs)
    times, codes = d.times[walked], codes[walked]
    sources = np.ones((C, walked.size))
    for c, comp in enumerate(comps):
        mask = _source_mask(comp, d)
        if mask is not None:
            sources[c] = mask[walked]
    at_kid = np.searchsorted(walked, kids)

    z_base, lam = np.zeros(n), np.zeros(n)
    comp_z, comp_zdt = np.zeros(C), np.zeros(C)
    counts = np.zeros((C, P, P))
    top = rates.max() if C else 0.0

    def blocks():
        return _scan_blocks(times, walked.size, max(1, PAIR_CHUNK // max(C * P, 1)),
                            EXP_LIMIT / top if top > 0 else np.inf)

    lead = _DecayedSums(times, codes, sources, rates, P, blocks(), counting=bool(cut))
    # per truncated component, the walk that gives the sums at window starts
    trail = {c: _DecayedSums(times, codes, sources[c:c + 1], rates[c:c + 1], P, blocks(),
                             counting=True)
             for c in cut}
    k0 = 0
    while lead.next():
        k1 = int(np.searchsorted(at_kid, lead.e, side="left"))
        if k1 > k0:
            kb, kw = kids[k0:k1], at_kid[k0:k1]
            tk, lk = times[kw], codes[kw]
            h = np.searchsorted(times[lead.s:lead.e], tk, side="left")
            Dk, Ek = lead.at(h, tk)
            if cut:
                before = lead.count(h)
            for c in cut:
                Dx, Ex, Nx = _window_start_sums(trail[c], lead, c, times, tk - cutoffs[c], tk)
                # a pattern with no parent inside the window gets exactly
                # 0, where the subtraction would leave its rounding
                inside = before[c] > Nx
                Dk[c] = np.where(inside, np.maximum(Dk[c] - Dx, 0.0), 0.0)
                Ek[c] = np.where(inside, np.maximum(Ek[c] - Ex, 0.0), 0.0)
            weights = np.take(by_child, lk, axis=1)
            wsum = np.einsum("cnl,cnl->cn", weights, Dk)
            total = base[k0:k1] + wsum.sum(axis=0)
            bad = ~((total > 0.0) & np.isfinite(total))
            if bad.any():
                k = int(kb[np.argmax(bad)])
                raise NumericalError(
                    f"event {k} at t={d.times[k]!r} has zero intensity under every cause")
            lam[kb] = total
            z_base[kb] = base[k0:k1] / total
            comp_z += (wsum / total).sum(axis=1)
            comp_zdt += (np.einsum("cnl,cnl->cn", weights, Ek) / total).sum(axis=1)
            # counts[c, l, r] sums D[r] / total over children of pattern l;
            # the kernel weights by_child[c, l, r] multiply in after the loop
            cell = ((np.arange(C)[:, None] * P + lk) * P)[:, :, None] + np.arange(P)
            counts += np.bincount(cell.ravel(), weights=(Dk / total[:, None]).ravel(),
                                  minlength=C * P * P).reshape(C, P, P)
        k0 = k1

    counts *= by_child
    # per component one delay sample; credits per parent mark pattern
    mean_dt = np.divide(comp_zdt, comp_z, out=np.zeros(C), where=comp_z > 0)
    return EStepStats(z_base, lam, [
        ComponentStats(deltas=mean_dt[c:c + 1], weights=comp_z[c:c + 1],
                       transition=trans_mod.pattern_stats(comps[c].transition, d,
                                                          counts[c].T),
                       credits=comp_z[c:c + 1] if rows is None else counts[c].sum(axis=0))
        for c in range(C)])


def _window_start_sums(walk: _DecayedSums, lead: _DecayedSums, c: int, times: np.ndarray,
                       lo: np.ndarray,
                       t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (D, E) of component c at times t over the events before
    k = searchsorted(times, lo, "left"), and their count, each (len(t),
    patterns): the block sums at k decayed on to t. ``lo`` rises with t,
    so ``walk`` only moves forward, and it shares ``lead``'s block when
    it reaches it."""
    ks = np.searchsorted(times, lo, side="left")
    D, E, N = (np.empty((ks.size, walk.n_codes)) for _ in range(3))
    j = 0
    while j < ks.size:
        while walk.e is None or ks[j] >= walk.e:
            walk.next(lead, c)
        j2 = int(np.searchsorted(ks, walk.e, side="left"))
        h = ks[j:j2] - walk.s
        Dx, Ex = walk.at(h, t[j:j2])
        D[j:j2], E[j:j2], N[j:j2] = Dx[0], Ex[0], walk.count(h)[0]
        j = j2
    return D, E, N


# ---------------------------------------------------------------------------
# the outer EM loop


def _component_shares(model: CascadeModel, d: Dataset) -> list[float]:
    if not model.components or not len(d):
        return [0.0 for _ in model.components]
    means = [float(v.mean()) for v in _fertility_matrix(model, d)]
    total = sum(means)
    if total <= 0:
        return [0.0 for _ in model.components]
    return [m / total for m in means]


def fit(model: CascadeModel, d: Dataset, max_iters: int = 50, tol: float = 1e-6,
        *, children: np.ndarray | None = None,
        window: tuple[float, float] | None = None,
        heldout: tuple[Dataset, np.ndarray | None, tuple[float, float] | None] | None = None,
        update_baseline_mark: bool = True, on_decrease: str = "raise",
        engine: str = "auto") -> FitReport:
    """Run EM until the relative likelihood gain drops below tol.

    The trace starts with the initial model's log likelihood and gains
    one entry per iteration. Iterations that would lower the likelihood
    (the delay refit is blind to the edge-corrected compensator) are
    retried with delays frozen, which is an exact ascent. A remaining
    decrease beyond 1e-8 * |LL| aborts with a diagnostic (or warns, with
    on_decrease="warn", for shrinkage-driven fits that are not exact
    EM). ``heldout`` evaluates a fixed dataset, child mask and window
    after every iteration. ``engine`` is "direct", "fast", or "auto" to
    use the fast engine whenever ``fast_applicable``. The direct engine
    keeps only the statistics each E-step sums as it goes, never the
    responsibilities, and on the pairwise kernel the E-steps of the last
    allowed iteration, whose statistics no M-step reads, compute the
    likelihood alone.
    """
    validate_model(model, d.schema)
    if max_iters < 0:
        raise ConfigError("max_iters must be nonnegative")
    if on_decrease not in ("raise", "warn"):
        raise ConfigError("on_decrease must be 'raise' or 'warn'")
    if engine not in ("auto", "direct", "fast"):
        raise ConfigError("engine must be 'auto', 'direct' or 'fast'")
    use_fast = engine == "fast" or (engine == "auto" and fast_applicable(model, d))
    if engine == "fast" and not fast_applicable(model, d):
        raise ConfigError("fast engine requested but the model does not qualify")
    engine_name = "fast" if use_fast else "direct"
    window = _resolve_window(d, window)

    def evaluate(m: CascadeModel, want_stats: bool):
        """The E-step under m and its log likelihood. The direct engine
        sums the statistics an M-step reads only with ``want_stats``;
        the fast engine always has them."""
        if use_fast:
            stats = fast_estep(m, d, children, window)
            return stats, _ll_value(m, d, stats.intensity, kids, window)
        stats, lam, _ = _estep_core(m, d, children, window, want_stats=want_stats,
                                    scan=True)
        return stats, _ll_value(m, d, lam, kids, window)

    def improve(m: CascadeModel, stats: EStepStats,
                freeze_delays: bool = False) -> CascadeModel:
        m2 = m_step(m, d, stats, children, window, update_baseline_mark, freeze_delays)
        if m2.normalization:
            m2 = normalize(m2, d, children, window)
        return m2

    def heldout_ll(m: CascadeModel) -> float:
        hd, hkids, hwin = heldout
        _, lam, kids = _estep_core(m, hd, hkids, hwin, scan=True)
        return _ll_value(m, hd, lam, kids, hwin)

    kids = _child_ids(d, children, window)
    held = [heldout_ll(model)] if heldout else None
    shares = [_component_shares(model, d)]
    dmeans = [[c.delay.mean() for c in model.components]]
    if kids.size == 0:
        ll0 = _ll_value(model, d, np.zeros(len(d)), kids, window)
        return FitReport(model, [ll0], 0, True, engine_name, heldout_trace=held,
                         component_shares=shares, delay_means=dmeans)

    stats, ll = evaluate(model, max_iters > 0)
    trace = [ll]
    converged = False
    iterations = 0
    for it in range(max_iters):
        # no M-step reads the statistics of the last allowed iteration
        more = it + 1 < max_iters
        candidate = improve(model, stats)
        stats_new, ll_new = evaluate(candidate, more)
        if ll_new < ll:
            # the delay refit ignores the edge-corrected compensator and
            # can overshoot; redoing the update with delays frozen makes
            # every remaining piece an exact coordinate ascent
            fallback = improve(model, stats, freeze_delays=True)
            stats_fb, ll_fb = evaluate(fallback, more)
            if ll_fb > ll_new:
                candidate, stats_new, ll_new = fallback, stats_fb, ll_fb
        iterations += 1
        trace.append(ll_new)
        if held is not None:
            held.append(heldout_ll(candidate))
        shares.append(_component_shares(candidate, d))
        dmeans.append([c.delay.mean() for c in candidate.components])
        drop = ll - ll_new
        if drop > 1e-8 * abs(ll) + 1e-12:
            msg = (f"log likelihood decreased at iteration {iterations}: "
                   f"{ll!r} -> {ll_new!r}")
            if on_decrease == "raise":
                raise NumericalError(msg)
            warnings.warn(msg)
        model, stats = candidate, stats_new
        gain = ll_new - ll
        ll = ll_new
        if gain < tol * max(abs(ll_new), 1e-12):
            converged = True
            break
    return FitReport(model, trace, iterations, converged, engine_name, heldout_trace=held,
                     component_shares=shares, delay_means=dmeans)
