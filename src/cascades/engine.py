"""EM fitting engine for cascade models.

A model is a baseline process plus additive kernel components; each
component triggers offspring through fertility(parent mark) *
transition(child mark | parent mark) * delay density(child t - parent
t). Fitting alternates an E-step that distributes each event's unit of
responsibility across its possible causes (baseline or any earlier
event under any component, restricted to per-component truncation
windows) and an M-step of weighted closed-form or Newton updates, with
an optional projection that rescales the model so the expected total
event count matches the observed one.

The E-step is array code over candidate pairs: per component,
``searchsorted`` bounds each child's window among the allowed parents,
the windows of a run of children expand into flat (child, parent) pair
arrays, every kernel factor is evaluated once over those pairs, and
``bincount`` sums each child's intensity. Mark probabilities and
transitions come from ``transitions`` (``mark_probs``, ``PairProbs``),
which ``intensity`` and model validation use too. Runs hold at most
``PAIR_CHUNK`` pairs and write into output arrays allocated once at full
size, so memory beyond the responsibilities stays bounded.

A separate fast path computes the same sufficient statistics in
O(N * L) for label-marked models whose delays are all exponential,
using decayed per-source-label accumulators instead of event pairs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Union

import numpy as np

from . import delays as delay_mod
from . import fertility as fert_mod
from . import transitions as trans_mod
from .delays import DelaySpec, ExponentialDelay
from .errors import ConfigError, DataError, NumericalError
from .events import (BinarySchema, CompositeSchema, Dataset, Event, Mark,
                     MarkSchema, label_count)
from .fertility import FertilitySpec
from .transitions import MarkDistribution, PairProbs, TransitionSpec

ZERO_CREDIT = 0.0  # component credit at or below this skips parameter updates
PAIR_CHUNK = 1 << 18  # candidate pairs the pairwise E-step evaluates at once
FAST_MAX_LABELS = 256  # label count beyond which fast_estep does not apply


@dataclass(frozen=True)
class HomogeneousBaseline:
    """Constant event rate over time, marks drawn from a fixed marginal."""

    rate: float
    mark: MarkDistribution

    def __post_init__(self):
        if self.rate < 0 or not np.isfinite(self.rate):
            raise ConfigError("baseline rate must be finite and nonnegative")


@dataclass(frozen=True)
class PeriodicBaseline:
    """Piecewise-constant rate over equal buckets of a repeating period."""

    period: float
    rates: tuple[float, ...]
    mark: MarkDistribution

    def __post_init__(self):
        if self.period <= 0 or not np.isfinite(self.period):
            raise ConfigError("baseline period must be positive and finite")
        if not self.rates or any(r < 0 or not np.isfinite(r) for r in self.rates):
            raise ConfigError("baseline bucket rates must be finite and nonnegative")


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
    candidate pair, or for an exponential delay the one sample
    (sum z*dt / sum z, sum z), which has the same MLE), the transition's
    ``transitions.transition_stats``, and expected offspring per parent
    mark pattern (``_mark_patterns``)."""

    deltas: np.ndarray
    weights: np.ndarray
    transition: object
    credits: np.ndarray


@dataclass
class EStepStats:
    """What m_step reads from an E-step, from either fast_estep or
    estep_stats: the baseline's share of each event, the intensity at
    each child event, and per-component statistics."""

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
    model: CascadeModel
    ll_trace: list[float]
    iterations: int
    converged: bool
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
        fert_mod.check_schema(comp.fertility, schema, where)
        trans_mod.check_transition(comp.transition, schema, where)
        if comp.sources is not None and not isinstance(schema, CompositeSchema):
            raise ConfigError(f"{where}: parent source restriction needs composite marks")
    for attr, label in (("transition_group", "transition"), ("delay_group", "delay")):
        for members in _groups(model.components, attr):
            comps = [model.components[ci] for ci in members]
            if len({type(getattr(c, label)) for c in comps}) != 1:
                raise ConfigError(f"{label} group {getattr(comps[0], attr)!r} "
                                  "mixes different spec kinds")


def _baseline_rate_at(baseline: BaselineSpec, times: np.ndarray) -> np.ndarray:
    if isinstance(baseline, HomogeneousBaseline):
        return np.full(times.shape, baseline.rate, dtype=np.float64)
    k = len(baseline.rates)
    width = baseline.period / k
    idx = np.clip((np.mod(times, baseline.period) / width).astype(np.int64), 0, k - 1)
    return np.asarray(baseline.rates, dtype=np.float64)[idx]


def _bucket_occupancy(baseline: PeriodicBaseline, a: float, b: float) -> np.ndarray:
    """Total time each bucket occupies within the window (a, b]."""
    k = len(baseline.rates)
    width = baseline.period / k

    def occ(t: float) -> np.ndarray:
        full, rem = divmod(t, baseline.period)
        starts = np.arange(k) * width
        return full * width + np.clip(rem - starts, 0.0, width)

    return occ(b) - occ(a)


def baseline_integral(baseline: BaselineSpec, a: float, b: float) -> float:
    if b <= a:
        return 0.0
    if isinstance(baseline, HomogeneousBaseline):
        return baseline.rate * (b - a)
    return float(np.dot(_bucket_occupancy(baseline, a, b), baseline.rates))


def _scaled_baseline(baseline: BaselineSpec, s: float) -> BaselineSpec:
    if isinstance(baseline, HomogeneousBaseline):
        return replace(baseline, rate=baseline.rate * s)
    return replace(baseline, rates=tuple(r * s for r in baseline.rates))


def _fertility_matrix(model: CascadeModel, d: Dataset) -> list[np.ndarray]:
    X = d.feature_matrix if isinstance(d.schema, BinarySchema) else None
    return [fert_mod.evaluate_many(c.fertility, X, len(d)) for c in model.components]


def _source_mask(comp: KernelComponent, d: Dataset) -> np.ndarray | None:
    """Which events may parent under this component; None when all may."""
    if comp.sources is None:
        return None
    names, codes = d.node_codes
    return np.isin(names, comp.sources)[codes]


def _parent_pool(comp: KernelComponent, d: Dataset) -> np.ndarray:
    """Sorted indices of the events allowed to parent under this component."""
    mask = _source_mask(comp, d)
    if mask is None:
        return np.arange(len(d), dtype=np.int64)
    return np.nonzero(mask)[0].astype(np.int64)


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


def _estep_core(model: CascadeModel, d: Dataset, children: np.ndarray | None,
                window: tuple[float, float] | None, want_resp: bool):
    window = _resolve_window(d, window)
    times = d.times
    n = len(d)
    kids = _child_ids(d, children, window)
    kid_times = times[kids]
    base_rates = _baseline_rate_at(model.baseline, kid_times) if kids.size else np.zeros(0)
    base_marks = trans_mod.mark_probs(model.baseline.mark, d) if n else np.zeros(0)
    base_vals = base_rates * base_marks[kids]

    comps = model.components
    alphas = _fertility_matrix(model, d)
    evals = [PairProbs(c.transition, d, PAIR_CHUNK) for c in comps]
    pools = [_parent_pool(c, d) for c in comps]
    pool_times = [times[p] for p in pools]
    cutoffs = [delay_mod.tail_cutoff(c.delay, model.truncation_mass) for c in comps]

    his = [np.searchsorted(pt, kid_times, side="left") for pt in pool_times]
    # an infinite cutoff searches for -inf, which lands on the first parent
    los = [np.searchsorted(pt, kid_times - cut, side="left")
           for pt, cut in zip(pool_times, cutoffs)]
    # per component: each child's candidate count and the offset of its
    # first pair among the pairs of all children
    counts = [hi - lo for lo, hi in zip(los, his)]
    starts = [np.concatenate(([0], np.cumsum(cnt))) for cnt in counts]

    lam = np.zeros(n, dtype=np.float64)
    z_base = np.zeros(n, dtype=np.float64)
    if want_resp:
        comp_offsets = [np.zeros(n + 1, dtype=np.int64) for _ in comps]
        for offsets, cnt in zip(comp_offsets, counts):
            offsets[kids + 1] = cnt
            np.cumsum(offsets, out=offsets)
        comp_parents = [np.empty(st[-1], dtype=np.int64) for st in starts]
        comp_z = [np.empty(st[-1], dtype=np.float64) for st in starts]

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
            cnt = counts[c][s:e]
            js = pools[c][np.arange(p0, p1) + np.repeat(los[c][s:e] - starts[c][s:e], cnt)]
            dt = np.repeat(kid_times[s:e], cnt) - times[js]
            vals = (alphas[c][js]
                    * evals[c].values(np.repeat(kids[s:e], cnt), js)
                    * delay_mod.density(comp.delay, dt))
            total += np.bincount(np.repeat(np.arange(e - s), cnt), weights=vals,
                                 minlength=e - s)
            if want_resp:
                chunk.append((c, p0, p1, cnt, js, vals))
        bad = ~((total > 0.0) & np.isfinite(total))
        if bad.any():
            i = kids[s + int(np.argmax(bad))]
            raise NumericalError(
                f"event {int(i)} at t={times[i]!r} has zero intensity under every cause")
        lam[kids[s:e]] = total
        if want_resp:
            z_base[kids[s:e]] = base_vals[s:e] / total
            for c, p0, p1, cnt, js, vals in chunk:
                comp_parents[c][p0:p1] = js
                comp_z[c][p0:p1] = vals / np.repeat(total, cnt)
        s = e

    resp = None
    if want_resp:
        resp = Responsibilities(n, z_base, comp_offsets, comp_parents, comp_z)
    return resp, lam, kids


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
    _, lam, kids = _estep_core(model, d, None, None, want_resp=False)
    return _ll_value(model, d, lam, kids, None)


def windowed_log_likelihood(model: CascadeModel, d: Dataset,
                            children: np.ndarray | None = None,
                            window: tuple[float, float] | None = None) -> float:
    """Log likelihood of the masked events inside (a, b], with every
    earlier event (masked or not) still eligible as a parent and the
    compensator integrated over the same window."""
    validate_model(model, d.schema)
    _, lam, kids = _estep_core(model, d, children, window, want_resp=False)
    return _ll_value(model, d, lam, kids, window)


def intensity(model: CascadeModel, history: Dataset, t: float, x: Mark) -> float:
    """Conditional intensity at (t, x) given the events of ``history``
    strictly before t (truncation windows applied)."""
    validate_model(model, history.schema)
    cutoffs = [delay_mod.tail_cutoff(c.delay, model.truncation_mass)
               for c in model.components]
    # the events inside some component's truncation window, then (t, x)
    lo, hi = np.searchsorted(history.times, [t - max(cutoffs, default=0.0), t], side="left")
    d = Dataset(history.events[lo:hi] + [Event(t, x)], t, history.schema, _sorted=True)
    q = len(d) - 1
    total = float(_baseline_rate_at(model.baseline, d.times[q:])[0]
                  * trans_mod.mark_probs(model.baseline.mark, d)[q])
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
    if resp.n != len(d):
        raise DataError("responsibilities do not match the dataset")
    _, pattern, n_patterns = _mark_patterns(d)
    out = []
    for c, comp in enumerate(model.components):
        children, parents, z = _pair_arrays(resp, c)
        out.append(ComponentStats(
            deltas=d.times[children] - d.times[parents], weights=z,
            transition=trans_mod.transition_stats(comp.transition, d, children, parents, z),
            credits=np.bincount(pattern[parents], weights=z, minlength=n_patterns)))
    return out


def estep_stats(model: CascadeModel, d: Dataset, children: np.ndarray | None = None,
                window: tuple[float, float] | None = None) -> EStepStats:
    """The pairwise E-step, summed into the statistics m_step reads."""
    validate_model(model, d.schema)
    resp, lam, _ = _estep_core(model, d, children, window, want_resp=True)
    return EStepStats(resp.baseline, lam, _component_stats(model, d, resp))


def _update_baseline(model: CascadeModel, d: Dataset, z_base: np.ndarray,
                     window: tuple[float, float], update_mark: bool) -> BaselineSpec:
    a, b = window
    baseline = model.baseline
    total = float(z_base.sum())
    if isinstance(baseline, HomogeneousBaseline):
        duration = b - a
        if duration <= 0:
            raise DataError("baseline update needs a nonempty window")
        baseline = replace(baseline, rate=total / duration)
    else:
        occupancy = _bucket_occupancy(baseline, a, b)
        k = len(baseline.rates)
        width = baseline.period / k
        idx = np.clip((np.mod(d.times, baseline.period) / width).astype(np.int64), 0, k - 1)
        sums = np.bincount(idx, weights=z_base, minlength=k)
        stuck = np.nonzero((occupancy <= 0) & (sums > 1e-9))[0]
        if stuck.size:
            raise NumericalError(f"baseline bucket {stuck[0]} has credit but no exposure")
        rates = np.divide(sums, occupancy, out=np.zeros(k), where=occupancy > 0)
        baseline = replace(baseline, rates=tuple(rates.tolist()))
    if update_mark and total > 0:
        mark = trans_mod.fit_mark_dist(baseline.mark,
                                       trans_mod.prior_stats(baseline.mark, d, z_base))
        baseline = replace(baseline, mark=mark)
    return baseline


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
    """Weighted maximum likelihood updates given fixed responsibilities,
    from e_step's pairs or from the statistics of estep_stats or
    fast_estep.

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
    baseline = _update_baseline(model, d, z_base, window, update_baseline_mark)

    new_delays: list[DelaySpec] = [c.delay for c in comps]
    if not freeze_delays:
        for members in _groups(comps, "delay_group"):
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
    rebuilt = tuple(replace(c, fertility=fert_mod.scaled(c.fertility, s))
                    for c in model.components)
    return replace(model, baseline=_scaled_baseline(model.baseline, s),
                   components=rebuilt)


# ---------------------------------------------------------------------------
# fast path for exponential delays over label marks


def fast_applicable(model: CascadeModel, d: Dataset) -> bool:
    """True when the decayed-accumulator E-step covers this model, given
    that it passed validate_model for d's schema: on label marks that
    leaves label-marginal baselines, label transitions and constant
    fertilities, so only the delays and the label count decide."""
    n_labels = label_count(d.schema)
    return (n_labels is not None and n_labels <= FAST_MAX_LABELS
            and all(isinstance(c.delay, ExponentialDelay) for c in model.components))


def fast_estep(model: CascadeModel, d: Dataset, children: np.ndarray | None = None,
               window: tuple[float, float] | None = None) -> EStepStats:
    """Exact E-step sufficient statistics in one ordered scan.

    For exponential delays the triggered intensity by source label r
    decays geometrically between events, so a per-label accumulator
    D[r] (decayed parent count) and its age-weighted companion E[r]
    replace explicit parent pairs. Equal timestamps are processed as a
    group so simultaneous events never explain each other. No
    truncation is applied; this matches estep_stats with zero tail mass.
    """
    validate_model(model, d.schema)
    if not fast_applicable(model, d):
        raise ConfigError("fast E-step needs label marks, constant fertilities "
                          "and exponential delays")
    window = _resolve_window(d, window)
    a, b = window
    n = len(d)
    L = d.n_label_values
    times = d.times
    labels = d.label_index
    is_child = np.zeros(n, dtype=bool)
    is_child[_child_ids(d, children, window)] = True
    base_marks = model.baseline.mark.as_array
    comps = model.components
    C = len(comps)
    rates = np.array([c.delay.rate for c in comps])
    # weight[c][r, j]: delay rate * fertility(r) * g(j | r)
    weight = [c.delay.rate * c.fertility.rate * trans_mod.label_matrix(c.transition, L)
              for c in comps]
    masks = [_source_mask(comp, d) for comp in comps]

    D = np.zeros((C, L))
    E = np.zeros((C, L))
    z_base = np.zeros(n)
    lam = np.zeros(n)
    comp_z = np.zeros(C)
    comp_zdt = np.zeros(C)
    counts = [np.zeros((L, L)) for _ in comps]

    i = 0
    t_prev = times[0] if n else 0.0
    while i < n:
        j = i
        while j < n and times[j] == times[i]:
            j += 1
        t = times[i]
        if t > b:
            break
        dt = t - t_prev
        if dt > 0:
            decay = np.exp(-rates * dt)
            E = decay[:, None] * (E + dt * D)
            D = decay[:, None] * D
        t_prev = t
        for k in range(i, j):
            if not is_child[k]:
                continue
            lab = labels[k]
            base_val = float(_baseline_rate_at(model.baseline, np.asarray([t]))[0]
                             * base_marks[lab])
            total = base_val
            per_comp = []
            for c in range(C):
                wvec = weight[c][:, lab] * D[c]
                svec = weight[c][:, lab] * E[c]
                per_comp.append((wvec, float(svec.sum())))
                total += float(wvec.sum())
            if total <= 0.0 or not np.isfinite(total):
                raise NumericalError(
                    f"event {k} at t={t!r} has zero intensity under every cause")
            lam[k] = total
            z_base[k] = base_val / total
            for c in range(C):
                wvec, sdt = per_comp[c]
                comp_z[c] += wvec.sum() / total
                comp_zdt[c] += sdt / total
                counts[c][:, lab] += wvec / total
        for k in range(i, j):
            for c in range(C):
                if masks[c] is None or masks[c][k]:
                    D[c, labels[k]] += 1.0
        i = j

    # one parent mark pattern and, per component, one delay sample
    mean_dt = np.divide(comp_zdt, comp_z, out=np.zeros(C), where=comp_z > 0)
    return EStepStats(z_base, lam, [
        ComponentStats(deltas=mean_dt[c:c + 1], weights=comp_z[c:c + 1],
                       transition=counts[c], credits=comp_z[c:c + 1])
        for c in range(C)])


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
    use the fast path whenever it applies.
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
    window = _resolve_window(d, window)

    def evaluate(m: CascadeModel):
        """The E-step under m and its log likelihood; the direct engine
        keeps the responsibilities, which only get summed into
        statistics (``reduce``) for states an M-step refits from."""
        if use_fast:
            stats = fast_estep(m, d, children, window)
            return stats, _ll_value(m, d, stats.intensity, kids, window)
        resp, lam, _ = _estep_core(m, d, children, window, want_resp=True)
        return (resp, lam), _ll_value(m, d, lam, kids, window)

    def reduce(m: CascadeModel, state) -> EStepStats:
        if use_fast:
            return state
        resp, lam = state
        return EStepStats(resp.baseline, lam, _component_stats(m, d, resp))

    def improve(m: CascadeModel, stats: EStepStats,
                freeze_delays: bool = False) -> CascadeModel:
        m2 = m_step(m, d, stats, children, window, update_baseline_mark, freeze_delays)
        if m2.normalization:
            m2 = normalize(m2, d, children, window)
        return m2

    def heldout_ll(m: CascadeModel) -> float:
        hd, hkids, hwin = heldout
        _, lam, kids = _estep_core(m, hd, hkids, hwin, want_resp=False)
        return _ll_value(m, hd, lam, kids, hwin)

    kids = _child_ids(d, children, window)
    held = [heldout_ll(model)] if heldout else None
    shares = [_component_shares(model, d)]
    dmeans = [[delay_mod.delay_mean(c.delay) for c in model.components]]
    if kids.size == 0:
        ll0 = _ll_value(model, d, np.zeros(len(d)), kids, window)
        return FitReport(model, [ll0], 0, True, heldout_trace=held,
                         component_shares=shares, delay_means=dmeans)

    state, ll = evaluate(model)
    trace = [ll]
    converged = False
    iterations = 0
    for _ in range(max_iters):
        # one reduction per refit state (the frozen-delay retry reuses it);
        # dropping the state frees its pair arrays before the next E-step
        stats, state = reduce(model, state), None
        candidate = improve(model, stats)
        state_new, ll_new = evaluate(candidate)
        if ll_new < ll:
            # the delay refit ignores the edge-corrected compensator and
            # can overshoot; redoing the update with delays frozen makes
            # every remaining piece an exact coordinate ascent
            fallback = improve(model, stats, freeze_delays=True)
            state_fb, ll_fb = evaluate(fallback)
            if ll_fb > ll_new:
                candidate, state_new, ll_new = fallback, state_fb, ll_fb
        iterations += 1
        trace.append(ll_new)
        if held is not None:
            held.append(heldout_ll(candidate))
        shares.append(_component_shares(candidate, d))
        dmeans.append([delay_mod.delay_mean(c.delay) for c in candidate.components])
        drop = ll - ll_new
        if drop > 1e-8 * abs(ll) + 1e-12:
            msg = (f"log likelihood decreased at iteration {iterations}: "
                   f"{ll!r} -> {ll_new!r}")
            if on_decrease == "raise":
                raise NumericalError(msg)
            warnings.warn(msg)
        model, state = candidate, state_new
        gain = ll_new - ll
        ll = ll_new
        if gain < tol * max(abs(ll_new), 1e-12):
            converged = True
            break
    return FitReport(model, trace, iterations, converged, heldout_trace=held,
                     component_shares=shares, delay_means=dmeans)
