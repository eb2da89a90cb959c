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

The E-step is one driver (``_estep``) over two kernels, chosen per
component. The pair kernel (``_Pairs``) is array code over candidate
(child, parent) pairs inside each component's truncation window, in
runs of at most ``PAIR_CHUNK`` pairs, evaluating per pair only the
kernel factors that vary per pair (``_kernel_factors``). The scan
(``_Scan``) serves a component with an exponential delay when the marks
form at most ``FAST_MAX_LABELS`` patterns: prefix sums over blocks of
whole tie groups give every child's decayed parent count per pattern in
O(N * P) (Ozaki's recursion for exponential Hawkes likelihoods). The
families read mark patterns, never events: the engine gathers their
per-pattern values by the schema's pattern view where it needs one per
event, hands the transitions (parent, child) pattern codes, and
``intensity`` runs the pair kernel. The driver adds the
kernels' sums to the baseline term, checks the total once, and has each
kernel sum its statistics while the weights are in hand, so no pair is
visited twice. One rule (``_on_scan``) picks each component's kernel
from the model alone. Every log likelihood and every E-step of a fit is
one ``_evaluate`` call; the fast engine's fit evaluates the model at
truncation mass 0, where the rule puts every component on the scan.

The dataset derives node membership (``Dataset.at_nodes``); the engine
keeps per dataset and source restriction one pool (``_Pool``) of the
events that may parent, with per window the exposures the M-step and
the compensator read; a fit's ``_Scope`` keeps its children's edges.
"""

from __future__ import annotations

import warnings
import weakref
from dataclasses import dataclass, field, replace
from typing import Union

import numpy as np

from . import delays as delay_mod
from . import fertility as fert_mod
from .delays import PAIR_CHUNK, DelaySpec
from .errors import ConfigError, DataError, NumericalError
from .events import CompositeSchema, Dataset, Mark, MarkSchema
from .fertility import FertilitySpec
from .transitions import MarkDistribution, TransitionSpec

ZERO_CREDIT = 0.0  # component credit at or below this skips parameter updates
SCAN_MIN_PAIRS = 1 << 13  # a component with fewer candidate pairs stays on pairs
FAST_MAX_LABELS = 256  # mark pattern count beyond which the scan does not apply
EXP_LIMIT = 300.0  # largest rate * (time span) inside one scan block


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
        if not self.truncation_mass >= 0:  # NaN too
            raise ConfigError("truncation mass must be nonnegative")
        if self.truncation_mass >= 1:  # no parent would enter any window
            raise ConfigError("truncation mass must be below 1")


@dataclass
class Responsibilities:
    """Sparse cause weights per child event, from e_step.

    For child i, baseline[i] plus the z entries of every component slice
    sum to one. Component c stores flat arrays (parents, z) with slice
    offsets per child; entries exist exactly for in-window earlier
    parents, including zero-probability ones. Unlike ``EStepStats`` it
    keeps every pair's parent id, which is what parent recovery reads
    (``argmax_parents``).
    """

    n: int
    baseline: np.ndarray
    comp_offsets: list[np.ndarray]
    comp_parents: list[np.ndarray]
    comp_z: list[np.ndarray]

    @property
    def n_components(self) -> int:
        return len(self.comp_offsets)

    def argmax_parents(self) -> np.ndarray:
        """Each event's most responsible parent, or -1 where the baseline
        is (events without candidate parents included). Per child: the
        largest weight over every component's pairs, then the lowest
        parent id among the pairs that reach it; the baseline wins a tie.
        Which component a tied parent comes from never matters. It reduces
        in runs of whole children of at most ``PAIR_CHUNK`` pairs over all
        components (or one child with more), so its temporaries are per
        run, not per pair."""
        none = np.iinfo(np.int64).max
        top, best = np.full(self.n, -np.inf), np.full(self.n, none)
        ends = np.cumsum(sum((np.diff(off) for off in self.comp_offsets),
                             np.zeros(self.n, dtype=np.int64)))
        s = 0
        while s < self.n:
            e = _run_end(ends, s)
            runs = [(off[s], off[e], np.diff(off[s:e + 1])) for off in self.comp_offsets]
            for z, (p0, p1, cnt) in zip(self.comp_z, runs):
                np.maximum(top[s:e], _child_reduce(np.maximum, z[p0:p1], cnt, -np.inf),
                           out=top[s:e])
            for parents, z, (p0, p1, cnt) in zip(self.comp_parents, self.comp_z, runs):
                tied = np.where(z[p0:p1] == np.repeat(top[s:e], cnt), parents[p0:p1], none)
                np.minimum(best[s:e], _child_reduce(np.minimum, tied, cnt, none),
                           out=best[s:e])
            s = e
        return np.where(top > self.baseline, best, -1)


@dataclass
class ComponentStats:
    """One component's E-step weights in the forms its families' updates
    read. The delay sample: from the pair kernel every candidate pair's
    delay and weight, from the scan the one sample (sum z*dt / sum z,
    sum z), which has the same exponential MLE. m_step reads it in
    slices of ``PAIR_CHUNK`` into the delay family's fixed-size statistic
    (``delays.weighted_stats``); once it has, fit collapses a pair sample
    to the scan's one sample (``_release_pairs``), freeing the pair
    arrays before the next E-step. Beside it, the transition's statistic
    in its family's shape (see ``transitions``; None for identity, and on
    pairs when no pair was weighed), and expected offspring per parent
    mark pattern (the schema's ``fertility_patterns``). Both kernels
    build the transition statistic with the family's one ``stats`` over
    weighted (parent pattern, child pattern) codes: the pair kernel sums
    it run by run over its pairs, or over each child's total weight
    (no parents) where the family reads only the child; the scan passes
    the cells of its pattern weight table."""

    deltas: np.ndarray
    weights: np.ndarray
    transition: object
    credits: np.ndarray


@dataclass
class EStepStats:
    """What m_step reads from an E-step (estep_stats or a fit's): the
    baseline's share of each event, the intensity at each child event,
    and per-component statistics, each from the kernel its component ran
    on. Unlike ``Responsibilities`` it keeps no parent ids. It also
    records the model the E-step ran and its scope (``_Scope``): m_step
    refits over that scope's dataset, child mask and window, and skips
    validating a model that shares the E-step model's baseline and
    components."""

    z_base: np.ndarray
    intensity: np.ndarray
    components: list[ComponentStats]
    model: CascadeModel | None = None
    scope: _Scope | None = None

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
    """What fit did. ``engine`` names the objective of the training
    E-steps: "direct" is the model at its ``truncation_mass``, "fast" at
    mass 0, which engine="auto" takes on label and composite marks
    whenever ``fast_applicable``; one rule (``_on_scan``) picks the
    kernels of both. ``model`` keeps the caller's ``truncation_mass``."""

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
    model.baseline.mark.check_schema(schema, "baseline")
    names = set()
    for comp in model.components:
        if comp.name in names:
            raise ConfigError(f"duplicate component name {comp.name!r}")
        names.add(comp.name)
        where = f"component {comp.name!r}"
        comp.fertility.check_schema(schema, where)
        comp.transition.check_schema(schema, where)
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


class _Pool:
    """The events of a dataset that may parent under ``sources`` (None:
    every event): their mask and indices (``Dataset.at_nodes``; None for
    every event), times and fertility patterns (for every event, the
    dataset's own columns). Per window (a, b] it keeps the gaps b - t of
    its events before b, the gaps a - t of those before a, which patterns
    occur (``seen``) and, per component name, the exposures of the last
    delay asked. Every gap is positive, so an event's delay mass in the
    window is one ``cdf`` of its b-side gap less, before a only, one of
    its a-side gap: the other a-side ``delays.cdf`` is exactly 0."""

    def __init__(self, d: Dataset, sources: tuple | None):
        _, pattern, self.n_patterns = d.schema.fertility_patterns(d)
        if sources is None:
            self.mask = self.index = None
            self.times, self.pattern = d.times, pattern
        else:
            self.mask, self.index = d.at_nodes(sources)
            self.times, self.pattern = d.times[self.index], pattern[self.index]
        self.windows: dict = {}

    def exposure(self, name: str, delay: DelaySpec, a: float,
                 b: float) -> tuple[np.ndarray, np.ndarray]:
        """Per fertility pattern, whether a pool event of it may parent
        inside (a, b] and their delay mass there under ``delay``, both
        read-only; the compensator after an M-step reuses the M-step's."""
        base = self.windows.get((a, b))
        if base is None:
            t = self.times[:int(np.searchsorted(self.times, b, side="left"))]
            seen = np.bincount(self.pattern[:t.size], minlength=self.n_patterns) > 0
            seen.flags.writeable = False
            base = self.windows[a, b] = (
                b - t, a - t[:int(np.searchsorted(t, a, side="left"))], seen, {})
        gaps_b, gaps_a, seen, last = base
        kept = last.get(name)
        if kept is None or kept[0] != delay:
            mass = delay.cdf(gaps_b)
            if gaps_a.size:
                mass[:gaps_a.size] -= delay.cdf(gaps_a)
            exposure = np.bincount(self.pattern[:gaps_b.size], weights=mass,
                                   minlength=self.n_patterns)
            exposure.flags.writeable = False
            kept = last[name] = (delay, exposure)
        return seen, kept[1]


# per dataset, its pools by source restriction, dropped with the dataset
_pools: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _pool(d: Dataset, sources: tuple | None) -> _Pool:
    """The events of ``d`` that may parent under ``sources``, built once
    per dataset and restriction."""
    pools = _pools.setdefault(d, {})
    pool = pools.get(sources)
    if pool is None:
        pool = pools[sources] = _Pool(d, sources)
    return pool


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
        children = np.asarray(children, dtype=bool)
        if children.shape != inside.shape:
            raise DataError(f"children mask of length {children.size} for {inside.size} events")
        inside &= children
    return np.nonzero(inside)[0].astype(np.int64)


class _Scope:
    """What a fit reads of its data, resolved once per fit rather than per
    E-step and M-step: the dataset, the child mask and the resolved window,
    the child ids and times, the pattern view (every event's pattern code
    and fertility pattern, the children's codes), and per parent source
    restriction each child's right edge in its pool (the place of its
    first pool event at or after the child), which no truncation cutoff
    moves. The pools themselves (``_Pool``) belong to the dataset, so
    every scope over it shares them. A fit builds one scope for its data
    and one for its held-out triple; a public function called alone
    builds its own, and ``intensity`` one whose child ids (``kids``) are
    its query alone."""

    def __init__(self, d: Dataset, children: np.ndarray | None,
                 window: tuple[float, float] | None, kids: np.ndarray | None = None):
        self.d, self.children, self.window = d, children, _resolve_window(d, window)
        self.kids = _child_ids(d, children, self.window) if kids is None else kids
        self.kid_times = d.times[self.kids]
        self.codes, self.n_codes = d.schema.pattern_codes(d)
        self.kid_codes = self.codes[self.kids]
        self.rows, self.pattern, self.n_patterns = d.schema.fertility_patterns(d)
        self.edges: dict = {}

    def parents(self, comp: KernelComponent) -> tuple[_Pool, np.ndarray]:
        """comp's pool and each child's ``searchsorted(pool.times, child
        time)``."""
        entry = self.edges.get(comp.sources)
        if entry is None:
            pool = _pool(self.d, comp.sources)
            entry = self.edges[comp.sources] = (
                pool, np.searchsorted(pool.times, self.kid_times, side="left"))
        return entry


# ---------------------------------------------------------------------------
# E-step


def _run_end(pair_ends: np.ndarray, s: int) -> int:
    """End of the run of whole children from s whose pairs (cumulative
    counts ``pair_ends``) number at most ``PAIR_CHUNK``, or of child s
    alone where it has more."""
    done = int(pair_ends[s - 1]) if s else 0
    return max(int(np.searchsorted(pair_ends, done + PAIR_CHUNK, side="right")), s + 1)


def _child_reduce(ufunc: np.ufunc, vals: np.ndarray, cnt: np.ndarray, empty) -> np.ndarray:
    """``ufunc`` over consecutive runs of ``cnt[k]`` values, ``empty`` for
    empty runs (where a bare ``reduceat`` would repeat a value, or index
    past the end for a trailing one)."""
    out = np.full(cnt.size, empty, dtype=vals.dtype)
    has = cnt > 0
    out[has] = ufunc.reduceat(vals, (np.cumsum(cnt) - cnt)[has])
    return out


def _pattern_credits(pattern: np.ndarray, n_patterns: int, parents: np.ndarray,
                     z: np.ndarray) -> np.ndarray:
    """Weighted pairs' credit per parent mark pattern; the credits of
    disjoint pair sets add up."""
    if n_patterns == 1:
        return np.array([z.sum()])
    return np.bincount(pattern[parents], weights=z, minlength=n_patterns)


def _kernel_factors(comp: KernelComponent, scope: _Scope):
    """Component comp's fertility(parent) * g(child | parent), split by
    what each factor reads, as (child, alpha, pair). ``child`` is one
    factor per child of the scope, by its mark pattern, or None: the
    fertility when it has one value, which it has whenever the data have
    one parent mark pattern (``fertility_patterns``: every label and
    composite schema), times a prior's g per child pattern gathered by
    ``kid_codes``. ``alpha`` is the fertility per event, gathered from
    its value per pattern, when it may vary by parent, and ``pair`` the
    ``g_pairs`` of a transition that reads the parent's mark, over
    (parent, child) pattern codes; None otherwise. The choice reads only
    the families and the pattern count."""
    d, kid_codes = scope.d, scope.kid_codes
    g = comp.transition.g_children(d)
    pair = None if g is not None else comp.transition.g_pairs(d, PAIR_CHUNK)
    g = None if g is None else g[kid_codes]
    if scope.n_patterns != 1:
        return g, comp.fertility.rates(scope.rows, scope.n_patterns)[scope.pattern], pair
    alpha = float(comp.fertility.rates(scope.rows, 1)[0])
    return (np.full(kid_codes.size, alpha) if g is None else alpha * g), None, pair


def _pair_window(comp: KernelComponent, scope: _Scope, cut: float):
    """Each child's candidate parents under comp: (index, lo, cnt, starts),
    the indices of its pool (None when all may parent), the first
    candidate's place in the pool, their count and the offset of its
    first pair. Only the left edge depends on the cutoff; the scope keeps
    the right one."""
    pool, hi = scope.parents(comp)
    # an infinite cutoff searches for -inf, which lands on the first parent
    lo = np.searchsorted(pool.times, scope.kid_times - cut, side="left")
    cnt = hi - lo
    return pool.index, lo, cnt, np.concatenate(([0], np.cumsum(cnt)))


class _Pairs:
    """The pair kernel for components ``comps`` (model indices) over their
    candidate windows (``_pair_window``), in runs of at most ``PAIR_CHUNK``
    pairs (or one child with more) written into arrays allocated once at
    full size. A run evaluates each component's delay density and only the
    kernel factors that vary by parent (``_kernel_factors``); each child's
    sum is scaled by its child factor, and a pair's weight is its value
    times (child factor / intensity). A run gathers the parent and child
    pattern codes of its pairs once, for the transition's ``g_pairs`` and
    its ``stats``. Statistics that read only the children (one pattern's
    credits, a prior's ``stats``) come from each child's total weight at
    the end; the rest are summed pair by pair."""

    def __init__(self, model: CascadeModel, scope: _Scope, comps: list[int], windows: list,
                 want: str | None):
        self.d, self.kids, self.kid_times = scope.d, scope.kids, scope.kid_times
        self.comps, self.want = comps, want
        self.specs = [model.components[c] for c in comps]
        self.windows = [windows[c] for c in comps]
        self.pair_ends = np.cumsum(sum((w[2] for w in self.windows),
                                       np.zeros(self.kids.size, dtype=np.int64)))
        self.pattern, self.n_patterns = scope.pattern, scope.n_patterns
        self.codes, self.kid_codes = scope.codes, scope.kid_codes
        self.factors = [_kernel_factors(c, scope) for c in self.specs]
        if want:
            self.z = [np.empty(w[3][-1]) for w in self.windows]
            # what each pair keeps beside its weight: its parent or its delay
            self.keep = [np.empty(w[3][-1], np.int64 if want == "resp" else np.float64)
                         for w in self.windows]
            # each child's total weight, and the statistics summed pair by pair
            self.kid_z = [np.zeros(self.kids.size) for _ in comps]
            self.trans = [None for _ in comps]
            self.credits = [np.zeros(self.n_patterns) for _ in comps]

    def run_end(self, s: int) -> int:
        return _run_end(self.pair_ends, s)

    def intensity(self, s: int, e: int, sums: list) -> None:
        """Put in sums[c] component c's kernel sum at each child of s:e,
        for the components with pairs there."""
        times, kid_codes, kid_times = self.d.times, self.kid_codes[s:e], self.kid_times[s:e]
        self.run = []
        for i, comp in enumerate(self.specs):
            pool, lo, cnt, starts = self.windows[i]
            p0, p1 = starts[s], starts[e]
            if p1 == p0:
                continue
            child, alpha, pair = self.factors[i]
            cnt = cnt[s:e]
            at = np.arange(p0, p1) + np.repeat(lo[s:e] - starts[s:e], cnt)
            js = at if pool is None else pool[at]
            dt = self.keep[i][p0:p1] if self.want == "stats" else None
            dt = np.subtract(np.repeat(kid_times, cnt), times[js], out=dt)
            # parents are strictly earlier, so every delay is positive
            vals = comp.delay.pdf(dt)
            codes = None
            if alpha is not None:
                vals *= alpha[js]
            if pair is not None:
                codes = self.codes[js], np.repeat(kid_codes, cnt)
                vals *= pair(*codes)
            part = _child_reduce(np.add, vals, cnt, 0.0)
            if child is not None:
                part *= child[s:e]
            self.run.append((i, p0, p1, cnt, codes, js, vals, part))
            sums[self.comps[i]] = part

    def weigh(self, s: int, e: int, total: np.ndarray) -> None:
        for i, p0, p1, cnt, codes, js, vals, sums in self.run:
            child = self.factors[i][0]
            scale = (1.0 if child is None else child[s:e]) / total
            z = np.multiply(vals, np.repeat(scale, cnt), out=self.z[i][p0:p1])
            if self.want == "resp":
                self.keep[i][p0:p1] = js
                continue
            self.kid_z[i][s:e] = sums / total
            trans = None if codes is None else self.specs[i].transition.stats(
                self.d, *codes, z)
            if trans is not None:
                self.trans[i] = trans if self.trans[i] is None else self.trans[i] + trans
            if self.n_patterns != 1:
                self.credits[i] = self.credits[i] + _pattern_credits(
                    self.pattern, self.n_patterns, js, z)

    def stats(self) -> dict[int, ComponentStats]:
        return {c: ComponentStats(
            self.keep[i], self.z[i],
            (comp.transition.stats(self.d, None, self.kid_codes, self.kid_z[i])
             if self.factors[i][2] is None else self.trans[i]),
            np.array([self.kid_z[i].sum()]) if self.n_patterns == 1 else self.credits[i])
            for i, (c, comp) in enumerate(zip(self.comps, self.specs))}

    def responsibilities(self, n: int) -> tuple[list, list, list]:
        """Per component every event's pair offsets, the parents and the
        weights."""
        offsets = [np.zeros(n + 1, dtype=np.int64) for _ in self.comps]
        for off, (_, _, cnt, _) in zip(offsets, self.windows):
            off[self.kids + 1] = cnt
            np.cumsum(off, out=off)
        return offsets, self.keep, self.z


def _on_scan(model: CascadeModel, scope: _Scope, cutoffs: list[float],
             windows: list, want: str | None) -> list[bool]:
    """Which components run on the scan. None with ``want="resp"``, whose
    ``Responsibilities`` keep every pair. An untruncated one (its window
    None, as its pairs grow with the square of the events) whenever the
    scan covers it (``_scan_covers``); a truncated one when, besides,
    its candidate pairs, at least ``SCAN_MIN_PAIRS`` (the scan's set-up
    alone costs about as much), outnumber its own walked cells: the
    events walked for it alone (``_scan_events``, which hold every child)
    times its two walks times the patterns."""
    if want == "resp":
        return [False] * len(model.components)
    d, kids, per_event = scope.d, scope.kids, 2 * scope.n_codes
    choice = []
    for comp, cut, window in zip(model.components, cutoffs, windows):
        pairs = None if window is None else int(window[3][-1])
        choice.append(_scan_covers(comp, scope.n_codes) and (
            pairs is None or (pairs >= SCAN_MIN_PAIRS and pairs > kids.size * per_event
                              and pairs > per_event * _scan_events(
                                  [_pool(d, comp.sources).mask], d, kids, [cut]).size)))
    return choice


def _baseline_term(model: CascadeModel, scope: _Scope) -> np.ndarray:
    """The baseline rate at each child times its mark pattern's probability."""
    return (model.baseline.rate_at(scope.kid_times)
            * model.baseline.mark.pattern_probs(scope.d)[scope.kid_codes])


def _estep(model: CascadeModel, scope: _Scope, want: str | None):
    """The one E-step over the children of ``scope``: (out, intensity,
    child ids), where ``out`` is the ``Responsibilities`` with
    ``want="resp"`` (all on pairs), the ``EStepStats`` with
    ``want="stats"`` and otherwise None. ``_on_scan``
    puts each component on the pairs (``_Pairs``, its window built only
    then if untruncated) or the scan (``_Scan``); each drops the parents
    past its ``delays.tail_cutoff`` at the model's ``truncation_mass``.
    The children go in runs that end where any kernel's run does. Per run
    the kernels' sums at each child add to the baseline term in component
    order, the total is checked once, and each kernel weighs its
    components' causes by 1 / total."""
    d, kids = scope.d, scope.kids
    comps, n = model.components, len(d)
    cutoffs = [delay_mod.tail_cutoff(c.delay, model.truncation_mass) for c in comps]
    windows = [None if cut == np.inf else _pair_window(c, scope, cut)
               for c, cut in zip(comps, cutoffs)]
    on_scan = _on_scan(model, scope, cutoffs, windows, want)
    paired = [c for c, on in enumerate(on_scan) if not on]
    scanned = [c for c, on in enumerate(on_scan) if on]
    for c in paired:
        if windows[c] is None:
            windows[c] = _pair_window(comps[c], scope, np.inf)
    kernels = [_Scan(model, scope, cutoffs, scanned)] if scanned else []
    if paired or not scanned:
        kernels.append(_Pairs(model, scope, paired, windows, want))

    base_vals = _baseline_term(model, scope)
    lam, z_base = np.zeros(n), np.zeros(n)
    s = 0
    while s < kids.size:
        e = min([k.run_end(s) for k in kernels])
        sums = [None] * len(comps)
        for k in kernels:
            k.intensity(s, e, sums)
        total = sum((part for part in sums if part is not None), base_vals[s:e])
        bad = ~((total > 0.0) & np.isfinite(total))
        if bad.any():
            i = kids[s + int(np.argmax(bad))]
            raise NumericalError(
                f"event {int(i)} at t={d.times[i]!r} has zero intensity under every cause")
        lam[kids[s:e]] = total
        if want:
            z_base[kids[s:e]] = base_vals[s:e] / total
            for k in kernels:
                k.weigh(s, e, total)
        s = e

    if want == "resp":
        return Responsibilities(n, z_base, *kernels[-1].responsibilities(n)), lam, kids
    if want == "stats":
        stats = {c: cs for k in kernels for c, cs in k.stats().items()}
        return (EStepStats(z_base, lam, [stats[c] for c in range(len(comps))], model, scope),
                lam, kids)
    return None, lam, kids


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
    resp, _, _ = _estep(model, _Scope(d, children, window), "resp")
    return resp


def compensator(model: CascadeModel, d: Dataset,
                window: tuple[float, float] | None = None) -> float:
    """Expected event count over the window given the realized history: the
    baseline integral plus each fertility pattern's rate times its exposure."""
    a, b = _resolve_window(d, window)
    rows, _, n_patterns = d.schema.fertility_patterns(d)
    total = baseline_integral(model.baseline, a, b)
    for comp in model.components:
        exposure = _pool(d, comp.sources).exposure(comp.name, comp.delay, a, b)[1]
        total += float(np.dot(comp.fertility.rates(rows, n_patterns), exposure))
    return float(total)


def _evaluate(model: CascadeModel, scope: _Scope,
              want_stats: bool = False) -> tuple[EStepStats | None, float]:
    """The one E-step evaluation under ``model``: (statistics, log
    likelihood of the scope's children in its window), with each
    component on the kernel ``_on_scan`` picks for it. The statistics are
    None unless ``want_stats``. It raises on an event with zero
    intensity."""
    stats, lam, kids = _estep(model, scope, "stats" if want_stats else None)
    return stats, float(np.log(lam[kids]).sum()) - compensator(model, scope.d, scope.window)


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
    return _evaluate(model, _Scope(d, None, None))[1]


def windowed_log_likelihood(model: CascadeModel, d: Dataset,
                            children: np.ndarray | None = None,
                            window: tuple[float, float] | None = None) -> float:
    """Log likelihood of the masked events inside (a, b], with every
    earlier event (masked or not) still eligible as a parent and the
    compensator integrated over the same window."""
    validate_model(model, d.schema)
    return _evaluate(model, _Scope(d, children, window))[1]


def intensity(model: CascadeModel, history: Dataset, t: float, x: Mark) -> float:
    """Conditional intensity at (t, x) given the events of ``history``
    strictly before t (truncation windows applied), added up as the E-step
    does, but 0.0 where nothing can cause the query."""
    if not (np.isfinite(t) and t >= 0):
        raise DataError(f"query time t must be finite and nonnegative, got {t}")
    validate_model(model, history.schema)
    comps = model.components
    cutoffs = [delay_mod.tail_cutoff(c.delay, model.truncation_mass) for c in comps]
    # the events inside some component's truncation window, then (t, x)
    lo, hi = np.searchsorted(history.times, [t - max(cutoffs, default=0.0), t], side="left")
    d = history._with_query(int(lo), int(hi), t, x)
    scope = _Scope(d, None, None, kids=np.array([len(d) - 1]))  # (t, x), the one child
    windows = [_pair_window(c, scope, cut) for c, cut in zip(comps, cutoffs)]
    sums = [None] * len(comps)
    _Pairs(model, scope, list(range(len(comps))), windows, None).intensity(0, 1, sums)
    return float(sum((part for part in sums if part is not None),
                     _baseline_term(model, scope))[0])


# ---------------------------------------------------------------------------
# M-step


def _pair_arrays(resp: Responsibilities, c: int):
    """Component c's candidate pairs as (child, parent, z) arrays."""
    children = np.repeat(np.arange(resp.n, dtype=np.int64), np.diff(resp.comp_offsets[c]))
    return children, resp.comp_parents[c], resp.comp_z[c]


def estep_stats(model: CascadeModel, d: Dataset, children: np.ndarray | None = None,
                window: tuple[float, float] | None = None) -> EStepStats:
    """The E-step of a fit's ``_evaluate``, each component on the kernel
    ``_on_scan`` picks, summed into the statistics m_step reads as it
    goes; no responsibilities are kept."""
    validate_model(model, d.schema)
    stats, _, _ = _estep(model, _Scope(d, children, window), "stats")
    return stats


def expected_transition_counts(model: CascadeModel, d: Dataset,
                               resp: Responsibilities) -> list[np.ndarray | None]:
    """Per-component z-weighted (parent label, child label) count matrices
    for label-like schemas; None entries for feature-marked components."""
    if d.schema.label_count is None:
        return [None for _ in model.components]
    codes, n = d.schema.pattern_codes(d)
    pairs = (_pair_arrays(resp, c) for c in range(len(model.components)))
    return [np.bincount(codes[parents] * n + codes[children], weights=z,
                        minlength=n * n).reshape(n, n) for children, parents, z in pairs]


def m_step(model: CascadeModel, estep: EStepStats, update_baseline_mark: bool = True,
           freeze_delays: bool = False) -> CascadeModel:
    """Weighted maximum likelihood updates given the statistics of one
    E-step, from estep_stats or a fit's, over that E-step's dataset, child
    mask and window (its scope, ``_Scope``).

    Delays refit from their family's statistic of the weighted delay
    samples, read slice by slice (``delays.weighted_stats``); transitions
    from their family's statistics; fertilities from credits over
    edge-corrected exposures under the freshly updated delays, both
    summed per parent mark pattern; baseline rates from baseline-assigned
    weight over exposure. Delay and transition groups add up their
    members' statistics. Components with no credit keep their delay and
    transition parameters. With ``freeze_delays`` no delay sample is
    read, only each component's total weight.

    The delay refit ignores how the edge-corrected compensator depends
    on the delay, so it can overshoot slightly when much of the delay
    mass falls past the horizon; with ``freeze_delays`` the delays are
    kept and every remaining update is an exact coordinate ascent, which
    fit() uses as a fallback to keep the likelihood nondecreasing.

    The model is validated unless it shares the baseline and components
    objects of the E-step's model, which are all that ``validate_model``
    reads: an E-step runs only on a validated model or on an M-step's
    output from one. Statistics that record no scope are rejected.
    """
    if not isinstance(estep, EStepStats) or estep.scope is None:
        raise TypeError("m_step reads the EStepStats of estep_stats, which record the "
                        f"E-step's scope; got a {type(estep).__name__} with no scope")
    scope = estep.scope
    d, (a, b) = scope.d, scope.window
    if estep.model is None or not (estep.model.baseline is model.baseline
                                   and estep.model.components is model.components):
        validate_model(model, d.schema)
    if estep.n_components != len(model.components):
        raise DataError(f"responsibilities cover {estep.n_components} components, "
                        f"the model has {len(model.components)}")
    z_base, stats = estep.z_base, estep.components
    comps = model.components
    # baseline credit summed over the window's children only, so the sum
    # does not depend on how many other events the dataset holds
    credit = z_base[scope.kids]
    baseline = model.baseline.refit(scope.kid_times, credit, a, b)
    if update_baseline_mark and float(credit.sum()) > 0:
        by_pattern = np.bincount(scope.codes, weights=z_base, minlength=scope.n_codes)
        baseline = replace(baseline, mark=baseline.mark.refit(
            baseline.mark.stats_from_patterns(d, by_pattern)))

    comp_z = [float(c.weights.sum()) for c in stats]
    new_delays: list[DelaySpec] = [c.delay for c in comps]
    if not freeze_delays:
        for members in _groups(comps, "delay_group"):
            if sum(comp_z[ci] for ci in members) <= ZERO_CREDIT:
                continue
            spec = comps[members[0]].delay
            if len(members) == 1:
                st = stats[members[0]]
                fitted = delay_mod.weighted_mle(spec, st.deltas, st.weights)
            else:
                parts = [delay_mod.weighted_stats(spec, stats[ci].deltas, stats[ci].weights)
                         for ci in members]
                fitted = spec.refit(sum(p for p in parts if p is not None))
            for ci in members:
                new_delays[ci] = fitted

    new_transitions: list[TransitionSpec] = [c.transition for c in comps]
    for members in _groups(comps, "transition_group"):
        credit = sum(comp_z[ci] for ci in members)
        pooled = [stats[ci].transition for ci in members if stats[ci].transition is not None]
        if credit > ZERO_CREDIT and pooled:
            fitted = comps[members[0]].transition.refit(sum(pooled))
            for ci in members:
                new_transitions[ci] = fitted

    # fertilities under the new delays, one row per parent mark pattern
    rows = scope.rows
    new_ferts: list[FertilitySpec] = []
    for ci, comp in enumerate(comps):
        seen, exposure = _pool(d, comp.sources).exposure(comp.name, new_delays[ci], a, b)
        new_ferts.append(fert_mod.update(comp.fertility, None if rows is None else rows[seen],
                                         stats[ci].credits[seen], exposure[seen]))

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


def _scan_covers(comp: KernelComponent, n_codes: int) -> bool:
    """Whether the scan (``_Scan``) covers comp over ``n_codes`` mark
    patterns, given a model that passed validate_model: its delay family
    carries a decay rate, and the patterns number at most
    ``FAST_MAX_LABELS``. Fertilities become per-pattern factors and
    transitions pattern tables, so every family of those qualifies."""
    return n_codes <= FAST_MAX_LABELS and comp.delay.decay_rate is not None


def scan_applicable(model: CascadeModel, d: Dataset) -> bool:
    """True when d's marks form at most ``FAST_MAX_LABELS`` patterns and
    the scan covers every component of this model on d (``_scan_covers``)."""
    n_codes = d.schema.pattern_codes(d)[1]
    return n_codes <= FAST_MAX_LABELS and all(_scan_covers(c, n_codes)
                                              for c in model.components)


def fast_applicable(model: CascadeModel, d: Dataset) -> bool:
    """True when the fast engine (the model at truncation mass 0, every
    component on the scan) fits: label or composite marks and
    ``scan_applicable``."""
    return d.schema.label_count is not None and scan_applicable(model, d)


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
        self.D, self.E, self.N = (np.zeros((rates.size, n_codes)) for _ in range(3))
        self.s = self.e = None

    def next(self, lead: _DecayedSums | None = None, c: int = 0) -> None:
        """Move to the next block. When ``lead``, a walk over more
        components on the same blocks, stands at that block, these sums
        are its component c's, read from it, not built again."""
        s, e = next(self.blocks)
        if lead is not None and lead.s == s:
            self.s, self.e, self.t0, self.last = s, e, lead.t0, lead.last
            self.D, self.E, self.N = lead.D[c:c + 1], lead.E[c:c + 1], lead.N[c:c + 1]
            self.prefix, self.aged = lead.prefix[c:c + 1], lead.aged[c:c + 1]
            self.seen = lead.seen[c:c + 1]
            return
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

    def gather(self, lo: np.ndarray, t: np.ndarray, lead: _DecayedSums | None = None,
               c: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """(D, E, N), each (components, len(t), patterns), at times t
        over the events before k = searchsorted(times, lo, "left"): the
        sums at the first time t0 of k's block plus its prefixes at k,
        decayed on to t (no earlier than t0 or event k - 1), and with
        ``counting`` their count (else N is None). ``lo`` rises with t and
        across calls, so the walk only moves forward; ``lead`` and c go to
        ``next``."""
        ks = np.searchsorted(self.times, lo, side="left")
        parts, j = [], 0
        while j < ks.size:
            while self.e is None or ks[j] >= self.e:
                self.next(lead, c)
            j2 = int(np.searchsorted(ks, self.e, side="left"))
            h, age = ks[j:j2] - self.s, t[j:j2] - self.t0
            decay = np.exp(-self.rates[:, None] * age)[:, :, None]
            pk = np.take(self.prefix, h, axis=1)
            E = age[:, None] * self.D[:, None]
            E += self.E[:, None]
            E += np.take(self.aged, h, axis=1)
            E += (age - self.last[h])[:, None] * pk
            E *= decay
            pk += self.D[:, None]
            pk *= decay
            parts.append((pk, E, self.N[:, None] + np.take(self.seen, h, axis=1)
                          if self.counting else None))
            j = j2
        if len(parts) == 1:
            return parts[0]
        return tuple(None if x[0] is None else np.concatenate(x, axis=1) for x in zip(*parts))


def _scan_events(masks, d: Dataset, kids: np.ndarray, cutoffs: list[float]) -> np.ndarray:
    """The events a scan walks: from the first one inside some child's
    truncation window to the last child, those that may parent under some
    of its components (their pools' ``masks``, None for every event) or
    are children, so the scan of a node's fit reads only its children and
    parent pools, as pairs do."""
    if not kids.size:
        return kids
    t = d.times[kids[0]] - max(cutoffs, default=0.0)
    start, end = int(np.searchsorted(d.times, t, side="left")), int(kids[-1]) + 1
    if any(mask is None for mask in masks):
        return np.arange(start, end)
    keep = np.zeros(end - start, dtype=bool)
    keep[kids - start] = True
    for mask in masks:
        keep |= mask[start:end]
    return start + np.flatnonzero(keep)


class _Scan:
    """The scan kernel (Ozaki's recursion) for components ``comps``
    (model indices), whose delays carry a decay rate, over at most
    ``FAST_MAX_LABELS`` mark patterns: labels or distinct binary rows.

    Per source pattern r, the decayed count D[r] = sum_j exp(-rate (t -
    t_j)) over earlier parents j and its age-weighted companion E[r] =
    sum_j (t - t_j) exp(-rate (t - t_j)) replace the parent pairs: the
    kernel weight of (child pattern l, parent pattern r) is rate *
    fertility(r) * g(l | r). The walked events (``_scan_events``) form
    blocks of whole tie groups (``_scan_blocks``) of at most
    ``PAIR_CHUNK`` cells, with rate * (time span) below ``EXP_LIMIT``, so
    exponentials rebased on a block's first time cannot overflow. A run
    never crosses a block; its children's sums are gathered over the
    events before each child's time (``_DecayedSums.gather``), so
    simultaneous events never explain each other. Truncated, a second
    walk per component gathers the sums before each window the same way,
    to subtract, clamped at 0 (and 0 for a pattern with no parent inside
    the window, as its pairs give). The credits come from the (child
    pattern, parent pattern) weight table, and the transition statistic
    from its cells through the family's ``stats``; the delay
    sample (sum z dt / sum z, sum z) has the pairs' exponential MLE."""

    def __init__(self, model: CascadeModel, scope: _Scope, cutoffs: list[float],
                 comps: list[int]):
        d, kids = scope.d, scope.kids
        self.d, self.comps = d, comps
        self.specs = [model.components[c] for c in comps]
        # each truncated component's cutoff, by its index here
        self.cut = {i: cutoffs[c] for i, c in enumerate(comps) if np.isfinite(cutoffs[c])}
        codes, P = scope.codes, scope.n_codes
        C = len(comps)
        self.rows = scope.rows
        rates = np.array([c.delay.decay_rate for c in self.specs])
        # by_child[c, l, r]: delay rate * fertility(r) * g(l | r), read by child pattern l
        self.by_child = np.array([c.delay.decay_rate * c.fertility.rates(self.rows, P)[None, :]
                                  * c.transition.g_patterns(d).T
                                  for c in self.specs]).reshape(C, P, P)
        # the walk runs over the events of _scan_events, numbered from 0
        masks = [_pool(d, comp.sources).mask for comp in self.specs]
        walked = _scan_events(masks, d, kids, [cutoffs[c] for c in comps])
        self.times, self.codes = d.times[walked], codes[walked]
        sources = np.array([np.ones(walked.size) if mask is None else mask[walked]
                            for mask in masks], float)
        self.at_kid = np.searchsorted(walked, kids)
        blocks = list(_scan_blocks(self.times, walked.size, max(1, PAIR_CHUNK // max(C * P, 1)),
                                   EXP_LIMIT / rates.max() if rates.max() > 0 else np.inf))
        # the children of each block end where the block does
        self.ends = np.searchsorted(self.at_kid, [e for _, e in blocks], side="left")
        self.head = _DecayedSums(self.times, self.codes, sources, rates, P, iter(blocks),
                                 counting=bool(self.cut))
        # per truncated component, the walk that gives the sums at window starts
        self.trail = {i: _DecayedSums(self.times, self.codes, sources[i:i + 1],
                                      rates[i:i + 1], P, iter(blocks), counting=True)
                      for i in self.cut}
        self.comp_z, self.comp_zdt = np.zeros(C), np.zeros(C)
        self.counts = np.zeros((C, P, P))

    def run_end(self, s: int) -> int:
        return int(self.ends[np.searchsorted(self.ends, s, side="right")])

    def intensity(self, s: int, e: int, sums: list) -> None:
        kw = self.at_kid[s:e]
        tk, self.lk = self.times[kw], self.codes[kw]
        self.D, self.E, before = self.head.gather(tk, tk)
        for i, cut in self.cut.items():
            Dx, Ex, Nx = self.trail[i].gather(tk - cut, tk, self.head, i)
            # a pattern with no parent inside the window gets exactly
            # 0, where the subtraction would leave its rounding
            inside = before[i] > Nx[0]
            self.D[i] = np.where(inside, np.maximum(self.D[i] - Dx[0], 0.0), 0.0)
            self.E[i] = np.where(inside, np.maximum(self.E[i] - Ex[0], 0.0), 0.0)
        self.weights = np.take(self.by_child, self.lk, axis=1)
        self.wsum = np.einsum("cnl,cnl->cn", self.weights, self.D)
        for c, part in zip(self.comps, self.wsum):
            sums[c] = part

    def weigh(self, s: int, e: int, total: np.ndarray) -> None:
        C, P = self.counts.shape[:2]
        self.comp_z += (self.wsum / total).sum(axis=1)
        self.comp_zdt += (np.einsum("cnl,cnl->cn", self.weights, self.E) / total).sum(axis=1)
        # counts[c, l, r] sums D[r] / total over children of pattern l;
        # the kernel weights by_child[c, l, r] multiply in at the end
        cell = ((np.arange(C)[:, None] * P + self.lk) * P)[:, :, None] + np.arange(P)
        self.counts += np.bincount(cell.ravel(), weights=(self.D / total[:, None]).ravel(),
                                   minlength=C * P * P).reshape(C, P, P)

    def stats(self) -> dict[int, ComponentStats]:
        counts, z = self.counts * self.by_child, self.comp_z
        P = counts.shape[1]
        parents, children = np.divmod(np.arange(P * P), P)
        # per component one delay sample; credits per parent mark pattern
        mean_dt = np.divide(self.comp_zdt, z, out=np.zeros(z.size), where=z > 0)
        return {c: ComponentStats(
            deltas=mean_dt[i:i + 1], weights=z[i:i + 1],
            transition=comp.transition.stats(self.d, parents, children, counts[i].T.ravel()),
            credits=z[i:i + 1] if self.rows is None else counts[i].sum(axis=0))
            for i, (c, comp) in enumerate(zip(self.comps, self.specs))}


# ---------------------------------------------------------------------------
# the outer EM loop


def _component_shares(model: CascadeModel, d: Dataset) -> list[float]:
    if not model.components or not len(d):
        return [0.0 for _ in model.components]
    rows, pattern, n_patterns = d.schema.fertility_patterns(d)
    means = [float(c.fertility.rates(rows, n_patterns)[pattern].mean())
             for c in model.components]
    total = sum(means)
    if total <= 0:
        return [0.0 for _ in model.components]
    return [m / total for m in means]


def _release_pairs(stats: EStepStats) -> None:
    """Collapse each component's delay sample, in place, to the scan's
    one sample (sum z*dt / sum z, sum z), freeing the pair arrays. A
    frozen-delay M-step reads the same total weight from it."""
    for cs in stats.components:
        z = cs.weights.sum()
        cs.deltas = np.array([np.dot(cs.deltas, cs.weights) / z if z > 0 else 0.0])
        cs.weights = np.array([z])


def _ll_decreased(prev: float, new: float) -> bool:
    """Whether an EM step from LL ``prev`` to ``new`` fell beyond rounding."""
    return prev - new > 1e-8 * abs(prev) + 1e-12


def _check_em_limits(max_iters: int, tol: float) -> None:
    """The iteration cap and tolerance every EM loop checks first."""
    if max_iters < 0:
        raise ConfigError("max_iters must be nonnegative")
    if not tol >= 0:  # NaN too, which would turn off the convergence test
        raise ConfigError("tol must be nonnegative")


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
    after every iteration. ``engine`` is "direct", "fast" (the training
    E-steps at truncation mass 0), or "auto" to use the fast engine
    whenever ``fast_applicable``. Each E-step keeps only the statistics
    it sums as it goes, never the responsibilities, and those of the last
    allowed iteration, whose statistics no M-step reads, compute the
    likelihood alone. Once the M-step has read an
    E-step's pair arrays they are released (``_release_pairs``), and a
    frozen-delay retry drops the candidate's, so every E-step runs beside
    no other E-step's pairs.
    """
    validate_model(model, d.schema)
    if heldout and heldout[0].schema != d.schema:
        validate_model(model, heldout[0].schema)
    _check_em_limits(max_iters, tol)
    if on_decrease not in ("raise", "warn"):
        raise ConfigError("on_decrease must be 'raise' or 'warn'")
    if engine not in ("auto", "direct", "fast"):
        raise ConfigError("engine must be 'auto', 'direct' or 'fast'")
    use_fast = engine == "fast" or (engine == "auto" and fast_applicable(model, d))
    if engine == "fast" and not fast_applicable(model, d):
        raise ConfigError("fast engine requested but the model does not qualify")
    engine_name = "fast" if use_fast else "direct"
    scope = _Scope(d, children, window)
    window = scope.window

    def train(m: CascadeModel, want_stats: bool) -> tuple[EStepStats | None, float]:
        m = replace(m, truncation_mass=0.0) if use_fast else m
        return _evaluate(m, scope, want_stats)

    def improve(m: CascadeModel, stats: EStepStats,
                freeze_delays: bool = False) -> CascadeModel:
        m2 = m_step(m, stats, update_baseline_mark, freeze_delays)
        if m2.normalization:
            m2 = normalize(m2, d, children, window)
        return m2

    held_scope = _Scope(*heldout) if heldout else None
    held = [_evaluate(model, held_scope)[1]] if heldout else None
    shares = [_component_shares(model, d)]
    dmeans = [[c.delay.mean() for c in model.components]]
    if scope.kids.size == 0:
        ll0 = train(model, False)[1]
        return FitReport(model, [ll0], 0, True, engine_name, heldout_trace=held,
                         component_shares=shares, delay_means=dmeans)

    stats, ll = train(model, max_iters > 0)
    trace = [ll]
    converged = False
    iterations = 0
    for it in range(max_iters):
        # no M-step reads the statistics of the last allowed iteration
        more = it + 1 < max_iters
        candidate = improve(model, stats)
        _release_pairs(stats)
        stats_new, ll_new = train(candidate, more)
        if ll_new < ll:
            # the delay refit ignores the edge-corrected compensator and
            # can overshoot; redoing the update with delays frozen makes
            # every remaining piece an exact coordinate ascent. The retry
            # nearly always wins, so its E-step runs without the
            # candidate's pairs, which are recomputed if the candidate wins
            stats_new = None
            fallback = improve(model, stats, freeze_delays=True)
            stats_fb, ll_fb = train(fallback, more)
            if ll_fb > ll_new:
                candidate, stats_new, ll_new = fallback, stats_fb, ll_fb
            elif more:
                stats_new = train(candidate, True)[0]
        iterations += 1
        trace.append(ll_new)
        if held is not None:
            held.append(_evaluate(candidate, held_scope)[1])
        shares.append(_component_shares(candidate, d))
        dmeans.append([c.delay.mean() for c in candidate.components])
        if _ll_decreased(ll, ll_new):
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
