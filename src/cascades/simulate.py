"""Forward simulation of cascade models.

Events are generated by the branching construction: baseline events are
drawn over the window first, then each event independently spawns
offspring under every kernel component. The true cause of every event
is recorded in a causal forest so inference output can be scored
against it. One offspring queue (``_offspring``) serves both simulators,
which draw their own roots and give it their own offspring rules.

Every Poisson count (roots and offspring, in both) comes from one
uniform through the inverse of the Poisson CDF that scipy's poisson.ppf
runs (scipy.special's pdtrik and pdtr, on scalars), so a stream's layout
does not depend on the counts' sizes and importing the package does not
load scipy's statistics module. An offspring mean that the queue draws
more than once gets a table of its CDF steps, and its counts come from a
binary search of that table where the table covers the uniform, with the
inverse's value: the table is a faster route to the same integers, so
the streams do not change.

Marks are drawn and kept as codes (see ``transitions``), the children of
one parent under one component in one draw, and the dataset is built
from their columns through the same checks as ``events.ingest``.
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy import special

from .engine import CascadeModel, Responsibilities, baseline_integral, validate_model
from .errors import ConfigError, DataError, NumericalError
from .events import CompositeSchema, Dataset, MarkSchema, _check_rows, _jsonl_objects


# A CDF table holds fewer entries than this; a uniform above its last
# entry takes the inverse.
CDF_TABLE_SIZE = 256
# Within this of a CDF step (above it), pdtrik's rounding decides between
# the step's two counts: the inverse's integer there can be the lower one
# although pdtr(k, mu) < u, by up to 1e-14 in u for means up to 2e4. The
# table leaves those uniforms to the inverse so that both give one value.
_STEP_SLACK = 1e-12
_UNSEEN = object()  # a mean not yet drawn, in _offspring's tables


def substream(seed: int, name: str) -> np.random.Generator:
    """Independent generator derived from one user seed and a role name.

    The name is hashed with sha256 so the mapping is stable across runs
    and platforms, unlike the builtin hash. A seed that is not a
    nonnegative integer (a bool included) raises ConfigError.
    """
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ConfigError(f"seed must be a nonnegative integer, got {seed!r}")
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    key = int.from_bytes(digest[:8], "little")
    return np.random.default_rng(np.random.SeedSequence([seed, key]))


@dataclass
class CausalForest:
    """True generation structure of a simulated dataset.

    Arrays are aligned with the dataset's sorted event ids. Roots have
    parent -1 and component -1; triggered events point at the parent's
    event id and the component index that produced them.
    """

    parents: np.ndarray
    components: np.ndarray
    generations: np.ndarray

    def __len__(self) -> int:
        return len(self.parents)

    @property
    def n_roots(self) -> int:
        return int(np.sum(self.parents < 0))


def _cdf_table(mu: float) -> list[float]:
    """The running maximum of pdtr(k, mu) from k = 0 to about 8 standard
    deviations above mu, and below CDF_TABLE_SIZE, cut after its first
    entry of 1.0. It is nondecreasing, and its first entry >= u is at the
    smallest k with pdtr(k, mu) >= u, even where rounding were to make
    pdtr dip. Its length sets only which uniforms take the inverse."""
    size = min(CDF_TABLE_SIZE, int(mu + 8.0 * math.sqrt(mu)) + 16)
    steps = np.maximum.accumulate(special.pdtr(np.arange(size), mu)).tolist()
    return steps[:bisect_left(steps, 1.0) + 1]


def _poisson_count(rng: np.random.Generator, mu: float,
                   steps: list[float] | None = None) -> int:
    """Poisson draw by inverting one uniform, so each count consumes
    exactly one stream value regardless of its magnitude.

    The count comes from the table ``steps`` (``_cdf_table(mu)``) where
    it covers u, otherwise from the inverse that scipy's poisson.ppf
    runs internally, evaluated on scalars; both give the same value. The
    inverse is the ceiling of pdtrik and one step down: the smallest k
    with pdtr(k, mu) >= u, except just above a step, where pdtrik's
    rounding decides (``_STEP_SLACK``). The table's binary search finds
    that smallest k and leaves the uniforms just above a step to the
    inverse. Every u > 0 gets scipy's integer; u == 0 gets 0, where
    scipy returns -1. Where the inverse has no value (scipy's ppf gives
    nan) this raises.
    """
    if mu < 0 or not math.isfinite(mu):
        raise NumericalError(f"offspring mean must be finite and nonnegative, got {mu}")
    u = rng.random()
    if mu == 0.0 or u == 0.0:
        return 0
    if steps is not None and u <= steps[-1]:
        k = bisect_left(steps, u)
        if k == 0 or u - steps[k - 1] > _STEP_SLACK:
            return k
    root = special.pdtrik(u, mu)
    if not math.isfinite(root):  # cdflib gives up near mu = 1e11 and above
        raise NumericalError(f"Poisson inverse failed at mean {mu} and uniform {u}")
    k = math.ceil(root)
    if k >= 1 and special.pdtr(k - 1, mu) >= u:
        return k - 1
    return k


def simulate(model: CascadeModel, horizon: float, seed: int,
             schema: MarkSchema | None = None,
             max_events: int = 10_000_000) -> tuple[Dataset, CausalForest]:
    """Draw one realization on (0, horizon] with its causal forest.

    Baseline events are generated first (times, then marks, in time
    order), then ``_offspring`` runs the queue with one rule per
    component. Raises when more than max_events accumulate: as soon as
    the root count is drawn if the roots alone exceed it (before any root
    time is allocated), otherwise as ``_offspring`` does.
    """
    if schema is None:
        schema = model.baseline.mark.default_schema()
    if isinstance(schema, CompositeSchema):
        raise ConfigError("composite marks are simulated per graph, "
                          "use simulate_graph instead")
    validate_model(model, schema)
    if horizon <= 0 or not np.isfinite(horizon):
        raise ConfigError(f"horizon must be positive and finite, got {horizon}")
    rng = substream(seed, "cascade")

    n_roots = _poisson_count(rng, baseline_integral(model.baseline, 0.0, horizon))
    if n_roots > max_events:
        raise NumericalError(
            f"simulation exceeded max_events={max_events}: the baseline "
            f"drew {n_roots} root events")
    times = model.baseline.draw_times(horizon, n_roots, rng).tolist()
    codes = list(model.baseline.mark.draw(rng, n_roots))

    # fertility reads the parent's features alone: one rule list per
    # distinct feature row, or one in all for marks without features
    by_key: dict = {}

    def rules(code, tag) -> list:
        X = schema.fertility_row(code)
        key = None if X is None else X.tobytes()
        if key not in by_key:
            by_key[key] = [(float(comp.fertility.rates(X, 1)[0]), comp.delay,
                            comp.transition.draw, c) for c, comp in enumerate(model.components)]
        return by_key[key]

    comp_of = [-1] * n_roots
    parents, gens = _offspring(rng, times, codes, comp_of, rules, horizon, max_events)
    return _time_ordered(times, schema.code_columns(codes), parents, comp_of, gens,
                         horizon, schema)


def _offspring(rng: np.random.Generator, times: list, codes: list, tags: list, rules,
               horizon: float, max_events: int) -> tuple[list, list]:
    """The offspring queue of both simulators. From the roots ``times``,
    ``codes`` and ``tags`` it processes events first-in first-out,
    appending every child to those lists, and returns each event's parent
    (-1 for a root) and generation. ``rules(code, tag)`` gives an event's
    offspring rules as (mean, delay, draw, tag); per rule, one Poisson
    count, then all the delays, then ``draw(parent code, rng, m)`` for the
    m children inside the horizon, each tagged with the rule's tag.
    Children past the horizon are discarded after their delay is drawn,
    which keeps the stream layout independent of the horizon clipping.
    A mean's second draw builds its CDF table, which its later draws
    search (``_poisson_count``); a mean drawn once builds none.
    Raises NumericalError on a single count above max_events before any
    of its delays is drawn, otherwise after the children (of one parent
    under one rule) that take the event count past max_events.
    """
    n_roots = len(times)
    parents, gens = [-1] * n_roots, [0] * n_roots
    queue: deque[int] = deque(range(n_roots))
    tables: dict = {}  # a mean's CDF table, or None after its first draw
    while queue:
        i = queue.popleft()  # first in, first out: i events came before
        t_i, code_i = times[i], codes[i]
        for mean, delay, draw, tag in rules(code_i, tags[i]):
            steps = tables.get(mean, _UNSEEN)
            if steps is _UNSEEN:
                steps = tables[mean] = None
            elif steps is None:  # its second draw
                steps = tables[mean] = _cdf_table(mean)
            count = _poisson_count(rng, mean, steps)
            if count == 0:
                continue
            if count > max_events:  # refused before its delays are allocated
                raise NumericalError(
                    f"simulation exceeded max_events={max_events}: one offspring "
                    f"draw at mean {mean!r} gave {count} children")
            kids = [t for t in (t_i + dt for dt in delay.draw(rng, count).tolist())
                    if t <= horizon]
            queue.extend(range(len(times), len(times) + len(kids)))
            times += kids
            codes.extend(draw(code_i, rng, len(kids)))
            tags += [tag] * len(kids)
            parents += [i] * len(kids)
            gens += [gens[i] + 1] * len(kids)
            if len(times) > max_events:
                ratio = (max_events + 1 - n_roots) / (i + 1)
                raise NumericalError(
                    f"simulation exceeded max_events={max_events}; mean "
                    f"offspring so far is about {ratio:.2f}, the model "
                    "may be supercritical")
    return parents, gens


def _time_ordered(times: list, cols: dict, parents: list, comps, gens: list,
                  horizon: float, schema: MarkSchema) -> tuple[Dataset, CausalForest]:
    """The drawn events stable-sorted by time, as a checked dataset of the
    mark columns ``cols`` in draw order, and their forest with each parent
    renumbered to its sorted rank."""
    order = np.argsort(np.asarray(times), kind="stable")
    rank = np.append(np.argsort(order), -1)  # each draw's sorted rank; a root's parent -1 stays -1
    cols = {name: col[order] for name, col in cols.items()}
    cols["times"] = np.asarray(times, dtype=np.float64)[order]
    _check_rows(cols, horizon, schema, 0.0)
    return Dataset._of(cols, horizon, schema), CausalForest(*(
        np.asarray(col, dtype=np.int64)[order]
        for col in (rank[np.asarray(parents, dtype=np.int64)], comps, gens)))


def parent_recovery_score(forest: CausalForest, resp: Responsibilities,
                          triggered_only: bool = True) -> float:
    """Fraction of events whose most responsible cause has the true parent.

    Component identity is ignored; picking the right parent under a
    different component still counts. With triggered_only, root events
    are left out of the denominator; otherwise a root is correct when
    the baseline wins the argmax. Ties prefer the baseline, then the
    lower parent id (``Responsibilities.argmax_parents``).
    """
    if len(forest) != resp.n:
        raise DataError("forest and responsibilities describe different datasets")
    scored = forest.parents >= 0 if triggered_only else np.ones(resp.n, dtype=bool)
    total = int(scored.sum())
    if total == 0:
        raise DataError("no events to score")
    return int((resp.argmax_parents() == forest.parents)[scored].sum()) / total


def write_forest(forest: CausalForest, path: str) -> None:
    """One JSON object per event, formatted as json.dumps would."""
    rows = zip(forest.parents.tolist(), forest.components.tolist(),
               forest.generations.tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines('{"id": %d, "parent": %d, "component": %d, "gen": %d}\n'
                      % (i, p, c, g) for i, (p, c, g) in enumerate(rows))


def load_forest(path: str) -> CausalForest:
    """Read a forest as ``write_forest`` writes it: per event an object of
    integers id (0, 1, 2, ... in order), parent (-1 or an earlier id),
    component and gen. A malformed record raises DataError at path:line."""
    keys = ("id", "parent", "component", "gen")
    cols: list[list[int]] = [[], [], []]
    for lineno, obj in _jsonl_objects(path):
        where = f"{path}:{lineno}"
        missing = [key for key in keys if key not in obj]
        if missing:
            raise DataError(f"{where}: missing keys {missing}")
        for key in keys:
            v = obj[key]
            if isinstance(v, bool) or not isinstance(v, int) or not -1 <= v < 2 ** 63:
                raise DataError(f"{where}: {key} must be an integer of at least -1, "
                                f"got {v!r}")
        i, parent = obj["id"], obj["parent"]
        if i != len(cols[0]):
            raise DataError(f"{where}: forest ids must be 0,1,2,...")
        if parent >= i:
            raise DataError(f"{where}: parent {parent} is neither -1 nor an earlier id")
        for col, key in zip(cols, keys[1:]):
            col.append(obj[key])
    return CausalForest(*(np.asarray(col, dtype=np.int64) for col in cols))
