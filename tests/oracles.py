"""Reference implementations that the package no longer carries, kept as
test oracles.

``mixture_stats`` and ``fit_mixture`` read weighted pairs of
``BinaryMark``s one Python tuple at a time. The package sums the same
(F, 2, 2) table from arrays: over candidate pairs in the pairwise E-step
(``FeatureMixture.stats_from_pairs``) and over (parent pattern, child
pattern) weights in the scan (``FeatureMixture.stats_from_patterns``).

``label_family_stats`` reads a family's statistic off the (parent label,
child label) weight table that every label family used to keep.

``component_stats`` sums e_step's responsibilities into the per-component
statistics m_step reads, as m_step did when it still accepted
responsibilities; the package sums them inside the E-step
(``estep_stats``).

``delay_mle`` is the weighted delay MLE as each family's ``refit(d, w)``
computed it from the whole sample at once, after ``clean_samples``
checked the sample and dropped its zero weights. The package reads the
sample in slices into each family's fixed-size statistic
(``delays.weighted_stats``) and refits once from their sum.

``probs_at`` and ``mark_stats`` are a mark distribution's probability
of each event's mark and its statistic of per-event weights, read from
each event's own label or feature row (for a feature prior, the total
weight followed by ``X[events].T @ w``). ``compensator`` sums each
possible parent's fertility times the delay mass it puts in the window,
event by event. The package reads marks by pattern only: it gathers
``pattern_probs`` by the schema's ``pattern_codes``, bins weights by
them into ``stats_from_patterns``, and sums fertility times exposure per
fertility pattern (``engine._window_exposure``).

``ingest`` reads a JSONL event file one ``json.loads`` and one
``parse_record`` call per line, and builds the mark columns from one Mark
object per event (the schema's ``mark_columns``). The package
decodes each line once and reads records with a reader chosen per schema
(``events.ingest``); it also rejects non-finite times at their line.
"""

import json
import warnings
from typing import Sequence

import numpy as np

from cascades import (BinaryMark, CategoricalMatrix, CompositeMark, DataError, ExpMixtureDelay,
                      ExponentialDelay, FeaturePrior, GammaDelay, IdentityTransition, LabelMark,
                      NumericalError, PiecewiseUniformDelay, PriorTransition, UniformDelay)
from cascades import delays as delay_mod
from cascades import engine
from cascades.delays import _gamma_shape_mle
from cascades.events import (_HEADER_KEYS, BinarySchema, Dataset, LabelSchema, MarkSchema,
                             _check_rows, _schema_from_header, _time)
from cascades.transitions import fit_mixture_from_stats


def component_stats(model, d, resp) -> list:
    """Per-component statistics of given responsibilities: every pair's
    delay and weight, the transition statistic and the credit per parent
    mark pattern."""
    if resp.n != len(d):
        raise DataError("responsibilities do not match the dataset")
    _, pattern, n_patterns = d.schema.fertility_patterns(d)
    out = []
    for c, comp in enumerate(model.components):
        children, parents, z = engine._pair_arrays(resp, c)
        out.append(engine.ComponentStats(
            d.times[children] - d.times[parents], z,
            comp.transition.stats_from_pairs(d, children, parents, z),
            engine._pattern_credits(pattern, n_patterns, parents, z)))
    return out


def resp_stats(model, d, resp):
    """The EStepStats m_step reads, from e_step's responsibilities; m_step
    does not read the intensity, which is left empty."""
    return engine.EStepStats(resp.baseline, np.zeros(0), component_stats(model, d, resp))


def label_family_stats(spec, table: np.ndarray):
    """The statistic a label-mark transition keeps, from the (parent label,
    child label) weight table: the table for a categorical matrix, its
    parent-axis sum for a prior, None for identity."""
    if isinstance(spec, CategoricalMatrix):
        return table
    if isinstance(spec, PriorTransition):
        return table.sum(axis=0)
    assert isinstance(spec, IdentityTransition)
    return None


def probs_at(dist, d, events=None) -> np.ndarray:
    """The probability under a mark distribution of the marks of the
    events at ``events`` (every event when None), event by event."""
    events = np.arange(len(d)) if events is None else np.asarray(events)
    if isinstance(dist, FeaturePrior):
        p = dist.as_array
        return np.prod(np.where(d.feature_matrix[events] == 1, p, 1.0 - p), axis=1)
    return dist.as_array[d.label_index[events]]


def mark_stats(dist, d, weights, events=None) -> np.ndarray:
    """A mark distribution's statistic of ``weights`` on the events at
    ``events`` (every event when None; repeats add up): the total weight
    followed by X^T w for a feature prior, the weight per label for a
    label marginal."""
    events = np.arange(len(d)) if events is None else np.asarray(events)
    if isinstance(dist, FeaturePrior):
        X = d.feature_matrix[events]
        return np.concatenate([[weights.sum()], X.T.astype(np.float64) @ weights])
    return np.bincount(d.label_index[events], weights=weights, minlength=d.n_label_values)


def compensator(model, d, window=None) -> float:
    """Expected event count over the window: the baseline integral plus,
    per component, each possible parent's fertility times the delay mass
    it puts in the window, summed event by event."""
    a, b = engine._resolve_window(d, window)
    X = d.feature_matrix if isinstance(d.schema, BinarySchema) else None
    total = engine.baseline_integral(model.baseline, a, b)
    for comp in model.components:
        pool = engine._parent_pool(comp, d)
        pool = pool[d.times[pool] < b]
        t = d.times[pool]
        mass = delay_mod.cdf(comp.delay, b - t) - delay_mod.cdf(comp.delay, a - t)
        total += float(np.dot(comp.fertility.rates(X, len(d))[pool], mass))
    return float(total)


def mixture_stats(pairs: Sequence[tuple[BinaryMark, BinaryMark, float]],
                  prior: FeaturePrior) -> np.ndarray:
    """Aggregate weighted (parent, child) pairs into an (F, 2, 2) table.

    Entry [f, b, m] is the total weight of pair-features with child bit
    b and match indicator m.
    """
    width = len(prior.probs)
    table = np.zeros((width, 2, 2))
    for parent, child, w in pairs:
        if w < 0:
            raise DataError("pair weights must be nonnegative")
        for f in range(width):
            b = child.bits[f]
            table[f, b, int(parent.bits[f] == b)] += w
    return table


def fit_mixture(pairs: Sequence[tuple[BinaryMark, BinaryMark, float]],
                prior: FeaturePrior) -> float:
    return fit_mixture_from_stats(mixture_stats(pairs, prior), prior)


def clean_samples(deltas, weights) -> tuple[np.ndarray, np.ndarray]:
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


def delay_mle(spec, deltas, weights):
    """The weighted MLE in the family of ``spec`` from the whole cleaned
    sample."""
    d, w = clean_samples(deltas, weights)
    if isinstance(spec, ExponentialDelay):
        return ExponentialDelay(rate=float(w.sum() / np.dot(w, d)))
    if isinstance(spec, GammaDelay):
        total = w.sum()
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
        idx = np.searchsorted(np.asarray(spec.edges), d, side="left")
        ok = (idx >= 1) & (idx <= len(spec.probs))
        if not np.any(ok):
            raise DataError("piecewise MLE: no weighted samples fall inside the bins")
        sums = np.bincount(idx[ok] - 1, weights=w[ok], minlength=len(spec.probs))
        return PiecewiseUniformDelay(spec.edges, tuple((sums / sums.sum()).tolist()))
    assert isinstance(spec, ExpMixtureDelay)
    total = w.sum()
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


def parse_record(obj: dict, schema: MarkSchema, where: str) -> tuple[float, object]:
    """The time and Mark object of one record."""
    if "t" not in obj:
        raise DataError(f"{where}: record is missing \"t\"")
    t = obj["t"]
    if not isinstance(t, (int, float)) or isinstance(t, bool):
        raise DataError(f"{where}: \"t\" must be a number")
    t = _time(t, where, "t")
    allowed = ({"t", "x"} if isinstance(schema, BinarySchema) else
               {"t", "label"} if isinstance(schema, LabelSchema) else {"t", "type", "node"})
    if set(obj) - allowed:
        raise DataError(f"{where}: unexpected keys {sorted(set(obj) - allowed)}")
    if isinstance(schema, BinarySchema):
        active = obj.get("x", [])
        if not isinstance(active, list):
            raise DataError(f"{where}: \"x\" must be a list of feature indices")
        bits = [0] * schema.width
        for idx in active:
            if not isinstance(idx, int) or isinstance(idx, bool) or not 0 <= idx < schema.width:
                raise DataError(f"{where}: feature index {idx!r} outside 0..{schema.width - 1}")
            bits[idx] = 1
        return t, BinaryMark(tuple(bits))
    if isinstance(schema, LabelSchema):
        label = obj.get("label")
        if not isinstance(label, int) or isinstance(label, bool):
            raise DataError(f"{where}: \"label\" must be an integer")
        return t, LabelMark(label)
    typ, node = obj.get("type"), obj.get("node")
    if not isinstance(typ, int) or isinstance(typ, bool):
        raise DataError(f"{where}: \"type\" must be an integer")
    if not isinstance(node, str):
        raise DataError(f"{where}: \"node\" must be a string")
    return t, CompositeMark(typ, node)


def ingest(path: str, schema: MarkSchema | None = None) -> Dataset:
    """Read a JSONL event file into a Dataset, one record at a time."""
    horizon: float | None = None
    units: str | None = None
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    body: list[tuple[int, dict]] = []
    for lineno, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text:
            continue
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}:{lineno}: malformed JSON ({exc.msg})") from exc
        if not isinstance(obj, dict):
            raise DataError(f"{path}:{lineno}: expected a JSON object")
        body.append((lineno, obj))
    if body and "t" not in body[0][1]:
        lineno0, header = body.pop(0)
        extra = set(header) - _HEADER_KEYS
        if extra:
            raise DataError(f"{path}:{lineno0}: unexpected header keys {sorted(extra)}")
        if "T" in header:
            T = header["T"]
            if not isinstance(T, (int, float)) or isinstance(T, bool):
                raise DataError(f"{path}:{lineno0}: \"T\" must be a number, got {T!r}")
            horizon = _time(T, f"{path}:{lineno0}", "T")
        if "units" in header:
            units = str(header["units"])
        if "schema" in header:
            declared = _schema_from_header(header["schema"], f"{path}:{lineno0}")
            if schema is None:
                schema = declared
            elif schema.header() != declared.header():
                raise DataError(f"{path}:{lineno0}: header schema conflicts with the provided one")
    if schema is None:
        raise DataError(f"{path}: no schema declared in the header or provided by the caller")
    times: list[float] = []
    marks: list = []
    for lineno, obj in body:
        t, mark = parse_record(obj, schema, f"{path}:{lineno}")
        if t < 0:
            raise DataError(f"{path}:{lineno}: negative timestamp {t}")
        if horizon is not None and t > horizon:
            raise DataError(f"{path}:{lineno}: timestamp {t} beyond declared horizon {horizon}")
        times.append(t)
        marks.append(mark)
    if horizon is None:
        if not times:
            raise DataError(f"{path}: empty file without a declared horizon")
        horizon = max(times)
        warnings.warn(f"{path}: no horizon declared, defaulting to max timestamp {horizon!r}")
    order = sorted(range(len(times)), key=times.__getitem__)  # stable, as list.sort
    cols, _ = schema.mark_columns([marks[j] for j in order])
    cols["times"] = np.array(times, dtype=np.float64)[order]
    _check_rows(cols, horizon, schema, 0.0)
    return Dataset._of(cols, horizon, schema, units=units)
