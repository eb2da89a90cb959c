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

from cascades import (BinaryMark, CategoricalMatrix, CompositeMark, DataError, FeaturePrior,
                      IdentityTransition, LabelMark, PriorTransition)
from cascades import engine
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
