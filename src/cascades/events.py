"""Marked event streams: mark schemas, events, datasets, JSONL ingestion.

An event is a timestamp plus a mark. Three mark families are supported:
binary feature vectors (fixed width, named features), categorical labels
(integers 1..L), and composite (type, node) pairs used for graph data.
A Dataset is a time-sorted list of events over an observation window
(start, horizon], with columnar numpy views cached for the fitting code.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Union

import numpy as np

from .errors import DataError


@dataclass(frozen=True)
class BinarySchema:
    """Marks are fixed-width binary feature vectors over named features."""

    features: tuple[str, ...]

    @property
    def width(self) -> int:
        return len(self.features)


@dataclass(frozen=True)
class LabelSchema:
    """Marks are categorical labels in 1..n_labels."""

    n_labels: int


@dataclass(frozen=True)
class CompositeSchema:
    """Marks pair a categorical type (1..n_types) with a node id string.

    If ``nodes`` is given, every event's node must belong to it.
    """

    n_types: int
    nodes: frozenset[str] | None = None


MarkSchema = Union[BinarySchema, LabelSchema, CompositeSchema]


def label_count(schema: MarkSchema) -> int | None:
    """Labels (or composite types) of a label-like schema; None for binary."""
    if isinstance(schema, LabelSchema):
        return schema.n_labels
    if isinstance(schema, CompositeSchema):
        return schema.n_types
    return None


@dataclass(frozen=True)
class BinaryMark:
    bits: tuple[int, ...]


@dataclass(frozen=True)
class LabelMark:
    label: int


@dataclass(frozen=True)
class CompositeMark:
    type: int
    node: str


Mark = Union[BinaryMark, LabelMark, CompositeMark]


@dataclass(frozen=True)
class Event:
    """A timestamped observation; id is the rank in its time-sorted dataset."""

    t: float
    mark: Mark
    id: int = -1


def _check_mark(mark: Mark, schema: MarkSchema, where: str) -> None:
    if isinstance(schema, BinarySchema):
        if not isinstance(mark, BinaryMark) or len(mark.bits) != schema.width:
            raise DataError(f"{where}: mark does not match binary schema of width {schema.width}")
        if any(b not in (0, 1) for b in mark.bits):
            raise DataError(f"{where}: binary mark entries must be 0 or 1")
    elif isinstance(schema, LabelSchema):
        if not isinstance(mark, LabelMark):
            raise DataError(f"{where}: expected a label mark")
        if not 1 <= mark.label <= schema.n_labels:
            raise DataError(f"{where}: label {mark.label} outside 1..{schema.n_labels}")
    elif isinstance(schema, CompositeSchema):
        if not isinstance(mark, CompositeMark):
            raise DataError(f"{where}: expected a (type, node) mark")
        if not 1 <= mark.type <= schema.n_types:
            raise DataError(f"{where}: type {mark.type} outside 1..{schema.n_types}")
        if schema.nodes is not None and mark.node not in schema.nodes:
            raise DataError(f"{where}: unknown node id {mark.node!r}")
    else:
        raise DataError(f"{where}: unsupported schema {type(schema).__name__}")


class Dataset:
    """Time-sorted events over an observation window (start, horizon].

    Events passed to the constructor are stable-sorted by timestamp, so
    equal timestamps keep their input order, and ids are reassigned to
    the sorted rank. ``start`` is nonzero only for split tails, where the
    dataset represents the window (start, horizon] of a longer stream.
    """

    def __init__(
        self,
        events: Iterable[Event],
        horizon: float,
        schema: MarkSchema,
        start: float = 0.0,
        units: str | None = None,
        _sorted: bool = False,
    ):
        events = list(events)
        if not _sorted:
            events.sort(key=lambda e: e.t)
        if not np.isfinite(horizon) or horizon < 0:
            raise DataError(f"horizon must be finite and nonnegative, got {horizon}")
        if start < 0 or start > horizon:
            raise DataError(f"window start {start} outside [0, {horizon}]")
        for i, ev in enumerate(events):
            if not np.isfinite(ev.t) or ev.t < 0:
                raise DataError(f"event {i}: timestamp {ev.t} is not finite and nonnegative")
            if ev.t > horizon:
                raise DataError(f"event {i}: timestamp {ev.t} beyond horizon {horizon}")
            _check_mark(ev.mark, schema, f"event {i}")
        self.events = [Event(ev.t, ev.mark, i) for i, ev in enumerate(events)]
        self.horizon = float(horizon)
        self.schema = schema
        self.start = float(start)
        self.units = units

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    @cached_property
    def times(self) -> np.ndarray:
        return np.array([ev.t for ev in self.events], dtype=np.float64)

    @cached_property
    def feature_matrix(self) -> np.ndarray:
        """(N, F) 0/1 matrix for binary schemas."""
        if not isinstance(self.schema, BinarySchema):
            raise DataError("feature_matrix requires a binary schema")
        if not self.events:
            return np.zeros((0, self.schema.width), dtype=np.uint8)
        return np.array([ev.mark.bits for ev in self.events], dtype=np.uint8)

    @cached_property
    def feature_patterns(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct rows of the feature matrix, and each event's row index."""
        rows, index = np.unique(self.feature_matrix, axis=0, return_inverse=True)
        return rows, index.reshape(-1)

    @cached_property
    def label_index(self) -> np.ndarray:
        """(N,) zero-based label (or composite type) indices."""
        if isinstance(self.schema, LabelSchema):
            return np.array([ev.mark.label - 1 for ev in self.events], dtype=np.int64)
        if isinstance(self.schema, CompositeSchema):
            return np.array([ev.mark.type - 1 for ev in self.events], dtype=np.int64)
        raise DataError("label_index requires a label or composite schema")

    @cached_property
    def node_ids(self) -> np.ndarray:
        if not isinstance(self.schema, CompositeSchema):
            raise DataError("node_ids requires a composite schema")
        return np.array([ev.mark.node for ev in self.events], dtype=object)

    @cached_property
    def node_codes(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct node ids (sorted), and each event's index into them."""
        return np.unique(self.node_ids, return_inverse=True)

    @property
    def n_label_values(self) -> int:
        n = label_count(self.schema)
        if n is None:
            raise DataError("schema has no label dimension")
        return n

    def subset(self, index: np.ndarray) -> "Dataset":
        """View of the events at ``index`` (ascending), same window."""
        index = np.asarray(index, dtype=np.int64)
        if index.size and np.any(np.diff(index) <= 0):
            raise DataError("subset index must be strictly increasing")
        picked = [self.events[int(i)] for i in index]
        return Dataset(picked, self.horizon, self.schema, start=self.start,
                       units=self.units, _sorted=True)

    def merge_history(self, history: "Dataset") -> "Dataset":
        """Prepend earlier events so likelihoods can condition on them."""
        if history.schema != self.schema:
            raise DataError("history schema differs from dataset schema")
        if history.events and self.events and history.events[-1].t > self.start:
            raise DataError("history extends past the dataset window start")
        merged = list(history.events) + list(self.events)
        return Dataset(merged, self.horizon, self.schema, start=self.start,
                       units=self.units, _sorted=True)


def split(d: Dataset, fraction: float) -> tuple[Dataset, Dataset]:
    """Split temporally at fraction * horizon, cut time going to train.

    Train covers [0, c] and test covers (c, horizon] with c = fraction *
    horizon. An event exactly at the cut lands in train. Test evaluation
    is expected to condition on the train history (see merge_history).
    """
    if not 0.0 < fraction < 1.0:
        raise DataError(f"split fraction must be in (0, 1), got {fraction}")
    cut = fraction * d.horizon
    head = [ev for ev in d.events if ev.t <= cut]
    tail = [ev for ev in d.events if ev.t > cut]
    train = Dataset(head, cut, d.schema, start=d.start, units=d.units, _sorted=True)
    test = Dataset(tail, d.horizon, d.schema, start=cut, units=d.units, _sorted=True)
    return train, test


_HEADER_KEYS = {"T", "schema", "units"}


def _schema_from_header(spec: dict, where: str) -> MarkSchema:
    if not isinstance(spec, dict):
        raise DataError(f"{where}: schema must be an object")
    if "features" in spec:
        extra = set(spec) - {"features"}
        if extra:
            raise DataError(f"{where}: unexpected schema keys {sorted(extra)}")
        names = spec["features"]
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise DataError(f"{where}: features must be a list of names")
        return BinarySchema(tuple(names))
    if "labels" in spec:
        extra = set(spec) - {"labels"}
        if extra:
            raise DataError(f"{where}: unexpected schema keys {sorted(extra)}")
        return LabelSchema(int(spec["labels"]))
    if "types" in spec:
        extra = set(spec) - {"types", "nodes"}
        if extra:
            raise DataError(f"{where}: unexpected schema keys {sorted(extra)}")
        if spec.get("nodes") is not True:
            raise DataError(f"{where}: composite schema requires \"nodes\": true")
        return CompositeSchema(int(spec["types"]))
    raise DataError(f"{where}: schema needs one of features/labels/types")


def _schemas_compatible(a: MarkSchema, b: MarkSchema) -> bool:
    if isinstance(a, CompositeSchema) and isinstance(b, CompositeSchema):
        return a.n_types == b.n_types
    return a == b


def _parse_record(obj: dict, schema: MarkSchema, where: str) -> Event:
    if "t" not in obj:
        raise DataError(f"{where}: record is missing \"t\"")
    t = obj["t"]
    if not isinstance(t, (int, float)) or isinstance(t, bool):
        raise DataError(f"{where}: \"t\" must be a number")
    if isinstance(schema, BinarySchema):
        allowed = {"t", "x"}
        if set(obj) - allowed:
            raise DataError(f"{where}: unexpected keys {sorted(set(obj) - allowed)}")
        active = obj.get("x", [])
        if not isinstance(active, list):
            raise DataError(f"{where}: \"x\" must be a list of feature indices")
        bits = [0] * schema.width
        for idx in active:
            if not isinstance(idx, int) or isinstance(idx, bool) or not 0 <= idx < schema.width:
                raise DataError(f"{where}: feature index {idx!r} outside 0..{schema.width - 1}")
            bits[idx] = 1
        mark: Mark = BinaryMark(tuple(bits))
    elif isinstance(schema, LabelSchema):
        allowed = {"t", "label"}
        if set(obj) - allowed:
            raise DataError(f"{where}: unexpected keys {sorted(set(obj) - allowed)}")
        label = obj.get("label")
        if not isinstance(label, int) or isinstance(label, bool):
            raise DataError(f"{where}: \"label\" must be an integer")
        mark = LabelMark(label)
    else:
        allowed = {"t", "type", "node"}
        if set(obj) - allowed:
            raise DataError(f"{where}: unexpected keys {sorted(set(obj) - allowed)}")
        typ, node = obj.get("type"), obj.get("node")
        if not isinstance(typ, int) or isinstance(typ, bool):
            raise DataError(f"{where}: \"type\" must be an integer")
        if not isinstance(node, str):
            raise DataError(f"{where}: \"node\" must be a string")
        mark = CompositeMark(typ, node)
    return Event(float(t), mark)


def ingest(path: str, schema: MarkSchema | None = None) -> Dataset:
    """Read a JSONL event file into a Dataset.

    The first line may be a header object carrying the horizon "T" and a
    "schema" block; records follow, one JSON object per line. A schema
    must come from the header or the argument (both must agree if given).
    Without a declared horizon the maximum timestamp is used, with a
    warning. All errors name the offending line.
    """
    raw_events: list[Event] = []
    horizon: float | None = None
    units: str | None = None
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    lineno = 0
    body: list[tuple[int, dict]] = []
    for raw in lines:
        lineno += 1
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
            horizon = float(header["T"])
        if "units" in header:
            units = str(header["units"])
        if "schema" in header:
            declared = _schema_from_header(header["schema"], f"{path}:{lineno0}")
            if schema is None:
                schema = declared
            elif not _schemas_compatible(schema, declared):
                raise DataError(f"{path}:{lineno0}: header schema conflicts with the provided one")
    if schema is None:
        raise DataError(f"{path}: no schema declared in the header or provided by the caller")
    for lineno, obj in body:
        ev = _parse_record(obj, schema, f"{path}:{lineno}")
        if ev.t < 0:
            raise DataError(f"{path}:{lineno}: negative timestamp {ev.t}")
        if horizon is not None and ev.t > horizon:
            raise DataError(f"{path}:{lineno}: timestamp {ev.t} beyond declared horizon {horizon}")
        raw_events.append(ev)
    if horizon is None:
        if not raw_events:
            raise DataError(f"{path}: empty file without a declared horizon")
        horizon = max(ev.t for ev in raw_events)
        warnings.warn(f"{path}: no horizon declared, defaulting to max timestamp {horizon!r}")
    return Dataset(raw_events, horizon, schema, units=units)


def _schema_header(schema: MarkSchema) -> dict:
    if isinstance(schema, BinarySchema):
        return {"features": list(schema.features)}
    if isinstance(schema, LabelSchema):
        return {"labels": schema.n_labels}
    return {"types": schema.n_types, "nodes": True}


def _record(ev: Event, schema: MarkSchema) -> dict:
    if isinstance(schema, BinarySchema):
        active = [i for i, b in enumerate(ev.mark.bits) if b]
        return {"t": ev.t, "x": active}
    if isinstance(schema, LabelSchema):
        return {"t": ev.t, "label": ev.mark.label}
    return {"t": ev.t, "type": ev.mark.type, "node": ev.mark.node}


def write_events(d: Dataset, path: str) -> None:
    """Write a Dataset back out as JSONL; ingest(write_events(d)) == d."""
    with open(path, "w", encoding="utf-8") as fh:
        header: dict = {"T": d.horizon, "schema": _schema_header(d.schema)}
        if d.units is not None:
            header["units"] = d.units
        fh.write(json.dumps(header) + "\n")
        for ev in d.events:
            fh.write(json.dumps(_record(ev, d.schema)) + "\n")
