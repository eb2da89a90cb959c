"""Marked event streams: mark schemas, events, datasets, JSONL ingestion.

An event is a timestamp plus a mark. Three mark families are supported:
binary feature vectors (fixed width, named features), categorical labels
(integers 1..L), and composite (type, node) pairs used for graph data.
Each schema class alone knows how its marks are stored: as codes, a
uint8 feature row or a zero-based label (a composite's type) index. It
reads, checks and writes them. Its pattern view is the one map from
events to mark patterns: ``pattern_codes`` (each event's pattern for
transitions and mark distributions), ``fertility_patterns`` (the
distinct parent marks fertility reads, and each event's) and the
simulator's ``fertility_row``. The families read pattern rows and
per-pattern weights, never events. A Dataset stores a time-sorted stream
over a window (start, horizon] as numpy columns, checked once where they
enter; ``Event`` and ``Mark`` objects are a view for the public API.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Union

import numpy as np

from .errors import DataError


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


# Each schema's ``read_records`` takes the (line, object) records in file
# order and checks each in the same order: the time and key checks of
# ``_record_time`` (its common case, a float time and no stray key, is
# tested inline), the mark fields, then ``0 <= t <= limit``. It returns
# the times and the mark columns in file order. The first failing record
# raises at path:line.


@dataclass(frozen=True)
class BinarySchema:
    """Marks are fixed-width binary feature vectors over named features,
    stored as the uint8 rows of ``feature_matrix``; each distinct row is a
    mark pattern, for transitions and fertility alike."""

    features: tuple[str, ...]

    label_count = None

    @property
    def width(self) -> int:
        return len(self.features)

    def header(self) -> dict:
        return {"features": list(self.features)}

    def read_records(self, records: Iterable, path: str, limit: float) -> tuple[list, dict]:
        """Active feature indices, scattered into a uint8 matrix at the end."""
        keys, width, no_indices = frozenset(("t", "x")), self.width, []
        times: list[float] = []
        active: list[int] = []
        counts: list[int] = []
        for lineno, obj in records:
            t = obj.get("t")
            if type(t) is not float or not obj.keys() <= keys:
                t = _record_time(obj, keys, f"{path}:{lineno}")
            x = obj.get("x", no_indices)
            if type(x) is not list:
                raise DataError(f"{path}:{lineno}: \"x\" must be a list of feature indices")
            for idx in x:
                if type(idx) is not int or not 0 <= idx < width:
                    raise DataError(f"{path}:{lineno}: feature index {idx!r} outside "
                                    f"0..{width - 1}")
            if not 0.0 <= t <= limit:
                raise _time_error(t, limit, f"{path}:{lineno}")
            times.append(t)
            active += x
            counts.append(len(x))
        bits = np.zeros((len(times), width), dtype=np.uint8)
        bits[np.repeat(np.arange(len(times)), np.array(counts, dtype=np.int64)),
             np.array(active, dtype=np.int64)] = 1
        return times, {"feature_matrix": bits}

    def code_columns(self, codes) -> dict:
        return {"feature_matrix": np.asarray(codes, np.uint8).reshape(len(codes), self.width)}

    def mark_columns(self, marks: list) -> tuple[dict, list]:
        """The columns of Mark objects (an entry other than 0 or 1 stored as
        2), and the check of their kind and width, as ``value_checks`` gives."""
        wrong = [not isinstance(m, BinaryMark) or len(m.bits) != self.width for m in marks]
        bits = np.array([(0,) * self.width if bad else m.bits for m, bad in zip(marks, wrong)],
                        dtype=object).reshape(len(marks), self.width)
        return (self.code_columns(np.select([bits == 0, bits == 1], [0, 1], 2)),
                [(np.array(wrong, dtype=bool),
                  lambda i: f"mark does not match binary schema of width {self.width}")])

    def value_checks(self, cols: dict, first: int) -> list:
        """(mask, message of row i) of each value check on rows ``first:``."""
        return [((cols["feature_matrix"][first:] > 1).any(axis=1),
                 lambda i: "binary mark entries must be 0 or 1")]

    def marks(self, d: Dataset) -> list[Mark]:
        return [BinaryMark(tuple(row)) for row in d.feature_matrix.tolist()]

    def record_lines(self, d: Dataset):
        """d's JSONL record lines, byte for byte as json.dumps of {"t": ...,
        <mark fields>} and a newline (tolist gives floats and ints: repr)."""
        return ('{"t": %r, "x": %s}\n' % (x, [i for i, b in enumerate(bits) if b])
                for x, bits in zip(d.times.tolist(), d.feature_matrix.tolist()))

    def pattern_codes(self, d: Dataset) -> tuple[np.ndarray, int]:
        """Each event's mark pattern for transitions, and the pattern count."""
        rows, index = d.feature_patterns
        return index, len(rows)

    def fertility_patterns(self, d: Dataset) -> tuple[np.ndarray | None, np.ndarray, int]:
        """The distinct parent marks that fertility reads (None for one
        pattern, as for label marks), each event's pattern and the count."""
        rows, index = d.feature_patterns
        return rows, index, len(rows)

    def fertility_row(self, code: np.ndarray) -> np.ndarray | None:
        """The one-row feature matrix of one code, or None."""
        return code[None, :]


class _Labels:
    """What label and composite schemas share: a mark's code is its label
    (a composite's type) less one, in the ``label_index`` column, and each
    label is a mark pattern for transitions; fertility sees one pattern."""

    def value_checks(self, cols: dict, first: int) -> list:
        code, n = cols["label_index"][first:] + 1, self.label_count
        return [((code < 1) | (code > n), lambda i: f"{self.word} {code[i]} outside 1..{n}")]

    def pattern_codes(self, d: Dataset) -> tuple[np.ndarray, int]:
        return d.label_index, self.label_count

    def fertility_patterns(self, d: Dataset) -> tuple[None, np.ndarray, int]:
        return None, np.zeros(len(d), dtype=np.int64), 1

    def fertility_row(self, code: int) -> None:
        return None

    def _label_codes(self, labels: list, wrong: list, message: str) -> tuple[np.ndarray, list]:
        """Codes of Mark objects' labels (types), and the checks of the mark
        kind (``wrong``) and of a label that is no integer or is a bool."""
        odd = [isinstance(v, bool) or not isinstance(v, (int, np.integer)) for v in labels]
        codes = np.array([1 if bad else v for v, bad in zip(labels, odd)], dtype=object) - 1
        return codes, [(np.array(wrong, dtype=bool), lambda i: message),
                       (np.array(odd, dtype=bool),
                        lambda i: f"{self.word} must be an integer, got {labels[i]!r}")]


@dataclass(frozen=True)
class LabelSchema(_Labels):
    """Marks are categorical labels in 1..n_labels."""

    n_labels: int

    word = "label"

    @property
    def label_count(self) -> int:
        return self.n_labels

    def header(self) -> dict:
        return {"labels": self.n_labels}

    def read_records(self, records: Iterable, path: str, limit: float) -> tuple[list, dict]:
        keys = frozenset(("t", "label"))
        times: list[float] = []
        labels: list[int] = []
        for lineno, obj in records:
            t = obj.get("t")
            if type(t) is not float or not obj.keys() <= keys:
                t = _record_time(obj, keys, f"{path}:{lineno}")
            label = obj.get("label")
            if type(label) is not int:
                raise DataError(f"{path}:{lineno}: \"label\" must be an integer")
            if not 0.0 <= t <= limit:
                raise _time_error(t, limit, f"{path}:{lineno}")
            times.append(t)
            labels.append(label)
        return times, {"label_index": _codes(labels) - 1}

    def code_columns(self, codes) -> dict:
        """The label codes of Mark objects stay Python ints until ``_check_rows``."""
        return {"label_index": np.asarray(codes)}

    def mark_columns(self, marks: list) -> tuple[dict, list]:
        wrong = [not isinstance(m, LabelMark) for m in marks]
        labels = [None if bad else m.label for m, bad in zip(marks, wrong)]
        codes, checks = self._label_codes(labels, wrong, "expected a label mark")
        return self.code_columns(codes), checks

    def marks(self, d: Dataset) -> list[Mark]:
        return list(map(LabelMark, (d.label_index + 1).tolist()))

    def record_lines(self, d: Dataset):
        return ('{"t": %r, "label": %r}\n' % row
                for row in zip(d.times.tolist(), (d.label_index + 1).tolist()))


@dataclass(frozen=True)
class CompositeSchema(_Labels):
    """Marks pair a categorical type (1..n_types) with a node id string.

    If ``nodes`` is given, every event's node must belong to it.
    """

    n_types: int
    nodes: frozenset[str] | None = None

    word = "type"

    @property
    def label_count(self) -> int:
        return self.n_types

    def header(self) -> dict:
        return {"types": self.n_types, "nodes": True}

    def read_records(self, records: Iterable, path: str, limit: float) -> tuple[list, dict]:
        keys = frozenset(("t", "type", "node"))
        times: list[float] = []
        types: list[int] = []
        nodes: list[str] = []
        for lineno, obj in records:
            t = obj.get("t")
            if type(t) is not float or not obj.keys() <= keys:
                t = _record_time(obj, keys, f"{path}:{lineno}")
            typ, node = obj.get("type"), obj.get("node")
            if type(typ) is not int:
                raise DataError(f"{path}:{lineno}: \"type\" must be an integer")
            if type(node) is not str:
                raise DataError(f"{path}:{lineno}: \"node\" must be a string")
            if not 0.0 <= t <= limit:
                raise _time_error(t, limit, f"{path}:{lineno}")
            times.append(t)
            types.append(typ)
            nodes.append(node)
        return times, self.code_columns(_codes(types) - 1, nodes)

    def code_columns(self, codes, nodes) -> dict:
        return {"label_index": np.asarray(codes), "node_ids": np.array(nodes, dtype=object)}

    def mark_columns(self, marks: list) -> tuple[dict, list]:
        wrong = [not isinstance(m, CompositeMark) for m in marks]
        types = [None if bad else m.type for m, bad in zip(marks, wrong)]
        codes, checks = self._label_codes(types, wrong, "expected a (type, node) mark")
        nodes = ["" if bad else m.node for m, bad in zip(marks, wrong)]
        checks.append((np.array([not isinstance(v, str) for v in nodes], dtype=bool),
                       lambda i: f"node must be a string, got {nodes[i]!r}"))
        return self.code_columns(codes, nodes), checks

    def value_checks(self, cols: dict, first: int) -> list:
        checks = super().value_checks(cols, first)
        if self.nodes is not None:
            nodes = cols["node_ids"][first:]
            checks.append((np.array([v not in self.nodes for v in nodes], dtype=bool),
                           lambda i: f"unknown node id {nodes[i]!r}"))
        return checks

    def marks(self, d: Dataset) -> list[Mark]:
        return list(map(CompositeMark, (d.label_index + 1).tolist(), d.node_ids.tolist()))

    def record_lines(self, d: Dataset):
        return ('{"t": %r, "type": %r, "node": %s}\n' % (x, k, json.dumps(v)) for x, k, v in
                zip(d.times.tolist(), (d.label_index + 1).tolist(), d.node_ids.tolist()))


MarkSchema = Union[BinarySchema, LabelSchema, CompositeSchema]


def _check_rows(cols: dict, horizon, schema: MarkSchema, start, mark_checks: list = (),
                first: int = 0) -> None:
    """Check the window, then raise the DataError of the first faulty row
    (in time order) from ``first`` on, for the first check it fails: time,
    the checks on Mark objects (``mark_checks``, from ``mark_columns``,
    over those rows), then the schema's ``value_checks``. Label codes that
    pass are stored as int64."""
    if not np.isfinite(horizon) or horizon < 0:
        raise DataError(f"horizon must be finite and nonnegative, got {horizon}")
    if start < 0 or start > horizon:
        raise DataError(f"window start {start} outside [0, {horizon}]")
    t = cols["times"][first:]
    checks = [(~np.isfinite(t) | (t < 0),
               lambda i: f"timestamp {t[i]} is not finite and nonnegative"),
              (t > horizon, lambda i: f"timestamp {t[i]} beyond horizon {horizon}")]
    checks += [*mark_checks, *schema.value_checks(cols, first)]
    fault = np.logical_or.reduce([mask for mask, _ in checks])
    if fault.any():
        i = int(fault.argmax())
        raise DataError(f"event {first + i}: " + next(msg(i) for mask, msg in checks if mask[i]))
    if "label_index" in cols:
        cols["label_index"] = cols["label_index"].astype(np.int64)


class Dataset:
    """Time-sorted events over an observation window (start, horizon],
    stored as columns: ``times`` and the schema's mark columns.

    Events passed to the constructor are stable-sorted by timestamp, so
    equal timestamps keep their input order, and checked; an event's id
    is its sorted rank. ``start`` is nonzero only for split tails, where
    the dataset represents the window (start, horizon] of a longer stream.
    """

    def __init__(self, events: Iterable[Event], horizon: float, schema: MarkSchema,
                 start: float = 0.0, units: str | None = None):
        events = sorted(events, key=lambda ev: ev.t)
        cols, checks = schema.mark_columns([ev.mark for ev in events])
        cols["times"] = np.array([ev.t for ev in events], dtype=np.float64)
        _check_rows(cols, horizon, schema, start, checks)
        self._cols, self.horizon, self.schema, self.start, self.units = (
            cols, float(horizon), schema, float(start), units)

    @classmethod
    def _of(cls, cols: dict, horizon, schema, start=0.0, units=None) -> "Dataset":
        """A dataset over columns that are already sorted and checked."""
        out = cls.__new__(cls)
        out._cols, out.horizon, out.schema, out.start, out.units = (
            cols, float(horizon), schema, float(start), units)
        return out

    def _rows(self, index, horizon=None, start=None) -> "Dataset":
        """The rows at ``index`` (a slice or ascending positions), unchecked."""
        return Dataset._of({name: col[index] for name, col in self._cols.items()},
                           self.horizon if horizon is None else horizon, self.schema,
                           self.start if start is None else start, self.units)

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self):
        return iter(self.events)

    @property
    def events(self) -> list[Event]:
        """The events as Event objects, built from the columns on each
        access (take the list once rather than index it in a loop)."""
        return list(map(Event, self.times.tolist(), self.schema.marks(self), range(len(self))))

    def _column(self, name: str, needs: str) -> np.ndarray:
        if name not in self._cols:
            raise DataError(f"{name} requires {needs}")
        return self._cols[name]

    @property
    def times(self) -> np.ndarray:
        return self._cols["times"]

    @property
    def feature_matrix(self) -> np.ndarray:
        """(N, F) 0/1 matrix for binary schemas."""
        return self._column("feature_matrix", "a binary schema")

    @cached_property
    def feature_patterns(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct rows of the feature matrix in lexicographic order, as
        ``np.unique(axis=0)`` gives them, and each event's row index.

        Each row is packed, first feature in the highest bit, into
        big-endian 64-bit words, so the words' integer order is the rows'
        lexicographic order; a stable sort over the words finds the rows.
        """
        X = self.feature_matrix
        n, width = X.shape
        packed = np.zeros((n, max(1, -(-width // 64)) * 8), dtype=np.uint8)
        packed[:, :-(-width // 8)] = np.packbits(X, axis=1)
        words = packed.view(">u8")
        order = np.lexsort(words.T[::-1])  # the first word is the primary key
        ranked = words[order]
        first = np.ones(n, dtype=bool)
        first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
        index = np.empty(n, dtype=np.int64)
        index[order] = np.cumsum(first) - 1
        return X[order[first]], index

    @property
    def label_index(self) -> np.ndarray:
        """(N,) zero-based label (or composite type) indices."""
        return self._column("label_index", "a label or composite schema")

    @property
    def node_ids(self) -> np.ndarray:
        return self._column("node_ids", "a composite schema")

    @cached_property
    def node_codes(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct node ids (sorted), and each event's index into them."""
        return np.unique(self.node_ids, return_inverse=True)

    @cached_property
    def source_pools(self) -> dict:
        """Per tuple of node ids: a read-only mask of the events at those
        nodes and their indices. The engine fills it on first use; a
        subset or merged dataset starts with an empty one."""
        return {}

    @cached_property
    def window_exposures(self) -> dict:
        """Per (component name, sources, a, b): the delay last asked for,
        and, per fertility pattern, whether some event of it may parent
        children in the window (a, b] and the delay mass they put there
        under that delay, both read-only. The engine fills it on first use; a subset or merged
        dataset starts with an empty one."""
        return {}

    @property
    def n_label_values(self) -> int:
        n = self.schema.label_count
        if n is None:
            raise DataError("schema has no label dimension")
        return n

    def subset(self, index: np.ndarray) -> "Dataset":
        """The events at ``index`` (strictly increasing positions), same
        window; they were checked when this dataset was built."""
        index = np.asarray(index, dtype=np.int64)
        if index.size and np.any(np.diff(index) <= 0):
            raise DataError("subset index must be strictly increasing")
        if index.size and not 0 <= index[0] <= index[-1] < len(self):
            raise DataError(f"subset index outside [0, {len(self)})")
        return self._rows(index)

    def merge_history(self, history: "Dataset") -> "Dataset":
        """Prepend earlier events so likelihoods can condition on them."""
        if history.schema != self.schema:
            raise DataError("history schema differs from dataset schema")
        if len(history) and history.times[-1] > self.start:
            raise DataError("history extends past the dataset window start")
        return Dataset._of({name: np.concatenate([history._cols[name], col])
                            for name, col in self._cols.items()},
                           self.horizon, self.schema, self.start, self.units)

    def _with_query(self, lo: int, hi: int, t: float, mark: Mark) -> "Dataset":
        """Rows lo:hi, which precede t, then the event (t, mark), over the
        window (0, t]; only the new event is checked."""
        cols, checks = self.schema.mark_columns([mark])
        cols["times"] = np.array([t], dtype=np.float64)
        cols = {name: np.concatenate([self._cols[name][lo:hi], col])
                for name, col in cols.items()}
        _check_rows(cols, t, self.schema, 0.0, checks, first=hi - lo)
        return Dataset._of(cols, t, self.schema)


def split(d: Dataset, fraction: float) -> tuple[Dataset, Dataset]:
    """Split temporally at fraction * horizon, cut time going to train.

    Train covers [0, c] and test covers (c, horizon] with c = fraction *
    horizon. An event exactly at the cut lands in train. Test evaluation
    is expected to condition on the train history (see merge_history).
    """
    if not 0.0 < fraction < 1.0:
        raise DataError(f"split fraction must be in (0, 1), got {fraction}")
    cut = fraction * d.horizon
    if d.start > cut:
        raise DataError(f"window start {d.start} outside [0, {cut}]")
    k = int(np.searchsorted(d.times, cut, side="right"))
    return d._rows(slice(0, k), horizon=cut), d._rows(slice(k, None), start=cut)


_HEADER_KEYS = {"T", "schema", "units"}


def _schema_from_header(spec: dict, where: str) -> MarkSchema:
    if not isinstance(spec, dict):
        raise DataError(f"{where}: schema must be an object")
    kind = next((k for k in ("features", "labels", "types") if k in spec), None)
    if kind is None:
        raise DataError(f"{where}: schema needs one of features/labels/types")
    extra = set(spec) - {kind} - ({"nodes"} if kind == "types" else set())
    if extra:
        raise DataError(f"{where}: unexpected schema keys {sorted(extra)}")
    value = spec[kind]
    if kind != "features" and (not isinstance(value, int) or isinstance(value, bool)
                               or value < 1):
        raise DataError(f"{where}: \"{kind}\" must be a positive integer, got {value!r}")
    if kind == "labels":
        return LabelSchema(value)
    if kind == "types":
        if spec.get("nodes") is not True:
            raise DataError(f"{where}: composite schema requires \"nodes\": true")
        return CompositeSchema(value)
    if not isinstance(value, list) or not all(isinstance(n, str) for n in value):
        raise DataError(f"{where}: features must be a list of names")
    return BinarySchema(tuple(value))


def _time(value, where: str, key: str) -> float:
    """A JSON number as a float; an integer beyond the float range is a
    DataError, not an OverflowError."""
    try:
        return float(value)
    except OverflowError:
        raise DataError(f"{where}: \"{key}\" is too large for a float") from None


def _jsonl_objects(path: str):
    """(line number, object) for each non-blank line of a JSONL file, in
    file order; blank lines count toward the numbering. Each line is one
    ``raw_decode`` call that must reach the end of the stripped line. A line
    that is not one JSON object raises DataError at path:line, with
    ``json.loads``'s message for malformed JSON."""
    decode = json.JSONDecoder().raw_decode
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text:
                continue
            try:
                obj, end = decode(text)
            except json.JSONDecodeError:
                end = -1
            if end != len(text):
                try:  # json.loads raises with the message a whole-line decode gives
                    obj = json.loads(text)
                except json.JSONDecodeError as exc:
                    raise DataError(f"{path}:{lineno}: malformed JSON ({exc.msg})") from exc
            if not isinstance(obj, dict):
                raise DataError(f"{path}:{lineno}: expected a JSON object")
            yield lineno, obj


def _record_time(obj: dict, keys: frozenset, where: str) -> float:
    """The record's time, after the checks every schema makes first, in
    order: "t" is present, a number (not a bool) and within the float
    range; then the record has no key outside ``keys``."""
    if "t" not in obj:
        raise DataError(f"{where}: record is missing \"t\"")
    t = obj["t"]
    if not isinstance(t, (int, float)) or isinstance(t, bool):
        raise DataError(f"{where}: \"t\" must be a number")
    t = _time(t, where, "t")
    if not obj.keys() <= keys:
        raise DataError(f"{where}: unexpected keys {sorted(set(obj) - keys)}")
    return t


def _time_error(t: float, limit: float, where: str) -> DataError:
    """Why a record time failed ``0 <= t <= limit``: not finite, negative,
    or beyond the declared horizon, which is the limit when one is declared
    (otherwise it is the largest float, which no finite time exceeds)."""
    if not math.isfinite(t):
        return DataError(f"{where}: timestamp {t} is not finite")
    if t < 0:
        return DataError(f"{where}: negative timestamp {t}")
    return DataError(f"{where}: timestamp {t} beyond declared horizon {limit}")


def _codes(values: list) -> np.ndarray:
    """Label or type codes as int64; an object array of Python ints when
    one overflows int64, so ``_check_rows`` can name it."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _read_header(header: dict, schema: MarkSchema | None, where: str):
    """The horizon (None if not declared), units and schema of a header
    line; a schema passed by the caller must agree with a declared one."""
    horizon: float | None = None
    extra = set(header) - _HEADER_KEYS
    if extra:
        raise DataError(f"{where}: unexpected header keys {sorted(extra)}")
    if "T" in header:
        T = header["T"]
        if not isinstance(T, (int, float)) or isinstance(T, bool):
            raise DataError(f"{where}: \"T\" must be a number, got {T!r}")
        horizon = _time(T, where, "T")
        if not math.isfinite(horizon):
            raise DataError(f"{where}: \"T\" must be finite, got {horizon}")
    units = str(header["units"]) if "units" in header else None
    if "schema" in header:
        declared = _schema_from_header(header["schema"], where)
        if schema is None:
            schema = declared
        elif schema.header() != declared.header():  # a header names no composite nodes
            raise DataError(f"{where}: header schema conflicts with the provided one")
    return horizon, units, schema


def ingest(path: str, schema: MarkSchema | None = None) -> Dataset:
    """Read a JSONL event file into a Dataset.

    The first line may be a header object carrying the horizon "T" and a
    "schema" block; records follow, one JSON object per line. A schema
    must come from the header or the argument (both must agree if given).
    Without a declared horizon the maximum timestamp is used, with a
    warning. Times must be finite. All errors name the offending line.

    Lines are decoded and read in one pass: the schema's record reader
    collects each record's time and mark into lists, and the columns are
    built from them once (binary marks by one scatter of the active
    indices), so no decoded record is kept. A malformed line is still
    reported before any header or record fault, wherever it is: after a
    fault the rest of the file is decoded before the fault is raised.
    """
    horizon: float | None = None
    units: str | None = None
    objects = _jsonl_objects(path)
    try:
        first = next(objects, None)
        if first is not None and "t" not in first[1]:
            horizon, units, schema = _read_header(first[1], schema, f"{path}:{first[0]}")
            first = None
        if schema is None:
            raise DataError(f"{path}: no schema declared in the header or provided by the caller")
        limit = sys.float_info.max if horizon is None else horizon
        records = objects if first is None else itertools.chain((first,), objects)
        times, cols = schema.read_records(records, path, limit)
    except DataError:
        for _ in objects:  # raises at the first malformed line after the fault
            pass
        raise
    if horizon is None:
        if not times:
            raise DataError(f"{path}: empty file without a declared horizon")
        # the first of equal maxima in file order, so of 0.0 and -0.0 too
        horizon = max(times)
        warnings.warn(f"{path}: no horizon declared, defaulting to max timestamp {horizon!r}")
    times = np.array(times, dtype=np.float64)
    order = np.argsort(times, kind="stable")
    cols = {name: col[order] for name, col in cols.items()}
    cols["times"] = times[order]
    _check_rows(cols, horizon, schema, 0.0)
    return Dataset._of(cols, horizon, schema, units=units)


def write_events(d: Dataset, path: str) -> None:
    """Write a Dataset back out as JSONL; ingest(write_events(d)) == d."""
    with open(path, "w", encoding="utf-8") as fh:
        header: dict = {"T": d.horizon, "schema": d.schema.header()}
        if d.units is not None:
            header["units"] = d.units
        fh.write(json.dumps(header) + "\n")
        fh.writelines(d.schema.record_lines(d))
