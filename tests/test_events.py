import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascades import (BinaryMark, BinarySchema, CategoricalMatrix, CompositeMark,
                      CompositeSchema, DataError, Dataset, Event, IdentityTransition, LabelMark,
                      LabelSchema, ingest, split, write_events)

import oracles


def bm(*bits):
    return BinaryMark(tuple(bits))


SCHEMA2 = BinarySchema(("a", "b"))


def test_events_sorted_and_ids_reassigned():
    d = Dataset([Event(3.0, bm(0, 1)), Event(1.0, bm(1, 0)), Event(2.0, bm(1, 1))],
                horizon=5.0, schema=SCHEMA2)
    assert [ev.t for ev in d] == [1.0, 2.0, 3.0]
    assert [ev.id for ev in d] == [0, 1, 2]


def test_equal_times_keep_input_order():
    d = Dataset([Event(1.0, bm(0, 0)), Event(1.0, bm(1, 1)), Event(0.5, bm(0, 1))],
                horizon=2.0, schema=SCHEMA2)
    assert d.events[1].mark == bm(0, 0)
    assert d.events[2].mark == bm(1, 1)


def test_dataset_validation_errors():
    with pytest.raises(DataError):
        Dataset([Event(-1.0, bm(0, 0))], horizon=2.0, schema=SCHEMA2)
    with pytest.raises(DataError):
        Dataset([Event(3.0, bm(0, 0))], horizon=2.0, schema=SCHEMA2)
    with pytest.raises(DataError):
        Dataset([Event(1.0, LabelMark(1))], horizon=2.0, schema=SCHEMA2)
    with pytest.raises(DataError):
        Dataset([Event(1.0, bm(0, 2))], horizon=2.0, schema=SCHEMA2)
    with pytest.raises(DataError):
        Dataset([], horizon=1.0, schema=SCHEMA2, start=2.0)


def test_label_bounds_checked():
    with pytest.raises(DataError):
        Dataset([Event(0.5, LabelMark(4))], horizon=1.0, schema=LabelSchema(3))
    with pytest.raises(DataError):
        Dataset([Event(0.5, LabelMark(0))], horizon=1.0, schema=LabelSchema(3))


def test_columnar_views():
    d = Dataset([Event(1.0, bm(1, 0)), Event(2.0, bm(0, 1))], horizon=3.0,
                schema=SCHEMA2)
    assert np.array_equal(d.times, [1.0, 2.0])
    assert np.array_equal(d.feature_matrix, [[1, 0], [0, 1]])
    patterns = d.feature_patterns[1]
    assert patterns[0] != patterns[1]
    d2 = Dataset([Event(1.0, bm(1, 0)), Event(2.0, bm(1, 0))], horizon=3.0,
                 schema=SCHEMA2)
    assert d2.feature_patterns[1][0] == d2.feature_patterns[1][1]


def test_composite_codes_compare_types_only():
    schema = CompositeSchema(2, frozenset({"u", "v"}))
    d = Dataset([Event(1.0, CompositeMark(1, "u")), Event(2.0, CompositeMark(1, "v")),
                 Event(3.0, CompositeMark(2, "u"))], horizon=4.0, schema=schema)
    # a composite mark's pattern is its type: identity transitions compare
    # the type coordinate only, and a categorical matrix's statistic bins
    # (parent type, child type) pairs
    codes = d.schema.pattern_codes(d)[0]
    assert codes.tolist() == [0, 0, 1]
    parents, children = codes[[0, 0]], codes[[1, 2]]
    same = IdentityTransition().g_pairs(d, max_table=0)(parents, children)
    assert same.tolist() == [1.0, 0.0]
    cat = CategoricalMatrix(((0.5, 0.5), (0.5, 0.5)))
    assert cat.stats(d, parents, children, np.array([0.25, 2.0])).tolist() == \
        [[0.25, 2.0], [0.0, 0.0]]
    assert list(d.node_ids) == ["u", "v", "u"]


def test_split_cut_event_goes_to_train():
    d = Dataset([Event(t, LabelMark(1)) for t in (1.0, 5.0, 7.5)], horizon=10.0,
                schema=LabelSchema(1))
    train, test = split(d, 0.5)
    assert [ev.t for ev in train] == [1.0, 5.0]
    assert train.horizon == 5.0 and train.start == 0.0
    assert [ev.t for ev in test] == [7.5]
    assert test.start == 5.0 and test.horizon == 10.0
    with pytest.raises(DataError):
        split(d, 1.0)


def test_merge_history_prepends():
    d = Dataset([Event(1.0, LabelMark(1))], horizon=4.0, schema=LabelSchema(1))
    train, test = split(Dataset([Event(t, LabelMark(1)) for t in (0.5, 3.0)],
                                horizon=4.0, schema=LabelSchema(1)), 0.5)
    merged = test.merge_history(train)
    assert [ev.t for ev in merged] == [0.5, 3.0]
    assert merged.start == 2.0
    with pytest.raises(DataError):
        train.merge_history(test)  # history after window start
    # an empty window takes no history from inside it or past its horizon
    for horizon, late in ((4.0, test), (0.75, d)):
        empty = Dataset([], horizon=horizon, schema=LabelSchema(1), start=0.25)
        with pytest.raises(DataError, match="history extends past the dataset window start"):
            empty.merge_history(late)


def test_subset_requires_increasing_index():
    d = Dataset([Event(t, LabelMark(1)) for t in (1.0, 2.0, 3.0)], horizon=4.0,
                schema=LabelSchema(1))
    sub = d.subset(np.array([0, 2]))
    assert [ev.t for ev in sub] == [1.0, 3.0]
    with pytest.raises(DataError):
        d.subset(np.array([2, 0]))


@pytest.mark.parametrize("schema, marks", [
    (CompositeSchema(2, frozenset({"u", "v"})),
     [CompositeMark(1, "u"), CompositeMark(2, "v"), CompositeMark(2, "u")]),
    (SCHEMA2, [bm(1, 0), bm(0, 1), bm(1, 1)])])
def test_subset_matches_a_freshly_built_dataset(schema, marks):
    events = [Event(0.5 * k, marks[k % 3]) for k in range(9)]
    d = Dataset(events, horizon=5.0, schema=schema, start=0.25, units="days")
    index = np.array([1, 2, 5, 8])
    columns = (("times", "node_ids", "label_index") if isinstance(schema, CompositeSchema)
               else ("times", "feature_matrix"))
    for _ in range(2):  # first without, then with the parent's columns computed
        sub = d.subset(index)
        fresh = Dataset([events[i] for i in index], horizon=5.0, schema=schema,
                        start=0.25, units="days")
        assert sub.events == fresh.events
        assert (sub.horizon, sub.schema, sub.start, sub.units) == (
            fresh.horizon, fresh.schema, fresh.start, fresh.units)
        for name in columns:
            np.testing.assert_array_equal(getattr(sub, name), getattr(fresh, name))
            getattr(d, name)


def test_ingest_roundtrip_binary(tmp_path):
    d = Dataset([Event(0.25, bm(1, 0)), Event(1.5, bm(1, 1))], horizon=2.0,
                schema=SCHEMA2, units="days")
    path = tmp_path / "events.jsonl"
    write_events(d, str(path))
    back = ingest(str(path))
    assert back.horizon == d.horizon
    assert back.schema == d.schema
    assert back.units == "days"
    assert [(ev.t, ev.mark) for ev in back] == [(ev.t, ev.mark) for ev in d]


def test_ingest_roundtrip_composite(tmp_path):
    schema = CompositeSchema(3, frozenset({"x", "y"}))
    d = Dataset([Event(0.5, CompositeMark(2, "x")), Event(0.75, CompositeMark(3, "y"))],
                horizon=1.0, schema=schema)
    path = tmp_path / "events.jsonl"
    write_events(d, str(path))
    back = ingest(str(path))
    assert [(ev.t, ev.mark.type, ev.mark.node) for ev in back] == \
        [(0.5, 2, "x"), (0.75, 3, "y")]


def test_write_events_rows_are_json_dumps_bytes(tmp_path):
    # every record line is exactly json.dumps of the record, whatever the
    # time's type or the node id's characters
    node = 'n"\\ü '
    cases = [
        (LabelSchema(3), [Event(1, LabelMark(2)), Event(np.float64(2.5), LabelMark(1)),
                          Event(0.1 + 0.2, LabelMark(3))],
         lambda ev: {"t": ev.t, "label": ev.mark.label}),
        (SCHEMA2, [Event(1e-300, bm(0, 0)), Event(3.0, bm(1, 1)), Event(1e17, bm(0, 1))],
         lambda ev: {"t": ev.t, "x": [i for i, b in enumerate(ev.mark.bits) if b]}),
        (CompositeSchema(2), [Event(0.5, CompositeMark(1, node)), Event(2, CompositeMark(2, "x"))],
         lambda ev: {"t": ev.t, "type": ev.mark.type, "node": ev.mark.node}),
    ]
    for schema, events, record in cases:
        d = Dataset(events, horizon=1e18, schema=schema)
        path = tmp_path / "events.jsonl"
        write_events(d, str(path))
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        assert lines[1:] == [json.dumps(record(ev)) + "\n" for ev in d]


def test_ingest_errors_name_path_and_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"T": 5.0, "schema": {"labels": 2}}\n{"t": 1.0, "label": 1}\nnot json\n')
    with pytest.raises(DataError, match=r"bad\.jsonl:3"):
        ingest(str(path))

    path.write_text('{"T": 5.0, "schema": {"labels": 2}}\n{"t": 1.0, "label": 1, "zzz": 2}\n')
    with pytest.raises(DataError, match="zzz"):
        ingest(str(path))

    path.write_text('{"T": 5.0, "schema": {"labels": 2}}\n{"t": -1.0, "label": 1}\n')
    with pytest.raises(DataError, match=r"bad\.jsonl:2"):
        ingest(str(path))

    path.write_text('{"T": 5.0, "schema": {"labels": 2}}\n{"t": 7.0, "label": 1}\n')
    with pytest.raises(DataError, match="horizon"):
        ingest(str(path))

    # an integer time beyond the float range
    path.write_text('{"T": 5.0, "schema": {"labels": 2}}\n{"t": 1%s, "label": 1}\n' % ("0" * 400))
    with pytest.raises(DataError, match=r'bad\.jsonl:2: "t" is too large for a float'):
        ingest(str(path))


def test_ingest_without_horizon_warns(tmp_path):
    path = tmp_path / "nohdr.jsonl"
    rows = [json.dumps({"t": t, "label": 1}) for t in (0.5, 2.0)]
    path.write_text("{}\n".replace("{}", json.dumps({"schema": {"labels": 1}}))
                    + "\n".join(rows) + "\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        d = ingest(str(path))
    assert d.horizon == 2.0
    assert any("horizon" in str(w.message) for w in caught)


# ---------------------------------------------------------------------------
# columns are the data: slices match fresh builds, checks match the old loop


def _check_mark(mark, schema, where):
    """The per-row mark check datasets ran before they were columnar,
    kept as the oracle for the column validator's messages."""
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


def _oracle_error(events, horizon, schema, start=0.0):
    """The message of the old per-row constructor loop, or None."""
    events = sorted(events, key=lambda e: e.t)
    if not np.isfinite(horizon) or horizon < 0:
        return f"horizon must be finite and nonnegative, got {horizon}"
    if start < 0 or start > horizon:
        return f"window start {start} outside [0, {horizon}]"
    for i, ev in enumerate(events):
        if not np.isfinite(ev.t) or ev.t < 0:
            return f"event {i}: timestamp {ev.t} is not finite and nonnegative"
        if ev.t > horizon:
            return f"event {i}: timestamp {ev.t} beyond horizon {horizon}"
        try:
            _check_mark(ev.mark, schema, f"event {i}")
        except DataError as exc:
            return str(exc)
    return None


def _built_error(events, horizon, schema, start=0.0):
    try:
        Dataset(events, horizon, schema, start=start)
    except DataError as exc:
        return str(exc)
    return None


COMPOSITE = CompositeSchema(3, frozenset({"u", "v"}))
SCHEMAS = {"binary": SCHEMA2, "label": LabelSchema(3), "composite": COMPOSITE}
GOOD_MARKS = {"binary": [bm(0, 0), bm(1, 0), bm(0, 1), bm(1, 1)],
              "label": [LabelMark(k) for k in (1, 2, 3)],
              "composite": [CompositeMark(k, v) for k in (1, 2, 3) for v in ("u", "v")]}
BAD_MARKS = {"binary": [LabelMark(1), bm(1), bm(0, 1, 1), bm(0, 2), bm(1, "1"), bm(-1, 0)],
             "label": [LabelMark(0), LabelMark(4), LabelMark(-2), bm(1, 0),
                       CompositeMark(1, "u")],
             "composite": [CompositeMark(0, "u"), CompositeMark(4, "v"),
                           CompositeMark(1, "w"), LabelMark(1), bm(0, 1)]}
GOOD_TIMES = [0.0, 0.5, 1.0, 1.0, 2.5, 4.0]
BAD_TIMES = [-1.0, -0.0001, float("nan"), float("inf"), -float("inf"), 4.5, 7.0]


@st.composite
def faulty_streams(draw):
    kind = draw(st.sampled_from(sorted(SCHEMAS)))
    n = draw(st.integers(0, 8))
    times = [draw(st.sampled_from(GOOD_TIMES)) for _ in range(n)]
    marks = [draw(st.sampled_from(GOOD_MARKS[kind])) for _ in range(n)]
    for _ in range(draw(st.integers(0, 3))):  # zero, one or several faults
        if n and draw(st.booleans()):
            times[draw(st.integers(0, n - 1))] = draw(st.sampled_from(BAD_TIMES))
        elif n:
            marks[draw(st.integers(0, n - 1))] = draw(st.sampled_from(BAD_MARKS[kind]))
    return kind, [Event(t, m) for t, m in zip(times, marks)]


@given(faulty_streams())
@settings(max_examples=400, deadline=None)
def test_constructor_errors_match_the_per_row_loop(case):
    kind, events = case
    assert _built_error(events, 4.0, SCHEMAS[kind]) == _oracle_error(events, 4.0, SCHEMAS[kind])


@pytest.mark.parametrize("kind, events, message", [
    ("label", [Event(1.0, LabelMark(2)), Event(0.5, LabelMark(4))],
     "event 0: label 4 outside 1..3"),
    ("label", [Event(1.0, LabelMark(2)), Event(2.0, bm(1, 0))], "event 1: expected a label mark"),
    ("binary", [Event(1.0, bm(1, 0, 1))], "event 0: mark does not match binary schema of width 2"),
    ("binary", [Event(1.0, bm(1, 0)), Event(1.0, bm(0, 2))],
     "event 1: binary mark entries must be 0 or 1"),
    ("composite", [Event(3.0, CompositeMark(5, "u"))], "event 0: type 5 outside 1..3"),
    ("composite", [Event(3.0, CompositeMark(1, "w"))], "event 0: unknown node id 'w'"),
    ("composite", [Event(0.5, CompositeMark(1, "u")), Event(3.0, LabelMark(1))],
     "event 1: expected a (type, node) mark"),
    ("label", [Event(2.0, LabelMark(1)), Event(-1.0, LabelMark(1))],
     "event 0: timestamp -1.0 is not finite and nonnegative"),
    ("label", [Event(float("nan"), LabelMark(1))],
     "event 0: timestamp nan is not finite and nonnegative"),
    ("label", [Event(5.0, LabelMark(1))], "event 0: timestamp 5.0 beyond horizon 4.0"),
    # several faults: the first in time order wins, and within an event
    # the time is checked before the mark
    ("label", [Event(3.0, LabelMark(9)), Event(7.0, bm(0)), Event(1.0, LabelMark(0))],
     "event 0: label 0 outside 1..3"),
    ("label", [Event(9.0, LabelMark(9)), Event(1.0, LabelMark(1))],
     "event 1: timestamp 9.0 beyond horizon 4.0"),
    # ties keep their input order
    ("label", [Event(1.0, LabelMark(1)), Event(1.0, LabelMark(7)), Event(1.0, LabelMark(8))],
     "event 1: label 7 outside 1..3"),
])
def test_single_and_multi_fault_messages(kind, events, message):
    assert _oracle_error(events, 4.0, SCHEMAS[kind]) == message
    with pytest.raises(DataError) as exc:
        Dataset(events, 4.0, SCHEMAS[kind])
    assert str(exc.value) == message


def test_window_errors_match_the_per_row_loop():
    for horizon, start in ((float("nan"), 0.0), (-1.0, 0.0), (2.0, 3.0), (2.0, -1.0)):
        assert _built_error([], horizon, SCHEMAS["label"], start) == _oracle_error(
            [], horizon, SCHEMAS["label"], start)
    with pytest.raises(DataError, match=r"^window start 3.0 outside \[0, 2.5\]$"):
        split(Dataset([], 10.0, SCHEMAS["label"], start=3.0), 0.25)


def test_ingest_range_errors_match_the_per_row_loop(tmp_path):
    path = tmp_path / "e.jsonl"
    rows = [{"t": 2.0, "label": 1}, {"t": 1.0, "label": 5}, {"t": 0.5, "label": 2},
            {"t": 1.0, "label": 0}]
    path.write_text(json.dumps({"T": 4.0, "schema": {"labels": 3}}) + "\n"
                    + "".join(json.dumps(r) + "\n" for r in rows))
    events = [Event(float(r["t"]), LabelMark(r["label"])) for r in rows]
    with pytest.raises(DataError) as exc:
        ingest(str(path))
    assert str(exc.value) == _oracle_error(events, 4.0, LabelSchema(3)) == \
        "event 1: label 5 outside 1..3"
    nodes = CompositeSchema(2, frozenset({"a"}))
    assert _built_error([Event(1.0, CompositeMark(3, "b"))], 2.0, nodes) == \
        "event 0: type 3 outside 1..2"


def _streams(kind):
    times = st.lists(st.sampled_from([0.0, 0.25, 1.0, 1.0, 2.5, 3.0, 4.75, 6.0, 8.0]),
                     max_size=12)
    return st.tuples(times, st.lists(st.sampled_from(GOOD_MARKS[kind]), min_size=12,
                                     max_size=12))


def _assert_same(d, fresh):
    assert d.events == fresh.events
    assert (d.horizon, d.schema, d.start, d.units) == (fresh.horizon, fresh.schema,
                                                       fresh.start, fresh.units)
    for name in ("times", "label_index", "node_ids", "feature_matrix"):
        try:
            want = getattr(fresh, name)
        except DataError:
            with pytest.raises(DataError):
                getattr(d, name)
            continue
        got = getattr(d, name)
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("kind", sorted(SCHEMAS))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_slices_match_datasets_built_from_events(kind, data):
    times, marks = data.draw(_streams(kind))
    schema = SCHEMAS[kind]
    events = [Event(t, m) for t, m in zip(times, marks)]
    d = Dataset(events, 8.0, schema, units="s")
    evs = d.events  # sorted, with ids
    fraction = data.draw(st.sampled_from([0.1, 0.3125, 0.5, 0.75]))
    train, test = split(d, fraction)
    cut = fraction * 8.0
    _assert_same(train, Dataset([ev for ev in evs if ev.t <= cut], cut, schema, units="s"))
    _assert_same(test, Dataset([ev for ev in evs if ev.t > cut], 8.0, schema, start=cut,
                               units="s"))
    _assert_same(test.merge_history(train), Dataset(evs, 8.0, schema, start=cut, units="s"))
    index = np.array(sorted(data.draw(st.sets(st.integers(0, max(len(d) - 1, 0)))
                                      if len(d) else st.just(set()))), dtype=np.int64)
    _assert_same(d.subset(index), Dataset([evs[i] for i in index], 8.0, schema, units="s"))
    t = data.draw(st.sampled_from([0.5, 1.0, 3.0, 8.0]))
    x = data.draw(st.sampled_from(GOOD_MARKS[kind]))
    lo, hi = np.searchsorted(d.times, [data.draw(st.sampled_from([0.0, 1.0])), t], side="left")
    _assert_same(d._with_query(int(lo), int(hi), t, x),
                 Dataset(evs[lo:hi] + [Event(t, x)], t, schema))


def test_query_mark_errors_name_the_query_event():
    d = Dataset([Event(t, LabelMark(1)) for t in (0.5, 1.0, 2.0)], 4.0, LabelSchema(3))
    for x, message in ((LabelMark(4), "event 2: label 4 outside 1..3"),
                       (bm(1, 0), "event 2: expected a label mark")):
        assert _built_error(d.events[:2] + [Event(1.5, x)], 1.5, d.schema) == message
        with pytest.raises(DataError) as exc:
            d._with_query(0, 2, 1.5, x)
        assert str(exc.value) == message


@pytest.mark.parametrize("kind, mark, message", [
    ("label", LabelMark(1.5), "label must be an integer, got 1.5"),
    ("label", LabelMark(2.0), "label must be an integer, got 2.0"),
    ("label", LabelMark(True), "label must be an integer, got True"),
    ("label", LabelMark("2"), "label must be an integer, got '2'"),
    ("label", LabelMark(None), "label must be an integer, got None"),
    ("composite", CompositeMark(2.5, "u"), "type must be an integer, got 2.5"),
    ("composite", CompositeMark(False, "v"), "type must be an integer, got False"),
    ("label", LabelMark(np.int64(2)), None),
    ("composite", CompositeMark(np.int32(3), "v"), None),
])
def test_labels_and_types_must_be_integers(kind, mark, message):
    first = Event(0.5, GOOD_MARKS[kind][0])
    expected = None if message is None else f"event 1: {message}"
    assert _built_error([first, Event(0.7, mark)], 4.0, SCHEMAS[kind]) == expected
    d = Dataset([first], 4.0, SCHEMAS[kind])
    if message is None:  # numpy integers are integers
        query = d._with_query(0, 1, 0.7, mark)
        assert query.label_index.dtype == np.int64 and query.events[1].mark == mark
    else:  # intensity's query mark takes the same checks
        with pytest.raises(DataError) as exc:
            d._with_query(0, 1, 0.7, mark)
        assert str(exc.value) == expected


def test_non_integer_labels_are_not_truncated():
    from cascades import (CascadeModel, ConstantFertility, ExponentialDelay,
                          HomogeneousBaseline, KernelComponent, LabelMarginal, intensity)
    with pytest.raises(DataError, match="event 0: label must be an integer, got 1.5"):
        Dataset([Event(0.5, LabelMark(1.5)), Event(0.7, LabelMark(2.9))], 1.0, LabelSchema(3))
    d = Dataset([Event(0.5, LabelMark(1))], 1.0, LabelSchema(3))
    model = CascadeModel(HomogeneousBaseline(1.0, LabelMarginal((0.2, 0.3, 0.5))), (
        KernelComponent("k", ConstantFertility(0.4), IdentityTransition(),
                        ExponentialDelay(1.0)),))
    with pytest.raises(DataError, match="event 1: label must be an integer, got 2.9"):
        intensity(model, d, 0.8, LabelMark(2.9))
    assert intensity(model, d, 0.8, LabelMark(np.int64(2))) == intensity(
        model, d, 0.8, LabelMark(2))


@pytest.mark.parametrize("node", [5, None, 1.5, b"u"])
def test_composite_nodes_must_be_strings(node):
    from cascades import (CascadeModel, ConstantFertility, ExponentialDelay,
                          HomogeneousBaseline, KernelComponent, LabelMarginal, intensity)
    schema = CompositeSchema(2)  # names no nodes
    expected = f"event 1: node must be a string, got {node!r}"
    first = Event(0.5, CompositeMark(1, "u"))
    assert _built_error([first, Event(0.6, CompositeMark(1, node))], 1.0, schema) == expected
    d = Dataset([first], 1.0, schema)
    model = CascadeModel(HomogeneousBaseline(1.0, LabelMarginal((0.5, 0.5))), (
        KernelComponent("k", ConstantFertility(0.4), IdentityTransition(),
                        ExponentialDelay(1.0)),))
    with pytest.raises(DataError) as exc:
        intensity(model, d, 0.8, CompositeMark(2, node))
    assert str(exc.value) == expected
    # the marks write_events would once have written and ingest then refused
    with pytest.raises(DataError, match="^event 0: node must be a string, got 5$"):
        Dataset([Event(0.5, CompositeMark(1, 5)), Event(0.6, CompositeMark(1, None))], 1.0,
                schema)


def test_subset_rejects_positions_outside_the_dataset():
    d = Dataset([Event(t, LabelMark(1)) for t in (1.0, 2.0, 3.0)], 4.0, LabelSchema(1))
    for index in ([-1], [0, 3], [5]):
        with pytest.raises(DataError, match=r"outside \[0, 3\)"):
            d.subset(np.array(index))
    assert len(d.subset(np.array([], dtype=np.int64))) == 0


def test_int_times_read_back_as_floats(tmp_path):
    d = Dataset([Event(1, LabelMark(1)), Event(2.5, LabelMark(1))], 3, LabelSchema(1))
    assert [type(ev.t) for ev in d] == [float, float] and d.horizon == 3.0
    path = tmp_path / "e.jsonl"
    write_events(d, str(path))
    assert path.read_text().splitlines()[1] == '{"t": 1.0, "label": 1}'
    back = ingest(str(path))
    write_events(back, str(tmp_path / "again.jsonl"))
    assert (tmp_path / "again.jsonl").read_text() == path.read_text()


def test_column_paths_build_no_event_objects(tmp_path, monkeypatch):
    from cascades import (CascadeModel, CategoricalMatrix, ConstantFertility,
                          ExponentialDelay, Graph, HomogeneousBaseline, KernelComponent,
                          LabelMarginal, intensity, simulate_graph)
    from cascades.graphs import local_data
    graph = Graph(["a", "b", "c"], {"a": ["b"], "b": ["c"]})
    g, _ = simulate_graph(graph, 30.0, 3, type_marginal=(0.5, 0.5), base_rate=0.3,
                          self_rate=0.2, neighbor_rate=0.2,
                          transition=CategoricalMatrix(((0.5, 0.5), (0.5, 0.5))),
                          delay=ExponentialDelay(1.0))
    labels = Dataset([Event(0.1 * k, LabelMark(k % 3 + 1)) for k in range(60)], 6.0,
                     LabelSchema(3))
    paths = {}
    for name, d in (("graph", g), ("labels", labels)):
        paths[name] = str(tmp_path / f"{name}.jsonl")
        write_events(d, paths[name])
    model = CascadeModel(HomogeneousBaseline(1.0, LabelMarginal((0.2, 0.3, 0.5))), (
        KernelComponent("k", ConstantFertility(0.4), IdentityTransition(),
                        ExponentialDelay(1.0)),))
    built = []
    init = Event.__init__
    monkeypatch.setattr(Event, "__init__",
                        lambda self, *args, **kw: built.append(1) or init(self, *args, **kw))
    d = ingest(paths["labels"])
    train, test = split(d, 0.5)
    test.merge_history(train)
    d.subset(np.arange(0, len(d), 2))
    intensity(model, d, 3.05, LabelMark(2))
    local_data(graph, split(ingest(paths["graph"]), 0.6)[0], ("b",))
    write_events(d, str(tmp_path / "again.jsonl"))
    assert built == []
    d.events  # the view is where Event objects come from
    assert len(built) == len(d)


@pytest.mark.parametrize("header, message", [
    ({"T": "abc"}, '"T" must be a number'),
    ({"T": True}, '"T" must be a number'),
    ({"T": None}, '"T" must be a number'),
    ({"T": 10 ** 400}, '"T" is too large for a float'),
    ({"schema": {"labels": 2.7}}, '"labels" must be a positive integer'),
    ({"schema": {"labels": 0}}, '"labels" must be a positive integer'),
    ({"schema": {"labels": True}}, '"labels" must be a positive integer'),
    ({"schema": {"labels": "3"}}, '"labels" must be a positive integer'),
    ({"schema": {"types": True, "nodes": True}}, '"types" must be a positive integer'),
    ({"schema": {"types": -1, "nodes": True}}, '"types" must be a positive integer'),
    ({"schema": {"types": 2.0, "nodes": True}}, '"types" must be a positive integer'),
])
def test_ingest_rejects_malformed_headers(tmp_path, header, message):
    path = tmp_path / "bad.jsonl"
    header = {"T": 5.0, "schema": {"labels": 2}, **header}
    path.write_text(json.dumps(header) + '\n\n{"t": 1.0, "label": 1}\n')
    with pytest.raises(DataError, match=rf"bad\.jsonl:1: {message}"):
        ingest(str(path))


# ---------------------------------------------------------------------------
# ingest against the per-record reader it replaced (tests/oracles.py)

INGEST_SPECS = {"label": ({"labels": 3}, LabelSchema(3)),
                "binary": ({"features": ["a", "b", "c"]}, BinarySchema(("a", "b", "c"))),
                "composite": ({"types": 3, "nodes": True}, CompositeSchema(3))}
RECORD_TIMES = [0.0, -0.0, 0.5, 1, 1.0, 1.0, 2.5, 3, 4.75, 5.0]
BAD_LINES = ["not json", '{"t": 1.0,', "[1, 2]", '"text"', "3", "null",
             '{"t": 1.0} {"t": 2.0}', "\ufeff{}", "{'t': 1}"]
DELETE = object()
TIME_FAULTS = [True, False, "1.0", None, [1], 10 ** 400, -10 ** 400, 10 ** 30, -1.0, -1,
               -1e-300, 7.0, 5.000001, DELETE]
NONFINITE = [float("nan"), float("inf"), -float("inf")]
MARK_FAULTS = {
    "label": [("label", v) for v in (0, 4, -1, 1.5, "2", True, None, 2 ** 63, 2 ** 63 - 1,
                                     -2 ** 63, -2 ** 63 - 1, 2 ** 64, DELETE)],
    "binary": [("x", v) for v in ([3], [-1], [0, 3], [2, 10 ** 20], [1.0], ["1"], [True],
                                  [None], [0, [1]], 1, "01", {"a": 1}, None)],
    "composite": [("type", v) for v in (0, 4, 1.5, "2", True, None, 2 ** 63, -2 ** 63 - 1,
                                        DELETE)]
                 + [("node", v) for v in (5, None, ["a"], True, DELETE)],
}


def _record(draw, kind):
    rec = {"t": draw(st.sampled_from(RECORD_TIMES))}
    if kind == "label":
        rec["label"] = draw(st.integers(1, 3))
    elif kind == "binary":
        if draw(st.booleans()):
            rec["x"] = draw(st.lists(st.integers(0, 2), max_size=4))
    else:
        rec["type"] = draw(st.integers(1, 3))
        rec["node"] = draw(st.sampled_from(["u", "v", "", "né"]))
    if draw(st.booleans()):  # key order does not matter
        rec = dict(reversed(list(rec.items())))
    return rec


def _with(rec, key, value):
    rec = dict(rec)
    if value is DELETE:
        rec.pop(key, None)
    else:
        rec[key] = value
    return rec


@st.composite
def event_files(draw):
    """(kind, schema argument, lines, the lines with every non-finite time
    replaced by a valid one, and (line number, "t" or "T", value) of the
    first non-finite time, or None)."""
    kind = draw(st.sampled_from(sorted(INGEST_SPECS)))
    spec, schema = INGEST_SPECS[kind]
    header = draw(st.sampled_from([{"T": 5.0, "schema": spec}] * 4 + [
        {"T": 5, "schema": spec}, {"schema": spec}, {"T": 5.0}, None,
        {"T": 5.0, "schema": spec, "units": "s"}, {"T": "abc", "schema": spec},
        {"T": 5.0, "schema": spec, "zzz": 1}]))
    schema_arg = schema if header is None or "schema" not in header or draw(st.booleans()) \
        else None
    records = [_record(draw, kind) for _ in range(draw(st.integers(0, 10)))]
    lines = [json.dumps(r) for r in records]
    fixed = list(lines)
    nonfinite = []  # (index into lines, value)
    for _ in range(draw(st.integers(0, 3))):  # zero, one or several faults
        fault = draw(st.sampled_from(["line", "time", "time", "nonfinite", "mark", "mark",
                                      "mark", "extra key"]))
        if fault == "line" or not records:
            i = draw(st.integers(0, len(lines)))
            lines.insert(i, draw(st.sampled_from(BAD_LINES)))
            fixed.insert(i, lines[i])
            nonfinite = [(j + (j >= i), v) for j, v in nonfinite]
            continue
        i = draw(st.integers(0, len(lines) - 1))
        try:  # the record as last written, minus non-finite times
            rec = json.loads(fixed[i])
        except ValueError:
            continue
        if not isinstance(rec, dict):
            continue
        if fault == "time":
            rec = _with(rec, "t", draw(st.sampled_from(TIME_FAULTS)))
        elif fault == "mark":
            rec = _with(rec, *draw(st.sampled_from(MARK_FAULTS[kind])))
        elif fault == "extra key":
            rec = _with(rec, draw(st.sampled_from(["zzz", "T", "t2"])), 1)
        if fault == "nonfinite" and "t" in rec:
            value = draw(st.sampled_from(NONFINITE))
            lines[i], fixed[i] = json.dumps({**rec, "t": value}), json.dumps({**rec, "t": 1.0})
            nonfinite = [(j, v) for j, v in nonfinite if j != i] + [(i, value)]
        else:
            lines[i] = fixed[i] = json.dumps(rec)
            nonfinite = [(j, v) for j, v in nonfinite if j != i]
    if header is not None:
        head = dict(header)
        if "zzz" not in head and "T" in head and draw(st.sampled_from([False] * 7 + [True])):
            value = draw(st.sampled_from(NONFINITE))
            lines.insert(0, json.dumps({**head, "T": value}))
            fixed.insert(0, json.dumps(head))
            nonfinite = [(-1, value)]  # the header outranks every record
        else:
            lines.insert(0, json.dumps(head))
            fixed.insert(0, lines[0])
            nonfinite = [(j + 1, v) for j, v in nonfinite]
    blanks = draw(st.lists(st.integers(0, len(lines)), max_size=2))
    for i in sorted(blanks, reverse=True):  # blank lines still count
        lines.insert(i, "  ")
        fixed.insert(i, "")
        nonfinite = [(j + (j >= i), v) for j, v in nonfinite]
    first = None
    if nonfinite:
        if nonfinite[0][0] == -1:
            first = (next(i for i, line in enumerate(lines) if line.strip()) + 1, "T",
                     nonfinite[0][1])
        else:
            j, v = min(nonfinite)
            first = (j + 1, "t", v)
    return kind, schema_arg, lines, fixed, first


def _ingest_outcome(reader, path, schema):
    """(columns, window, warnings) of a successful read, or the error."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            d = reader(path, schema)
        except DataError as exc:
            return ("error", str(exc))
    cols = [(name, col.dtype, col.shape, col.tolist()) for name, col in d._cols.items()]
    return ("ok", cols, (d.horizon, d.schema, d.start, d.units),
            [str(w.message) for w in caught])


def _expected_outcome(path, schema, fixed, first):
    """What ingest must do: the reference's outcome on the file without its
    non-finite times, unless a non-finite time is the first fault. The
    reference decodes every line before it checks any, so a malformed line
    anywhere outranks it; so does any fault on an earlier line or, since a
    time range is checked last, on the same record."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(fixed) + "\n")
    outcome = _ingest_outcome(oracles.ingest, path, schema)
    if first is None:
        return outcome
    lineno, key, value = first
    if outcome[0] == "error":
        msg = outcome[1]
        at = re.match(rf"{re.escape(path)}:(\d+): ", msg)
        if "malformed JSON" in msg or "expected a JSON object" in msg:
            return outcome
        if key == "t" and (msg.startswith(f"{path}: no schema")
                           or (at and int(at.group(1)) <= lineno)):
            return outcome
    if key == "T":
        return ("error", f'{path}:{lineno}: "T" must be finite, got {value}')
    return ("error", f"{path}:{lineno}: timestamp {value} is not finite")


@given(event_files())
@settings(max_examples=500, deadline=None)
def test_ingest_matches_the_per_record_reference(tmp_path_factory, case):
    kind, schema, lines, fixed, first = case
    folder = tmp_path_factory.mktemp("ingest")
    path = str(folder / "e.jsonl")
    expected = _expected_outcome(path, schema, fixed, first)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    assert _ingest_outcome(ingest, path, schema) == expected


@pytest.mark.parametrize("kind", sorted(INGEST_SPECS))
def test_each_fault_alone_matches_the_reference(tmp_path, kind):
    """Every fault value of the generator above, alone in the third record
    of an otherwise valid file (with and without a declared horizon)."""
    spec, schema = INGEST_SPECS[kind]
    good = {"label": {"t": 1.0, "label": 2}, "binary": {"t": 1.0, "x": [0, 2]},
            "composite": {"t": 1.0, "type": 2, "node": "u"}}[kind]
    faults = ([("t", v) for v in TIME_FAULTS + NONFINITE] + MARK_FAULTS[kind]
              + [("zzz", 1)])
    path = str(tmp_path / "e.jsonl")
    for header in ({"T": 5.0, "schema": spec}, {"schema": spec}):
        cases = [(json.dumps(_with(good, key, value)), value if key == "t" else None)
                 for key, value in faults] + [(line, None) for line in BAD_LINES]
        for bad, value in cases:
            lines = [json.dumps(header), json.dumps(good), json.dumps(good), bad,
                     json.dumps(good)]
            nonfinite = isinstance(value, float) and not np.isfinite(value)
            fixed = lines[:3] + [json.dumps(_with(good, "t", 1.0))] + lines[4:] \
                if nonfinite else lines
            expected = _expected_outcome(path, None, fixed,
                                         (4, "t", value) if nonfinite else None)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
            assert _ingest_outcome(ingest, path, None) == expected, bad


@pytest.mark.parametrize("width", [1, 4, 8, 9, 64, 65, 130])
@pytest.mark.parametrize("n", [0, 1, 40])
def test_feature_patterns_match_numpy_unique(width, n):
    rng = np.random.default_rng(width * 100 + n)
    # few distinct rows, so most repeat; some differ only next to a word
    # or byte boundary
    base = rng.integers(0, 2, size=(6, width)).astype(np.uint8)
    for k, bit in enumerate((width - 1, 63, 64, 7, 8)):
        if bit < width:
            base[k + 1] = base[0]
            base[k + 1, bit] ^= 1
    X = base[rng.integers(0, len(base), size=n)]
    d = Dataset._of({"feature_matrix": X, "times": np.arange(n, dtype=np.float64)}, float(n),
                    BinarySchema(tuple(f"f{i}" for i in range(width))))
    rows, index = d.feature_patterns
    want_rows, want_index = np.unique(X, axis=0, return_inverse=True)
    assert rows.dtype == want_rows.dtype and rows.shape == want_rows.shape
    np.testing.assert_array_equal(rows, want_rows)
    assert index.dtype == np.int64 and index.shape == (n,)
    np.testing.assert_array_equal(index, want_index.reshape(-1))


def test_binary_ingest_allocates_no_per_bit_objects(tmp_path):
    """Ingest keeps per record no more than its time and active indices:
    the per-record reader it replaced built a row of Python ints and an
    object array over every bit, and kept every decoded line (about 1,000
    bytes a record at this width, against about 100 now)."""
    import tracemalloc
    width, n = 16, 100_000
    rng = np.random.default_rng(0)
    path = tmp_path / "wide.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        header = {"T": float(n), "schema": {"features": [f"f{i}" for i in range(width)]}}
        fh.write(json.dumps(header) + "\n")
        for i, (a, b) in enumerate(rng.integers(0, width, size=(n, 2)).tolist()):
            fh.write('{"t": %r, "x": [%d, %d]}\n' % (i + 0.5, a, b))
    tracemalloc.start()
    try:
        d = ingest(str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(d) == n and d.feature_matrix.sum() > n
    assert peak / n < 300, f"{peak / n:.0f} bytes per record"
