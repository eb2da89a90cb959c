import json
import warnings

import numpy as np
import pytest

from cascades import (BinaryMark, BinarySchema, CompositeMark, CompositeSchema,
                      DataError, Dataset, Event, IdentityTransition, LabelMark,
                      LabelSchema, ingest, split, write_events)
from cascades.transitions import PairProbs


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
    # identity transitions compare the type coordinate only
    same = PairProbs(IdentityTransition(), d, max_table=0).values(np.array([1, 2]),
                                                                   np.array([0, 0]))
    assert same.tolist() == [1.0, 0.0]
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
