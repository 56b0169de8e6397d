"""Feature window construction, dataset assembly, and raw-file parsing."""

import logging

import numpy as np
import pytest

from titan.errors import InputError
from titan.features import (
    IncidentRecord,
    MultiTaskDataset,
    SpeedSeries,
    TaskDataset,
    assemble_dataset,
    construct_features,
    load_incidents_csv,
    load_speed_csv,
    split_rows,
    standardize_columns,
)
from titan.roadnet import TaskGraph


def series(values, start=0, sensor="s"):
    return SpeedSeries(sensor_id=sensor, readings=np.asarray(values, dtype=float), start_index=start)


def incidents_for(road, count, tau=5, duration=30.0):
    return [
        IncidentRecord(f"{road}-{i}", road, tau, duration + i) for i in range(count)
    ]


def two_road_graph():
    return TaskGraph(("a", "b"), [("a", "b")])


# ------------------------------------------------------------------- windows


def test_construct_features_hand_window():
    got = construct_features(series([10, 20, 30, 40, 50]), 2, 2, 2)
    np.testing.assert_array_equal(got, [10, 20, 30, 40])


def test_construct_features_insufficient_history():
    with pytest.raises(InputError, match=r"insufficient history.*\[-1, 2\]"):
        construct_features(series([10, 20, 30, 40, 50]), 2, 3, 1)


def test_construct_features_constant_series():
    got = construct_features(series([7.0] * 10), 5, 3, 2)
    np.testing.assert_array_equal(got, [7.0] * 5)


def test_construct_features_respects_start_index():
    got = construct_features(series([10, 20, 30, 40], start=100), 102, 2, 2)
    np.testing.assert_array_equal(got, [10, 20, 30, 40])
    with pytest.raises(InputError, match="insufficient history"):
        construct_features(series([10, 20, 30, 40], start=100), 2, 2, 2)


def test_construct_features_window_size_guard():
    with pytest.raises(InputError, match="window sizes"):
        construct_features(series([1, 2, 3]), 1, 0, 1)


def test_construct_features_is_contiguous_slice():
    s = series(np.arange(30.0))
    got = construct_features(s, 12, 4, 3)
    np.testing.assert_array_equal(got, s.readings[8:15])


# --------------------------------------------------------------------- types


def test_speed_series_validation():
    with pytest.raises(InputError, match="non-empty"):
        series([])
    with pytest.raises(InputError, match="finite"):
        series([1.0, np.nan])
    with pytest.raises(InputError, match=">= 0"):
        series([1.0, -2.0])


def test_incident_requires_positive_duration():
    with pytest.raises(InputError, match="positive"):
        IncidentRecord("i", "a", 5, 0.0)
    for duration in (np.inf, np.nan):
        with pytest.raises(InputError, match="finite"):
            IncidentRecord("i", "a", 5, duration)


def test_task_dataset_validation():
    with pytest.raises(InputError, match="match Y length"):
        TaskDataset("a", np.zeros((3, 2)), np.zeros(2))
    with pytest.raises(InputError, match="non-finite"):
        TaskDataset("a", np.array([[np.inf, 0.0]]), np.zeros(1))
    with pytest.raises(InputError, match="'a': Y contains non-finite"):
        TaskDataset("a", np.zeros((2, 2)), np.array([1.0, np.nan]))


def test_multi_task_dataset_order_and_dims():
    graph = two_road_graph()
    ta = TaskDataset("a", np.zeros((2, 4)), np.ones(2))
    tb = TaskDataset("b", np.zeros((2, 4)), np.ones(2))
    data = MultiTaskDataset((ta, tb), graph, 2, 2)
    assert data.p == 4 and data.n_tasks == 2
    assert data.tasks[graph.tasks.index("b")] is tb
    with pytest.raises(InputError, match="order"):
        MultiTaskDataset((tb, ta), graph, 2, 2)
    with pytest.raises(InputError, match="h \\+ t"):
        MultiTaskDataset((ta, tb), graph, 1, 2)
    tb_wide = TaskDataset("b", np.zeros((2, 6)), np.ones(2))
    with pytest.raises(InputError, match="feature dimension"):
        MultiTaskDataset((ta, tb_wide), graph, 2, 2)


# ------------------------------------------------------------------ assembly


def test_split_rows_floor_and_minimum():
    rng = np.random.default_rng(0)
    train, test = split_rows(10, 0.8, rng)
    assert len(train) == 8 and len(test) == 2
    train, test = split_rows(1, 0.1, rng)
    assert len(train) == 1 and len(test) == 0


def test_assemble_ten_incidents_split():
    graph = TaskGraph(("a",), [])
    s = {"a": series(np.arange(50.0) + 1)}
    train, test = assemble_dataset(incidents_for("a", 10), s, graph, 3, 2)
    assert train.tasks[0].n == 8 and test.tasks[0].n == 2
    assert train.p == 5


def test_assemble_per_task_split_not_pooled():
    graph = two_road_graph()
    s = {"a": series(np.arange(50.0) + 1), "b": series(np.arange(50.0) + 2)}
    incidents = incidents_for("a", 5) + incidents_for("b", 5)
    train, test = assemble_dataset(incidents, s, graph, 3, 2)
    for ds, want in ((train, 4), (test, 1)):
        assert [td.n for td in ds.tasks] == [want, want]


def test_assemble_skips_out_of_window_incidents(caplog):
    graph = TaskGraph(("a",), [])
    s = {"a": series(np.arange(50.0) + 1)}
    incidents = incidents_for("a", 10) + [IncidentRecord("late", "a", 500, 12.0)]
    with caplog.at_level(logging.INFO, logger="titan.features"):
        train, test = assemble_dataset(incidents, s, graph, 3, 2)
    assert train.tasks[0].n + test.tasks[0].n == 10
    assert any("skipping incident late" in rec.getMessage() for rec in caplog.records)


def test_assemble_unknown_road_rejected():
    graph = two_road_graph()
    s = {"a": series(np.arange(50.0) + 1), "b": series(np.arange(50.0) + 1)}
    bad = [IncidentRecord("x", "zzz", 5, 10.0)]
    with pytest.raises(InputError, match="unknown road"):
        assemble_dataset(bad, s, graph, 3, 2)


def test_assemble_empty_task_rejected():
    graph = two_road_graph()
    s = {"a": series(np.arange(50.0) + 1), "b": series(np.arange(50.0) + 1)}
    with pytest.raises(InputError, match="no usable incidents"):
        assemble_dataset(incidents_for("a", 5), s, graph, 3, 2)


def test_assemble_single_usable_incident_cannot_fill_test():
    graph = TaskGraph(("a",), [])
    s = {"a": series(np.arange(50.0) + 1)}
    with pytest.raises(InputError, match="too few usable incidents"):
        assemble_dataset(incidents_for("a", 1), s, graph, 3, 2)


def test_assemble_split_guard():
    graph = TaskGraph(("a",), [])
    s = {"a": series(np.arange(50.0) + 1)}
    with pytest.raises(InputError, match="split fraction"):
        assemble_dataset(incidents_for("a", 5), s, graph, 3, 2, split=1.0)


def test_assemble_train_test_partition_labels():
    graph = TaskGraph(("a",), [])
    s = {"a": series(np.arange(80.0) + 1)}
    incidents = incidents_for("a", 12)
    train, test = assemble_dataset(incidents, s, graph, 3, 2)
    got = sorted(np.concatenate([train.tasks[0].Y, test.tasks[0].Y]))
    want = sorted(i.duration_minutes for i in incidents)
    np.testing.assert_array_equal(got, want)


def test_assemble_deterministic_for_fixed_seed():
    graph = two_road_graph()
    s = {"a": series(np.arange(60.0) + 1), "b": series(np.arange(60.0) + 3)}
    incidents = incidents_for("a", 7) + incidents_for("b", 9, tau=8)
    first = assemble_dataset(incidents, s, graph, 3, 2, seed=11)
    second = assemble_dataset(incidents, s, graph, 3, 2, seed=11)
    for ds1, ds2 in zip(first, second):
        for td1, td2 in zip(ds1.tasks, ds2.tasks):
            np.testing.assert_array_equal(td1.X, td2.X)
            np.testing.assert_array_equal(td1.Y, td2.Y)
    different = assemble_dataset(incidents, s, graph, 3, 2, seed=12)
    assert any(
        not np.array_equal(td1.Y, td2.Y)
        for td1, td2 in zip(first[0].tasks, different[0].tasks)
    )


def test_assemble_rows_are_series_slices():
    graph = TaskGraph(("a",), [])
    s = series(np.arange(90.0) * 1.5 + 2)
    incidents = [IncidentRecord(f"i{t}", "a", t, 10.0) for t in (5, 9, 20, 33)]
    train, test = assemble_dataset(incidents, {"a": s}, graph, 4, 3, split=0.5)
    window = np.lib.stride_tricks.sliding_window_view(s.readings, 7)
    for ds in (train, test):
        for row in ds.tasks[0].X:
            assert any(np.array_equal(row, w) for w in window)


def test_standardize_uses_pooled_train_statistics():
    graph = two_road_graph()
    rng = np.random.default_rng(5)
    tasks = tuple(
        TaskDataset(r, rng.normal(5.0, 3.0, size=(20, 4)), rng.uniform(1, 9, 20))
        for r in ("a", "b")
    )
    train = MultiTaskDataset(tasks, graph, 2, 2)
    test = MultiTaskDataset(tasks, graph, 2, 2)
    strain, stest = standardize_columns(train, test)
    pooled = np.vstack([td.X for td in strain.tasks])
    np.testing.assert_allclose(pooled.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(pooled.std(axis=0), 1.0, atol=1e-12)
    # test transformed with train statistics, not its own
    orig = np.vstack([td.X for td in train.tasks])
    np.testing.assert_allclose(
        np.vstack([td.X for td in stest.tasks]),
        (np.vstack([td.X for td in test.tasks]) - orig.mean(axis=0)) / orig.std(axis=0),
    )


# ------------------------------------------------------------------- parsing


def written(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_parse_incidents_round_trip(tmp_path):
    text = (
        "incident_id,road_id,verification_index,duration_minutes\n"
        "i1,a,120,45.5\n"
        "# a note\n"
        "i2,b,130,12\n"
    )
    records = load_incidents_csv(written(tmp_path, "inc.csv", text))
    assert [r.incident_id for r in records] == ["i1", "i2"]
    assert records[0].verification_index == 120
    assert records[1].duration_minutes == 12.0


def test_parse_incidents_errors_name_line(tmp_path):
    def load(text):
        return load_incidents_csv(written(tmp_path, "inc.csv", text))

    with pytest.raises(InputError, match="inc.csv:1"):
        load("wrong,header\n")
    good_header = "incident_id,road_id,verification_index,duration_minutes\n"
    with pytest.raises(InputError, match="inc.csv:2"):
        load(good_header + "i1,a,120\n")
    with pytest.raises(InputError, match="inc.csv:3"):
        load(good_header + "i1,a,120,45\ni2,b,oops,45\n")
    with pytest.raises(InputError, match="inc.csv:2.*positive"):
        load(good_header + "i1,a,120,-3\n")


def test_parse_speed_csv(tmp_path):
    s = load_speed_csv(written(tmp_path, "a.csv", "# start_index=42\n55.0\n54\n\n53.5\n"), "a")
    assert s.start_index == 42
    np.testing.assert_array_equal(s.readings, [55.0, 54.0, 53.5])


def test_parse_speed_csv_errors(tmp_path):
    def load(text):
        return load_speed_csv(written(tmp_path, "sp.csv", text), "a")

    with pytest.raises(InputError, match="sp.csv:1"):
        load("55.0\n")
    with pytest.raises(InputError, match="sp.csv:3"):
        load("# start_index=0\n55.0\nbad\n")
    with pytest.raises(InputError, match="sp.csv:1"):
        load("# start_index=x\n55.0\n")
    with pytest.raises(InputError, match="sp.csv:5: bad speed reading"):
        load("# start_index=0\n55.0\n\n# gap\nbad\n")
