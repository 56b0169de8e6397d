"""Round trips and error reporting for the on-disk formats."""

import numpy as np
import pytest

from titan.baselines import BaselineModel
from titan.errors import InputError
from titan.solver import Hyperparams, TrainedModel
from titan.storage import (
    read_dataset,
    read_ground_truth,
    read_hyperparams,
    read_matrix_csv,
    read_model,
    read_split,
    read_synth_config,
    read_task_graph,
    write_dataset,
    write_matrix_csv,
    write_model,
)
from titan.synth import SynthConfig, generate


# ---------------------------------------------------------------- matrix CSV


def test_matrix_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    M = rng.standard_normal((7, 4)) * 10.0 ** rng.integers(-8, 8, size=(7, 4))
    path = tmp_path / "m.csv"
    write_matrix_csv(path, M)
    got = read_matrix_csv(path)
    np.testing.assert_array_equal(got, M)  # %.17g round-trips doubles exactly


def test_matrix_csv_vector_written_as_column(tmp_path):
    path = tmp_path / "v.csv"
    write_matrix_csv(path, np.array([1.0, 2.0, 3.0])[:, None])
    got = read_matrix_csv(path, columns=1)
    np.testing.assert_array_equal(got, [[1.0], [2.0], [3.0]])


def test_matrix_csv_skips_blank_and_comment_lines(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("# header comment\n1,2\n\n3,4\n", encoding="utf-8")
    np.testing.assert_array_equal(read_matrix_csv(path), [[1.0, 2.0], [3.0, 4.0]])


def test_matrix_csv_errors(tmp_path):
    missing = tmp_path / "nope.csv"
    with pytest.raises(InputError, match="missing file"):
        read_matrix_csv(missing)
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3,x\n", encoding="utf-8")
    with pytest.raises(InputError, match=r"bad\.csv:2: bad numeric cell"):
        read_matrix_csv(bad)
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1,2\n3\n", encoding="utf-8")
    with pytest.raises(InputError, match=r"ragged\.csv:2: ragged row"):
        read_matrix_csv(ragged)
    empty = tmp_path / "empty.csv"
    empty.write_text("# only a comment\n", encoding="utf-8")
    with pytest.raises(InputError, match="no data rows"):
        read_matrix_csv(empty)
    cols = tmp_path / "cols.csv"
    cols.write_text("1,2,3\n", encoding="utf-8")
    with pytest.raises(InputError, match="expected 2 columns, got 3"):
        read_matrix_csv(cols, columns=2)


# ------------------------------------------------------------------- dataset


def test_dataset_round_trip(tmp_path):
    train, test, truth = generate(SynthConfig(T=3, p=8, k=2, n_per_task=20,
                                              noise_sigma=0.5, graph_kind="path", seed=0))
    root = write_dataset(tmp_path / "ds", train, test, truth)
    train2, test2 = read_dataset(root)
    assert train2.graph.tasks == train.graph.tasks
    assert (train2.h, train2.t) == (train.h, train.t)
    np.testing.assert_array_equal(train2.graph.adjacency, train.graph.adjacency)
    for a, b in zip(train.tasks, train2.tasks):
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.Y, b.Y)
    for a, b in zip(test.tasks, test2.tasks):
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.Y, b.Y)
    truth2 = read_ground_truth(root)
    np.testing.assert_array_equal(truth2.Q, truth.Q)
    np.testing.assert_array_equal(truth2.W, truth.W)
    assert truth2.tasks == truth.tasks


def test_read_split_matches_read_dataset_and_reads_one_split(tmp_path):
    train, test, _ = generate(SynthConfig(T=3, p=8, k=2, n_per_task=20,
                                          noise_sigma=0.5, graph_kind="path", seed=1))
    root = write_dataset(tmp_path / "ds", train, test)
    pair = read_dataset(root)
    for split, whole in zip(("train", "test"), pair):
        part = read_split(root, split)
        assert part.graph.tasks == whole.graph.tasks and (part.h, part.t) == (whole.h, whole.t)
        np.testing.assert_array_equal(part.graph.adjacency, whole.graph.adjacency)
        for a, b in zip(part.tasks, whole.tasks):
            np.testing.assert_array_equal(a.X, b.X)
            np.testing.assert_array_equal(a.Y, b.Y)
    for f in (root / "train").iterdir():
        f.unlink()
    assert read_split(root, "test").tasks[0].n == test.tasks[0].n  # train files never opened
    with pytest.raises(InputError, match="missing file"):
        read_split(root, "train")
    with pytest.raises(InputError, match="split must be one of"):
        read_split(root, "validation")


def test_dataset_reader_errors(tmp_path):
    with pytest.raises(InputError, match="missing file"):
        read_task_graph(tmp_path)
    (tmp_path / "tasks.json").write_text('{"tasks": ["a"]}\n', encoding="utf-8")
    with pytest.raises(InputError, match="missing key 'h'"):
        read_task_graph(tmp_path)
    (tmp_path / "tasks.json").write_text('{"tasks": ["a", "b"], "h": 2, "t": 2}\n', encoding="utf-8")
    with pytest.raises(InputError, match="graph.edges"):
        read_task_graph(tmp_path)
    (tmp_path / "graph.edges").write_text("a b c\n", encoding="utf-8")
    with pytest.raises(InputError, match="expected 2 fields, got 3"):
        read_task_graph(tmp_path)
    (tmp_path / "graph.edges").write_text("# none\na b\n", encoding="utf-8")
    graph, h, t = read_task_graph(tmp_path)
    assert graph.tasks == ("a", "b") and (h, t) == (2, 2)
    with pytest.raises(InputError, match="missing file"):
        read_dataset(tmp_path)  # train/ split absent


def test_ground_truth_missing(tmp_path):
    with pytest.raises(InputError, match="missing file"):
        read_ground_truth(tmp_path)


# --------------------------------------------------------------------- model


def test_trained_model_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    model = TrainedModel(
        Q=np.abs(rng.standard_normal((6, 2))),
        W=rng.standard_normal((2, 3)),
        tasks=("a", "b", "c"),
        hyperparams=Hyperparams(k=2, lambda_w=0.25, inner_w_solve="gradient"),
        converged=True,
        iterations=123,
        final_residuals=(1.5e-4, 2.5e-6),
    )
    path = tmp_path / "model.json"
    write_model(path, model)
    got = read_model(path)
    assert isinstance(got, TrainedModel)
    np.testing.assert_array_equal(got.Q, model.Q)
    np.testing.assert_array_equal(got.W, model.W)
    assert got.tasks == model.tasks
    assert got.hyperparams == model.hyperparams
    assert got.converged and got.iterations == 123
    assert got.final_residuals == model.final_residuals


def test_baseline_model_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    model = BaselineModel(kind="nmtl", weights=rng.standard_normal((5, 2)),
                          tasks=("a", "b"), lam=10.0)
    path = tmp_path / "baseline.json"
    write_model(path, model)
    got = read_model(path)
    assert isinstance(got, BaselineModel)
    assert got.kind == "nmtl" and got.lam == 10.0 and got.tasks == ("a", "b")
    np.testing.assert_array_equal(got.weights, model.weights)


def test_model_errors(tmp_path):
    with pytest.raises(InputError, match="cannot serialize"):
        write_model(tmp_path / "x.json", object())
    path = tmp_path / "m.json"
    path.write_text('{"p": 2}\n', encoding="utf-8")
    with pytest.raises(InputError, match="missing key 'k'"):
        read_model(path)
    path.write_text('{"kind": "ridge", "p": 2}\n', encoding="utf-8")
    with pytest.raises(InputError, match="missing key 'tasks'"):
        read_model(path)
    path.write_text(
        '{"p": 3, "k": 2, "tasks": ["a"], "Q": [[1, 0], [0, 1]], "W": [[1], [1]],'
        ' "hyperparams": {}, "converged": true, "iterations": 1,'
        ' "residuals": {"primal": 0, "dual": 0}}\n',
        encoding="utf-8",
    )
    with pytest.raises(InputError, match="shapes inconsistent"):
        read_model(path)
    path.write_text("not json", encoding="utf-8")
    with pytest.raises(InputError, match="invalid JSON"):
        read_model(path)


# ------------------------------------------------------------------- configs


def test_read_hyperparams(tmp_path):
    path = tmp_path / "hp.json"
    path.write_text('{"k": 4, "lambda_w": 0.5}\n', encoding="utf-8")
    hp = read_hyperparams(path)
    assert hp == Hyperparams(k=4, lambda_w=0.5)
    path.write_text("[1, 2]\n", encoding="utf-8")
    with pytest.raises(InputError, match="JSON object"):
        read_hyperparams(path)
    path.write_text('{"bogus": 1}\n', encoding="utf-8")
    with pytest.raises(InputError, match="bad hyperparameter"):
        read_hyperparams(path)


def test_read_synth_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"T": 3, "p": 8, "k": 2, "n_per_task": 20, "seed": 9}\n', encoding="utf-8")
    cfg = read_synth_config(path)
    assert cfg == SynthConfig(T=3, p=8, k=2, n_per_task=20, seed=9)
    path.write_text('{"unknown_field": 1}\n', encoding="utf-8")
    with pytest.raises(InputError, match="bad synth config"):
        read_synth_config(path)
    path.write_text("7\n", encoding="utf-8")
    with pytest.raises(InputError, match="JSON object"):
        read_synth_config(path)
