"""Round trips and error reporting for the on-disk formats."""

import json
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import cell_write_matrix_csv, line_read_matrix_csv, split_cache_path

from titan import storage
from titan.baselines import BaselineModel
from titan.cli import main
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


def test_matrix_csv_unreadable_text_exits_as_input_error(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"1,2\n3,\xe9\n")
    with pytest.raises(InputError, match=r"latin1\.csv: not UTF-8 text"):
        read_matrix_csv(path)
    with pytest.raises(InputError, match="is a directory"):
        read_matrix_csv(tmp_path)


# Values the per-cell writer formats in its own way: signed zeros,
# subnormals, the largest doubles, and the non-finite ones.
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
               -1.7976931348623157e308, float("nan"), float("inf"), float("-inf"), 0.1, 1 / 3]
CSV_CELLS = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(allow_subnormal=True))
# 1x1, n x 1 and 1 x p, with n past several write blocks; then small n x p.
CSV_SHAPES = st.one_of(
    st.just((1, 1)),
    st.tuples(st.integers(0, 150), st.just(1)),
    st.tuples(st.just(1), st.integers(1, 40)),
    st.tuples(st.integers(0, 70), st.integers(0, 6)),
    st.tuples(st.integers(1, 6)),
)


@settings(max_examples=150, deadline=None)
@given(M=hnp.arrays(np.float64, CSV_SHAPES, elements=CSV_CELLS))
def test_matrix_csv_writer_bytes_match_per_cell_reference(tmp_path_factory, M):
    root = tmp_path_factory.getbasetemp()
    write_matrix_csv(root / "bulk.csv", M)
    cell_write_matrix_csv(root / "cell.csv", M)
    assert (root / "bulk.csv").read_bytes() == (root / "cell.csv").read_bytes()


def _read_outcome(reader, path, columns):
    try:
        M = reader(path, columns=columns)
    except InputError as exc:
        return "error", str(exc)
    return M.dtype, M.shape, M.tobytes()


# Text a CSV could hold: numeric syntax, separators, every line break and
# whitespace character that float() or str.splitlines() treats specially,
# and the letters of nan/inf/infinity; raw, or as rows of such cells.
CSV_CHARS = "0123456789+-,.e_# \t\r\n\x0b\x0cnaiftyNAIFTY\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000\u0661\x00"
CSV_CELL_TEXT = st.one_of(
    st.sampled_from(["1", "-2.5", "1e3", " 3 ", "", "#", "1_0", "\t4", "nan", "5\x0c", "\x0b6",
                     "7\x85", "\u20288", "\x1f9", "\u0661", "1 2", ".", ".5e-3"]),
    st.text(alphabet=CSV_CHARS, max_size=4),
)
CSV_ROWS = st.lists(st.lists(CSV_CELL_TEXT, min_size=1, max_size=4).map(",".join), max_size=6)
CSV_TEXT = st.one_of(
    st.text(alphabet=CSV_CHARS, max_size=40),
    CSV_ROWS.map("\n".join),
    CSV_ROWS.map("\r\n".join),
)


@settings(max_examples=600, deadline=None)
@given(text=CSV_TEXT, columns=st.sampled_from([None, 1, 2]))
def test_matrix_csv_reader_matches_per_line_reference(tmp_path_factory, text, columns):
    path = tmp_path_factory.getbasetemp() / "fuzz.csv"
    path.write_text(text, encoding="utf-8", newline="")
    assert _read_outcome(read_matrix_csv, path, columns) == _read_outcome(line_read_matrix_csv, path, columns)


@pytest.mark.parametrize("text", [
    "1,2\n  \n3,4\n",      # whitespace-only line
    "1,2\n\t\n3,4\n",
    "# header\n1,2\n",       # comment line
    "1,2\n# note\n3,4\n",
    "1,2\f\n3,4\n",         # form feed: a line break for splitlines
    "1\f2\n",
    "1\x0b2\n",             # vertical tab
    "1_0,2\n",              # digit separator
    "1,2 # x\n",            # trailing comment: rejected, not stripped
    "1,2\n3\n",             # ragged
    "1,,2\n",               # empty cell
    "",                     # no data at all
    "\n\n",
    "1,2\r3,4\r",            # old Mac line ends
    "nan,-inf,INFINITY\n",
    "1,5\f,1\n",           # a line break inside a row: ragged
    "1,\x1f9\n",           # unit separator: whitespace to numpy only
    "1,\u0661\n",          # a non-ASCII digit float() takes
])
def test_matrix_csv_reader_named_cases_match_reference(tmp_path, text):
    path = tmp_path / "m.csv"
    path.write_text(text, encoding="utf-8", newline="")
    assert _read_outcome(read_matrix_csv, path, None) == _read_outcome(line_read_matrix_csv, path, None)


def test_matrix_csv_reader_keeps_trailing_comment_rejected(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n3,4 # x\n", encoding="utf-8")
    with pytest.raises(InputError, match=r"m\.csv:2: bad numeric cell"):
        read_matrix_csv(path)


def test_matrix_csv_writer_named_values_match_reference(tmp_path):
    cases = [np.array([EDGE_VALUES]), np.array(EDGE_VALUES)[:, None], np.array([[-0.0]]),
             np.zeros((0, 3)), np.full((130, 2), 5e-324)]
    for M in cases:
        write_matrix_csv(tmp_path / "bulk.csv", M)
        cell_write_matrix_csv(tmp_path / "cell.csv", M)
        assert (tmp_path / "bulk.csv").read_bytes() == (tmp_path / "cell.csv").read_bytes()
    assert (tmp_path / "bulk.csv").read_text().splitlines()[0] == "4.9406564584124654e-324,4.9406564584124654e-324"


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


# --------------------------------------------------------------- parse cache


def small_dataset(root, seed=1):
    train, test, _ = generate(SynthConfig(T=3, p=8, k=2, n_per_task=20,
                                          noise_sigma=0.5, graph_kind="path", seed=seed))
    return write_dataset(root, train, test)


def drop_caches(root):
    for cache in root.rglob("*.npy"):
        cache.unlink()


def test_cache_hit_equals_parse_with_its_dtype_and_layout(tmp_path, monkeypatch):
    root = small_dataset(tmp_path / "ds")
    assert sorted(root.rglob("*.npy")) == [split_cache_path(root, "test"), split_cache_path(root, "train")]

    def no_parse(path, columns=None):
        raise AssertionError(f"parsed {path}")

    with monkeypatch.context() as m:
        m.setattr(storage, "read_matrix_csv", no_parse)
        cached = read_dataset(root)
    drop_caches(root)
    parsed = read_dataset(root)
    for a, b in zip([td for ds in cached for td in ds.tasks], [td for ds in parsed for td in ds.tasks]):
        for got, want in ((a.X, b.X), (a.Y, b.Y)):
            assert np.array_equal(got, want)
            assert got.dtype == want.dtype == np.float64
            assert got.flags.c_contiguous and want.flags.c_contiguous
            assert got.strides == want.strides


def test_commands_write_the_same_bytes_without_caches(tmp_path):
    cached = small_dataset(tmp_path / "cached")
    bare = tmp_path / "bare"
    shutil.copytree(cached, bare)
    drop_caches(bare)
    hp = tmp_path / "hp.json"
    hp.write_text('{"k": 2, "max_iter": 60}\n', encoding="utf-8")

    def outputs(ds):
        out = tmp_path / f"out-{ds.name}"
        out.mkdir()
        for argv in (["train", "--config", hp, "--out", out / "titan.json"],
                     ["train-baseline", "--kind", "ridge", "--out", out / "ridge.json"],
                     ["train-baseline", "--kind", "nmtl", "--out", out / "nmtl.json"],
                     ["evaluate", "--model", out / "titan.json", "--model", out / "ridge.json",
                      "--model", out / "nmtl.json", "--out", out / "report.csv"],
                     ["sweep-k", "--config", hp, "--k", "1,2,3", "--out", out / "sweep.csv"]):
            assert main([str(a) for a in argv + ["--dataset", ds]]) == 0
        return {f.name: f.read_bytes() for f in sorted(out.iterdir())}

    assert outputs(cached) == outputs(bare)
    assert not list(bare.rglob("*.npy"))  # reading never writes a cache


def test_edited_csv_is_read_with_its_new_values(tmp_path):
    root = small_dataset(tmp_path / "ds")
    before = read_split(root, "train")
    stale = split_cache_path(root, "train")
    x_csv, y_csv = root / "train" / "X_r01.csv", root / "train" / "Y_r01.csv"
    X = before.tasks[1].X.copy()
    X[3, 2] += 1.0
    write_matrix_csv(x_csv, X)
    y_lines = y_csv.read_text(encoding="utf-8").splitlines()
    y_lines[0] = "7.25"
    y_csv.write_text("\n".join(y_lines) + "\n", encoding="utf-8")
    assert stale.is_file() and not split_cache_path(root, "train").exists()
    after = read_split(root, "train")
    np.testing.assert_array_equal(after.tasks[1].X, X)
    assert after.tasks[1].Y[0] == 7.25
    np.testing.assert_array_equal(after.tasks[1].Y[1:], before.tasks[1].Y[1:])
    np.testing.assert_array_equal(after.tasks[0].X, before.tasks[0].X)


@settings(max_examples=60, deadline=None)
@given(damage=st.one_of(st.binary(max_size=400), st.integers(0, 10**6)))
def test_damaged_cache_falls_back_to_the_parse(tmp_path_factory, damage):
    root = tmp_path_factory.mktemp("damaged")
    small_dataset(root)
    cache = split_cache_path(root, "test")
    good = cache.read_bytes()
    # random bytes, or the real cache cut short
    cache.write_bytes(damage if isinstance(damage, bytes) else good[:damage % len(good)])
    got = read_split(root, "test").tasks
    for road, td in zip(("r00", "r01", "r02"), got):
        assert np.array_equal(td.X, read_matrix_csv(root / "test" / f"X_{road}.csv", columns=8))
        assert np.array_equal(td.Y, read_matrix_csv(root / "test" / f"Y_{road}.csv", columns=1)[:, 0])


def test_rewriting_a_dataset_replaces_its_caches(tmp_path):
    root = small_dataset(tmp_path / "ds", seed=1)
    small_dataset(root, seed=2)
    assert sorted(root.rglob("*.npy")) == [split_cache_path(root, "test"), split_cache_path(root, "train")]


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
    for meta, message in [
        ('{"tasks": ["a", "../../evil"], "h": 2, "t": 2}', "not a plain file name"),
        ('{"tasks": ["a", 7], "h": 2, "t": 2}', "not a plain file name"),
        ('{"tasks": [], "h": 2, "t": 2}', "non-empty list"),
        ('{"tasks": ["a", "b"], "h": "x", "t": 2}', "must be integers"),
        ('["a", "b"]', "JSON object"),
    ]:
        (tmp_path / "tasks.json").write_text(meta + "\n", encoding="utf-8")
        with pytest.raises(InputError, match=message):
            read_task_graph(tmp_path)
    (tmp_path / "tasks.json").write_text('{"tasks": ["a", "b"], "h": 2, "t": 2}\n', encoding="utf-8")
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
        hyperparams=Hyperparams(k=2, lambda_w=0.25),
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
    five = [[float(i == j) for j in range(5)] for i in range(5)]
    path.write_text(json.dumps({"p": 5, "k": 5, "tasks": ["a"], "Q": five, "W": [[1.0]] * 5,
                                "hyperparams": {"k": 2}, "converged": True, "iterations": 1,
                                "residuals": {"primal": 0, "dual": 0}}), encoding="utf-8")
    with pytest.raises(InputError, match="bad value for 'hyperparams'"):
        read_model(path)
    path.write_text("not json", encoding="utf-8")
    with pytest.raises(InputError, match="invalid JSON"):
        read_model(path)
    path.write_text("[1, 2]\n", encoding="utf-8")
    with pytest.raises(InputError, match="must hold a JSON object"):
        read_model(path)


@pytest.mark.parametrize("field, value, message", [
    ("Q", [[float("nan"), 0.0], [0.0, 1.0], [1.0, 0.0]], "bad value for 'Q'"),
    ("W", [[float("inf")], [1.0]], "bad value for 'W'"),
    ("Q", [[1.0, 0.0], [0.0]], "bad value for 'Q'"),
    ("Q", [[1.0, 0.0], [0.0, 1.0]], "shapes inconsistent"),
    ("k", 0, "bad value for 'k'"),
    ("tasks", "a", "bad value for 'tasks'"),
    ("iterations", "x", "bad value for 'iterations'"),
    ("residuals", [0, 0], "bad value for 'residuals'"),
    ("hyperparams", [], "bad value for 'hyperparams'"),
])
def test_trained_model_rejects_bad_fields(tmp_path, field, value, message):
    obj = {"p": 3, "k": 2, "tasks": ["a"], "Q": [[1, 0], [0, 1], [0, 0]], "W": [[1], [1]],
           "hyperparams": {}, "converged": True, "iterations": 1,
           "residuals": {"primal": 0, "dual": 0}}
    path = tmp_path / "m.json"
    path.write_text(json.dumps({**obj, field: value}), encoding="utf-8")
    with pytest.raises(InputError, match=message):
        read_model(path)


@pytest.mark.parametrize("field, value, message", [
    ("weights", [[1.0, float("nan")], [0.0, 1.0]], "bad value for 'weights'"),
    ("weights", [[1.0, 2.0]], "shapes inconsistent"),
    ("p", True, "bad value for 'p'"),
    ("lambda", float("inf"), "bad value for 'lambda'"),
])
def test_baseline_model_rejects_bad_fields(tmp_path, field, value, message):
    obj = {"kind": "ridge", "p": 2, "tasks": ["a", "b"], "weights": [[1.0, 2.0], [3.0, 4.0]],
           "lambda": 0.1}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert read_model(path).weights.shape == (2, 2)
    path.write_text(json.dumps({**obj, field: value}), encoding="utf-8")
    with pytest.raises(InputError, match=message):
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
