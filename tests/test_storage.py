"""Round trips and error reporting for the on-disk formats."""

import io
import json
import shutil
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import cell_write_matrix_csv, line_read_matrix_csv, random_dataset

from titan import storage
from titan.baselines import BaselineModel
from titan.cli import main
from titan.errors import InputError
from titan.solver import Hyperparams, TrainedModel, fit
from titan.storage import (
    in_memory,
    read_dataset,
    read_ground_truth,
    read_hyperparams,
    read_matrix_csv,
    read_model,
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
    got = read_matrix_csv(path)
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
    bad.write_text("1,2\n\n# note\n3,x\n", encoding="utf-8")
    with pytest.raises(InputError, match=r"bad\.csv:4: bad numeric cell"):
        read_matrix_csv(bad)
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1,2\n3\n", encoding="utf-8")
    with pytest.raises(InputError, match=r"ragged\.csv:2: ragged row"):
        read_matrix_csv(ragged)
    empty = tmp_path / "empty.csv"
    empty.write_text("# only a comment\n", encoding="utf-8")
    with pytest.raises(InputError, match="no data rows"):
        read_matrix_csv(empty)
    for cell in ("nan", "-inf", "1e309"):
        non_finite = tmp_path / "non_finite.csv"
        non_finite.write_text(f"1,2\n# note\n3,{cell}\n", encoding="utf-8")
        with pytest.raises(InputError, match=r"non_finite\.csv:3: non-finite cell"):
            read_matrix_csv(non_finite)


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


def _read_outcome(reader, path):
    try:
        M = reader(path)
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
@given(text=CSV_TEXT)
def test_matrix_csv_reader_matches_per_line_reference(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz.csv"
    path.write_text(text, encoding="utf-8", newline="")
    assert _read_outcome(read_matrix_csv, path) == _read_outcome(line_read_matrix_csv, path)


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
    assert _read_outcome(read_matrix_csv, path) == _read_outcome(line_read_matrix_csv, path)


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


# The powers of ten that bound the decades %.17g prints in fixed notation
# (1e-4 up to 1e17) and the exponent-form decades around them.
POWERS_OF_TEN = np.array([float(f"1e{k}") for k in range(-9, 21)])


def _decades(rng):
    """Every decade from 1e-8 to 1e19: full-precision values, the same
    rounded to a few decimals, and on a binary grid, whose short digit
    strings have trailing zeros to trim; all with both signs."""
    cols = []
    for d in range(-8, 20):
        x = rng.uniform(1.0, 10.0, 64) * POWERS_OF_TEN[d + 9]
        cols += [x] + [np.round(x, k) for k in range(4)] + [np.round(x * 4) / 4, np.round(x, 4 - d)]
    x = np.concatenate(cols)
    return np.concatenate([x, -x]).reshape(-1, 8)


def _neighbours_of_powers_of_ten(rng):
    p = POWERS_OF_TEN
    x = np.stack([p, np.nextafter(p, 0), np.nextafter(np.nextafter(p, 0), 0),
                  np.nextafter(p, np.inf), np.nextafter(np.nextafter(p, np.inf), np.inf)], axis=1)
    return np.concatenate([x, -x])


def _ties(rng):
    """m * 2**-(17 - e), m odd, in decade e: exactly half a unit in the 17th
    significant digit, so %.17g rounds it half to even."""
    cols = []
    for e in range(-4, 16):
        scale = 2.0 ** (17 - e)
        lo, hi = int(np.ceil(10.0 ** e * scale)), min(int(10.0 ** (e + 1) * scale), 2 ** 53)
        m = rng.integers(lo, hi, 256) | 1
        x = np.ldexp(m.astype(float), e - 17)
        assert all(Decimal(v).scaleb(16 - e) % 1 == Decimal("0.5") for v in x[:16].tolist())
        cols.append(x)
    x = np.concatenate(cols)
    return np.concatenate([x, -x]).reshape(-1, 4)


def _bit_patterns(rng):
    return rng.integers(0, 2 ** 64, (4000, 10), dtype=np.uint64).view(np.float64)


def _specials(rng):
    subnormal = rng.integers(1, 2 ** 52, 32, dtype=np.uint64).view(np.float64)
    return np.concatenate([[0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
                            2.2250738585072009e-308, 2.2250738585072014e-308], subnormal, -subnormal])[:, None]


EXACTNESS_CASES = {
    "decades": _decades,
    "powers_of_ten": _neighbours_of_powers_of_ten,
    # the literals round to the double nearest the next power of ten
    "carries": lambda rng: np.array([[9.9999999999999999e-5, 0.99999999999999999, 9.9999999999999999,
                                      9999999999999999.9, 99999999999999999.0, 9.99999999999999999e-6]]),
    "ties": _ties,
    "bit_patterns": _bit_patterns,
    "specials": _specials,
    "no_rows": lambda rng: np.zeros((0, 5)),
    "no_columns": lambda rng: np.zeros((3, 0)),
    "one_column": lambda rng: rng.standard_normal((5000, 1)),
    "one_row": lambda rng: rng.standard_normal((1, 3000)),
    "one_value": lambda rng: np.array([[0.1]]),
    "several_blocks": lambda rng: rng.standard_normal((700, 7)) * 10.0 ** rng.integers(-6, 18, (700, 7)),
}


@pytest.mark.parametrize("case", sorted(EXACTNESS_CASES))
def test_matrix_csv_writer_exact_on_constructed_values(tmp_path, case):
    M = EXACTNESS_CASES[case](np.random.default_rng(1301))
    write_matrix_csv(tmp_path / "bulk.csv", M)
    cell_write_matrix_csv(tmp_path / "cell.csv", M)
    assert (tmp_path / "bulk.csv").read_bytes() == (tmp_path / "cell.csv").read_bytes()


# ------------------------------------------------------------------- dataset


def test_dataset_round_trip(tmp_path):
    train, test, truth = generate(SynthConfig(T=3, p=8, k=2, n_per_task=20,
                                              noise_sigma=0.5, graph_kind="path", seed=0))
    root = write_dataset(tmp_path / "ds", *in_memory(train, test), truth)
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


def test_write_dataset_refuses_tasks_that_miss_their_header(tmp_path):
    """Each streamed task must be the road, and have the rows, that
    tasks.json and the values.npy headers were written for."""
    train, test, _ = generate(SynthConfig(T=3, p=8, k=2, n_per_task=20,
                                          noise_sigma=0.5, graph_kind="path", seed=1))
    graph, h, t, rows, _ = in_memory(train, test)
    swapped = [(train.tasks[1], test.tasks[1]), (train.tasks[0], test.tasks[0]), (train.tasks[2], test.tasks[2])]
    with pytest.raises(InputError, match="train task 'r01': expected road 'r00'"):
        write_dataset(tmp_path / "swapped", graph, h, t, rows, swapped)
    short = dict(rows, test=[3, 4, 4])
    with pytest.raises(InputError, match="test task 'r00': expected road 'r00' with 3 rows of p=8"):
        write_dataset(tmp_path / "short", graph, h, t, short, zip(train.tasks, test.tasks))
    for root in (tmp_path / "swapped", tmp_path / "short"):
        assert not (root / "tasks.json").exists()


def test_read_dataset_reads_the_splits_asked_for_on_one_graph(tmp_path, monkeypatch):
    train, test, _ = generate(SynthConfig(T=3, p=8, k=2, n_per_task=20,
                                          noise_sigma=0.5, graph_kind="path", seed=1))
    root = write_dataset(tmp_path / "ds", *in_memory(train, test))
    pair = read_dataset(root)
    assert pair[0].graph is pair[1].graph
    for splits in (("train",), ("test",), ("test", "train")):
        parts = read_dataset(root, splits)
        assert len(parts) == len(splits) and len({id(part.graph) for part in parts}) == 1
        for part, split in zip(parts, splits):
            whole = pair[("train", "test").index(split)]
            assert part.graph.tasks == whole.graph.tasks and (part.h, part.t) == (whole.h, whole.t)
            np.testing.assert_array_equal(part.graph.adjacency, whole.graph.adjacency)
            for a, b in zip(part.tasks, whole.tasks):
                np.testing.assert_array_equal(a.X, b.X)
                np.testing.assert_array_equal(a.Y, b.Y)
    reads = []
    monkeypatch.setattr(storage, "read_task_graph", lambda r, real=read_task_graph: reads.append(r) or real(r))
    read_dataset(root)
    assert reads == [root]  # tasks.json and graph.edges parsed once for both splits
    for f in (root / "train").iterdir():
        f.unlink()
    (part,) = read_dataset(root, ("test",))
    assert part.tasks[0].n == test.tasks[0].n  # train files never opened
    with pytest.raises(InputError, match="missing file"):
        read_dataset(root, ("train",))
    with pytest.raises(InputError, match="splits must be among"):
        read_dataset(root, ("validation",))


# ---------------------------------------------------------------- values.npy


def small_dataset(root, seed=1):
    train, test, _ = generate(SynthConfig(T=3, p=8, k=2, n_per_task=20,
                                          noise_sigma=0.5, graph_kind="path", seed=seed))
    return write_dataset(root, *in_memory(train, test))


def assembled_dataset(root):
    """`assemble --standardize` on two roads' raw inputs."""
    rng = np.random.default_rng(5)
    raw = root / "raw"
    (raw / "speeds").mkdir(parents=True)
    (raw / "roads.edges").write_text("v0 v1 r1\nv1 v2 r2\n", encoding="utf-8")
    for road in ("r1", "r2"):
        readings = "\n".join(f"{v:.3f}" for v in rng.uniform(20, 60, size=40))
        (raw / "speeds" / f"{road}.csv").write_text(f"# start_index=0\n{readings}\n", encoding="utf-8")
    rows = ["incident_id,road_id,verification_index,duration_minutes"]
    rows += [f"i{n},r{1 + n % 2},{5 + n},{30 + 2 * n}" for n in range(24)]
    (raw / "incidents.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    ds = root / "assembled"
    assert main(["assemble", "--edges", str(raw / "roads.edges"), "--incidents", str(raw / "incidents.csv"),
                 "--speeds-dir", str(raw / "speeds"), "--h", "3", "--t", "2", "--standardize",
                 "--out", str(ds)]) == 0
    return ds


def run_dataset_commands(ds, out):
    """train, train-baseline, evaluate and sweep-k on `ds`; returns the
    bytes of each file they write to the new directory `out`."""
    out.mkdir()
    hp = out.parent / "hp.json"
    hp.write_text('{"k": 2, "max_iter": 60}\n', encoding="utf-8")
    for argv in (["train", "--config", hp, "--out", out / "titan.json"],
                 ["train-baseline", "--kind", "ridge", "--out", out / "ridge.json"],
                 ["train-baseline", "--kind", "nmtl", "--out", out / "nmtl.json"],
                 ["evaluate", "--model", out / "titan.json", "--model", out / "ridge.json",
                  "--model", out / "nmtl.json", "--out", out / "report.csv"],
                 ["sweep-k", "--config", hp, "--k", "1,2,3", "--out", out / "sweep.csv"]):
        assert main([str(a) for a in argv + ["--dataset", ds]]) == 0
    return {f.name: f.read_bytes() for f in sorted(out.iterdir())}


def test_values_npy_is_each_task_x_then_y_as_np_save_writes_it(tmp_path):
    train, test, _ = generate(SynthConfig(T=3, p=8, k=2, n_per_task=20,
                                          noise_sigma=0.5, graph_kind="path", seed=1))
    root = write_dataset(tmp_path / "ds", *in_memory(train, test))
    assert sorted(root.rglob("*.npy")) == [root / "test" / "values.npy", root / "train" / "values.npy"]
    meta = json.loads((root / "tasks.json").read_text(encoding="utf-8"))
    assert sorted(meta) == ["h", "rows", "t", "tasks"]
    for split, ds in (("train", train), ("test", test)):
        assert meta["rows"][split] == [td.n for td in ds.tasks]
        flat = np.concatenate([M.ravel() for td in ds.tasks for M in (td.X, td.Y)])
        path = root / split / "values.npy"
        np.testing.assert_array_equal(np.load(path), flat)
        buf = io.BytesIO()
        np.save(buf, flat)
        assert path.read_bytes() == buf.getvalue()


def test_cache_hit_equals_parse_with_its_dtype_and_layout(tmp_path, monkeypatch):
    """Reading values.npy gives the arrays parsing the split CSVs gives."""
    root = small_dataset(tmp_path / "ds")
    assembled = assembled_dataset(tmp_path)

    def no_parse(path):
        raise AssertionError(f"parsed {path}")

    with monkeypatch.context() as m:
        m.setattr(storage, "read_matrix_csv", no_parse)
        binary = read_dataset(root)
        # every command that reads a dataset written by synth or assemble
        # reads values.npy, never a CSV
        for ds in (root, assembled):
            run_dataset_commands(ds, tmp_path / f"out-{ds.name}")
    for split, ds in zip(("train", "test"), binary):
        for td in ds.tasks:
            X = read_matrix_csv(root / split / f"X_{td.road_id}.csv")
            Y = read_matrix_csv(root / split / f"Y_{td.road_id}.csv")
            assert Y.shape == (td.n, 1)
            for got, want in ((td.X, X), (td.Y, Y[:, 0])):
                assert np.array_equal(got, want)
                assert got.dtype == want.dtype == np.float64
                assert got.flags.c_contiguous and want.flags.c_contiguous
                assert got.strides == want.strides


def test_commands_write_the_same_bytes_without_split_csvs(tmp_path):
    root = small_dataset(tmp_path / "ds")
    bare = tmp_path / "bare"
    shutil.copytree(root, bare)
    csvs = sorted(bare.rglob("*.csv"))
    assert len(csvs) == 12
    for csv in csvs:
        csv.unlink()
    assert run_dataset_commands(bare, tmp_path / "out-bare") == run_dataset_commands(root, tmp_path / "out")


@settings(max_examples=60, deadline=None)
@given(damage=st.one_of(st.binary(max_size=400), st.integers(0, 10**6)))
def test_damaged_values_npy_exits_naming_the_file(tmp_path_factory, damage):
    root = tmp_path_factory.mktemp("damaged")
    small_dataset(root)
    values = root / "test" / "values.npy"
    good = values.read_bytes()
    # random bytes, or the real file cut short
    values.write_bytes(damage if isinstance(damage, bytes) else good[:damage % len(good)])
    with pytest.raises(InputError) as exc:
        read_dataset(root, ("test",))
    assert str(exc.value).startswith(f"{values}: ")
    read_dataset(root, ("train",))  # the other split is intact


def test_rewriting_a_dataset_replaces_its_caches(tmp_path):
    """Rewriting a dataset directory replaces each split's values.npy."""
    root = small_dataset(tmp_path / "ds", seed=1)
    small_dataset(root, seed=2)
    assert sorted(root.rglob("*.npy")) == [root / "test" / "values.npy", root / "train" / "values.npy"]
    train, test, _ = generate(SynthConfig(T=3, p=8, k=2, n_per_task=20,
                                          noise_sigma=0.5, graph_kind="path", seed=2))
    for got, want in zip(read_dataset(root), (train, test)):
        for a, b in zip(got.tasks, want.tasks):
            np.testing.assert_array_equal(a.X, b.X)
            np.testing.assert_array_equal(a.Y, b.Y)


def test_rewriting_a_dataset_without_truth_drops_the_earlier_truth(tmp_path):
    """A dataset written over a synthetic one keeps none of its planted Q
    and W, so ground_truth.json never names roads the tasks do not."""
    train, test, truth = generate(SynthConfig(T=3, p=8, k=2, n_per_task=20, graph_kind="path", seed=1))
    root = write_dataset(tmp_path / "ds", *in_memory(train, test), truth)
    train, test, _ = generate(SynthConfig(T=4, p=8, k=2, n_per_task=20, graph_kind="star", seed=2))
    write_dataset(root, *in_memory(train, test))
    with pytest.raises(InputError, match="missing file"):
        read_ground_truth(root)


def test_dataset_reader_errors(tmp_path):
    with pytest.raises(InputError, match="missing file"):
        read_task_graph(tmp_path)
    (tmp_path / "tasks.json").write_text('{"tasks": ["a"]}\n', encoding="utf-8")
    with pytest.raises(InputError, match="missing key 'h'"):
        read_task_graph(tmp_path)
    (tmp_path / "tasks.json").write_text('{"tasks": ["a", "b"], "h": 2, "t": 2}\n', encoding="utf-8")
    with pytest.raises(InputError, match="missing key 'rows'"):
        read_task_graph(tmp_path)
    rows = '"rows": {"test": [1, 2], "train": [3, 4]}'
    (tmp_path / "tasks.json").write_text(f'{{"tasks": ["a", "b"], "h": 2, "t": 2, "p": 4, {rows}}}\n',
                                         encoding="utf-8")
    with pytest.raises(InputError, match="graph.edges"):
        read_task_graph(tmp_path)
    (tmp_path / "graph.edges").write_text("a b c\n", encoding="utf-8")
    with pytest.raises(InputError, match="expected 2 fields, got 3"):
        read_task_graph(tmp_path)
    (tmp_path / "graph.edges").write_text("# note\n\na b c\n", encoding="utf-8")
    with pytest.raises(InputError, match=r"graph\.edges:3: expected 2 fields, got 3"):
        read_task_graph(tmp_path)
    (tmp_path / "graph.edges").write_text("# none\na b\n", encoding="utf-8")
    graph, h, t, counts = read_task_graph(tmp_path)
    assert graph.tasks == ("a", "b") and (h, t) == (2, 2) and counts == {"train": [3, 4], "test": [1, 2]}
    for meta, message in [
        (f'{{"tasks": ["a", "../../evil"], "h": 2, "t": 2, {rows}}}', "bad value for 'tasks'"),
        (f'{{"tasks": ["a", 7], "h": 2, "t": 2, {rows}}}', "bad value for 'tasks'"),
        (f'{{"tasks": [], "h": 2, "t": 2, {rows}}}', "bad value for 'tasks'"),
        (f'{{"tasks": ["a", "b"], "h": "x", "t": 2, {rows}}}', "bad value for 'h'"),
        ('["a", "b"]', "JSON object"),
        ('{"tasks": ["a", "b"], "h": 2, "t": 2, "rows": null}', "bad value for 'rows'"),
        ('{"tasks": ["a", "b"], "h": 2, "t": 2, "rows": {"train": [3, 4]}}', "bad value for 'rows'"),
        ('{"tasks": ["a", "b"], "h": 2, "t": 2, "rows": {"train": [3, 4], "test": [1]}}', "bad value for 'rows'"),
        ('{"tasks": ["a", "b"], "h": 2, "t": 2, "rows": {"train": [3, 4], "test": [1, true]}}',
         "bad value for 'rows'"),
    ]:
        (tmp_path / "tasks.json").write_text(meta + "\n", encoding="utf-8")
        with pytest.raises(InputError, match=message):
            read_task_graph(tmp_path)
    (tmp_path / "tasks.json").write_text(f'{{"tasks": ["a", "b"], "h": 2, "t": 2, {rows}}}\n',
                                         encoding="utf-8")
    with pytest.raises(InputError, match="missing file"):
        read_dataset(tmp_path)  # train/ split absent


def test_ground_truth_missing(tmp_path):
    with pytest.raises(InputError, match="missing file"):
        read_ground_truth(tmp_path)


# ground_truth.json edits, and the error each gives after the file's path
GROUND_TRUTH_FAULTS = {
    "missing Q": (lambda obj: {key: obj[key] for key in ("tasks", "W")}, "missing key 'Q'"),
    "text cell in Q": (lambda obj: {**obj, "Q": [["x", *obj["Q"][0][1:]], *obj["Q"][1:]]},
                       "bad value for 'Q'"),
    "tasks not a list": (lambda obj: {**obj, "tasks": 5}, "bad value for 'tasks'"),
    "W missing a task": (lambda obj: {**obj, "W": [row[:-1] for row in obj["W"]]},
                         "'W' must have a row per column of 'Q' and a column per task"),
}


@pytest.mark.parametrize("fault", GROUND_TRUTH_FAULTS)
def test_ground_truth_errors_name_the_file_and_key(tmp_path, fault):
    edit, message = GROUND_TRUTH_FAULTS[fault]
    train, test, truth = generate(SynthConfig(T=3, p=8, k=2, n_per_task=20, graph_kind="path", seed=1))
    root = write_dataset(tmp_path, *in_memory(train, test), truth)
    read_ground_truth(root)
    path = root / "ground_truth.json"
    path.write_text(json.dumps(edit(json.loads(path.read_text(encoding="utf-8")))), encoding="utf-8")
    with pytest.raises(InputError) as info:
        read_ground_truth(root)
    assert str(info.value) == f"{path}: {message}"


# Each JSON input a command reads: its reader and the error when it holds no object.
JSON_INPUTS = {
    "tasks.json": (lambda path: read_task_graph(path.parent), "must hold a JSON object"),
    "ground_truth.json": (lambda path: read_ground_truth(path.parent), "must hold a JSON object"),
    "model.json": (read_model, "model file must hold a JSON object"),
    "hp.json": (read_hyperparams, "hyperparameter file must hold a JSON object"),
    "synth.json": (read_synth_config, "config must hold a JSON object"),
}


@pytest.mark.parametrize("name", JSON_INPUTS)
def test_json_inputs_must_hold_an_object(tmp_path, name):
    read, message = JSON_INPUTS[name]
    path = tmp_path / name
    path.write_text("[]\n", encoding="utf-8")
    with pytest.raises(InputError) as info:
        read(path)
    assert str(info.value) == f"{path}: {message}"


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


def test_write_model_refuses_models_read_model_rejects(tmp_path):
    path = tmp_path / "model.json"
    Q, W = np.eye(3)[:, :2], np.ones((2, 1))
    unfitted = TrainedModel(Q=Q, W=W, tasks=("a",), hyperparams=Hyperparams(k=2))
    with pytest.raises(InputError, match="no fitted iterations"):
        write_model(path, unfitted)
    with pytest.raises(InputError, match="non-finite"):
        write_model(path, TrainedModel(Q=Q, W=W, tasks=("a",), hyperparams=Hyperparams(k=2),
                                       iterations=1))  # residuals still (inf, inf)
    assert not path.exists()
    data = random_dataset(np.random.default_rng(3), 3, 6)
    model = fit(data, Hyperparams(k=2, max_iter=5))
    write_model(path, model)
    json.loads(path.read_text(encoding="utf-8"), parse_constant=pytest.fail)  # standard JSON
    got = read_model(path)
    np.testing.assert_array_equal(got.Q, model.Q)
    np.testing.assert_array_equal(got.W, model.W)
    assert got.iterations == model.iterations and got.final_residuals == model.final_residuals


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
    ("iterations", -5.7, "bad value for 'iterations'"),
    ("converged", "no", "bad value for 'converged'"),
    ("Q", [["1", "0"], ["0", "1"], ["0", "0"]], "bad value for 'Q'"),
    ("W", [[True], [1]], "bad value for 'W'"),
    ("W", True, "bad value for 'W'"),
    ("residuals", {"primal": "0.001", "dual": 0}, "bad value for 'residuals'"),
    ("residuals", {"primal": 0, "dual": True}, "bad value for 'residuals'"),
    ("residuals", {"primal": float("nan"), "dual": 0}, "bad value for 'residuals'"),
    ("residuals", {"primal": 0, "dual": -1.0}, "bad value for 'residuals'"),
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
    ("lambda", "10", "bad value for 'lambda'"),
    ("lambda", True, "bad value for 'lambda'"),
    ("weights", [["1.0", "2.0"], ["3.0", "4.0"]], "bad value for 'weights'"),
    ("weights", [[1.0, True], [3.0, 4.0]], "bad value for 'weights'"),
    ("weights", "1.0", "bad value for 'weights'"),
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


def test_hyperparams_round_trip_through_a_model_file(tmp_path):
    """A model file keeps all nine hyperparameters; a hyperparameter file
    or a model file naming any other key, the retired ones among them, is
    rejected, the hyperparameter file naming the key."""
    hp = Hyperparams(lambda_w=0.3, lambda_q=0.02, lambda_conn=2.0, rho=0.5, k=2, alpha=0.04,
                     max_iter=7, eps_primal=1e-4, eps_dual=2e-4)
    model = TrainedModel(Q=np.eye(3)[:, :2], W=np.ones((2, 1)), tasks=("a",), hyperparams=hp,
                         iterations=1, final_residuals=(0.0, 0.0))
    path = tmp_path / "model.json"
    write_model(path, model)
    saved = json.loads(path.read_text(encoding="utf-8"))
    assert len(saved["hyperparams"]) == 9
    assert read_model(path).hyperparams == hp
    for key in ("seed", "inner_w_solve", "orthogonality", "bogus"):
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps({"k": 3, key: 1}), encoding="utf-8")
        with pytest.raises(InputError) as info:
            read_hyperparams(path)
        assert str(info.value).startswith(f"{path}: bad hyperparameter set: ") and key in str(info.value)
        path.write_text(json.dumps({**saved, "hyperparams": {**saved["hyperparams"], key: True}}),
                        encoding="utf-8")
        with pytest.raises(InputError, match="bad value for 'hyperparams'"):
            read_model(path)


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
