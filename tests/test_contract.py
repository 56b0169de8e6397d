"""The CLI's error contract under malformed input.

Whatever a config, model file, edge list or dataset file holds, a
command exits 0 (success), 2 (input error) or 3 (numerical failure), and
never with an uncaught exception. The commands run in process through main(argv), so
an uncaught exception fails the test with its traceback.
"""

import contextlib
import io
import json
import math
import shutil
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from titan import baselines, evaluation, solver, storage
from titan.cli import main
from titan.errors import NumericalAbort

# Scalars and containers that a JSON field of any type might hold instead.
JSON_JUNK = [None, True, False, 0, 1, 2, 3, -1, 13, 0.5, 2.5, 1e-300, 1e300, 2**70,
             math.nan, math.inf, -math.inf, "", "x", "3", [], [1], {}, {"a": 1}]
# Edge-list and road-id tokens, the unsafe file names among them.
ROAD_TOKENS = ["v0", "v1", "v2", "r1", "r2", "r00", "r01", "r02", ".", "..", "../../evil",
               "a/b", "a\\b", "r\x001", "#", "r1,r2"]


def run_cli_streams(argv):
    """Exit code, stderr and stdout of one in-process CLI run."""
    err, out = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, err.getvalue(), out.getvalue()


def run_cli(argv):
    """Exit code and stderr of one in-process CLI run."""
    return run_cli_streams(argv)[:2]


def assert_contract(argv):
    code, err = run_cli(argv)
    assert code in (0, 2, 3), (argv, code, err)
    assert "Traceback" not in err
    if code == 2:
        assert "error:" in err


def write_json(path, obj):
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """A small dataset, a trained and a baseline model, raw assemble inputs."""
    root = tmp_path_factory.mktemp("contract")
    synth_cfg = write_json(root / "synth.json", {"T": 3, "p": 6, "k": 2, "n_per_task": 20,
                                                  "graph_kind": "path", "seed": 3})
    ds = root / "ds"
    assert main(["synth", "--config", str(synth_cfg), "--out", str(ds)]) == 0
    hp = write_json(root / "hp.json", {"k": 2, "max_iter": 20})
    assert main(["train", "--dataset", str(ds), "--config", str(hp), "--out", str(root / "titan.json")]) == 0
    assert main(["train-baseline", "--dataset", str(ds), "--kind", "ridge", "--lam", "0.1",
                 "--out", str(root / "ridge.json")]) == 0
    raw = root / "raw"
    (raw / "speeds").mkdir(parents=True)
    for road in ("r1", "r2"):
        readings = "\n".join(str(30 + (i * 7) % 11) for i in range(30))
        (raw / "speeds" / f"{road}.csv").write_text(f"# start_index=0\n{readings}\n", encoding="utf-8")
    incidents = ["incident_id,road_id,verification_index,duration_minutes"]
    incidents += [f"i{n},r{1 + n % 2},{4 + n},{20 + n}" for n in range(16)]
    (raw / "incidents.csv").write_text("\n".join(incidents) + "\n", encoding="utf-8")
    (raw / "roads.edges").write_text("v0 v1 r1\nv1 v2 r2\n", encoding="utf-8")
    return root, ds


def json_texts(obj_strategy):
    """JSON text of generated objects, or text that is not JSON at all."""
    return st.one_of(obj_strategy.map(json.dumps), st.sampled_from(["", "{", "[1, 2]", "7", "\"x\"", "NaN"]))


HYPERPARAM_KEYS = ["lambda_w", "lambda_q", "lambda_conn", "rho", "k", "alpha", "eps_primal",
                   "eps_dual", "inner_w_solve", "seed", "orthogonality", "bogus"]
HYPERPARAMS = st.dictionaries(
    st.sampled_from(HYPERPARAM_KEYS),
    st.sampled_from(JSON_JUNK + ["exact", "gradient"]),
    max_size=4,
).flatmap(  # a fit runs at most a few iterations, whatever else the file holds
    lambda d: st.sampled_from([1, 3, 0, 2.5, "3", None, 1e300]).map(lambda m: {**d, "max_iter": m})
)
SYNTH_KEYS = ["T", "p", "k", "n_per_task", "noise_sigma", "graph_kind", "weight_smoothness",
              "feature_corr", "seed", "edge_list_path", "bogus"]
SYNTH_CONFIGS = st.dictionaries(
    st.sampled_from(SYNTH_KEYS),
    st.sampled_from(JSON_JUNK + ["star", "path", "custom-edge-list", ".", "missing.edges"]),
    max_size=5,
).map(lambda d: {"T": 3, "p": 6, "k": 2, "n_per_task": 5, **d})


@settings(max_examples=60, deadline=None)
@given(text=json_texts(HYPERPARAMS), command=st.sampled_from(["train", "sweep-k"]))
# huge lambda_q and rho: a Q step leaves retract columns of subnormals
@example(text='{"lambda_q": 1e300, "rho": 1e300, "max_iter": 3, "k": 2}', command="train")
@example(text='{"lambda_q": 1e300, "rho": 1e300, "max_iter": 3}', command="train")
def test_hyperparameter_configs_keep_the_exit_contract(world, text, command):
    root, ds = world
    cfg = root / "fuzz-hp.json"
    cfg.write_text(text, encoding="utf-8")
    argv = [command, "--dataset", ds, "--config", cfg, "--out", root / "fuzz-out"]
    assert_contract(argv + (["--k", "2"] if command == "sweep-k" else []))


@settings(max_examples=60, deadline=None)
@given(text=json_texts(SYNTH_CONFIGS))
def test_synth_configs_keep_the_exit_contract(world, text):
    root, _ = world
    cfg = root / "fuzz-synth.json"
    cfg.write_text(text, encoding="utf-8")
    out = root / "fuzz-synth-ds"
    shutil.rmtree(out, ignore_errors=True)
    assert_contract(["synth", "--config", cfg, "--out", out])


DELETE = object()


def mutated_model(base):
    """The model JSON with up to three fields replaced or removed."""
    values = st.sampled_from(JSON_JUNK + [DELETE, [[math.nan, 0.0]] * 6, [[1.0]] * 6,
                                          ["r00", "r00", "r00"], "titan", "ridge"])
    edits = st.lists(st.tuples(st.sampled_from(sorted(base) + ["kind"]), values), min_size=1, max_size=3)

    def apply(changes):
        obj = dict(base)
        for key, value in changes:
            if value is DELETE:
                obj.pop(key, None)
            else:
                obj[key] = value
        return obj

    return edits.map(apply)


@pytest.mark.parametrize("name", ["titan.json", "ridge.json"])
def test_model_files_keep_the_exit_contract(world, name):
    root, ds = world
    base = json.loads((root / name).read_text(encoding="utf-8"))
    x_csv = ds / "test" / "X_r00.csv"

    @settings(max_examples=60, deadline=None)
    @given(text=json_texts(mutated_model(base)), command=st.sampled_from(["evaluate", "predict", "report-groups"]))
    def check(text, command):
        model = root / "fuzz-model.json"
        model.write_text(text, encoding="utf-8")
        out = root / "fuzz-out"
        if command == "evaluate":
            assert_contract(["evaluate", "--dataset", ds, "--model", model, "--out", out])
        elif command == "predict":
            assert_contract(["predict", "--model", model, "--x", x_csv, "--task", "r00", "--out", out])
        else:
            assert_contract(["report-groups", "--model", model, "--out", out])

    check()


# Lines of the raw inputs' own network mixed with lines of random tokens.
EDGE_LINES = st.lists(
    st.one_of(st.sampled_from(["v0 v1 r1", "v1 v2 r2"]),
              st.lists(st.sampled_from(ROAD_TOKENS), min_size=1, max_size=4).map(" ".join)),
    max_size=4,
)


@settings(max_examples=60, deadline=None)
@given(lines=EDGE_LINES)
def test_assemble_edge_lists_keep_the_exit_contract(world, lines):
    root, _ = world
    raw = root / "raw"
    edges = raw / "fuzz.edges"
    edges.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = root / "fuzz-assembled"
    shutil.rmtree(out, ignore_errors=True)
    assert_contract(["assemble", "--edges", edges, "--incidents", raw / "incidents.csv",
                     "--speeds-dir", raw / "speeds", "--h", 2, "--t", 1, "--out", out])


KEEP = object()
# tasks.json's `rows`: the dataset's own, absent (exit 2, a missing key),
# junk, or objects of junk and of counts that miss the values.
ROWS = st.one_of(
    st.sampled_from([KEEP, DELETE]),
    st.sampled_from(JSON_JUNK),
    st.dictionaries(st.sampled_from(["train", "test", "bogus"]),
                    st.one_of(st.sampled_from(JSON_JUNK),
                              st.lists(st.sampled_from([14, 6, 1, 0, -1, True, 2.0, "6", None]), max_size=4)),
                    max_size=3),
)


@settings(max_examples=60, deadline=None)
@given(
    tasks=st.one_of(st.just(["r00", "r01", "r02"]), st.lists(st.sampled_from(ROAD_TOKENS), max_size=4),
                    st.sampled_from(JSON_JUNK)),
    lines=st.lists(st.one_of(st.sampled_from(["r00 r01", "r01 r02"]),
                             st.lists(st.sampled_from(ROAD_TOKENS), min_size=1, max_size=3).map(" ".join)),
                   max_size=4),
    rows=ROWS,
)
def test_dataset_task_graphs_keep_the_exit_contract(world, tasks, lines, rows):
    root, ds = world
    fuzz_ds = root / "fuzz-ds"
    if not fuzz_ds.exists():
        shutil.copytree(ds, fuzz_ds)
    meta = {"tasks": tasks, "h": 3, "t": 3, "p": 6}
    if rows is KEEP:
        meta["rows"] = json.loads((ds / "tasks.json").read_text(encoding="utf-8"))["rows"]
    elif rows is not DELETE:
        meta["rows"] = rows
    write_json(fuzz_ds / "tasks.json", meta)
    (fuzz_ds / "graph.edges").write_text("\n".join(lines) + "\n", encoding="utf-8")
    hp = write_json(root / "fuzz-hp-small.json", {"k": 2, "max_iter": 2})
    assert_contract(["train", "--dataset", fuzz_ds, "--config", hp, "--out", root / "fuzz-out"])


def edit_tasks_json(ds, **fields):
    meta = json.loads((ds / "tasks.json").read_text(encoding="utf-8"))
    write_json(ds / "tasks.json", {**meta, **fields})


def drop_rows(ds):
    meta = json.loads((ds / "tasks.json").read_text(encoding="utf-8"))
    del meta["rows"]
    write_json(ds / "tasks.json", meta)


def repeat_a_road(ds):
    meta = json.loads((ds / "tasks.json").read_text(encoding="utf-8"))
    edit_tasks_json(ds, tasks=meta["tasks"] + ["r01"],
                    rows={split: counts + [1] for split, counts in meta["rows"].items()})


# A damaged task graph or row count, and where the error must point.
DATASET_FAULTS = {
    "unknown road": (lambda ds: (ds / "graph.edges").write_text("r00 r01\nr01 zz\n", encoding="utf-8"),
                     "graph.edges:2", "task edge ('r01', 'zz') references unknown road"),
    "self loop": (lambda ds: (ds / "graph.edges").write_text("# loop\nr02 r02\n", encoding="utf-8"),
                  "graph.edges:2", "task edge may not be a self loop ('r02')"),
    "three fields": (lambda ds: (ds / "graph.edges").write_text("r00 r01 r02\n", encoding="utf-8"),
                     "graph.edges:1", "expected 2 fields, got 3"),
    "repeated road": (repeat_a_road, "tasks.json", "duplicate road id in task list"),
    "no rows": (drop_rows, "tasks.json", "missing key 'rows'"),
    "bool count": (lambda ds: edit_tasks_json(ds, rows={"train": [14, True, 14], "test": [6, 6, 6]}),
                   "tasks.json", "bad value for 'rows'"),
    "extra split": (lambda ds: edit_tasks_json(ds, rows={"train": [14] * 3, "test": [6] * 3, "dev": []}),
                    "tasks.json", "bad value for 'rows'"),
    "counts miss the values": (lambda ds: edit_tasks_json(ds, rows={"train": [14, 14, 13], "test": [6] * 3}),
                               "train/values.npy", "not a float64 .npy vector of the 287 values"),
}


@pytest.mark.parametrize("fault", sorted(DATASET_FAULTS))
def test_dataset_errors_name_their_file(world, fault):
    root, ds = world
    edit, where, message = DATASET_FAULTS[fault]
    bad = root / f"fault-{fault.replace(' ', '-')}"
    shutil.copytree(ds, bad)
    edit(bad)
    code, err = run_cli(["train", "--config", root / "hp.json", "--out", bad / "out", "--dataset", bad])
    assert code == 2, (code, err)
    assert err.startswith(f"error: {bad / where}: {message}"), err
    assert not (bad / "out").exists()


def npy_bytes(M, allow_pickle=False):
    buf = io.BytesIO()
    np.save(buf, M, allow_pickle=allow_pickle)
    return buf.getvalue()


def huge_header(v):
    """A header that claims 10**10 values in front of v's data."""
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(buf, {"descr": "<f8", "fortran_order": False, "shape": (10**10,)})
    return buf.getvalue() + v.tobytes()


def vector(good):
    return np.load(io.BytesIO(good))


def with_nan(v):
    v = v.copy()
    v[-1] = math.nan  # the last task's last label
    return v


# Ways to damage a split's values.npy; each gets the good file's bytes and
# those of the other split's (a vector of another length).
VALUES_DAMAGE = {
    "truncated": lambda good, other: good[:len(good) // 2],
    "header only": lambda good, other: good[:128],
    "empty": lambda good, other: b"",
    "int64": lambda good, other: npy_bytes(vector(good).astype(np.int64)),
    "2-D": lambda good, other: npy_bytes(vector(good).reshape(-1, 1)),
    "2-D Fortran order": lambda good, other: npy_bytes(np.asfortranarray(vector(good).reshape(2, -1))),
    "pickled objects": lambda good, other: npy_bytes(vector(good).astype(object), allow_pickle=True),
    "big-endian": lambda good, other: npy_bytes(vector(good).astype(">f8")),
    "other split": lambda good, other: other,
    "no values": lambda good, other: npy_bytes(vector(good)[:0]),
    "one value short": lambda good, other: npy_bytes(vector(good)[:-1]),
    "huge shape": lambda good, other: huge_header(vector(good)),
    "NaN": lambda good, other: npy_bytes(with_nan(vector(good))),
    "directory": None,
}
DATASET_COMMANDS = {
    "train": lambda root: ["train", "--config", root / "hp.json", "--out"],
    "train-baseline": lambda root: ["train-baseline", "--kind", "ridge", "--lam", "0.1", "--out"],
    "evaluate": lambda root: ["evaluate", "--model", root / "titan.json", "--model", root / "ridge.json",
                              "--out"],
    "sweep-k": lambda root: ["sweep-k", "--config", root / "hp.json", "--k", "1,2", "--out"],
}


@pytest.mark.parametrize("damage", sorted(VALUES_DAMAGE))
def test_damaged_caches_keep_the_exit_contract_and_the_outputs(world, damage):
    """With both splits' values.npy damaged, each command exits 2 naming
    the first file it reads (a NaN: naming the task), and prints and
    writes nothing else."""
    root, ds = world
    damaged = root / f"damaged-{damage.replace(' ', '-')}"
    shutil.copytree(ds, damaged)
    paths = {split: damaged / split / "values.npy" for split in ("train", "test")}
    good = {split: path.read_bytes() for split, path in paths.items()}
    for split, other in (("train", "test"), ("test", "train")):
        if VALUES_DAMAGE[damage] is None:
            paths[split].unlink()
            paths[split].mkdir()
        else:
            paths[split].write_bytes(VALUES_DAMAGE[damage](good[split], good[other]))
    for command in DATASET_COMMANDS:
        out = damaged / f"out-{command}"
        code, err, stdout = run_cli_streams(DATASET_COMMANDS[command](root) + [out, "--dataset", damaged])
        where = "task 'r02': Y contains non-finite entries" if damage == "NaN" else \
            f"{paths['test' if command == 'evaluate' else 'train']}: "
        assert code == 2, (command, code, err)
        assert err.startswith(f"error: {where}") and err.count("\n") == 1, (command, err)
        assert stdout == "" and not out.exists(), command


@pytest.mark.parametrize("command, split", [("train", "train"), ("train-baseline", "train"),
                                            ("train-baseline", "test"), ("evaluate", "test")])
def test_non_finite_labels_exit_2_naming_the_task(world, command, split):
    root, ds = world
    bad = root / f"nan-label-{command}-{split}"
    shutil.copytree(ds, bad)
    meta = json.loads((bad / "tasks.json").read_text(encoding="utf-8"))
    n0, n1 = meta["rows"][split][:2]
    p = meta["h"] + meta["t"]
    values = np.load(bad / split / "values.npy")
    values[n0 * (p + 1) + n1 * p] = math.nan  # task r01's first label
    np.save(bad / split / "values.npy", values)
    code, err = run_cli(DATASET_COMMANDS[command](root) + [bad / "out", "--dataset", bad])
    assert code == 2, (code, err)
    assert err.startswith("error: ") and "task 'r01': Y" in err and "Traceback" not in err, err
    assert not (bad / "out").exists()


@pytest.mark.parametrize("h, t", [(3.9, "3"), (-5, 11), (0, 6), (True, 5), (3.0, 3), (3, "3")])
@pytest.mark.parametrize("command", ["train", "train-baseline", "evaluate"])
def test_window_sizes_in_tasks_json_must_be_positive_integers(world, command, h, t):
    root, ds = world
    bad = root / f"windows-{command}-{h}-{t}"
    shutil.copytree(ds, bad)
    meta = json.loads((bad / "tasks.json").read_text(encoding="utf-8"))
    write_json(bad / "tasks.json", {**meta, "h": h, "t": t})
    code, err = run_cli(DATASET_COMMANDS[command](root) + [bad / "out", "--dataset", bad])
    assert code == 2, (code, err)
    key = "t" if type(h) is int and h >= 1 else "h"  # the table checks h first
    assert err == f"error: {bad / 'tasks.json'}: bad value for {key!r}\n", err
    assert not (bad / "out").exists()


def test_non_finite_duration_exits_2_naming_the_line(world):
    root, _ = world
    raw = root / "raw"
    lines = (raw / "incidents.csv").read_text(encoding="utf-8").splitlines()
    lines[4] = lines[4].rsplit(",", 1)[0] + ",inf"
    incidents = raw / "inf-incidents.csv"
    incidents.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = root / "inf-assembled"
    code, err = run_cli(["assemble", "--edges", raw / "roads.edges", "--incidents", incidents,
                         "--speeds-dir", raw / "speeds", "--h", 2, "--t", 1, "--out", out])
    assert code == 2, (code, err)
    assert err.startswith(f"error: {incidents}:5: ") and "Traceback" not in err, err
    assert not out.exists()


def assemble_argv(raw, out, incidents=None, speeds=None, extra=()):
    return ["assemble", "--edges", raw / "roads.edges", "--incidents", incidents or raw / "incidents.csv",
            "--speeds-dir", speeds or raw / "speeds", "--h", 2, "--t", 1, *extra, "--out", out]


def test_empty_incident_file_exits_2_naming_it(world):
    root, _ = world
    incidents = root / "raw" / "empty-incidents.csv"
    incidents.write_text("", encoding="utf-8")
    out = root / "empty-assembled"
    code, err, stdout = run_cli_streams(assemble_argv(root / "raw", out, incidents=incidents))
    assert (code, err, stdout) == (2, f"error: {incidents}: empty incident file\n", "")
    assert not out.exists()


@pytest.mark.parametrize("reading", ["nan", "-1.5"])
def test_speed_file_with_a_bad_reading_exits_2_naming_it(world, reading):
    root, _ = world
    speeds = root / f"speeds-{reading}"
    shutil.copytree(root / "raw" / "speeds", speeds)
    text = (speeds / "r2.csv").read_text(encoding="utf-8")
    (speeds / "r2.csv").write_text(text + f"{reading}\n", encoding="utf-8")
    out = root / f"assembled-{reading}"
    code, err, stdout = run_cli_streams(assemble_argv(root / "raw", out, speeds=speeds))
    assert (code, stdout) == (2, ""), (code, err)
    assert err == f"error: {speeds / 'r2.csv'}: series 'r2': readings must be finite and >= 0\n", err
    assert not out.exists()


def test_comment_lines_in_the_incident_file_are_skipped(world):
    root, _ = world
    raw = root / "raw"
    header, *lines = (raw / "incidents.csv").read_text(encoding="utf-8").splitlines()
    incidents = raw / "noted-incidents.csv"
    incidents.write_text("\n".join([header, "# one incident a line", *lines[:5], "", "  # and a gap",
                                    *lines[5:]]) + "\n", encoding="utf-8")
    plain, noted = root / "plain-assembled", root / "noted-assembled"
    assert run_cli(assemble_argv(raw, plain)) == (0, "")
    assert run_cli(assemble_argv(raw, noted, incidents=incidents)) == (0, "")
    files = sorted(path.relative_to(plain) for path in plain.rglob("*") if path.is_file())
    assert files == sorted(path.relative_to(noted) for path in noted.rglob("*") if path.is_file())
    assert all((plain / f).read_bytes() == (noted / f).read_bytes() for f in files)


def test_standardize_overflow_exits_3_and_writes_no_dataset(tmp_path):
    """Two roads of 20 incidents; every window of road r1 holds a finite
    reading of 1e200, whose square is past the largest double."""
    speeds = tmp_path / "speeds"
    speeds.mkdir()
    for road in ("r1", "r2"):
        readings = [str(30 + i % 7) for i in range(30)]
        if road == "r1":
            readings[4] = "1e200"
        (speeds / f"{road}.csv").write_text("# start_index=0\n" + "\n".join(readings) + "\n", encoding="utf-8")
    rows = [f"i{n},{road},{5 if road == 'r1' else 5 + n},{20 + n}" for road in ("r1", "r2") for n in range(20)]
    incidents = tmp_path / "incidents.csv"
    incidents.write_text("\n".join(["incident_id,road_id,verification_index,duration_minutes", *rows]) + "\n",
                         encoding="utf-8")
    (tmp_path / "roads.edges").write_text("v0 v1 r1\nv1 v2 r2\n", encoding="utf-8")
    out = tmp_path / "assembled"
    unscaled = assemble_argv(tmp_path, tmp_path / "unscaled", incidents=incidents, speeds=speeds)
    assert run_cli(unscaled)[0] == 0  # without --standardize the reading is valid input
    code, err, stdout = run_cli_streams(assemble_argv(tmp_path, out, incidents=incidents, speeds=speeds,
                                                      extra=["--standardize"]))
    assert code == 3, (code, err)
    assert err.startswith("numerical failure: overflow encountered in ") and err.count("\n") == 1, err
    assert err.endswith(" in the column standardization\n") and stdout == "", err
    assert not (out / "tasks.json").exists()


@pytest.mark.parametrize("command", ["synth", "assemble"])
def test_negative_seed_exits_2(world, command):
    root, _ = world
    out = root / f"seed-{command}"
    code, err, stdout = run_cli_streams(WRITERS[command](root, None)[:-1] + ["--seed", "-1", "--out", out])
    assert (code, err, stdout) == (2, "error: seed must be >= 0, got -1\n", "")
    assert not (out / "tasks.json").exists()


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e309"])
def test_non_finite_predict_cell_exits_2_naming_the_line(world, cell):
    root, ds = world
    x = root / f"x-{cell}.csv"
    x.write_text(f"# two rows\n1,2,3,4,5,6\n1,2,3,{cell},5,6\n", encoding="utf-8")
    out = root / f"pred-{cell}.csv"
    for model in ("titan.json", "ridge.json"):
        code, err, stdout = run_cli_streams(["predict", "--model", root / model, "--x", x, "--task", "r00",
                                             "--out", out])
        assert code == 2, (model, code, err)
        assert err == f"error: {x}:3: non-finite cell\n" and stdout == "", (model, err)
        assert not out.exists()


def test_overflowing_prediction_exits_3(world):
    """Finite cells of 1e308, signed as the task's weights, whose
    prediction is past the largest double."""
    root, ds = world
    x = root / "x-huge.csv"
    out = root / "pred-huge.csv"
    for model in ("titan.json", "ridge.json"):
        coef = storage.read_model(root / model).coef(0)
        assert np.abs(coef).sum() > 2
        x.write_text(",".join("1e308" if c > 0 else "-1e308" for c in coef) + "\n", encoding="utf-8")
        code, err, stdout = run_cli_streams(["predict", "--model", root / model, "--x", x, "--task", "r00",
                                             "--out", out])
        assert code == 3, (model, code, err)
        assert err == "numerical failure: non-finite prediction for task 'r00'\n" and stdout == "", (model, err)
        assert not out.exists()


def test_overflowing_metric_exits_3_and_writes_no_report(world):
    """Finite weights of 1e200 whose predictions are finite but whose
    squared errors are past the largest double. Scored after a good model
    of the same kind, nothing is printed for that one, and the abort
    names the file."""
    root, ds = world
    model = json.loads((root / "ridge.json").read_text(encoding="utf-8"))
    huge = write_json(root / "ridge-huge.json",
                      {**model, "weights": [[1e200] * len(row) for row in model["weights"]]})
    out = root / "report-huge.csv"
    for models in ([huge], [root / "ridge.json", huge]):
        argv = ["evaluate", "--dataset", ds, "--out", out, *[a for m in models for a in ("--model", m)]]
        code, err, stdout = run_cli_streams(argv)
        assert code == 3, (code, err)
        assert err == f"numerical failure: {huge}: overflow encountered in multiply scoring ridge on task 'r00'\n"
        assert stdout == "" and not out.exists()
    with pytest.raises(NumericalAbort, match="scoring ridge on task 'r00'$"):  # train-baseline's grid score
        evaluation.evaluate(storage.read_model(huge), *storage.read_dataset(ds, ("test",)))


@pytest.mark.parametrize("edit, message", [
    (lambda m: {**m, "tasks": m["tasks"] + ["r03"], "weights": [row + [0.0] for row in m["weights"]]},
     "model tasks ['r00', 'r01', 'r02', 'r03'] do not match dataset tasks ['r00', 'r01', 'r02']"),
    (lambda m: {**m, "kind": "svm"}, f"kind must be one of {baselines.BASELINE_KINDS}, got 'svm'"),
    (lambda m: {**m, "lambda": -1}, "lambda must be >= 0, got -1.0"),
], ids=["tasks", "kind", "lambda"])
def test_evaluate_names_the_model_file_in_an_input_error(world, tmp_path, edit, message):
    """Read and scored after a good model, a model file that titan cannot
    read as a baseline or cannot score on the dataset: the error says
    which --model it is."""
    root, ds = world
    bad = write_json(tmp_path / "bad.json", edit(json.loads((root / "ridge.json").read_text(encoding="utf-8"))))
    out = tmp_path / "report.csv"
    code, err, stdout = run_cli_streams(["evaluate", "--dataset", ds, "--model", root / "ridge.json",
                                         "--model", bad, "--out", out])
    assert (code, err, stdout) == (2, f"error: {bad}: {message}\n", "")
    assert not out.exists()


def test_a_zero_test_label_exits_2_in_train_baseline_as_in_evaluate(world, tmp_path):
    """train-baseline picks its penalty with evaluate's scores, so a test
    label of 0, which has no percentage error, stops both commands."""
    root, ds = world
    zero = tmp_path / "ds"
    shutil.copytree(ds, zero)
    _, h, t, rows = storage.read_task_graph(zero)
    values = np.load(zero / "test" / "values.npy")
    values[rows["test"][0] * (h + t)] = 0.0  # the first test label of the first road
    np.save(zero / "test" / "values.npy", values)
    out = tmp_path / "ridge.json"
    code, err, stdout = run_cli_streams(["train-baseline", "--dataset", zero, "--kind", "ridge", "--out", out])
    assert (code, err, stdout) == (2, "error: mape undefined for zero labels\n", "") and not out.exists()
    code, err, _ = run_cli_streams(["evaluate", "--dataset", zero, "--model", root / "ridge.json",
                                    "--out", tmp_path / "report.csv"])
    assert (code, err) == (2, f"error: {root / 'ridge.json'}: mape undefined for zero labels\n")


@pytest.mark.parametrize("command", ["train-baseline", "sweep-k"])
def test_both_splits_share_one_task_graph_read_once(world, monkeypatch, tmp_path, command):
    """tasks.json and graph.edges are parsed once per command, and the
    train and test splits it fits and scores hold that one graph."""
    root, ds = world
    reads, graphs = [], []
    read_task_graph, fit_baseline = storage.read_task_graph, baselines.fit_baseline
    evaluate, sweep_group_count = evaluation.evaluate, evaluation.sweep_group_count
    monkeypatch.setattr(storage, "read_task_graph", lambda path: reads.append(path) or read_task_graph(path))
    monkeypatch.setattr(baselines, "fit_baseline",
                        lambda kind, train, lam: graphs.append(train.graph) or fit_baseline(kind, train, lam))
    monkeypatch.setattr(evaluation, "evaluate", lambda model, test: graphs.append(test.graph) or evaluate(model, test))
    monkeypatch.setattr(evaluation, "sweep_group_count", lambda train, test, hp, ks: graphs.extend(
        (train.graph, test.graph)) or sweep_group_count(train, test, hp, ks))
    args = {"train-baseline": ["--kind", "ridge"], "sweep-k": ["--config", root / "hp.json", "--k", "2"]}
    code, err = run_cli([command, "--dataset", ds, *args[command], "--out", tmp_path / "out"])
    assert code == 0, err
    assert reads == [str(ds)]
    assert len(graphs) >= 3 and all(graph is graphs[0] for graph in graphs)


@pytest.mark.parametrize("kind", baselines.BASELINE_KINDS)
def test_overflowing_baseline_fit_exits_3_naming_the_fit(tmp_path, kind):
    """Labels of ~1e155, whose squares overflow in the Gram statistics
    that every baseline fit reads first."""
    ds = tmp_path / "ds"
    cfg = write_json(tmp_path / "synth.json", {"weight_smoothness": 1e-310, "T": 3, "p": 6, "k": 3,
                                               "n_per_task": 20, "seed": 1})
    assert main(["synth", "--config", str(cfg), "--out", str(ds)]) == 0
    out = tmp_path / "baseline.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, err, stdout = run_cli_streams(["train-baseline", "--dataset", ds, "--kind", kind, "--out", out])
    lam = baselines.BASELINES[kind][0]
    assert code == 3, (code, err)
    assert err == f"numerical failure: overflow encountered in matmul fitting {kind} at lambda={lam:g}\n", err
    assert stdout == "" and not out.exists()


@pytest.mark.parametrize("command", ["train", "sweep-k"])
def test_float_overflow_in_a_fit_exits_3_naming_the_iteration(world, monkeypatch, command):
    """A multiplier update that overflows in iteration 2."""
    real, calls = solver.update_multipliers, []

    def overflowing(state, hp):
        calls.append(state)
        L1, L2 = real(state, hp)
        if len(calls) == 2:
            L1 = L1 + np.full_like(L1, 1e300) * 1e300
        return L1, L2

    monkeypatch.setattr(solver, "update_multipliers", overflowing)
    root, ds = world
    hp = write_json(root / "overflow.json", {"k": 2, "max_iter": 3})
    out = root / f"overflow-{command}"
    extra = ["--k", "2"] if command == "sweep-k" else []
    code, err, stdout = run_cli_streams([command, "--dataset", ds, "--config", hp, "--out", out, *extra])
    assert code == 3, (code, err)
    assert err.startswith("numerical failure: ") and err.count("\n") == 1, err
    assert err.endswith("overflow encountered in multiply at iteration 2\n"), err
    assert stdout == "" and not out.exists()


@pytest.mark.parametrize("command", ["train", "sweep-k"])
@pytest.mark.parametrize("config", [
    # every Q step from 1e300 down to 1e300 / 2**29 overflows, so each one stalls
    {"alpha": 1e300, "k": 2, "max_iter": 3},
    # prox_l21 zeroes every row of W, whose norms are far below lambda_w / rho
    {"lambda_w": 1e300, "lambda_conn": 2**70, "max_iter": 1, "k": 2},
], ids=["huge-alpha", "huge-lambda-w"])
def test_extreme_configs_with_finite_answers_exit_0_without_warnings(world, config, command):
    root, ds = world
    hp = write_json(root / "extreme.json", config)
    out = root / f"extreme-{command}"
    extra = ["--k", "2"] if command == "sweep-k" else []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, err, stdout = run_cli_streams([command, "--dataset", ds, "--config", hp, "--out", out, *extra])
    assert code == 0, (code, err)
    assert all(line.startswith("INFO ") for line in err.splitlines()), err
    if command == "train":
        assert err == "" and "converged=False" in stdout
        assert not storage.read_model(out).converged


@pytest.fixture(scope="module")
def star6(tmp_path_factory):
    """The default synth (6-road star, p = 60) at seed 1."""
    ds = tmp_path_factory.mktemp("star6") / "ds"
    assert main(["synth", "--seed", "1", "--out", str(ds)]) == 0
    return ds


@pytest.mark.parametrize("lam", ["1e300", "5e-324"])
@pytest.mark.parametrize("kind", baselines.BASELINE_KINDS)
def test_extreme_baseline_penalties_exit_0_without_warnings(star6, tmp_path, kind, lam):
    out = tmp_path / "baseline.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, err, stdout = run_cli_streams(["train-baseline", "--dataset", star6, "--kind", kind,
                                             "--lam", lam, "--out", out])
    assert code == 0, (code, err)
    assert all(line.startswith("INFO ") for line in err.splitlines()), err
    assert math.isfinite(float(stdout.rsplit("pooled_test_rmse=", 1)[1]))
    assert storage.read_model(out).lam == float(lam)


# Every command that writes a file, its output path left for the caller to append.
WRITERS = {
    "synth": lambda root, ds: ["synth", "--config", root / "synth.json", "--out"],
    "assemble": lambda root, ds: ["assemble", "--edges", root / "raw" / "roads.edges",
                                  "--incidents", root / "raw" / "incidents.csv",
                                  "--speeds-dir", root / "raw" / "speeds", "--h", 2, "--t", 1, "--out"],
    "train": lambda root, ds: ["train", "--dataset", ds, "--config", root / "hp.json", "--out"],
    "train-baseline": lambda root, ds: ["train-baseline", "--dataset", ds, "--kind", "ridge", "--lam", "0.1",
                                        "--out"],
    "predict": lambda root, ds: ["predict", "--model", root / "titan.json", "--x", ds / "test" / "X_r00.csv",
                                 "--task", "r00", "--out"],
    "evaluate": lambda root, ds: ["evaluate", "--dataset", ds, "--model", root / "titan.json", "--out"],
    "sweep-k": lambda root, ds: ["sweep-k", "--dataset", ds, "--config", root / "hp.json", "--k", "2", "--out"],
    "report-groups": lambda root, ds: ["report-groups", "--model", root / "titan.json", "--out"],
}
# synth and assemble make their dataset directory, parents included
FILE_WRITERS = sorted(set(WRITERS) - {"synth", "assemble"})


def assert_unwritable(world, monkeypatch, command, out):
    """The command exits 2 naming `out`. No command calls a dataset, model
    or matrix reader or a fit first: those raise here if called."""
    def reached(*args, **kwargs):
        raise AssertionError("reached before the --out check")

    for module, name in [(solver, "fit"), (baselines, "fit_baseline"), (storage, "read_dataset"),
                         (storage, "read_model"), (storage, "read_matrix_csv"), (storage, "read_hyperparams")]:
        monkeypatch.setattr(module, name, reached)
    root, ds = world
    code, err = run_cli(WRITERS[command](root, ds) + [out])
    assert code == 2, (command, code, err)
    assert err.startswith(f"error: {out}: ") and "Traceback" not in err, err
    assert out.is_dir() or not out.exists()


@pytest.mark.parametrize("command", FILE_WRITERS)
def test_out_inside_a_missing_directory_exits_2(world, monkeypatch, command):
    root, _ = world
    assert_unwritable(world, monkeypatch, command, root / "no-such-dir" / "out")


@pytest.mark.parametrize("command", sorted(WRITERS))
def test_out_under_a_regular_file_exits_2(world, monkeypatch, command):
    root, _ = world
    assert_unwritable(world, monkeypatch, command, root / "hp.json" / "out")


@pytest.mark.parametrize("command", FILE_WRITERS)
def test_out_that_is_a_directory_exits_2(world, monkeypatch, command):
    root, _ = world
    out = root / "raw"
    before = sorted(out.rglob("*"))
    assert_unwritable(world, monkeypatch, command, out)
    assert sorted(out.rglob("*")) == before
