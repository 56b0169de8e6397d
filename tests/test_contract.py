"""The CLI's error contract under malformed input.

Whatever a config, model file, edge list or dataset parse cache holds, a
command exits 0 (success), 2 (input error) or 3 (numerical failure), and
never with an uncaught exception. The commands run in process through main(argv), so
an uncaught exception fails the test with its traceback.
"""

import contextlib
import io
import json
import math
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import split_cache_path

from titan.cli import main

# Scalars and containers that a JSON field of any type might hold instead.
JSON_JUNK = [None, True, False, 0, 1, 2, 3, -1, 13, 0.5, 2.5, 1e-300, 1e300, 2**70,
             math.nan, math.inf, -math.inf, "", "x", "3", [], [1], {}, {"a": 1}]
# Edge-list and road-id tokens, the unsafe file names among them.
ROAD_TOKENS = ["v0", "v1", "v2", "r1", "r2", "r00", "r01", "r02", ".", "..", "../../evil",
               "a/b", "a\\b", "r\x001", "#", "r1,r2"]


def run_cli(argv):
    """Exit code and stderr of one in-process CLI run."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, err.getvalue()


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


@settings(max_examples=60, deadline=None)
@given(
    tasks=st.one_of(st.just(["r00", "r01", "r02"]), st.lists(st.sampled_from(ROAD_TOKENS), max_size=4),
                    st.sampled_from(JSON_JUNK)),
    lines=st.lists(st.one_of(st.sampled_from(["r00 r01", "r01 r02"]),
                             st.lists(st.sampled_from(ROAD_TOKENS), min_size=1, max_size=3).map(" ".join)),
                   max_size=4),
)
def test_dataset_task_graphs_keep_the_exit_contract(world, tasks, lines):
    root, ds = world
    fuzz_ds = root / "fuzz-ds"
    if not fuzz_ds.exists():
        shutil.copytree(ds, fuzz_ds)
    write_json(fuzz_ds / "tasks.json", {"tasks": tasks, "h": 3, "t": 3, "p": 6})
    (fuzz_ds / "graph.edges").write_text("\n".join(lines) + "\n", encoding="utf-8")
    hp = write_json(root / "fuzz-hp-small.json", {"k": 2, "max_iter": 2})
    assert_contract(["train", "--dataset", fuzz_ds, "--config", hp, "--out", root / "fuzz-out"])


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


# Ways to damage a split's parse cache; each gets the good cache's bytes and
# those of the other split's cache (a vector of another length).
CACHE_DAMAGE = {
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
    "directory": None,
}
CACHE_COMMANDS = {
    "train": lambda root: ["train", "--config", root / "hp.json", "--out"],
    "train-baseline": lambda root: ["train-baseline", "--kind", "ridge", "--lam", "0.1", "--out"],
    "evaluate": lambda root: ["evaluate", "--model", root / "titan.json", "--model", root / "ridge.json",
                              "--out"],
    "sweep-k": lambda root: ["sweep-k", "--config", root / "hp.json", "--k", "1,2", "--out"],
}


def cache_run(root, ds, command, out):
    code, err = run_cli(CACHE_COMMANDS[command](root) + [out, "--dataset", ds])
    assert code in (0, 2, 3), (command, code, err)
    assert "Traceback" not in err
    return code, out.read_bytes() if out.exists() else None


@pytest.fixture(scope="module")
def cache_free(world):
    """Each command's exit code and output on a copy of the dataset with no caches."""
    root, ds = world
    bare = root / "cache-free"
    shutil.copytree(ds, bare)
    for cache in bare.rglob("*.npy"):
        cache.unlink()
    return {command: cache_run(root, bare, command, root / f"cache-free-{command}")
            for command in CACHE_COMMANDS}


@pytest.mark.parametrize("damage", sorted(CACHE_DAMAGE))
def test_damaged_caches_keep_the_exit_contract_and_the_outputs(world, cache_free, damage):
    root, ds = world
    damaged = root / f"damaged-{damage.replace(' ', '-')}"
    shutil.copytree(ds, damaged)
    caches = {split: split_cache_path(damaged, split) for split in ("train", "test")}
    good = {split: path.read_bytes() for split, path in caches.items()}
    for split, other in (("train", "test"), ("test", "train")):
        if CACHE_DAMAGE[damage] is None:
            caches[split].unlink()
            caches[split].mkdir()
        else:
            caches[split].write_bytes(CACHE_DAMAGE[damage](good[split], good[other]))
    for command, want in cache_free.items():
        assert cache_run(root, damaged, command, damaged / f"out-{command}") == want, command
