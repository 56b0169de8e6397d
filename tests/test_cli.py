"""End-to-end command-line runs, exercised in process via main(argv)."""

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from helpers import cell_write_matrix_csv, parse_report_csv

import titan
from titan import evaluation
from titan.cli import main
from titan.errors import InputError, NumericalAbort
from titan.solver import Hyperparams, TrainedModel, predict
from titan.storage import (
    in_memory,
    read_dataset,
    read_ground_truth,
    read_matrix_csv,
    read_model,
    write_dataset,
    write_matrix_csv,
    write_model,
)
from titan.synth import SynthConfig, generate


def sha_tree(root):
    """SHA-256 digest per file under root, keyed by relative path."""
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def write_json(path, obj):
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    return str(path)


def run_python(*args, cwd=None, **extra_env):
    """Run a fresh interpreter that imports this titan package, in `cwd`,
    with `extra_env` added to its environment."""
    env = dict(os.environ, PYTHONPATH=str(Path(titan.__file__).resolve().parents[1]), **extra_env)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, cwd=cwd,
                          timeout=120)


def pooled_from_stdout(text):
    """method -> pooled rmse, parsed from evaluate/sweep stdout lines."""
    out = {}
    for line in text.splitlines():
        m = re.match(r"^([\w#-]+): pooled rmse=([0-9.]+)", line.strip())
        if m:
            out[m.group(1)] = float(m.group(2))
    return out


@pytest.fixture(scope="module")
def small_ds(tmp_path_factory):
    root = tmp_path_factory.mktemp("small")
    cfg = write_json(root / "synth.json", {
        "T": 3, "p": 12, "k": 3, "n_per_task": 40,
        "noise_sigma": 0.5, "graph_kind": "path", "seed": 1,
    })
    ds = root / "ds"
    assert main(["synth", "--config", cfg, "--out", str(ds)]) == 0
    return root, cfg, ds


@pytest.fixture(scope="module")
def trained(small_ds):
    root, _, ds = small_ds
    hp = write_json(root / "hp.json", {"k": 3, "max_iter": 800})
    model = root / "model.json"
    assert main(["train", "--dataset", str(ds), "--config", hp, "--out", str(model)]) == 0
    return hp, model


@pytest.fixture(scope="module")
def noiseless(tmp_path_factory):
    root = tmp_path_factory.mktemp("noiseless")
    cfg = write_json(root / "synth.json", {
        "T": 3, "p": 12, "k": 3, "n_per_task": 40,
        "noise_sigma": 0.0, "graph_kind": "path", "seed": 2,
    })
    ds = root / "ds"
    assert main(["synth", "--config", cfg, "--out", str(ds)]) == 0
    return root, ds


@pytest.fixture(scope="module")
def ordering_models(tmp_path_factory):
    root = tmp_path_factory.mktemp("ordering")
    cfg = write_json(root / "synth.json", {
        "T": 4, "p": 20, "k": 4, "n_per_task": 150,
        "noise_sigma": 1.5, "graph_kind": "star", "seed": 2,
    })
    ds = root / "ds"
    assert main(["synth", "--config", cfg, "--out", str(ds)]) == 0
    hp = write_json(root / "hp.json", {"k": 4})
    paths = {"titan": root / "titan.json"}
    assert main(["train", "--dataset", str(ds), "--config", hp, "--out", str(paths["titan"])]) == 0
    for kind in ("ridge", "lasso", "nmtl"):
        paths[kind] = root / f"{kind}.json"
        assert main(["train-baseline", "--dataset", str(ds), "--kind", kind,
                     "--out", str(paths[kind])]) == 0
    return root, ds, paths


# --------------------------------------------------------------------- synth


def test_synth_writes_expected_layout(small_ds):
    _, _, ds = small_ds
    names = {str(p.relative_to(ds)) for p in ds.rglob("*") if p.is_file()}
    roads = ("r00", "r01", "r02")
    want = {"tasks.json", "graph.edges", "ground_truth.json"}
    for split in ("train", "test"):
        for road in roads:
            want.add(f"{split}/X_{road}.csv")
            want.add(f"{split}/Y_{road}.csv")
        want.add(f"{split}/values.npy")
    assert names == want
    assert len(names) == 3 * 4 + 2 + 3


def test_synth_rerun_is_byte_identical(small_ds, tmp_path):
    _, cfg, _ = small_ds
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["synth", "--config", cfg, "--out", str(a), "--seed", "123"]) == 0
    assert main(["synth", "--config", cfg, "--out", str(b), "--seed", "123"]) == 0
    ha, hb = sha_tree(a), sha_tree(b)
    assert ha and ha == hb


def test_synth_invalid_config_exits_2(tmp_path, capsys):
    cfg = write_json(tmp_path / "bad.json", {"T": 2, "p": 10, "k": 3})
    rc = main(["synth", "--config", cfg, "--out", str(tmp_path / "ds")])
    captured = capsys.readouterr()
    assert rc == 2
    assert "error:" in captured.err and "divide" in captured.err
    for huge in ({"T": 2**70}, {"p": 2**70, "k": 1}):
        cfg = write_json(tmp_path / "huge.json", huge)
        assert main(["synth", "--config", cfg, "--out", str(tmp_path / "ds")]) == 2
        assert "too large" in capsys.readouterr().err


@pytest.mark.parametrize("config", [
    {"T": 5, "p": 12, "k": 3, "n_per_task": 30, "graph_kind": "star", "seed": 3},
    {"T": 4, "p": 10, "k": 2, "n_per_task": 25, "graph_kind": "path", "seed": 4, "noise_sigma": 0.0},
    {"T": 4, "p": 9, "k": 3, "n_per_task": 21, "graph_kind": "complete", "seed": 5, "feature_corr": 0.0},
    {"p": 8, "k": 4, "n_per_task": 17, "graph_kind": "custom-edge-list", "seed": 6},
], ids=["star", "path", "complete", "custom-edge-list"])
def test_streamed_synth_writes_the_bytes_of_the_in_memory_dataset(tmp_path, config):
    if config["graph_kind"] == "custom-edge-list":
        edges = tmp_path / "roads.edges"
        edges.write_text("v0 v1 a\nv1 v2 b\nv1 v3 c\nv3 v4 d\n", encoding="utf-8")
        config = dict(config, edge_list_path=str(edges))
    cfg = write_json(tmp_path / "synth.json", config)
    assert main(["synth", "--config", cfg, "--out", str(tmp_path / "streamed")]) == 0
    train, test, truth = generate(SynthConfig(**config))
    write_dataset(tmp_path / "in_memory", *in_memory(train, test), truth)
    streamed = sha_tree(tmp_path / "streamed")
    assert len(streamed) == 3 + 2 * (2 * train.n_tasks + 1)
    assert streamed == sha_tree(tmp_path / "in_memory")


def test_synth_peak_memory_does_not_grow_with_task_count(tmp_path):
    """synth holds one task at a time: numpy's allocations (which
    tracemalloc sees) peak the same for 6 roads as for 24. Holding every
    task would add 18 roads' 200 x 61 values, ~1.8 MB."""
    def peak(T):
        cfg = write_json(tmp_path / f"synth{T}.json", {"T": T})
        tracemalloc.start()
        try:
            assert main(["synth", "--config", cfg, "--out", str(tmp_path / f"ds{T}")]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(6)  # warm-up: first-call imports and caches
    small, large = peak(6), peak(24)
    assert large < 1.2 * small, (small, large)


def test_synth_failing_part_way_leaves_no_dataset(tmp_path, capsys):
    """A road whose labels overflow stops synth after the directory was
    begun: its tasks.json, written last and deleted first, is absent, so
    no command reads the rest as a dataset."""
    ds = tmp_path / "ds"
    assert main(["synth", "--config", write_json(tmp_path / "ok.json", {"T": 3}), "--out", str(ds)]) == 0
    cfg = write_json(tmp_path / "overflow.json", {"T": 3, "noise_sigma": 1e308})
    assert main(["synth", "--config", cfg, "--out", str(ds)]) == 3
    assert capsys.readouterr().err == "numerical failure: overflow encountered in multiply drawing task 'r00'\n"
    assert not (ds / "tasks.json").exists()
    assert main(["train", "--dataset", str(ds), "--out", str(tmp_path / "m.json")]) == 2
    assert "missing file" in capsys.readouterr().err


def test_synth_edge_list_counts_its_roads_against_the_size_cap(tmp_path, capsys, monkeypatch):
    """4 roads of 10**6 rows of p + 1 = 100 values are 4e8 values, 4x the
    cap: refused before a row is drawn, as the same sizes with T = 4 are."""
    def drawn(*args):
        raise AssertionError("a row was drawn")

    monkeypatch.setattr(titan.synth, "ar1_rows", drawn)
    edges = tmp_path / "roads.edges"
    edges.write_text("v0 v1 a\nv1 v2 b\nv1 v3 c\nv3 v4 d\n", encoding="utf-8")
    cfg = write_json(tmp_path / "big.json", {"graph_kind": "custom-edge-list", "edge_list_path": str(edges),
                                             "n_per_task": 10**6, "p": 99, "k": 3})
    out = tmp_path / "ds"
    assert main(["synth", "--config", cfg, "--out", str(out)]) == 2
    assert "too large: T*n_per_task*(p+1) = 400000000 values" in capsys.readouterr().err
    assert not (out / "train" / "values.npy").exists()


# --------------------------------------------------------------------- train


def test_train_converges_and_is_deterministic(small_ds, trained, tmp_path, capsys):
    root, _, ds = small_ds
    hp, model = trained
    before = sha_tree(ds)
    again = tmp_path / "model2.json"
    rc = main(["train", "--dataset", str(ds), "--config", hp, "--out", str(again)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "converged=True" in captured.out and "iterations=" in captured.out
    assert again.read_bytes() == model.read_bytes()
    assert sha_tree(ds) == before  # inputs untouched
    loaded = read_model(model)
    assert loaded.converged and loaded.k == 3


def test_train_singular_w_system_exits_3(small_ds, tmp_path, capsys, monkeypatch):
    _, _, ds = small_ds

    def singular(data, state, hp):
        return np.zeros((data.n_tasks, hp.k, hp.k)), np.ones((data.n_tasks, hp.k))

    monkeypatch.setattr(titan.solver, "w_systems", singular)
    rc = main(["train", "--dataset", str(ds), "--out", str(tmp_path / "m.json")])
    assert rc == 3
    assert capsys.readouterr().err.startswith("numerical failure: W subproblem solve failed for task 'r00'")
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("command", [["train"], ["sweep-k", "--k", "2,3"]])
def test_overflowing_structured_start_exits_3(tmp_path, capsys, command):
    """Labels near 1e150 overflow the start's segment table: the fit's
    error state covers the start, so the command names it and exits 3."""
    ds = tmp_path / "ds"
    cfg = write_json(tmp_path / "synth.json", {"weight_smoothness": 1e-300, "T": 3, "p": 6, "k": 3,
                                               "n_per_task": 20})
    assert main(["synth", "--config", cfg, "--seed", "1", "--out", str(ds)]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    assert main([*command, "--dataset", str(ds), "--out", str(out)]) == 3
    assert capsys.readouterr().err == "numerical failure: overflow encountered in square in the start\n"
    assert not out.exists()


def test_train_and_evaluate_each_read_only_their_split(small_ds, trained, tmp_path):
    _, _, ds = small_ds
    hp, model = trained
    train_only, test_only = tmp_path / "train_only", tmp_path / "test_only"
    shutil.copytree(ds, train_only, ignore=shutil.ignore_patterns("test"))
    shutil.copytree(ds, test_only, ignore=shutil.ignore_patterns("train"))
    again = tmp_path / "m.json"
    assert main(["train", "--dataset", str(train_only), "--config", hp, "--out", str(again)]) == 0
    assert again.read_bytes() == model.read_bytes()
    full, part = tmp_path / "full.csv", tmp_path / "part.csv"
    assert main(["evaluate", "--dataset", str(ds), "--model", str(model), "--out", str(full)]) == 0
    assert main(["evaluate", "--dataset", str(test_only), "--model", str(model), "--out", str(part)]) == 0
    assert part.read_bytes() == full.read_bytes()


# ------------------------------------------------------------------- predict


def test_predict_matches_library(small_ds, trained, tmp_path):
    _, _, ds = small_ds
    _, model_path = trained
    _, test = read_dataset(ds)
    td = test.tasks[1]
    x_path = tmp_path / "x.csv"
    write_matrix_csv(x_path, td.X[:5])
    out = tmp_path / "pred.csv"
    assert main(["predict", "--model", str(model_path), "--x", str(x_path),
                 "--task", td.road_id, "--out", str(out)]) == 0
    got = read_matrix_csv(out)
    model = read_model(model_path)
    want = predict(model, read_matrix_csv(x_path), td.road_id)
    assert got.shape == (5, 1)
    np.testing.assert_array_equal(got[:, 0], want)


def test_predict_unknown_task_exits_2(small_ds, trained, tmp_path, capsys):
    _, _, ds = small_ds
    _, model_path = trained
    x_path = tmp_path / "x.csv"
    write_matrix_csv(x_path, np.zeros((2, 12)))
    rc = main(["predict", "--model", str(model_path), "--x", str(x_path),
               "--task", "nope", "--out", str(tmp_path / "p.csv")])
    captured = capsys.readouterr()
    assert rc == 2 and "unknown task" in captured.err


def test_predict_with_baseline_model(small_ds, tmp_path):
    _, _, ds = small_ds
    model_path = tmp_path / "ridge.json"
    assert main(["train-baseline", "--dataset", str(ds), "--kind", "ridge",
                 "--lam", "10", "--out", str(model_path)]) == 0
    _, test = read_dataset(ds)
    x_path = tmp_path / "x.csv"
    write_matrix_csv(x_path, test.tasks[0].X[:3])
    out = tmp_path / "pred.csv"
    assert main(["predict", "--model", str(model_path), "--x", str(x_path),
                 "--task", "r01", "--out", str(out)]) == 0
    want = tmp_path / "want.csv"
    X = read_matrix_csv(x_path)
    cell_write_matrix_csv(want, (X @ read_model(model_path).weights[:, 1])[:, None])
    assert out.read_bytes() == want.read_bytes()
    assert read_matrix_csv(out).shape == (3, 1)


@pytest.mark.parametrize("lam", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("kind", ["lasso", "ridge"])
def test_train_baseline_non_finite_lambda_exits_2(small_ds, tmp_path, kind, lam):
    _, _, ds = small_ds
    out = tmp_path / "b.json"
    proc = run_python("-m", "titan", "train-baseline", "--dataset", str(ds), "--kind", kind,
                      f"--lam={lam}", "--out", str(out))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "lambda must be finite" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_train_baseline_ridge_without_a_definite_system_exits_3(tmp_path):
    # 16 train rows per road against p = 60: each S_r is singular, and
    # lambda = 1e-300 is lost to rounding when added to it
    cfg = write_json(tmp_path / "synth.json", {"n_per_task": 20})
    ds, out = tmp_path / "ds", tmp_path / "ridge.json"
    assert main(["synth", "--config", cfg, "--seed", "1", "--out", str(ds)]) == 0
    proc = run_python("-m", "titan", "train-baseline", "--dataset", str(ds), "--kind", "ridge",
                      "--lam", "1e-300", "--out", str(out))
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("numerical failure: ridge lambda=1e-300")
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("kind", ["lasso", "nmtl"])
def test_train_baseline_grid_computes_the_step_size_once(small_ds, tmp_path, monkeypatch, kind):
    """The FISTA step bound is cached with the Gram statistics, so the
    whole default grid runs one eigvalsh."""
    _, _, ds = small_ds
    calls = []
    real = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    assert main(["train-baseline", "--dataset", str(ds), "--kind", kind, "--out", str(tmp_path / "b.json")]) == 0
    assert len(titan.baselines.BASELINES[kind]) == 3
    assert calls == [(3, 12, 12)]


# ------------------------------------------------------------------ evaluate


def test_evaluate_four_methods_row_count(ordering_models, tmp_path):
    _, ds, paths = ordering_models
    out = tmp_path / "report.csv"
    argv = ["evaluate", "--dataset", str(ds), "--out", str(out)]
    for kind in ("titan", "ridge", "lasso", "nmtl"):
        argv += ["--model", str(paths[kind])]
    assert main(argv) == 0
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "method,task,k,rmse,mae,mape_percent"
    assert len(lines) == 1 + 4 * 4  # four methods, four tasks
    reports = {r.method: r for r in parse_report_csv(out.read_text(encoding="utf-8"))}
    assert set(reports) == {"titan", "ridge", "lasso", "nmtl"}
    assert reports["titan"].k == 4
    for kind in ("ridge", "lasso", "nmtl"):
        assert reports[kind].k == 0
        assert len(reports[kind].per_task) == 4


def test_evaluate_grouped_beats_baselines(ordering_models, tmp_path, capsys):
    _, ds, paths = ordering_models
    argv = ["evaluate", "--dataset", str(ds), "--out", str(tmp_path / "r.csv")]
    for kind in ("titan", "nmtl", "lasso", "ridge"):
        argv += ["--model", str(paths[kind])]
    assert main(argv) == 0
    pooled = pooled_from_stdout(capsys.readouterr().out)
    assert pooled["titan"] < pooled["nmtl"] < pooled["lasso"] < pooled["ridge"]


def test_evaluate_duplicate_models_get_numbered(small_ds, trained, tmp_path):
    _, _, ds = small_ds
    _, model_path = trained
    out = tmp_path / "r.csv"
    assert main(["evaluate", "--dataset", str(ds), "--model", str(model_path),
                 "--model", str(model_path), "--out", str(out)]) == 0
    methods = {r.method for r in parse_report_csv(out.read_text(encoding="utf-8"))}
    assert methods == {"titan", "titan#2"}


def test_evaluate_planted_truth_scores_zero(noiseless, tmp_path):
    root, ds = noiseless
    truth = read_ground_truth(ds)
    model = TrainedModel(Q=truth.Q, W=truth.W, tasks=truth.tasks,
                         hyperparams=Hyperparams(k=truth.Q.shape[1]),
                         converged=True, iterations=1, final_residuals=(0.0, 0.0))
    model_path = root / "truth_model.json"
    write_model(model_path, model)
    out = root / "r.csv"
    assert main(["evaluate", "--dataset", str(ds), "--model", str(model_path),
                 "--out", str(out)]) == 0
    (report,) = parse_report_csv(out.read_text(encoding="utf-8"))
    for triple in report.per_task.values():
        assert triple.rmse == 0.0 and triple.mae == 0.0 and triple.mape_percent == 0.0


# ------------------------------------------------------------------- sweep-k


@pytest.fixture(scope="module")
def sweep_ds(tmp_path_factory):
    root = tmp_path_factory.mktemp("sweep")
    cfg = write_json(root / "synth.json", {
        "T": 4, "p": 20, "k": 5, "n_per_task": 80,
        "noise_sigma": 3.0, "graph_kind": "star", "seed": 2,
    })
    ds = root / "ds"
    assert main(["synth", "--config", cfg, "--out", str(ds)]) == 0
    return root, ds


def test_sweep_k_finds_planted_count(sweep_ds, capsys):
    root, ds = sweep_ds
    out = root / "sweep.csv"
    ks = ",".join(str(k) for k in range(1, 11))
    assert main(["sweep-k", "--dataset", str(ds), "--k", ks, "--out", str(out)]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("k=")]
    assert len(lines) == 10
    scores = {}
    for ln in lines:
        m = re.match(r"^k=(\d+): pooled rmse=([0-9.]+)$", ln.strip())
        scores[int(m.group(1))] = float(m.group(2))
    best = min(scores, key=scores.get)
    assert best in (4, 5, 6)
    reports = parse_report_csv(out.read_text(encoding="utf-8"))
    assert [r.k for r in reports] == list(range(1, 11))


def test_sweep_k_bad_inputs_exit_2(sweep_ds, capsys):
    root, ds = sweep_ds
    out = str(root / "x.csv")
    rc = main(["sweep-k", "--dataset", str(ds), "--k", "21", "--out", out])
    assert rc == 2 and "k=21" in capsys.readouterr().err
    rc = main(["sweep-k", "--dataset", str(ds), "--k", "", "--out", out])
    assert rc == 2 and "at least one" in capsys.readouterr().err
    rc = main(["sweep-k", "--dataset", str(ds), "--k", "2,zz", "--out", out])
    assert rc == 2 and "--k" in capsys.readouterr().err
    rc = main(["sweep-k", "--dataset", str(ds), "--k", "3,2,3", "--out", out])
    assert rc == 2 and "error: sweep k=3 given more than once" in capsys.readouterr().err
    assert not Path(out).exists()


@pytest.mark.parametrize("bad", [
    '{"k": 2.5}', '{"max_iter": 5.0}', '{"seed": "x"}', '{"lambda_w": NaN}',
])
def test_train_bad_hyperparameter_types_exit_2(small_ds, tmp_path, bad):
    _, _, ds = small_ds
    cfg = tmp_path / "hp.json"
    cfg.write_text(bad + "\n", encoding="utf-8")
    proc = run_python("-m", "titan", "train", "--dataset", str(ds), "--config", str(cfg), "--out", str(tmp_path / "m.json"))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "m.json").exists()


def test_model_with_retired_hyperparams_exits_2_naming_the_file(small_ds, trained, tmp_path):
    """A model file that still holds the retired seed or inner_w_solve."""
    _, _, ds = small_ds
    _, model = trained
    for retired in ({"seed": 0}, {"inner_w_solve": "gradient"}):
        obj = json.loads(model.read_text(encoding="utf-8"))
        obj["hyperparams"].update(retired)
        old = tmp_path / "old.json"
        old.write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")
        for command, extra in (("evaluate", ["--dataset", ds]),
                               ("predict", ["--x", ds / "test" / "X_r00.csv", "--task", "r00"]),
                               ("report-groups", [])):
            out = tmp_path / f"{command}.out"
            proc = run_python("-m", "titan", command, "--model", old, *extra, "--out", out)
            assert proc.returncode == 2, (retired, command, proc.stderr)
            assert proc.stderr == f"error: {old}: bad value for 'hyperparams'\n", (retired, command)
            assert not out.exists()


@pytest.mark.parametrize("config", ['{"seed": 1}', '{"inner_w_solve": "exact"}'])
@pytest.mark.parametrize("command", ["train", "sweep-k"])
def test_config_with_retired_hyperparams_exits_2(small_ds, tmp_path, config, command):
    _, _, ds = small_ds
    cfg = tmp_path / "hp.json"
    cfg.write_text(config + "\n", encoding="utf-8")
    extra = ["--k", "2"] if command == "sweep-k" else []
    proc = run_python("-m", "titan", command, "--dataset", str(ds), "--config", str(cfg),
                      "--out", str(tmp_path / "o"), *extra)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["train", "sweep-k"])
def test_train_and_sweep_take_no_seed_flag(small_ds, tmp_path, command, capsys):
    _, _, ds = small_ds
    extra = ["--k", "2"] if command == "sweep-k" else []
    with pytest.raises(SystemExit) as exc:
        main([command, "--dataset", str(ds), *extra, "--seed", "1", "--out", str(tmp_path / "o")])
    assert exc.value.code == 2 and "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("command, config, extra, message", [
    ("train", '{"k": 2.5}', [], "k must be an integer"),
    ("sweep-k", '{"k": 2.5}', ["--k", "2,3"], "k must be an integer"),
    ("sweep-k", "{}", ["--k", "2,zz"], "--k must be"),
])
def test_bad_config_rejected_before_the_dataset_is_read(tmp_path, capsys, command, config, extra, message):
    cfg = tmp_path / "hp.json"
    cfg.write_text(config + "\n", encoding="utf-8")
    missing = tmp_path / "no-dataset"
    rc = main([command, "--dataset", str(missing), "--config", str(cfg), "--out", str(tmp_path / "o"), *extra])
    assert rc == 2 and message in capsys.readouterr().err


def test_sweep_k_logs_each_fit_in_k_order(sweep_ds, caplog):
    root, ds = sweep_ds
    out = root / "sweep.csv"
    with caplog.at_level("INFO", logger="titan"):
        assert main(["sweep-k", "--dataset", str(ds), "--k", "2,5,3", "--out", str(out)]) == 0
    logged = [r.getMessage() for r in caplog.records if r.name == "titan.evaluation"]
    assert [m.split()[0] for m in logged[:3]] == ["k=2", "k=5", "k=3"]
    assert all(re.match(r"^k=\d+ fit_s=[0-9.]+ iterations=\d+ converged=(True|False)$", m) for m in logged[:3])
    assert re.match(r"^sweep: 3 fits, wall [0-9.]+ s, summed fit time [0-9.]+ s$", logged[3])
    assert len(logged) == 4
    assert [r.k for r in parse_report_csv(out.read_text(encoding="utf-8"))] == [2, 5, 3]


@pytest.mark.parametrize("exc, code, prefix", [
    (NumericalAbort, 3, "numerical failure: k=3: "),
    (InputError, 2, "error: k=3: "),
])
def test_sweep_k_worker_failure_keeps_its_exit_code(sweep_ds, monkeypatch, capsys, exc, code, prefix):
    root, ds = sweep_ds
    real_fit = evaluation.fit

    def failing_fit(data, hp, q0=None):
        if hp.k == 3:
            raise exc("planted failure")
        return real_fit(data, hp, q0)

    monkeypatch.setattr(evaluation, "fit", failing_fit)
    rc = main(["sweep-k", "--dataset", str(ds), "--k", "2,3", "--out", str(root / "fail.csv")])
    assert rc == code
    assert capsys.readouterr().err.startswith(prefix + "planted failure")


def test_cli_import_leaves_process_pool_modules_unloaded(sweep_ds):
    root, ds = sweep_ds
    script = (
        "import sys, titan.cli; "
        f"rc = titan.cli.main(['sweep-k', '--dataset', {str(ds)!r}, '--k', '2,3', "
        f"'--out', {str(root / 'no-mp.csv')!r}]); "
        "print(rc, 'multiprocessing' in sys.modules)"
    )
    proc = run_python("-c", script)
    assert proc.returncode == 0 and proc.stdout.strip().splitlines()[-1] == "0 False"


def test_package_import_loads_no_module():
    """The package is its modules: `import titan` loads neither numpy nor
    any titan module."""
    script = "import sys, titan; print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('titan.')))"
    proc = run_python("-c", script)
    assert proc.returncode == 0 and proc.stdout == "[]\n", proc.stdout + proc.stderr


README = Path(__file__).parents[1] / "README.md"
README_BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)


@pytest.mark.parametrize("block", README_BLOCKS, ids=[f"block{i}" for i in range(len(README_BLOCKS))])
def test_readme_python_blocks_run(tmp_path, block):
    """Each README python block runs beside `titan synth --out data/ --seed 7`,
    prints what its comments say, and leaves no file handle open."""
    assert main(["synth", "--out", str(tmp_path / "data"), "--seed", "7"]) == 0
    proc = run_python("-W", "default::ResourceWarning", "-c", block, cwd=tmp_path)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    printed = proc.stdout.splitlines()
    for line in block.splitlines():
        if line.startswith("print(") and "  # " in line:
            assert line.split("  # ", 1)[1] in printed, (line, printed)


# -------------------------------------------------------------- report-groups


@pytest.fixture(scope="module")
def wide_path_ds(tmp_path_factory):
    root = tmp_path_factory.mktemp("wide_path")
    cfg = write_json(root / "synth.json", {"T": 24, "p": 120, "graph_kind": "path", "n_per_task": 400})
    ds = root / "ds"
    assert main(["synth", "--config", cfg, "--seed", "3", "--out", str(ds)]) == 0
    return ds


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="OpenBLAS runs one thread on one core")
@pytest.mark.parametrize("command", [
    pytest.param(("train-baseline", "--kind", "nmtl"), id="nmtl"),
    pytest.param(("train-baseline", "--kind", "lasso"), id="lasso"),
    pytest.param(("train-baseline", "--kind", "ridge"), id="ridge"),
    pytest.param(("train",), id="train"),
    pytest.param(("sweep-k", "--k", "3,5"), id="sweep-k"),
])
def test_outputs_do_not_depend_on_blas_thread_count(wide_path_ds, tmp_path, command):
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.json"
        res = run_python("-m", "titan", *command, "--dataset", str(wide_path_ds), "--out", str(out),
                         OPENBLAS_NUM_THREADS=threads)
        assert res.returncode == 0, res.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


# Prints the thread count of numpy's bundled OpenBLAS after the given
# import, or "none" when numpy bundles no OpenBLAS this can query.
BLAS_THREADS_AFTER = """
import ctypes, sys
from pathlib import Path
import {module}
import numpy
for lib in sorted((Path(numpy.__file__).parents[1] / "numpy.libs").glob("*openblas*")):
    for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"):
        query = getattr(ctypes.CDLL(str(lib)), name, None)
        if query is not None:
            print(query())
            sys.exit()
print("none")
"""


def blas_threads_after(module, **env):
    """OpenBLAS's thread count in a fresh interpreter after `import
    module`, with no thread variable set but those in `env`."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")} | env
    env["PYTHONPATH"] = str(Path(titan.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", BLAS_THREADS_AFTER.format(module=module)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    if proc.stdout == "none\n":
        pytest.skip("numpy bundles no OpenBLAS with a thread-count query")
    return int(proc.stdout)


def test_the_cli_entry_point_pins_openblas_to_one_thread_unless_told():
    """`python -m titan` and the `titan` script run one BLAS thread unless
    OPENBLAS_NUM_THREADS says otherwise; importing titan.cli alone keeps
    the library's default."""
    default = blas_threads_after("numpy")
    assert blas_threads_after("titan.__main__") == 1
    assert blas_threads_after("titan.__main__", OPENBLAS_NUM_THREADS="2") == min(2, default)
    assert blas_threads_after("titan.cli") == default


def report_groups(model, tmp_path):
    """report-groups' JSON for `model`, written first to `tmp_path / "model.json"`."""
    model_path, out = tmp_path / "model.json", tmp_path / "groups.json"
    write_model(model_path, model)
    assert main(["report-groups", "--model", str(model_path), "--out", str(out)]) == 0
    return json.loads(out.read_text(encoding="utf-8"))


def test_report_groups_schema(trained, tmp_path):
    model = read_model(trained[1])
    obj = report_groups(model, tmp_path)
    assert set(obj) == {"tasks", "Q"}
    assert list(obj["tasks"]) == list(model.tasks)
    for r, (road, entry) in enumerate(obj["tasks"].items()):
        assert entry == {"group": int(np.argmax(np.abs(model.W[:, r])))}, road
    assert obj["Q"] == json.loads((tmp_path / "model.json").read_text(encoding="utf-8"))["Q"]


def test_report_groups_breaks_ties_toward_the_lowest_index(tmp_path):
    W = np.array([[0.0, 3.0], [2.0, -3.0], [-5.0, 0.0]])
    model = TrainedModel(Q=np.eye(4)[:, :3], W=W, tasks=("a", "b"), hyperparams=Hyperparams(k=3),
                         iterations=1, final_residuals=(0.0, 0.0))
    groups = report_groups(model, tmp_path)["tasks"]
    assert groups == {"a": {"group": 2}, "b": {"group": 0}}  # |-5| beats |2|; |3| ties |-3|


def test_report_groups_recover_the_planted_dominant_group(default_run, tmp_path):
    _, _, truth, model = default_run
    obj = report_groups(model, tmp_path)
    Q = np.asarray(obj["Q"])
    scores = []
    for r, road in enumerate(model.tasks):
        planted = truth.block_supports[int(np.argmax(np.abs(truth.W[:, r])))]
        learned = np.flatnonzero(Q[:, obj["tasks"][road]["group"]])
        scores.append(evaluation.jaccard(learned, planted))
    assert float(np.mean(scores)) >= 0.8


def test_report_groups_rejects_baseline(small_ds, tmp_path, capsys):
    _, _, ds = small_ds
    model_path = tmp_path / "ridge.json"
    assert main(["train-baseline", "--dataset", str(ds), "--kind", "ridge",
                 "--lam", "10", "--out", str(model_path)]) == 0
    rc = main(["report-groups", "--model", str(model_path), "--out", str(tmp_path / "g.json")])
    assert rc == 2 and "grouped model" in capsys.readouterr().err


# ------------------------------------------------------------------ assemble


def test_assemble_end_to_end(tmp_path):
    rng = np.random.default_rng(7)
    (tmp_path / "roads.edges").write_text("v0 v1 r1\nv1 v2 r2\n", encoding="utf-8")
    speeds = tmp_path / "speeds"
    speeds.mkdir()
    for road in ("r1", "r2"):
        readings = "\n".join(f"{v:.3f}" for v in rng.uniform(20, 60, size=40))
        (speeds / f"{road}.csv").write_text(f"# start_index=0\n{readings}\n", encoding="utf-8")
    rows = ["incident_id,road_id,verification_index,duration_minutes"]
    n = 0
    for road in ("r1", "r2"):
        for tau in range(5, 29, 2):  # 12 usable incidents per road
            n += 1
            rows.append(f"i{n},{road},{tau},{30 + 2 * n}")
    rows.append(f"i{n + 1},r1,0,45")  # window starts before the series: skipped
    (tmp_path / "incidents.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    ds = tmp_path / "ds"
    assert main(["assemble", "--edges", str(tmp_path / "roads.edges"),
                 "--incidents", str(tmp_path / "incidents.csv"),
                 "--speeds-dir", str(speeds), "--h", "3", "--t", "2",
                 "--out", str(ds)]) == 0
    train, test = read_dataset(ds)
    assert train.graph.tasks == ("r1", "r2")
    assert train.p == 5
    assert (train.tasks[0].n, test.tasks[0].n) == (9, 3)  # 12 rows, 80/20
    assert (train.tasks[1].n, test.tasks[1].n) == (9, 3)


def test_assemble_bad_incident_header_exits_2(tmp_path, capsys):
    (tmp_path / "roads.edges").write_text("v0 v1 r1\nv1 v2 r2\n", encoding="utf-8")
    speeds = tmp_path / "speeds"
    speeds.mkdir()
    for road in ("r1", "r2"):
        (speeds / f"{road}.csv").write_text("# start_index=0\n30\n31\n32\n", encoding="utf-8")
    (tmp_path / "incidents.csv").write_text("wrong,header\n", encoding="utf-8")
    rc = main(["assemble", "--edges", str(tmp_path / "roads.edges"),
               "--incidents", str(tmp_path / "incidents.csv"),
               "--speeds-dir", str(speeds), "--h", "2", "--t", "1",
               "--out", str(tmp_path / "ds")])
    captured = capsys.readouterr()
    assert rc == 2 and "incidents.csv:1" in captured.err


def write_raw_inputs(root, edges):
    """Edge list, incidents and per-road speed files for two roads r1, r2."""
    (root / "roads.edges").write_text(edges, encoding="utf-8")
    speeds = root / "speeds"
    speeds.mkdir()
    for road in ("r1", "r2"):
        (speeds / f"{road}.csv").write_text("# start_index=0\n30\n31\n32\n", encoding="utf-8")
    rows = ["incident_id,road_id,verification_index,duration_minutes", "i1,r1,2,30", "i2,r2,2,40"]
    (root / "incidents.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    return ["assemble", "--edges", str(root / "roads.edges"), "--incidents", str(root / "incidents.csv"),
            "--speeds-dir", str(speeds), "--h", "2", "--t", "1", "--out", str(root / "ds")]


@pytest.mark.parametrize("edges, message", [
    ("v0 v1 r1\nv1 v2 r3\n", "error: missing file: "),  # no speeds/r3.csv
    ("v0 v1 r1\nv1 v2 ../../evil\n", "is not a plain file name"),
    ("v0 v1 r1\nv1 v1 r2\n", "roads.edges: self-loop edge on vertex 'v1'"),
    ("v0 v1 r1\nv1 v2 r1\n", "roads.edges: duplicate road 'r1'"),
    ("# no roads\n", "roads.edges: no tasks"),
])
def test_assemble_bad_road_inputs_exit_2_without_traceback(tmp_path, edges, message):
    proc = run_python("-m", "titan", *write_raw_inputs(tmp_path, edges))
    assert proc.returncode == 2
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "ds").exists()


@pytest.mark.parametrize("window", [("--h", "0"), ("--t", "0"), ("--h", "-3")])
def test_assemble_rejects_window_below_one_before_reading_speeds(tmp_path, window):
    argv = write_raw_inputs(tmp_path, "v0 v1 r1\nv1 v2 r2\n")
    shutil.rmtree(tmp_path / "speeds")
    proc = run_python("-m", "titan", *argv, *window)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: window sizes must be >= 1"), proc.stderr
    assert not (tmp_path / "ds").exists()


def test_evaluate_rejects_non_finite_model(small_ds, trained, tmp_path):
    _, _, ds = small_ds
    _, model = trained
    obj = json.loads(model.read_text(encoding="utf-8"))
    obj["Q"][0][0] = float("nan")
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(obj), encoding="utf-8")
    proc = run_python("-m", "titan", "evaluate", "--dataset", str(ds), "--model", str(bad),
                      "--out", str(tmp_path / "r.csv"))
    assert proc.returncode == 2
    assert "bad value for 'Q'" in proc.stderr and "Traceback" not in proc.stderr
    assert "rmse=nan" not in proc.stdout
