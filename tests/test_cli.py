"""End-to-end command-line runs, exercised in process via main(argv)."""

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import split_cache_path

import titan
from titan import evaluation
from titan.cli import main
from titan.errors import InputError, NumericalAbort
from titan.solver import Hyperparams, TrainedModel, predict
from titan.storage import read_dataset, read_ground_truth, read_matrix_csv, read_model, write_matrix_csv, write_model
from titan.evaluation import parse_report_csv


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


def run_python(*args):
    """Run a fresh interpreter that imports this titan package."""
    env = dict(os.environ, PYTHONPATH=str(Path(titan.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120)


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
        want.add(str(split_cache_path(ds, split).relative_to(ds)))  # the split's parse cache
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


def test_train_no_orth_flag(small_ds, trained, tmp_path):
    _, _, ds = small_ds
    hp, _ = trained
    out = tmp_path / "no_orth.json"
    assert main(["train", "--dataset", str(ds), "--config", hp, "--out", str(out), "--no-orth"]) == 0
    assert read_model(out).hyperparams.orthogonality is False


def test_train_corrupt_csv_exits_2(small_ds, tmp_path, capsys):
    _, _, ds = small_ds
    broken = tmp_path / "broken"
    shutil.copytree(ds, broken)
    target = broken / "train" / "X_r00.csv"
    lines = target.read_text(encoding="utf-8").splitlines()
    lines[1] = lines[1].replace(",", ",oops,", 1)
    target.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rc = main(["train", "--dataset", str(broken), "--out", str(tmp_path / "m.json")])
    captured = capsys.readouterr()
    assert rc == 2
    assert "X_r00.csv:2" in captured.err


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
    got = read_matrix_csv(out, columns=1)[:, 0]
    model = read_model(model_path)
    want = predict(model, read_matrix_csv(x_path), td.road_id)
    assert got.shape == (5,)
    np.testing.assert_array_equal(got, want)


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
    write_matrix_csv(want, (X @ read_model(model_path).weights[:, 1])[:, None])
    assert out.read_bytes() == want.read_bytes()
    assert read_matrix_csv(out, columns=1).shape == (3, 1)


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


def test_model_with_retired_hyperparams_runs_every_model_command(small_ds, trained, tmp_path):
    """A model file written before seed and inner_w_solve were removed."""
    _, _, ds = small_ds
    _, model = trained
    obj = json.loads(model.read_text(encoding="utf-8"))
    obj["hyperparams"].update(seed=0, inner_w_solve="gradient")
    old = tmp_path / "old.json"
    old.write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")
    x_path = ds / "test" / "X_r00.csv"
    outputs = {}
    for tag, path in (("new", model), ("old", old)):
        for command, extra in (("evaluate", ["--dataset", str(ds)]),
                               ("predict", ["--x", str(x_path), "--task", "r00"]),
                               ("report-groups", [])):
            out = tmp_path / f"{tag}-{command}.out"
            argv = [command, "--model", str(path), *extra, "--out", str(out)]
            assert main(argv) == 0
            outputs[tag, command] = out.read_bytes()
    for command in ("evaluate", "predict", "report-groups"):
        assert outputs["old", command] == outputs["new", command]


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


# -------------------------------------------------------------- report-groups


def test_report_groups_schema(trained, tmp_path):
    _, model_path = trained
    out = tmp_path / "groups.json"
    assert main(["report-groups", "--model", str(model_path), "--out", str(out)]) == 0
    obj = json.loads(out.read_text(encoding="utf-8"))
    model = read_model(model_path)
    assert set(obj["tasks"]) == set(model.tasks)
    for entry in obj["tasks"].values():
        assert 0 <= entry["group"] < model.k
        assert len(entry["q"]) == model.p
    overlap = np.asarray(obj["support_overlap"])
    assert overlap.shape == (model.k, model.k)
    np.testing.assert_allclose(np.diag(overlap), 1.0)


def test_report_groups_planted_truth_has_disjoint_supports(noiseless, tmp_path):
    root, ds = noiseless
    model_path = root / "truth_model.json"
    if not model_path.exists():
        truth = read_ground_truth(ds)
        write_model(model_path, TrainedModel(
            Q=truth.Q, W=truth.W, tasks=truth.tasks,
            hyperparams=Hyperparams(k=truth.Q.shape[1])))
    out = tmp_path / "groups.json"
    assert main(["report-groups", "--model", str(model_path), "--out", str(out)]) == 0
    overlap = np.asarray(json.loads(out.read_text(encoding="utf-8"))["support_overlap"])
    off = overlap - np.diag(np.diag(overlap))
    assert np.all(off == 0.0)


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
])
def test_assemble_bad_road_inputs_exit_2_without_traceback(tmp_path, edges, message):
    proc = run_python("-m", "titan", *write_raw_inputs(tmp_path, edges))
    assert proc.returncode == 2
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
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
