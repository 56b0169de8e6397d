"""On-disk formats: dataset directories, model files, configs.

A dataset directory holds `tasks.json` (task order plus window sizes),
`graph.edges` (one task pair per line), `ground_truth.json` when
generated synthetically, and `train/` + `test/` subdirectories with
`X_<road>.csv` / `Y_<road>.csv` per task. Numeric CSV cells use %.17g,
which round-trips doubles exactly, so regeneration with the same seed
is byte-identical.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .baselines import BaselineModel
from .errors import InputError
from .features import MultiTaskDataset, TaskDataset
from .roadnet import TaskGraph
from .solver import Hyperparams, TrainedModel
from .synth import GroundTruth, SynthConfig

FLOAT_FMT = "%.17g"
SPLITS = ("train", "test")


def _fmt_matrix(M):
    return [[float(v) for v in row] for row in np.asarray(M, dtype=float)]


def _dump_json(obj, path):
    Path(path).write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")


def _load_json(path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise InputError(f"missing file: {path}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON ({exc})") from None


def write_matrix_csv(path, M):
    M = np.atleast_2d(np.asarray(M, dtype=float))
    lines = [",".join(FLOAT_FMT % v for v in row) for row in M]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_matrix_csv(path, columns=None):
    rows = []
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise InputError(f"missing file: {path}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            row = [float(cell) for cell in line.split(",")]
        except ValueError:
            raise InputError(f"{path}:{lineno}: bad numeric cell") from None
        if rows and len(row) != len(rows[0]):
            raise InputError(f"{path}:{lineno}: ragged row ({len(row)} cells, expected {len(rows[0])})")
        rows.append(row)
    if not rows:
        raise InputError(f"{path}: no data rows")
    M = np.asarray(rows)
    if columns is not None and M.shape[1] != columns:
        raise InputError(f"{path}: expected {columns} columns, got {M.shape[1]}")
    return M


def write_dataset(root, train: MultiTaskDataset, test: MultiTaskDataset, truth: GroundTruth | None = None):
    """Write the dataset directory layout; returns the root path."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    _dump_json(
        {"tasks": list(train.graph.tasks), "h": train.h, "t": train.t, "p": train.p},
        root / "tasks.json",
    )
    edge_lines = [f"{a} {b}" for a, b in train.graph.task_edges()]
    (root / "graph.edges").write_text("\n".join(edge_lines) + "\n", encoding="utf-8")
    for split, ds in zip(SPLITS, (train, test)):
        sub = root / split
        sub.mkdir(exist_ok=True)
        for td in ds.tasks:
            write_matrix_csv(sub / f"X_{td.road_id}.csv", td.X)
            write_matrix_csv(sub / f"Y_{td.road_id}.csv", td.Y[:, None])
    if truth is not None:
        _dump_json(
            {"tasks": list(truth.tasks), "Q": _fmt_matrix(truth.Q), "W": _fmt_matrix(truth.W)},
            root / "ground_truth.json",
        )
    return root


def read_task_graph(root):
    root = Path(root)
    meta = _load_json(root / "tasks.json")
    for key in ("tasks", "h", "t"):
        if key not in meta:
            raise InputError(f"{root / 'tasks.json'}: missing key {key!r}")
    edges = []
    try:
        edge_text = (root / "graph.edges").read_text(encoding="utf-8")
    except FileNotFoundError:
        raise InputError(f"missing file: {root / 'graph.edges'}") from None
    for lineno, raw in enumerate(edge_text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise InputError(f"{root / 'graph.edges'}:{lineno}: expected 2 fields, got {len(parts)}")
        edges.append((parts[0], parts[1]))
    graph = TaskGraph.from_task_edges(tuple(meta["tasks"]), edges)
    return graph, int(meta["h"]), int(meta["t"])


def read_split(root, split):
    """Load one split ("train" or "test") of a dataset directory as a
    MultiTaskDataset; the other split's files are not read."""
    if split not in SPLITS:
        raise InputError(f"split must be one of {SPLITS}, got {split!r}")
    root = Path(root)
    graph, h, t = read_task_graph(root)
    p = h + t
    tasks = []
    for road in graph.tasks:
        X = read_matrix_csv(root / split / f"X_{road}.csv", columns=p)
        Y = read_matrix_csv(root / split / f"Y_{road}.csv", columns=1)[:, 0]
        tasks.append(TaskDataset(road, X, Y))
    return MultiTaskDataset(tuple(tasks), graph, h, t)


def read_dataset(root):
    """Load (train, test) MultiTaskDataset pairs from a dataset directory."""
    return read_split(root, "train"), read_split(root, "test")


def read_ground_truth(root):
    obj = _load_json(Path(root) / "ground_truth.json")
    return GroundTruth(
        Q=np.asarray(obj["Q"], dtype=float),
        W=np.asarray(obj["W"], dtype=float),
        tasks=tuple(obj["tasks"]),
    )


def write_model(path, model):
    if isinstance(model, TrainedModel):
        obj = {
            "p": model.p,
            "k": model.k,
            "tasks": list(model.tasks),
            "Q": _fmt_matrix(model.Q),
            "W": _fmt_matrix(model.W),
            "hyperparams": model.hyperparams.to_dict(),
            "converged": model.converged,
            "iterations": model.iterations,
            "residuals": {
                "primal": float(model.final_residuals[0]),
                "dual": float(model.final_residuals[1]),
            },
        }
    elif isinstance(model, BaselineModel):
        obj = {
            "kind": model.kind,
            "p": model.p,
            "tasks": list(model.tasks),
            "weights": _fmt_matrix(model.weights),
            "lambda": model.lam,
        }
    else:
        raise InputError(f"cannot serialize object of type {type(model).__name__}")
    _dump_json(obj, path)


def read_model(path):
    obj = _load_json(path)
    if "kind" in obj:
        for key in ("p", "tasks", "weights", "lambda"):
            if key not in obj:
                raise InputError(f"{path}: baseline model missing key {key!r}")
        return BaselineModel(
            kind=obj["kind"],
            weights=np.asarray(obj["weights"], dtype=float),
            tasks=tuple(obj["tasks"]),
            lam=float(obj["lambda"]),
        )
    for key in ("p", "k", "tasks", "Q", "W", "hyperparams", "converged", "iterations", "residuals"):
        if key not in obj:
            raise InputError(f"{path}: model missing key {key!r}")
    Q = np.asarray(obj["Q"], dtype=float)
    W = np.asarray(obj["W"], dtype=float)
    if Q.shape != (obj["p"], obj["k"]) or W.shape != (obj["k"], len(obj["tasks"])):
        raise InputError(f"{path}: matrix shapes inconsistent with declared p/k/tasks")
    return TrainedModel(
        Q=Q,
        W=W,
        tasks=tuple(obj["tasks"]),
        hyperparams=Hyperparams.from_dict(obj["hyperparams"]),
        converged=bool(obj["converged"]),
        iterations=int(obj["iterations"]),
        final_residuals=(float(obj["residuals"]["primal"]), float(obj["residuals"]["dual"])),
    )


def read_hyperparams(path):
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise InputError(f"{path}: hyperparameter file must hold a JSON object")
    return Hyperparams.from_dict(obj)


def read_synth_config(path):
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise InputError(f"{path}: config must hold a JSON object")
    try:
        return SynthConfig(**obj)
    except TypeError as exc:
        raise InputError(f"{path}: bad synth config: {exc}") from None
