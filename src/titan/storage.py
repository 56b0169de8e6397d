"""On-disk formats: dataset directories, model files, configs.

A dataset directory holds `tasks.json` (task order plus window sizes),
`graph.edges` (one task pair per line), `ground_truth.json` when
generated synthetically, and `train/` + `test/` subdirectories with
`X_<road>.csv` / `Y_<road>.csv` per task. Numeric CSV cells use %.17g,
which round-trips doubles exactly, so regeneration with the same seed
is byte-identical.

write_matrix_csv and write_dataset encode those bytes in numpy blocks
(see csvfmt), not with one `%` per value.

The CSVs are the source of truth. Beside the CSVs of a split,
write_dataset saves the same values once more as `cache.<key>.npy`: one
float64 vector holding each task's X (row-major) then Y, in task order.
The key is the sha256 of the feature dimension and of every split CSV's
own sha256, so read_split hashes the CSV bytes it reads and loads the
cache of that key only if it holds exactly the float64 vector those
CSVs describe; otherwise read_matrix_csv parses each CSV line by line
with float(). Those are the only two read paths. The parse is slow,
~0.5 s for the train split of a 24-road, 500-row dataset against ~0.03 s
from its cache, but only a dataset without caches (written by an older
version, or edited by hand) takes it. So an edited CSV
never hits a stale cache, a missing, truncated or mistyped cache never
changes a result, datasets written without caches read as before, and
deleting `*.npy` is always safe. A cache's float bytes are trusted as
written: it is checked against its CSVs by name, not value by value.
One file per split, not per CSV: creating a file costs ~0.5 ms, as much
as writing a few hundred kB to it, so per-CSV caches slowed writing the
24-road datasets by ~50 ms. The caches add about 40% to a dataset's size
(8 bytes a value against ~20 bytes of text).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
from pathlib import Path

import numpy as np

from . import csvfmt
from .baselines import BaselineModel
from .errors import InputError, read_input_bytes, read_input_text
from .features import MultiTaskDataset, TaskDataset
from .roadnet import TaskGraph, check_road_id
from .solver import Hyperparams, TrainedModel
from .synth import GroundTruth, SynthConfig

SPLITS = ("train", "test")
# A split's parse cache (see the module docstring).
_CACHE_NAME = re.compile(r"cache\.[0-9a-f]{64}\.npy")
# Hyperparameters that model files written by earlier versions still hold;
# neither ever changed a fit, so read_model drops them.
RETIRED_HYPERPARAMS = ("seed", "inner_w_solve")


def _fmt_matrix(M):
    return [[float(v) for v in row] for row in np.asarray(M, dtype=float)]


def _dump_json(obj, path):
    try:
        text = json.dumps(obj, indent=2, allow_nan=False)
    except ValueError:
        raise InputError(f"{path}: cannot write a non-finite value as JSON") from None
    Path(path).write_text(text + "\n", encoding="utf-8")


def _load_json(path):
    text = read_input_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON ({exc})") from None


def write_matrix_csv(path, M):
    """Write M as %.17g CSV; returns the sha256 hex digest of the bytes
    written."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for data in csvfmt.csv_chunks(M):
            fh.write(data)
            digest.update(data)
    return digest.hexdigest()


def read_matrix_csv(path, columns=None):
    """Parse a numeric CSV line by line with float(): blank and `#` lines
    are skipped, and errors name the line."""
    rows = []
    for lineno, raw in enumerate(read_input_text(path).splitlines(), start=1):
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


def _cache_path(sub, p, digests):
    key = hashlib.sha256(f"{p}:{','.join(digests)}".encode("ascii")).hexdigest()
    return sub / f"cache.{key}.npy"


def _write_split(sub, ds: MultiTaskDataset):
    """The split's CSVs and, beside them, its parse cache."""
    digests, matrices = [], []
    for td in ds.tasks:
        digests.append(write_matrix_csv(sub / f"X_{td.road_id}.csv", td.X))
        digests.append(write_matrix_csv(sub / f"Y_{td.road_id}.csv", td.Y[:, None]))
        matrices += [np.ascontiguousarray(M, dtype=np.float64) for M in (td.X, td.Y)]
    fmt = np.lib.format
    header = {"descr": fmt.dtype_to_descr(np.dtype(np.float64)), "fortran_order": False,
              "shape": (sum(M.size for M in matrices),)}
    with open(_cache_path(sub, ds.p, digests), "wb") as fh:  # np.save's format, written a task at a time
        fmt.write_array_header_1_0(fh, header)
        for M in matrices:
            fh.write(M)


def _load_vector(path, size):
    """The float64 vector in an .npy file, or None unless the file holds
    exactly one native float64 vector of `size` values."""
    fmt = np.lib.format
    try:
        with open(path, "rb") as fh:
            if fmt.read_magic(fh) != (1, 0):
                return None
            shape, _, dtype = fmt.read_array_header_1_0(fh)
            if dtype != np.float64 or shape != (size,):
                return None
            if os.fstat(fh.fileno()).st_size - fh.tell() != size * dtype.itemsize:
                return None
            return np.fromfile(fh, dtype=dtype, count=size)
    except (OSError, ValueError):  # missing, unreadable, or not an .npy file
        return None


def _read_split_cache(sub, p, roads):
    """The split's (X, Y) pairs from its parse cache, or None when the cache
    is missing, stale or malformed, or a CSV cannot be read."""
    digests, shapes = [], []
    for road in roads:
        for name, width in ((f"X_{road}.csv", p), (f"Y_{road}.csv", 1)):
            try:
                data = read_input_bytes(sub / name)
            except InputError:  # the parse reports it
                return None
            digests.append(hashlib.sha256(data).hexdigest())
            # Bytes with a cached digest are write_matrix_csv's: a line a row.
            shapes.append((data.count(b"\n"), width))
    sizes = [n * width for n, width in shapes]
    flat = _load_vector(_cache_path(sub, p, digests), sum(sizes))
    if flat is None:
        return None
    ends = np.cumsum(sizes)
    mats = [flat[end - size:end].reshape(shape) for end, size, shape in zip(ends, sizes, shapes)]
    return [(X, Y[:, 0]) for X, Y in zip(mats[::2], mats[1::2])]


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
        for old in sub.iterdir():  # the cache of an earlier dataset written here
            if _CACHE_NAME.fullmatch(old.name):
                old.unlink()
        _write_split(sub, ds)
    if truth is not None:
        _dump_json(
            {"tasks": list(truth.tasks), "Q": _fmt_matrix(truth.Q), "W": _fmt_matrix(truth.W)},
            root / "ground_truth.json",
        )
    return root


def read_task_graph(root):
    root = Path(root)
    meta_path = root / "tasks.json"
    meta = _load_json(meta_path)
    if not isinstance(meta, dict):
        raise InputError(f"{meta_path}: must hold a JSON object")
    for key in ("tasks", "h", "t"):
        if key not in meta:
            raise InputError(f"{meta_path}: missing key {key!r}")
    if not isinstance(meta["tasks"], list) or not meta["tasks"]:
        raise InputError(f"{meta_path}: 'tasks' must be a non-empty list of road ids")
    for road in meta["tasks"]:
        try:
            check_road_id(road)
        except InputError as exc:
            raise InputError(f"{meta_path}: {exc}") from None
    try:
        h, t = _positive_int(meta["h"]), _positive_int(meta["t"])
    except ValueError:
        raise InputError(f"{meta_path}: 'h' and 't' must be integers >= 1") from None
    edges = []
    edge_text = read_input_text(root / "graph.edges")
    for lineno, raw in enumerate(edge_text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise InputError(f"{root / 'graph.edges'}:{lineno}: expected 2 fields, got {len(parts)}")
        edges.append((parts[0], parts[1]))
    graph = TaskGraph.from_task_edges(tuple(meta["tasks"]), edges)
    return graph, h, t


def read_split(root, split):
    """Load one split ("train" or "test") of a dataset directory as a
    MultiTaskDataset; the other split's files are not read."""
    if split not in SPLITS:
        raise InputError(f"split must be one of {SPLITS}, got {split!r}")
    sub = Path(root) / split
    graph, h, t = read_task_graph(root)
    p = h + t
    pairs = _read_split_cache(sub, p, graph.tasks) or (
        (read_matrix_csv(sub / f"X_{road}.csv", columns=p),
         read_matrix_csv(sub / f"Y_{road}.csv", columns=1)[:, 0])
        for road in graph.tasks
    )
    tasks = tuple(TaskDataset(road, X, Y) for road, (X, Y) in zip(graph.tasks, pairs))
    return MultiTaskDataset(tasks, graph, h, t)


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
        if model.iterations < 1:  # read_model would reject the file
            raise InputError(f"{path}: cannot write a model with no fitted iterations")
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


def _model_value(path, obj, key, convert):
    try:
        return convert(obj[key])
    except (TypeError, ValueError, KeyError, OverflowError):
        raise InputError(f"{path}: bad value for {key!r}") from None


def _finite_matrix(M):
    M = np.asarray(M, dtype=float)
    if not np.all(np.isfinite(M)):
        raise ValueError("non-finite entry")
    return M


def _finite_real(v):
    v = float(v)
    if not math.isfinite(v):
        raise ValueError("non-finite value")
    return v


def _positive_int(v):
    if isinstance(v, bool) or not isinstance(v, int) or v < 1:
        raise ValueError("not a positive integer")
    return v


def _bool(v):
    if not isinstance(v, bool):
        raise ValueError("not a JSON bool")
    return v


def _road_list(v):
    if not isinstance(v, list) or not all(isinstance(road, str) for road in v):
        raise ValueError("not a list of road ids")
    return tuple(v)


def read_model(path):
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise InputError(f"{path}: model file must hold a JSON object")
    if "kind" in obj:
        for key in ("p", "tasks", "weights", "lambda"):
            if key not in obj:
                raise InputError(f"{path}: baseline model missing key {key!r}")
        p = _model_value(path, obj, "p", _positive_int)
        tasks = _model_value(path, obj, "tasks", _road_list)
        weights = _model_value(path, obj, "weights", _finite_matrix)
        if weights.shape != (p, len(tasks)):
            raise InputError(f"{path}: matrix shapes inconsistent with declared p/tasks")
        return BaselineModel(
            kind=obj["kind"],
            weights=weights,
            tasks=tasks,
            lam=_model_value(path, obj, "lambda", _finite_real),
        )
    for key in ("p", "k", "tasks", "Q", "W", "hyperparams", "converged", "iterations", "residuals"):
        if key not in obj:
            raise InputError(f"{path}: model missing key {key!r}")
    p = _model_value(path, obj, "p", _positive_int)
    k = _model_value(path, obj, "k", _positive_int)
    tasks = _model_value(path, obj, "tasks", _road_list)
    Q = _model_value(path, obj, "Q", _finite_matrix)
    W = _model_value(path, obj, "W", _finite_matrix)
    if Q.shape != (p, k) or W.shape != (k, len(tasks)):
        raise InputError(f"{path}: matrix shapes inconsistent with declared p/k/tasks")
    if not isinstance(obj["hyperparams"], dict):
        raise InputError(f"{path}: bad value for 'hyperparams'")
    stored = {key: v for key, v in obj["hyperparams"].items() if key not in RETIRED_HYPERPARAMS}
    model = TrainedModel(
        Q=Q,
        W=W,
        tasks=tasks,
        hyperparams=Hyperparams.from_dict(stored),
        converged=_model_value(path, obj, "converged", _bool),
        iterations=_model_value(path, obj, "iterations", _positive_int),
        final_residuals=_model_value(
            path, obj, "residuals", lambda r: (float(r["primal"]), float(r["dual"]))
        ),
    )
    if model.hyperparams.k != k:
        raise InputError(f"{path}: bad value for 'hyperparams'")
    return model


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
