"""On-disk formats: dataset directories, model files, group reports, configs.

A dataset directory holds `tasks.json`, `graph.edges` (one task pair per
line), `ground_truth.json` when generated synthetically, and `train/` +
`test/` subdirectories. `tasks.json` gives the task order, the window
sizes `h` and `t` (so p = h + t), and each split's per-task row counts,
`"rows": {"train": [...], "test": [...]}`.

The values of a split are one file, `<split>/values.npy`: a float64
vector in np.save's v1.0 format holding each task's X (row-major, n_r x
p) then its Y (n_r values), in task order. read_dataset builds each split
it is asked for from that file, on the one task graph it reads from
tasks.json and graph.edges. A tasks.json without one of its four keys,
a missing or malformed values.npy, or rows that do not describe it
raises InputError naming the file; there is no fallback.

Beside it, write_dataset writes each task's `X_<road>.csv` and
`Y_<road>.csv` with %.17g (encoded in numpy blocks, see csvfmt), which
round-trips doubles exactly. They are a text view of the same values
that titan never reads back, so editing one changes nothing.
read_matrix_csv reads the one CSV input a command takes, `predict --x`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import csvfmt
from .baselines import BaselineModel
from .errors import InputError, data_lines, read_input_text
from .features import MultiTaskDataset, TaskDataset
from .roadnet import TaskGraph, check_road_id, check_task_edge
from .solver import Hyperparams, TrainedModel
from .synth import GroundTruth, SynthConfig

SPLITS = ("train", "test")
VALUES_NAME = "values.npy"


def _fmt_matrix(M):
    return [[float(v) for v in row] for row in np.asarray(M, dtype=float)]


def _dump_json(obj, path):
    try:
        text = json.dumps(obj, indent=2, allow_nan=False)
    except ValueError:
        raise InputError(f"{path}: cannot write a non-finite value as JSON") from None
    Path(path).write_text(text + "\n", encoding="utf-8")


def _load_json(path, what=""):
    """The JSON object in `path`; `what` names the file in the error
    raised when it holds anything else."""
    try:
        obj = json.loads(read_input_text(path))
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(obj, dict):
        raise InputError(f"{path}: {what}must hold a JSON object")
    return obj


def write_matrix_csv(path, M):
    """Write M as %.17g CSV."""
    with open(path, "wb") as fh:
        fh.writelines(csvfmt.csv_chunks(np.atleast_2d(np.asarray(M, dtype=float))))


def read_matrix_csv(path):
    """Parse a numeric CSV line by line with float(): blank and `#` lines
    are skipped, a nan or inf cell is rejected, and errors name the
    line."""
    rows = []
    for lineno, line in data_lines(read_input_text(path).splitlines()):
        try:
            row = [float(cell) for cell in line.split(",")]
        except ValueError:
            raise InputError(f"{path}:{lineno}: bad numeric cell") from None
        if not all(map(math.isfinite, row)):
            raise InputError(f"{path}:{lineno}: non-finite cell")
        if rows and len(row) != len(rows[0]):
            raise InputError(f"{path}:{lineno}: ragged row ({len(row)} cells, expected {len(rows[0])})")
        rows.append(row)
    if not rows:
        raise InputError(f"{path}: no data rows")
    return np.asarray(rows)


def _load_vector(path, size):
    """The float64 vector in an .npy file; raises InputError naming the
    file unless it holds exactly one native float64 vector of `size`
    values."""
    fmt = np.lib.format
    try:
        with open(path, "rb") as fh:
            if fmt.read_magic(fh) == (1, 0):
                shape, _, dtype = fmt.read_array_header_1_0(fh)
                if (dtype == np.float64 and shape == (size,)
                        and os.fstat(fh.fileno()).st_size - fh.tell() == size * dtype.itemsize):
                    return np.fromfile(fh, dtype=dtype, count=size)
    except FileNotFoundError:
        raise InputError(f"missing file: {path}") from None
    except (OSError, ValueError):  # a directory, unreadable, or not an .npy file
        pass
    raise InputError(f"{path}: not a float64 .npy vector of the {size} values tasks.json describes")


def _split_values(path, counts, p):
    """The (X, Y) pairs of one split, views of its values.npy."""
    flat = _load_vector(path, sum(counts) * (p + 1))
    pairs, start = [], 0
    for n in counts:
        pairs.append((flat[start:start + n * p].reshape(n, p), flat[start + n * p:start + n * (p + 1)]))
        start += n * (p + 1)
    return pairs


def _write_task(sub, road, td: TaskDataset, shape, values):
    """One task's split CSVs, and its X then Y appended to `values`."""
    if td.road_id != road or td.X.shape != shape:
        raise InputError(f"{sub.name} task {td.road_id!r}: expected road {road!r} "
                         f"with {shape[0]} rows of p={shape[1]} features")
    write_matrix_csv(sub / f"X_{road}.csv", td.X)
    write_matrix_csv(sub / f"Y_{road}.csv", td.Y[:, None])
    for M in (td.X, td.Y):
        values.write(np.ascontiguousarray(M, dtype=np.float64))


def write_dataset(root, graph: TaskGraph, h, t, rows, tasks, truth: GroundTruth | None = None):
    """Write the dataset directory layout, one task at a time; returns the
    root path.

    `rows`, each split's per-task row counts, sets the values.npy headers
    before any value is written. `tasks` yields one (train, test)
    TaskDataset pair per road of `graph`, in task order; each is written
    and dropped before the next is asked for, so `synth` streams its
    generator through here holding one task. A dataset already in memory
    passes `*in_memory(train, test)`. tasks.json is deleted first, with
    an earlier dataset's ground_truth.json, and written last, so a write
    that failed part-way leaves no dataset.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    (root / "tasks.json").unlink(missing_ok=True)
    (root / "ground_truth.json").unlink(missing_ok=True)
    edge_lines = [f"{a} {b}" for a, b in graph.task_edges()]
    (root / "graph.edges").write_text("\n".join(edge_lines) + "\n", encoding="utf-8")
    p = h + t
    fmt = np.lib.format
    with contextlib.ExitStack() as stack:
        values = []
        for split in SPLITS:  # np.save's format, its values appended a matrix at a time
            (root / split).mkdir(exist_ok=True)
            fh = stack.enter_context(open(root / split / VALUES_NAME, "wb"))
            fmt.write_array_header_1_0(fh, {"descr": fmt.dtype_to_descr(np.dtype(np.float64)),
                                            "fortran_order": False, "shape": (sum(rows[split]) * (p + 1),)})
            values.append(fh)
        for r, (road, pair) in enumerate(zip(graph.tasks, tasks, strict=True)):
            for split, td, fh in zip(SPLITS, pair, values, strict=True):
                _write_task(root / split, road, td, (rows[split][r], p), fh)
            del pair, td  # before the next task is drawn
    if truth is not None:
        _dump_keys(_GROUND_TRUTH, truth, root / "ground_truth.json")
    _dump_keys(_DATASET, {"tasks": graph.tasks, "h": h, "t": t, "rows": rows}, root / "tasks.json")
    return root


def in_memory(train: MultiTaskDataset, test: MultiTaskDataset):
    """write_dataset's arguments after the root for a dataset already in
    memory: (graph, h, t, rows, its zipped (train, test) tasks)."""
    rows = {split: [td.n for td in ds.tasks] for split, ds in zip(SPLITS, (train, test))}
    return train.graph, train.h, train.t, rows, zip(train.tasks, test.tasks)


def read_task_graph(root):
    """tasks.json and graph.edges: (graph, h, t, rows)."""
    root = Path(root)
    meta_path = root / "tasks.json"
    v = _read_keys(meta_path, _load_json(meta_path), _DATASET)
    if any(len(counts) != len(v["tasks"]) for counts in v["rows"].values()):
        raise InputError(f"{meta_path}: bad value for 'rows'")
    edge_path = root / "graph.edges"
    roads, edges = set(v["tasks"]), []
    for lineno, line in data_lines(read_input_text(edge_path).splitlines()):
        parts = line.split()
        try:
            if len(parts) != 2:
                raise InputError(f"expected 2 fields, got {len(parts)}")
            check_task_edge(roads, *parts)
        except InputError as exc:
            raise InputError(f"{edge_path}:{lineno}: {exc}") from None
        edges.append(parts)
    try:
        graph = TaskGraph(v["tasks"], edges)
    except InputError as exc:  # every edge is checked, so it is the task list
        raise InputError(f"{meta_path}: {exc}") from None
    return graph, v["h"], v["t"], v["rows"]


def read_dataset(root, splits=SPLITS):
    """The MultiTaskDataset of each split in `splits`, in that order, all
    on the one TaskGraph that tasks.json and graph.edges describe; the
    files of a split not asked for are not read."""
    if not set(splits) <= set(SPLITS):
        raise InputError(f"splits must be among {SPLITS}, got {tuple(splits)!r}")
    graph, h, t, rows = read_task_graph(root)
    datasets = []
    for split in splits:
        pairs = _split_values(Path(root) / split / VALUES_NAME, rows[split], h + t)
        tasks = tuple(TaskDataset(road, X, Y) for road, (X, Y) in zip(graph.tasks, pairs))
        datasets.append(MultiTaskDataset(tasks, graph, h, t))
    return tuple(datasets)


def _finite_real(v, low=-math.inf):
    """A finite JSON number >= low (an int or a float, not a bool or a string)."""
    if type(v) not in (int, float) or not math.isfinite(v) or v < low:
        raise ValueError("not a finite JSON number in range")
    return float(v)


def _finite_matrix(M):
    """A list of rows of finite JSON numbers, as a float matrix."""
    if not isinstance(M, list) or not all(isinstance(row, list) for row in M):
        raise ValueError("not a list of rows")
    return np.array([[_finite_real(v) for v in row] for row in M], dtype=float)


def _positive_int(v):
    if isinstance(v, bool) or not isinstance(v, int) or v < 1:
        raise ValueError("not a positive integer")
    return v


def _bool(v):
    if not isinstance(v, bool):
        raise ValueError("not a JSON bool")
    return v


def _task_list(v):
    """tasks.json's `tasks`: a non-empty list of road ids."""
    if not isinstance(v, list) or not v:
        raise ValueError("not a non-empty list")
    for road in v:
        check_road_id(road)
    return tuple(v)


def _row_counts(rows):
    """tasks.json's `rows`: each split's list of counts >= 1."""
    if not isinstance(rows, dict) or set(rows) != set(SPLITS):
        raise ValueError("not an object keyed by split")
    for counts in rows.values():
        if not isinstance(counts, list):
            raise ValueError("not a list of counts")
        for n in counts:
            _positive_int(n)
    return rows


def _road_list(v):
    if not isinstance(v, list) or not all(isinstance(road, str) for road in v):
        raise ValueError("not a list of road ids")
    return tuple(v)


# Each JSON file titan writes and reads back, declared once: a row per
# key in file order, (key, the value written from the object, the
# converter that reads it back and raises on a bad value).
_GROUPED_MODEL = (
    ("p", lambda m: m.p, _positive_int),
    ("k", lambda m: m.k, _positive_int),
    ("tasks", lambda m: list(m.tasks), _road_list),
    ("Q", lambda m: _fmt_matrix(m.Q), _finite_matrix),
    ("W", lambda m: _fmt_matrix(m.W), _finite_matrix),
    ("hyperparams", lambda m: dataclasses.asdict(m.hyperparams), lambda d: Hyperparams(**d)),
    ("converged", lambda m: m.converged, _bool),
    ("iterations", lambda m: m.iterations, _positive_int),
    ("residuals", lambda m: {"primal": float(m.final_residuals[0]), "dual": float(m.final_residuals[1])},
     lambda r: (_finite_real(r["primal"], 0), _finite_real(r["dual"], 0))),
)
_BASELINE_MODEL = (
    ("kind", lambda m: m.kind, lambda kind: kind),  # BaselineModel checks it
    ("p", lambda m: m.p, _positive_int),
    ("tasks", lambda m: list(m.tasks), _road_list),
    ("weights", lambda m: _fmt_matrix(m.weights), _finite_matrix),
    ("lambda", lambda m: m.lam, _finite_real),
)
_GROUND_TRUTH = _GROUPED_MODEL[2:5]  # tasks, Q and W, written and read as a model's
_DATASET = (  # tasks.json, written from a dict of its keys
    ("tasks", itemgetter("tasks"), _task_list),
    ("h", itemgetter("h"), _positive_int),
    ("t", itemgetter("t"), _positive_int),
    ("rows", itemgetter("rows"), _row_counts),
)


def _dump_keys(keys, obj, path):
    _dump_json({key: write(obj) for key, write, _ in keys}, path)


def _read_keys(path, obj, keys, what=""):
    """`obj`'s values of `keys`, converted; every key is checked present
    before the first value is converted."""
    for key, _, _ in keys:
        if key not in obj:
            raise InputError(f"{path}: {what}missing key {key!r}")
    values = {}
    for key, _, convert in keys:
        try:
            values[key] = convert(obj[key])
        except (TypeError, ValueError, KeyError, OverflowError):
            raise InputError(f"{path}: bad value for {key!r}") from None
    return values


def read_ground_truth(root):
    path = Path(root) / "ground_truth.json"
    v = _read_keys(path, _load_json(path), _GROUND_TRUTH)
    if v["Q"].ndim != 2 or v["W"].shape != (v["Q"].shape[1], len(v["tasks"])):
        raise InputError(f"{path}: 'W' must have a row per column of 'Q' and a column per task")
    return GroundTruth(Q=v["Q"], W=v["W"], tasks=v["tasks"])


def write_model(path, model):
    if isinstance(model, TrainedModel):
        if model.iterations < 1:  # read_model would reject the file
            raise InputError(f"{path}: cannot write a model with no fitted iterations")
        _dump_keys(_GROUPED_MODEL, model, path)
    elif isinstance(model, BaselineModel):
        _dump_keys(_BASELINE_MODEL, model, path)
    else:
        raise InputError(f"cannot serialize object of type {type(model).__name__}")


def read_model(path):
    obj = _load_json(path, "model file ")
    if "kind" in obj:
        v = _read_keys(path, obj, _BASELINE_MODEL, "baseline model ")
        if v["weights"].shape != (v["p"], len(v["tasks"])):
            raise InputError(f"{path}: matrix shapes inconsistent with declared p/tasks")
        try:  # BaselineModel checks the kind and the lambda
            return BaselineModel(kind=v["kind"], weights=v["weights"], tasks=v["tasks"], lam=v["lambda"])
        except InputError as exc:
            raise InputError(f"{path}: {exc}") from None
    v = _read_keys(path, obj, _GROUPED_MODEL, "model ")
    p, k = v["p"], v["k"]
    if v["Q"].shape != (p, k) or v["W"].shape != (k, len(v["tasks"])):
        raise InputError(f"{path}: matrix shapes inconsistent with declared p/k/tasks")
    if v["hyperparams"].k != k:
        raise InputError(f"{path}: bad value for 'hyperparams'")
    return TrainedModel(Q=v["Q"], W=v["W"], tasks=v["tasks"], hyperparams=v["hyperparams"],
                        converged=v["converged"], iterations=v["iterations"],
                        final_residuals=v["residuals"])


def write_group_report(path, model):
    """report-groups' JSON: each road's group, the one its largest |W|
    entry picks (ties go to the lowest index), and Q as a model file
    writes it."""
    groups = np.abs(model.W).argmax(axis=0)
    _dump_json({
        "tasks": {road: {"group": int(g)} for road, g in zip(model.tasks, groups)},
        "Q": _fmt_matrix(model.Q),
    }, path)


def _read_config(path, cls, what, name):
    """`cls(**obj)` for the JSON object in `path`; cls checks each value."""
    obj = _load_json(path, what)
    try:
        return cls(**obj)
    except TypeError as exc:
        raise InputError(f"{path}: bad {name}: {exc}") from None


def read_hyperparams(path):
    return _read_config(path, Hyperparams, "hyperparameter file ", "hyperparameter set")


def read_synth_config(path):
    return _read_config(path, SynthConfig, "config ", "synth config")
