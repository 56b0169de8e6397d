"""Correctness checks on what each CLI stage wrote.

The benchmark parses outputs itself rather than through `titan`, so a
change to the program's readers cannot hide a broken writer. Every check
raises CheckFailed with a message naming the file and the fault.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

REPORT_HEADER = "method,task,k,rmse,mae,mape_percent"
POOLED_LINE = re.compile(r"^(\S+): pooled rmse=(\S+) mae=\S+ mape=\S+%$")
SWEEP_LINE = re.compile(r"^k=(\d+): pooled rmse=(\S+)$")
TRAIN_LINE = re.compile(r"^iterations=\d+ converged=(?:True|False) primal_residual=\S+ ")
BASELINE_LINE = re.compile(r"^kind=(\S+) lambda=\S+ pooled_test_rmse=(\S+)$")


class CheckFailed(Exception):
    pass


def _finite(value, what):
    try:
        x = float(value)
    except (TypeError, ValueError):
        raise CheckFailed(f"{what}: not a number ({value!r})") from None
    if not math.isfinite(x):
        raise CheckFailed(f"{what}: not finite ({x})")
    return x


def _json(path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise CheckFailed(f"{path}: missing") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CheckFailed(f"{path}: unparseable ({exc})") from None


def _matrix(obj, key, rows, cols, path):
    M = obj.get(key)
    if not isinstance(M, list) or len(M) != rows or any(not isinstance(r, list) or len(r) != cols for r in M):
        raise CheckFailed(f"{path}: {key} is not a {rows}x{cols} matrix")
    for row in M:
        for v in row:
            _finite(v, f"{path}: {key}")


def check_dataset(root):
    """The dataset directory holds every split file; returns (tasks, p)."""
    meta = _json(Path(root) / "tasks.json")
    tasks = meta.get("tasks") if isinstance(meta, dict) else None
    if not isinstance(tasks, list) or not tasks:
        raise CheckFailed(f"{root}/tasks.json: no task list")
    for split in ("train", "test"):
        for road in tasks:
            for name in (f"X_{road}.csv", f"Y_{road}.csv"):
                if not (Path(root) / split / name).is_file():
                    raise CheckFailed(f"{root}/{split}/{name}: missing")
    try:
        return tasks, int(meta["h"]) + int(meta["t"])
    except (KeyError, TypeError, ValueError):
        raise CheckFailed(f"{root}/tasks.json: no integer h and t") from None


def check_grouped_model(path, tasks, p):
    obj = _json(path)
    if not isinstance(obj, dict) or obj.get("tasks") != tasks or obj.get("p") != p:
        raise CheckFailed(f"{path}: tasks or p do not match the dataset")
    k = obj.get("k")
    if not isinstance(k, int) or k < 1:
        raise CheckFailed(f"{path}: bad k {k!r}")
    _matrix(obj, "Q", p, k, path)
    _matrix(obj, "W", k, len(tasks), path)


def check_baseline_model(path, tasks, p):
    obj = _json(path)
    if not isinstance(obj, dict) or obj.get("tasks") != tasks or "kind" not in obj:
        raise CheckFailed(f"{path}: not a baseline model for these tasks")
    _matrix(obj, "weights", p, len(tasks), path)
    _finite(obj.get("lambda"), f"{path}: lambda")


def _report_rows(path, tasks, n_methods):
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except FileNotFoundError:
        raise CheckFailed(f"{path}: missing") from None
    if not lines or lines[0] != REPORT_HEADER:
        raise CheckFailed(f"{path}: bad header")
    rows = [ln.split(",") for ln in lines[1:] if ln]
    if len(rows) != n_methods * len(tasks):
        raise CheckFailed(f"{path}: {len(rows)} rows, expected {n_methods * len(tasks)}")
    for row in rows:
        if len(row) != 6 or row[1] not in tasks:
            raise CheckFailed(f"{path}: malformed row {','.join(row)!r}")
        for cell in row[3:]:
            _finite(cell, f"{path}: metric")


def check_report(path, stdout, tasks, n_models):
    """Report CSV and stdout agree in shape; returns {method: pooled rmse}."""
    _report_rows(path, tasks, n_models)
    pooled = {}
    for line in stdout.splitlines():
        m = POOLED_LINE.match(line.strip())
        if m:
            pooled[m.group(1)] = _finite(m.group(2), f"evaluate: {m.group(1)} rmse")
    if len(pooled) != n_models:
        raise CheckFailed(f"evaluate: {len(pooled)} pooled lines on stdout, expected {n_models}")
    return pooled


def check_sweep(path, stdout, tasks, ks):
    """Sweep CSV holds one block per k; returns {k: pooled rmse}."""
    _report_rows(path, tasks, len(ks))
    pooled = {}
    for line in stdout.splitlines():
        m = SWEEP_LINE.match(line.strip())
        if m:
            pooled[int(m.group(1))] = _finite(m.group(2), f"sweep-k: k={m.group(1)} rmse")
    if sorted(pooled) != sorted(ks):
        raise CheckFailed(f"sweep-k: pooled lines for k={sorted(pooled)}, expected {sorted(ks)}")
    return pooled


def check_train_stdout(stdout):
    """`train` printed its summary line."""
    if not any(TRAIN_LINE.match(line.strip()) for line in stdout.splitlines()):
        raise CheckFailed("train: no summary line on stdout")


def check_baseline_stdout(stdout):
    """`train-baseline` printed its summary line with a finite RMSE."""
    for line in stdout.splitlines():
        m = BASELINE_LINE.match(line.strip())
        if m:
            _finite(m.group(2), "train-baseline: pooled_test_rmse")
            return
    raise CheckFailed("train-baseline: no summary line on stdout")
