"""Running one pipeline repetition and checking what each stage wrote.

A stage is attempted once per run of its command; it fails on a non-zero
exit, a missing or unparseable output, a non-finite RMSE, or output bytes
that differ from another run of the same command on the same input. The
Ledger counts both, and `failed / attempted` is the run's failed_ratio.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import workloads


@dataclass
class StageResult:
    returncode: int
    wall_s: float
    maxrss_kb: int
    stdout: str
    stderr: str


@dataclass
class Ledger:
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    _failed_labels: set = field(default_factory=set)

    def record(self, label, error=None):
        self.attempted += 1
        if error:
            self.fail(label, error)

    def fail(self, label, error):
        """Mark an attempted stage failed; a stage counts as failed once."""
        self.errors.append(f"{label}: {error}")
        if label not in self._failed_labels:
            self._failed_labels.add(label)
            self.failed += 1


@dataclass
class Rep:
    label: str
    seed: int
    walls: dict = field(default_factory=dict)  # end-to-end metric -> stage wall seconds
    maxrss_kb: list = field(default_factory=list)
    values: dict = field(default_factory=dict)  # test RMSEs, dataset size
    digests: dict = field(default_factory=dict)  # output role -> (stage label, sha256)
    tasks: list | None = None
    p: int = 0
    stages: tuple = ()


def run_child(argv, env, log_dir, deadline):
    """Run `python -m titan <argv>` to completion; rusage is the child's own.

    The child is killed once `deadline` (time.monotonic) passes.
    """
    log_dir = Path(log_dir)
    with open(log_dir / "stdout.txt", "w+", encoding="utf-8") as out, \
            open(log_dir / "stderr.txt", "w+", encoding="utf-8") as err:
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "titan", *argv], stdout=out, stderr=err, env=env)
        killer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return StageResult(proc.returncode, wall, usage.ru_maxrss, out.read(), err.read())


def digest_path(path):
    """sha256 of a file, or of every file under a directory in path order."""
    path = Path(path)
    h = hashlib.sha256()
    files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
    for f in files:
        h.update(str(f.relative_to(path)).encode() if path.is_dir() else b"")
        h.update(f.read_bytes())
    return h.hexdigest()


def check_stage(workload, stage, result, rep):
    """Validate one stage's outputs; record RMSEs and sizes in `rep.values`."""
    if result.returncode != 0:
        tail = result.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        raise checks.CheckFailed(f"exit {result.returncode}: {tail[0]}")
    if stage.metric == "setup_s":
        rep.tasks, rep.p = checks.check_dataset(stage.outputs["dataset"])
        rep.values["dataset_bytes"] = sum(
            f.stat().st_size for f in Path(stage.outputs["dataset"]).rglob("*") if f.is_file()
        )
        return
    if rep.tasks is None:
        raise checks.CheckFailed("no dataset to check against")
    if "sweep" in stage.outputs:
        ks = [int(k) for k in workloads.SWEEP_KS.split(",")]
        pooled = checks.check_sweep(stage.outputs["sweep"], result.stdout, rep.tasks, ks)
        rep.values["titan_test_rmse"] = pooled[workloads.SWEEP_REPORTED_K]
    elif "model" in stage.outputs:
        checks.check_train_stdout(result.stdout)
        checks.check_grouped_model(stage.outputs["model"], rep.tasks, rep.p)
    elif "baseline" in stage.outputs:
        checks.check_baseline_stdout(result.stdout)
        checks.check_baseline_model(stage.outputs["baseline"], rep.tasks, rep.p)
    else:
        n_models = 1 if workload.sweep else 2
        pooled = checks.check_report(stage.outputs["report"], result.stdout, rep.tasks, n_models)
        if not workload.sweep:
            if "titan" not in pooled:
                raise checks.CheckFailed("evaluate: no titan line on stdout")
            rep.values["titan_test_rmse"] = pooled["titan"]
        if workload.baseline_kind not in pooled:
            raise checks.CheckFailed(f"evaluate: no {workload.baseline_kind} line on stdout")
        rep.values["baseline_test_rmse"] = pooled[workload.baseline_kind]


def run_stage(workload, stage, execute, rep, ledger):
    """Execute, time and check one stage; digest its outputs when it passed."""
    label = f"{rep.label}/{stage.argv[0]}"
    result = execute(stage)
    rep.walls[stage.metric] = result.wall_s
    rep.maxrss_kb.append(result.maxrss_kb)
    try:
        check_stage(workload, stage, result, rep)
    except checks.CheckFailed as exc:
        ledger.record(label, str(exc))
        return result
    ledger.record(label)
    for role, path in stage.outputs.items():
        rep.digests[role] = (label, digest_path(path))
    return result


def run_rep(workload, rep_dir, seed, execute, ledger):
    """Prepare inputs (untimed), then run and check every stage in order."""
    rep = Rep(rep_dir.name, seed)
    rep.stages = workloads.prepare(workload, rep_dir, seed)
    for stage in rep.stages:
        run_stage(workload, stage, execute, rep, ledger)
    return rep


def compare_digests(reference, other, ledger):
    """Fail every stage of `other` whose outputs differ from `reference`'s."""
    for role, (label, digest) in other.digests.items():
        if role in reference.digests and reference.digests[role][1] != digest:
            ledger.fail(label, f"{role} bytes differ from {reference.digests[role][0]}")


def check_digest_store(store_path, source_digest, workload, reps, ledger):
    """Compare outputs with earlier runs of the same source on the same
    dataset seed, then add this run's outputs to the store."""
    try:
        store = json.loads(Path(store_path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        store = {}
    known = store.setdefault(source_digest, {})
    for rep in reps:
        entry = known.setdefault(f"{workload}:{rep.seed}", {})
        for role, (label, digest) in rep.digests.items():
            if entry.setdefault(role, digest) != digest:
                ledger.fail(label, f"{role} bytes differ from an earlier run on seed {rep.seed}")
    tmp = Path(f"{store_path}.tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True), encoding="utf-8")
    os.replace(tmp, store_path)
