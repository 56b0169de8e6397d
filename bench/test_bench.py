"""Tests of the benchmark itself: that faults are counted, not hidden.

    PYTHONPATH=src python3 -m pytest -q bench

They run the real CLI on the smallest workload (star6), so they take
some seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import checks
import pipeline
import rawgen
import run
import tracer
import workloads

STAR6 = workloads.WORKLOADS["star6"]


def child_executor(tmp_path, argv_filter=None, after=None):
    env = run.child_env()
    deadline = time.monotonic() + 120

    def execute(stage):
        argv = argv_filter(stage) if argv_filter else stage.argv
        result = pipeline.run_child(argv, env, tmp_path, deadline)
        if after:
            after(stage)
        return result

    return execute


def test_clean_repetition_passes_every_stage(tmp_path):
    ledger = pipeline.Ledger()
    rep = pipeline.run_rep(STAR6, tmp_path / "rep0", 5, child_executor(tmp_path), ledger)
    assert (ledger.attempted, ledger.failed) == (4, 0), ledger.errors
    assert set(rep.walls) == {"setup_s", "train_s", "baseline_s", "evaluate_s"}
    assert set(rep.values) >= {"titan_test_rmse", "baseline_test_rmse"}


def test_corrupted_model_counts_in_failed_ratio(tmp_path):
    def corrupt(stage):
        if "model" in stage.outputs:
            path = Path(stage.outputs["model"])
            path.write_text(path.read_text()[:200], encoding="utf-8")

    ledger = pipeline.Ledger()
    pipeline.run_rep(STAR6, tmp_path / "rep0", 5, child_executor(tmp_path, after=corrupt), ledger)
    assert ledger.attempted == 4
    failed = {e.split(":")[0] for e in ledger.errors}
    # the model check fails, and evaluate cannot read the model
    assert failed == {"rep0/train", "rep0/evaluate"}
    assert ledger.failed == 2


def test_failing_stage_counts_in_failed_ratio(tmp_path):
    def bad_kind(stage):
        return tuple("no-such-kind" if a == STAR6.baseline_kind else a for a in stage.argv)

    ledger = pipeline.Ledger()
    pipeline.run_rep(STAR6, tmp_path / "rep0", 5, child_executor(tmp_path, argv_filter=bad_kind), ledger)
    assert ledger.failed >= 1
    assert any(e.startswith("rep0/train-baseline: exit 2") for e in ledger.errors)


def test_differing_output_bytes_fail_the_stage():
    ledger = pipeline.Ledger()
    ref = pipeline.Rep("warmup", 1, digests={"model": ("warmup/train", "a")})
    other = pipeline.Rep("rep0", 1, digests={"model": ("rep0/train", "b")})
    ledger.record("rep0/train")
    pipeline.compare_digests(ref, other, ledger)
    assert (ledger.attempted, ledger.failed) == (1, 1)


def test_digest_store_catches_a_change_between_runs(tmp_path):
    store = tmp_path / "digests.json"
    first = pipeline.Rep("rep0", 9, digests={"model": ("rep0/train", "a")})
    pipeline.check_digest_store(store, "src", "star6", [first], pipeline.Ledger())
    ledger = pipeline.Ledger()
    ledger.record("rep0/train")
    second = pipeline.Rep("rep0", 9, digests={"model": ("rep0/train", "b")})
    pipeline.check_digest_store(store, "src", "star6", [second], ledger)
    assert ledger.failed == 1


@pytest.mark.parametrize("text", ["", "{", '{"p": 2, "k": 1, "tasks": ["a"], "Q": [[NaN], [1]], "W": [[1]]}'])
def test_grouped_model_check_rejects_bad_files(tmp_path, text):
    path = tmp_path / "model.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(checks.CheckFailed):
        checks.check_grouped_model(path, ["a"], 2)


def test_report_check_rejects_non_finite_rmse(tmp_path):
    report = tmp_path / "report.csv"
    report.write_text(f"{checks.REPORT_HEADER}\ntitan,a,5,nan,1.0,1.0\n", encoding="utf-8")
    with pytest.raises(checks.CheckFailed):
        checks.check_report(report, "titan: pooled rmse=nan mae=1 mape=1%\n", ["a"], 1)


def test_raw_inputs_are_seeded_and_assemble(tmp_path):
    sys.path.insert(0, str(run.SRC))
    from titan import features, roadnet

    edges, incidents, _ = rawgen.write_raw_inputs(tmp_path / "a", 3)
    rawgen.write_raw_inputs(tmp_path / "b", 3)
    rawgen.write_raw_inputs(tmp_path / "c", 4)
    assert pipeline.digest_path(tmp_path / "a") == pipeline.digest_path(tmp_path / "b")
    assert pipeline.digest_path(tmp_path / "a") != pipeline.digest_path(tmp_path / "c")
    graph = roadnet.build_line_graph(roadnet.load_edge_list(edges))
    assert graph.n_tasks == 24 and len(graph.task_edges()) == 52
    assert len(features.load_incidents_csv(incidents)) == 24 * rawgen.INCIDENTS_PER_ROAD


def test_self_time_subtracts_the_union_of_children():
    spans = [
        tracer.Span(0, "p", 0.0, 10.0, None, "r", 1),
        tracer.Span(1, "c", 1.0, 4.0, 0, "r", 1),
        tracer.Span(2, "c", 3.0, 6.0, 0, "r", 2),  # overlaps span 1 (another thread)
        tracer.Span(3, "g", 1.5, 2.0, 1, "r", 1),
    ]
    selfs = tracer.self_times(spans)
    assert selfs[0] == pytest.approx(5.0)
    assert selfs[1] == pytest.approx(2.5)
    assert selfs[3] == pytest.approx(0.5)


def test_tracer_wraps_names_bound_in_every_module_and_restores_them():
    sys.path.insert(0, str(run.SRC))
    import titan.evaluation
    import titan.solver

    original = titan.solver.fit
    t = tracer.Tracer()
    with t.installed():
        assert titan.evaluation.fit is titan.solver.fit is not original
    assert titan.evaluation.fit is original and titan.solver.fit is original


def test_directory_without_the_program_exits_nonzero(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "star6", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_every_declared_metric(capsys, trace):
    assert run.main(["--workload", "star6", "--seed", "1", "--seconds", "0.1", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    assert set(result["metrics"]) == {m["name"] for m in declared}
