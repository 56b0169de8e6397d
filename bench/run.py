"""Benchmark of the titan command-line pipeline.

    python3 bench/run.py --workload star6 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the program under test is
`src/titan`, run as `python -m titan` with PYTHONPATH=src. With `--trace 0`
each pipeline stage is its own child process and the run reports the
end-to-end metrics listed in BENCHMARK.json; with `--trace 1` the stages
run in this process through `titan.cli.main(argv)` with every layer
wrapped (see tracer.py), and the run reports the per-layer metrics.

A run repeats the workload's pipeline, on a fresh dataset seed each time,
until `--seconds` have passed, and reports the mean over the repetitions
(README.md says why not the median).
Its last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it give each metric's quartiles and
sample count, failed_ratio, and the environment. The full record goes to
`.bench_run/results/`.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import logging
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from statistics import fmean, median, quantiles

import numpy as np

import pipeline
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
RUN_LIMIT_S = 170.0  # a run, children included, must end within 180 s
STARTUP_PROBES = 5


def nproc():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)


def source_digest():
    """sha256 of every file under src/titan: the commit identity the
    checkout has even when it is not a git repository."""
    h = hashlib.sha256()
    for f in sorted((SRC / "titan").rglob("*.py")):
        h.update(str(f.relative_to(SRC)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment():
    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "titan_threads": nproc(),
    }


def child_env():
    return dict(os.environ, PYTHONPATH=str(SRC), TITAN_THREADS=str(nproc()))


def describe(name, samples, unit):
    """One line: the reported mean, then median and quartiles for reading."""
    q1, q2, q3 = quantiles(samples, n=4, method="inclusive") if len(samples) > 1 else samples * 3
    return f"{name} mean={fmean(samples):.6g} median={q2:.6g} q1={q1:.6g} q3={q3:.6g} {unit} n={len(samples)}"


def end_to_end_samples(reps):
    """Per-repetition values of every end-to-end metric."""
    out = {}
    for rep in reps:
        row = dict(rep.walls)
        row["pipeline_s"] = sum(rep.walls.values())
        row["peak_rss_mb"] = max(rep.maxrss_kb) / 1024.0
        for key in ("titan_test_rmse", "baseline_test_rmse"):
            if key in rep.values:
                row[key] = rep.values[key]
        for key, value in row.items():
            out.setdefault(key, []).append(value)
    return out


def run_end_to_end(workload, seed, seconds, work, ledger, deadline):
    """Untraced runs: every stage a child process. A warm-up repetition on
    the first dataset seed (untimed) fills caches and compiles bytecode,
    and its outputs must match the first timed repetition byte for byte."""
    env = child_env()

    def execute(stage):
        return pipeline.run_child(stage.argv, env, work, deadline)

    def rep_at(i, label):
        rep_dir = work / label
        rep = pipeline.run_rep(workload, rep_dir, workloads.dataset_seed(workload.name, seed, i), execute, ledger)
        shutil.rmtree(rep_dir)
        return rep

    warm = rep_at(0, "warmup")
    reps = []
    started = time.monotonic()
    while not reps or time.monotonic() - started < seconds:
        reps.append(rep_at(len(reps), f"rep{len(reps)}"))
    pipeline.compare_digests(warm, reps[0], ledger)
    return reps, [warm] + reps, end_to_end_samples(reps)


def run_inprocess(cli, argv):
    """`titan.cli.main(argv)` in this process, with its stdout captured."""
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects a flag
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an uncaught exception is a failed stage
            traceback.print_exc()
            code = 1
    wall = time.perf_counter() - started
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return pipeline.StageResult(code, wall, rss, out.getvalue(), err.getvalue())


def startup_seconds(work, deadline):
    """Median wall of `python -m titan --help`, after one warm-up call."""
    env = child_env()
    walls = []
    for _ in range(STARTUP_PROBES + 1):
        walls.append(pipeline.run_child(["--help"], env, work, deadline).wall_s)
    return median(walls[1:])


def with_suffix_out(stage, suffix):
    """The same stage writing its output next to the original, renamed."""
    argv = list(stage.argv)
    i = argv.index("--out")
    out = Path(argv[i + 1])
    renamed = out.with_name(out.stem + suffix + out.suffix)
    argv[i + 1] = str(renamed)
    role = next(iter(stage.outputs))
    return workloads.Stage(stage.metric, tuple(argv), {role: renamed})


def run_traced(workload, seed, seconds, work, ledger, deadline):
    """Traced runs: stages in this process with every TARGETS function
    wrapped. Each repetition also runs the fit stage with only `fit`
    timed; the difference in fit time is the tracing overhead, and its
    outputs must match the traced stage's byte for byte."""
    startup = startup_seconds(work, deadline)
    sys.path.insert(0, str(SRC))
    os.environ["TITAN_THREADS"] = str(nproc())
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s", stream=sys.stderr)
    import titan.cli
    import titan.evaluation
    import titan.storage

    spans = tracer.Tracer()
    fit_timer = tracer.Tracer()
    cli = titan.cli

    def traced(stage):
        with spans.installed():
            return run_inprocess(cli, stage.argv)

    def fit_only(stage):
        with fit_timer.installed(tracer.FIT_ONLY):
            return run_inprocess(cli, stage.argv)

    reps, samples = [], {}
    started = time.monotonic()
    while not reps or time.monotonic() - started < seconds:
        i = len(reps)
        rep_dir = work / f"rep{i}"
        run_id = f"{workload.name}:{seed}:{i}"
        spans.run = fit_timer.run = run_id
        rep = pipeline.run_rep(workload, rep_dir, workloads.dataset_seed(workload.name, seed, i), traced, ledger)
        fit_stage = rep.stages[1]
        shadow = pipeline.Rep(f"{rep.label}-fit-only", rep.seed, tasks=rep.tasks, p=rep.p)
        pipeline.run_stage(workload, with_suffix_out(fit_stage, "_fit_only"), fit_only, shadow, ledger)
        pipeline.compare_digests(rep, shadow, ledger)

        rep_spans = [s for s in spans.spans if s.run == run_id]
        row = tracer.layer_metrics(rep_spans)
        untraced_cpu = tracer.fit_cpu_seconds([s for s in fit_timer.spans if s.run == run_id])
        row["trace.overhead_s"] = row.pop("solver.fit_cpu_s") - untraced_cpu
        row["cli.startup_s"] = startup
        row["evaluation.recovery_jaccard"] = recovery(titan, spans.models, run_id, rep_dir / "data")
        for key, value in row.items():
            samples.setdefault(key, []).append(value)
        reps.append(rep)
        shutil.rmtree(rep_dir)

    spans.write(RUN_DIR / f"spans-{workload.name}-seed{seed}.jsonl.gz")
    unattributed = fmean(samples["solver.unattributed_s"])
    overhead = fmean(samples["trace.overhead_s"])
    verdict = "within" if abs(unattributed) <= overhead else "NOT within"
    print(f"{workload.name} trace check: solver phase self times sum to fit_s less {unattributed:.4f} s, "
          f"{verdict} the tracing overhead {overhead:.4f} s")
    return reps, reps, samples


def recovery(titan, models, run_id, data_dir):
    """Jaccard of the planted blocks against the first fit with the planted
    k; 0 when the dataset has no planted truth (assembled from raw files)."""
    if not (data_dir / "ground_truth.json").is_file():
        return 0.0
    truth = titan.storage.read_ground_truth(data_dir)
    for run, model in models:
        if run == run_id and model.k == truth.Q.shape[1]:
            return titan.evaluation.recovery_jaccard(model.Q, truth.block_supports)
    return 0.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "titan" / "cli.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'titan'} is missing", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    deadline = time.monotonic() + RUN_LIMIT_S
    workload = workloads.WORKLOADS[args.workload]
    work = RUN_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (RUN_DIR / "results").mkdir(exist_ok=True)

    ledger = pipeline.Ledger()
    run = run_traced if args.trace else run_end_to_end
    reps, checked, samples = run(workload, args.seed, args.seconds, work, ledger, deadline)
    pipeline.check_digest_store(RUN_DIR / "digests.json", source_digest(), workload.name, checked, ledger)
    shutil.rmtree(work)

    metrics, lines = {}, []
    for m in declared:
        values = samples.get(m["name"])
        if not values:
            ledger.record(f"metrics/{m['name']}", "not measured")
            continue
        metrics[m["name"]] = {"value": fmean(values), "unit": m["unit"]}
        lines.append(f"{workload.name} " + describe(m["name"], values, m["unit"]))
    if workload.sweep and not args.trace:
        lines.append(f"{workload.name} " + describe("sweep_s", samples["train_s"], "s") + " (the train_s stage)")
    lines.append(f"{workload.name} failed_ratio={ledger.failed}/{ledger.attempted}")
    env = environment()
    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "environment": env,
        "dataset_seeds": [rep.seed for rep in reps],
        "dataset_bytes": [rep.values.get("dataset_bytes") for rep in reps],
        "samples": samples, "attempted": ledger.attempted, "failed": ledger.failed, "errors": ledger.errors,
    }
    out = RUN_DIR / "results" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for line in lines:
        print(line)
    for error in ledger.errors:
        print(f"{workload.name} FAILED {error}")
    print(f"environment {json.dumps(env, sort_keys=True)}")
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
