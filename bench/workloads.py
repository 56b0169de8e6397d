"""The benchmark's workloads: which CLI stages run, on which inputs.

Every workload is a closed loop of one client: the stages of one pipeline
repetition run one after another, each as its own `python -m titan`
process, and the next repetition starts when the last stage has exited.
Each repetition draws a fresh dataset seed from the run seed, so a run
measures several datasets and reports medians over them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import rawgen

# Every fit stops at this many ADMM iterations unless it converges first.
# With the library default (2000) the iteration count of the default
# 6-road star ranges from 225 to 2000 across 40 seeds, which no
# regression bound could absorb; a capped budget keeps the timed work the
# same across seeds while a solver that converges sooner still shows.
HYPERPARAMS = {"max_iter": 300}
SWEEP_KS = "3,4,5,6,7"
SWEEP_REPORTED_K = 5
GRID_WINDOW = ("6", "4")  # --h, --t for assemble


@dataclass(frozen=True)
class Workload:
    """A workload's stages; why each exists is in BENCHMARK.json and README.md."""

    name: str
    synth_config: dict | None  # None: raw inputs + `assemble`
    sweep: bool  # `sweep-k` instead of `train`
    baseline_kind: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload("star6", {}, sweep=False, baseline_kind="nmtl"),
        Workload("path24", {"T": 24, "graph_kind": "path", "n_per_task": 500}, sweep=False, baseline_kind="nmtl"),
        Workload("wide120_sweep", {"p": 120}, sweep=True, baseline_kind="lasso"),
        # ridge, not nmtl: nmtl's FISTA iteration count on these collinear
        # speed windows varies 1.1-3.7 s per dataset, which alone put the
        # run-to-run spread of baseline_s over the largest allowed bound
        Workload("grid24_raw", None, sweep=False, baseline_kind="ridge"),
    )
}


def dataset_seed(workload, run_seed, rep):
    """Seed of the dataset for repetition `rep` of a run; repetitions differ."""
    digest = hashlib.sha256(f"{workload}:{run_seed}:{rep}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


@dataclass(frozen=True)
class Stage:
    metric: str  # end-to-end metric that takes this stage's wall time
    argv: tuple  # arguments after `python -m titan`
    outputs: dict  # role -> path of a file the stage must write


def prepare(workload: Workload, rep_dir: Path, seed: int):
    """Write the inputs of one repetition (untimed) and return its stages.

    The program receives only files written here.
    """
    rep_dir.mkdir(parents=True, exist_ok=True)
    data = rep_dir / "data"
    hp = rep_dir / "hp.json"
    hp.write_text(json.dumps(HYPERPARAMS), encoding="utf-8")
    if workload.synth_config is None:
        edges, incidents, speeds = rawgen.write_raw_inputs(rep_dir / "raw", seed)
        setup = (
            "assemble", "--edges", str(edges), "--incidents", str(incidents),
            "--speeds-dir", str(speeds), "--h", GRID_WINDOW[0], "--t", GRID_WINDOW[1],
            "--standardize", "--seed", str(seed), "--out", str(data),
        )
    else:
        setup = ("synth", "--out", str(data), "--seed", str(seed))
        if workload.synth_config:
            cfg = rep_dir / "synth.json"
            cfg.write_text(json.dumps(workload.synth_config), encoding="utf-8")
            setup += ("--config", str(cfg))

    model = rep_dir / "model.json"
    sweep = rep_dir / "sweep.csv"
    baseline = rep_dir / "baseline.json"
    report = rep_dir / "report.csv"
    if workload.sweep:
        fit = Stage("train_s", ("sweep-k", "--dataset", str(data), "--config", str(hp),
                                "--k", SWEEP_KS, "--out", str(sweep)), {"sweep": sweep})
        models = (baseline,)
    else:
        fit = Stage("train_s", ("train", "--dataset", str(data), "--config", str(hp),
                                "--out", str(model)), {"model": model})
        models = (model, baseline)
    evaluate = ("evaluate", "--dataset", str(data), "--out", str(report))
    for m in models:
        evaluate += ("--model", str(m))
    stages = (
        Stage("setup_s", setup, {"dataset": data}),
        fit,
        Stage("baseline_s", ("train-baseline", "--dataset", str(data), "--kind",
                             workload.baseline_kind, "--out", str(baseline)), {"baseline": baseline}),
        Stage("evaluate_s", evaluate, {"report": report}),
    )
    return stages
