"""Per-seed convergence table of default-hyperparameter fits.

Prints one markdown row per fit: iterations, converged flag, final
primal/dual residuals, orthogonality gap, planted-block Jaccard (synthetic
data only) and pooled test RMSE. Suites: the default 6-road star, p=120,
a 40-road path, and the raw-minute 4x4 grid that `bench/rawgen.py` writes,
assembled as the benchmark assembles it. Exits 1, after the whole table,
when any fit it tabulates did not converge. Run from the repository root:

    PYTHONPATH=src python scripts/convergence_table.py [--suite star6] [--seeds 0-11]

Pointing PYTHONPATH at another checkout's src/ tabulates that solver on
the same data.
"""

import argparse
import sys
import tempfile
import time
from pathlib import Path

from titan import storage
from titan.cli import main as titan_main
from titan.evaluation import evaluate, recovery_jaccard
from titan.solver import Hyperparams, fit
from titan.synth import SynthConfig, generate

SUITES = {
    "star6": ({}, range(12)),
    "p120": ({"p": 120}, range(6)),
    "path40": ({"T": 40, "graph_kind": "path"}, range(3)),
    "grid_raw": (None, range(1, 5)),
}


def raw_grid(seed, workdir):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    import rawgen

    edges, incidents, speeds = rawgen.write_raw_inputs(Path(workdir) / "raw", seed)
    out = Path(workdir) / "data"
    argv = ["assemble", "--edges", str(edges), "--incidents", str(incidents),
            "--speeds-dir", str(speeds), "--h", "6", "--t", "4", "--standardize",
            "--seed", str(seed), "--out", str(out)]
    if titan_main(argv) != 0:
        raise SystemExit(f"assemble failed for seed {seed}")
    return storage.read_dataset(out)


def row(suite, seed):
    """The fit's table row and whether the fit converged."""
    config, _ = SUITES[suite]
    if config is None:
        with tempfile.TemporaryDirectory() as tmp:
            train, test = raw_grid(seed, tmp)
        truth = None
    else:
        train, test, truth = generate(SynthConfig(seed=seed, **config))
    started = time.perf_counter()
    model = fit(train, Hyperparams())
    elapsed = time.perf_counter() - started
    p_res, d_res = model.final_residuals
    jac = "-" if truth is None else f"{recovery_jaccard(model.Q, truth.block_supports):.3f}"
    test_rmse = evaluate(model, test).overall.rmse
    return (f"| {suite} | {seed} | {model.iterations} | {model.converged} | {p_res:.2e} | "
            f"{d_res:.2e} | {model.orth_gap:.1e} | {jac} | {test_rmse:.4f} | "
            f"{elapsed:.2f} |"), model.converged


def seed_range(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--suite", choices=sorted(SUITES), action="append",
                        help="suite to run (repeatable; default: all)")
    parser.add_argument("--seeds", type=seed_range, help="seed range a-b (default: per suite)")
    args = parser.parse_args()
    print("| suite | seed | iterations | converged | primal | dual | orth gap | Jaccard | test RMSE "
          "| fit s |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    unconverged = 0
    for suite in args.suite or SUITES:
        for seed in args.seeds or SUITES[suite][1]:
            text, converged = row(suite, seed)
            print(text, flush=True)
            unconverged += not converged
    if unconverged:
        print(f"{unconverged} fit(s) did not converge", file=sys.stderr)
    return 1 if unconverged else 0


if __name__ == "__main__":
    sys.exit(main())
