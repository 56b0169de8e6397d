"""Command-line interface.

Subcommands cover the full experiment loop: generate synthetic data,
assemble datasets from raw road/incident/speed files, train the grouped
multi-task model or a baseline, predict, evaluate models side by side,
sweep the group count, and dump group-assignment reports.

Exit codes: 0 success, 2 input/config error or a file that cannot be
written, 3 numerical failure. A command that writes one file checks that
the file's directory exists, and that the file is not a directory, before
it reads or fits anything.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import logging
import os
import stat
import sys
import time
from pathlib import Path

import numpy as np

from . import baselines, evaluation, features, roadnet, solver, storage, synth
from .errors import InputError, NumericalAbort

log = logging.getLogger("titan")

EXIT_INPUT_ERROR = 2
EXIT_NUMERICAL = 3


def _check_out(path):
    """Raise the OSError that writing `path` would, unless its parent is an
    existing directory and it is not one: checked before a command reads
    or fits anything."""
    try:
        mode = os.stat(Path(path).parent).st_mode
    except OSError as exc:
        code = exc.errno
    else:
        if not stat.S_ISDIR(mode):
            code = errno.ENOTDIR
        elif os.path.isdir(path):
            code = errno.EISDIR
        else:
            return
    raise OSError(code, os.strerror(code), path)


def _load_hyperparams(args):
    return storage.read_hyperparams(args.config) if args.config else solver.Hyperparams()


def cmd_synth(args):
    config = storage.read_synth_config(args.config) if args.config else synth.SynthConfig()
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    graph, h, t, rows, tasks, truth = synth.draw(config)
    storage.write_dataset(args.out, graph, h, t, rows, tasks, truth)
    log.info(
        "wrote dataset: %d tasks, p=%d, %d train / %d test rows per task",
        graph.n_tasks, h + t, rows["train"][0], rows["test"][0],
    )
    return 0


def cmd_train(args):
    _check_out(args.out)
    hp = _load_hyperparams(args)
    (train,) = storage.read_dataset(args.dataset, ("train",))
    started = time.perf_counter()
    model = solver.fit(train, hp)
    elapsed = time.perf_counter() - started
    storage.write_model(args.out, model)
    print(
        f"iterations={model.iterations} converged={model.converged} "
        f"primal_residual={model.final_residuals[0]:.3e} "
        f"dual_residual={model.final_residuals[1]:.3e} "
        f"orth_gap={model.orth_gap:.3e} wall_time_s={elapsed:.2f}"
    )
    return 0


def cmd_train_baseline(args):
    _check_out(args.out)
    train, test = storage.read_dataset(args.dataset)
    grid = [args.lam] if args.lam is not None else baselines.BASELINES[args.kind]
    best = None
    for lam in grid:
        model = baselines.fit_baseline(args.kind, train, lam)
        score = evaluation.evaluate(model, test).overall.rmse
        log.info("%s lambda=%g pooled test rmse=%.4f", args.kind, lam, score)
        if best is None or score < best[0]:
            best = (score, model)
    storage.write_model(args.out, best[1])
    print(f"kind={args.kind} lambda={best[1].lam:g} pooled_test_rmse={best[0]:.4f}")
    return 0


def cmd_predict(args):
    _check_out(args.out)
    model = storage.read_model(args.model)
    X = storage.read_matrix_csv(args.x)
    started = time.perf_counter()
    yhat = solver.predict(model, X, args.task)
    elapsed = time.perf_counter() - started
    storage.write_matrix_csv(args.out, np.asarray(yhat)[:, None])
    log.info("predicted %d rows, mean latency %.4f ms/row", len(yhat), 1000.0 * elapsed / len(yhat))
    return 0


def cmd_evaluate(args):
    _check_out(args.out)
    (test,) = storage.read_dataset(args.dataset, ("test",))
    reports = []
    label_counts = {}
    for path in args.model:  # every model is scored before anything is printed
        model = storage.read_model(path)
        try:
            rep = evaluation.evaluate(model, test)
        except (InputError, NumericalAbort) as exc:
            raise type(exc)(f"{path}: {exc}") from None
        n = label_counts.get(rep.method, 0) + 1
        label_counts[rep.method] = n
        if n > 1:  # disambiguate repeated kinds deterministically
            rep = dataclasses.replace(rep, method=f"{rep.method}#{n}")
        reports.append(rep)
    for rep in reports:
        overall = rep.overall
        print(
            f"{rep.method}: pooled rmse={overall.rmse:.4f} mae={overall.mae:.4f} "
            f"mape={overall.mape_percent:.4f}%"
        )
    Path(args.out).write_text(evaluation.emit_report_csv(reports), encoding="utf-8")
    return 0


def cmd_sweep_k(args):
    _check_out(args.out)
    hp = _load_hyperparams(args)
    try:
        k_values = [int(v) for v in args.k.split(",") if v.strip()]
    except ValueError:
        raise InputError(f"--k must be a comma-separated integer list, got {args.k!r}") from None
    train, test = storage.read_dataset(args.dataset)
    reports = evaluation.sweep_group_count(train, test, hp, k_values)
    Path(args.out).write_text(evaluation.emit_report_csv(reports), encoding="utf-8")
    for rep in reports:
        print(f"k={rep.k}: pooled rmse={rep.overall.rmse:.4f}")
    return 0


def cmd_report_groups(args):
    _check_out(args.out)
    model = storage.read_model(args.model)
    if not isinstance(model, solver.TrainedModel):
        raise InputError("group reports require a grouped model, not a baseline")
    storage.write_group_report(args.out, model)
    return 0


def cmd_assemble(args):
    features.check_window_sizes(args.h, args.t)
    graph = roadnet.build_line_graph(roadnet.load_edge_list(args.edges))
    incidents = features.load_incidents_csv(args.incidents)
    series_by_road = {}
    for road in graph.tasks:
        path = Path(args.speeds_dir) / f"{road}.csv"
        series_by_road[road] = features.load_speed_csv(path, road)
    train, test = features.assemble_dataset(
        incidents, series_by_road, graph, args.h, args.t,
        split=args.split, seed=args.seed,
        standardize=args.standardize,
    )
    storage.write_dataset(args.out, *storage.in_memory(train, test))
    log.info("assembled %d tasks from %d incidents", train.n_tasks, len(incidents))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="titan",
        description="Multi-task traffic incident duration prediction with grouped temporal features.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset directory")
    p.add_argument("--config", help="SynthConfig JSON path (defaults used when omitted)")
    p.add_argument("--out", required=True, help="dataset directory to write")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train the grouped multi-task model")
    p.add_argument("--dataset", required=True, help="dataset directory")
    p.add_argument("--config", help="Hyperparams JSON path (defaults used when omitted)")
    p.add_argument("--out", required=True, help="model JSON to write")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("train-baseline", help="train a reference model over its default grid")
    p.add_argument("--dataset", required=True)
    p.add_argument("--kind", required=True, choices=baselines.BASELINE_KINDS)
    p.add_argument("--lam", type=float, help="single penalty instead of the default grid")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_baseline)

    p = sub.add_parser("predict", help="predict durations for feature rows")
    p.add_argument("--model", required=True)
    p.add_argument("--x", required=True, help="feature CSV, one row per incident")
    p.add_argument("--task", required=True, help="road id")
    p.add_argument("--out", required=True, help="predictions CSV to write")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score models on a dataset's test split")
    p.add_argument("--dataset", required=True)
    p.add_argument("--model", action="append", required=True,
                   help="model JSON (repeat for side-by-side comparison)")
    p.add_argument("--out", required=True, help="report CSV to write")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep-k", help="train and score across group counts")
    p.add_argument("--dataset", required=True)
    p.add_argument("--config", help="base Hyperparams JSON")
    p.add_argument("--k", required=True, help="comma-separated group counts")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep_k)

    p = sub.add_parser("report-groups", help="dump per-task top groups and Q diagnostics")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True, help="report JSON to write")
    p.set_defaults(func=cmd_report_groups)

    p = sub.add_parser("assemble", help="build a dataset directory from raw road/incident/speed files")
    p.add_argument("--edges", required=True, help="road-network edge list (vertex vertex road)")
    p.add_argument("--incidents", required=True, help="incident CSV")
    p.add_argument("--speeds-dir", required=True, help="directory of <road>.csv speed files")
    p.add_argument("--h", type=int, required=True, help="detection window length")
    p.add_argument("--t", type=int, required=True, help="early-verification window length")
    p.add_argument("--split", type=float, default=0.8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--standardize", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_assemble)

    return parser


def main(argv=None):
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except NumericalAbort as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:  # an output path that cannot be written, say
        print(f"error: {exc.filename}: {exc.strerror}" if exc.filename else f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
