"""Outside-in tracing of the titan package, for the traced benchmark run.

`Tracer.installed()` replaces each function in TARGETS with a timing
wrapper in every titan module that holds it by name (`cli` reaches
`storage.read_dataset` through its module, `evaluation` imported `fit`
and `predict` from `solver` itself), and restores the originals on exit.
Spans (id, name, start, end, parent, run id, thread) stay in memory until
`write()`. Nothing under `src/` is edited.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

# (module, function) pairs wrapped by the full trace. The span name is
# "<module>.<function>".
TARGETS = (
    ("solver", "fit"),
    ("solver", "initial_state"),
    ("solver", "structured_q0"),
    ("solver", "solve_W_r_exact"),
    ("solver", "grad_Q"),
    ("solver", "update_Q"),
    ("solver", "smooth_lagrangian"),
    ("solver", "objective"),
    ("solver", "check_finite"),
    ("solver", "update_duals"),
    ("solver", "update_multipliers"),
    ("solver", "orthogonality_gap"),
    ("prox", "norm_fro"),
    ("solver", "predict"),
    ("storage", "write_dataset"),
    ("storage", "read_dataset"),
    ("storage", "write_model"),
    ("storage", "read_model"),
    ("synth", "generate"),
    ("roadnet", "load_edge_list"),
    ("roadnet", "build_line_graph"),
    ("features", "load_incidents_csv"),
    ("features", "load_speed_csv"),
    ("features", "assemble_dataset"),
    ("baselines", "fit_baseline"),
    ("baselines", "fit_nmtl"),
    ("baselines", "fit_lasso"),
    ("baselines", "fit_ridge"),
    ("baselines", "baseline_predict"),
    ("evaluation", "evaluate"),
    ("evaluation", "sweep_group_count"),
    ("evaluation", "pooled_rmse"),
)
FIT_ONLY = (("solver", "fit"),)
# Spans that also record CPU time: the sweep's process CPU (all its
# threads), and each fit's own thread CPU, which unlike wall time leaves
# out the time the thread waits for a core or for the GIL; traced and
# untraced fits are compared on it.
CPU_CLOCKS = {"evaluation.sweep_group_count": time.process_time, "solver.fit": time.thread_time}

# Phases of one fit: their self times plus fit's own self time make up fit_s.
SOLVER_PHASES = (
    "solver.initial_state", "solver.structured_q0", "baselines.fit_ridge",
    "solver.solve_W_r_exact", "solver.grad_Q", "solver.update_Q", "solver.smooth_lagrangian",
    "solver.objective", "solver.check_finite", "solver.update_duals", "solver.update_multipliers",
    "solver.orthogonality_gap", "prox.norm_fro",
)


def _dir_bytes(root, skip=()):
    return sum(
        p.stat().st_size for p in Path(root).rglob("*") if p.is_file() and p.name not in skip
    )


def _info(name, args, result):
    """Counts taken at the boundary, after the span has ended."""
    if name == "solver.fit":
        return {"iterations": result.iterations, "converged": result.converged,
                "primal": float(result.final_residuals[0]),
                "eps_primal": result.hyperparams.eps_primal, "k": result.k}
    if name == "solver.update_Q":
        return {"stalled": bool(result[1])}
    if name == "storage.read_dataset":  # every file but the planted truth is read
        return {"bytes": _dir_bytes(args[0], skip=("ground_truth.json",))}
    if name == "storage.write_dataset":
        return {"bytes": _dir_bytes(args[0])}
    if name == "storage.write_model":
        return {"bytes": Path(args[0]).stat().st_size}
    if name == "features.assemble_dataset":
        train, test = result
        rows = sum(td.n for td in train.tasks) + sum(td.n for td in test.tasks)
        return {"rows": rows, "incidents": len(args[0])}
    if name in ("solver.predict", "baselines.baseline_predict"):
        return {"rows": len(args[1])}
    return None


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    thread: int
    info: dict | None = None
    cpu: float = 0.0  # CPU seconds over the span (CPU_CLOCKS only)


@dataclass
class Tracer:
    run: str = ""  # run id stamped on new spans; callers set one per repetition
    spans: list = field(default_factory=list)
    models: list = field(default_factory=list)  # (run, TrainedModel) returned by fit

    def __post_init__(self):
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn):
        cpu_clock = CPU_CLOCKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            # a worker thread's first span was caused by the main thread's open span
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            sid = next(self._ids)
            stack.append(sid)
            c0 = cpu_clock() if cpu_clock else 0.0
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                c1 = cpu_clock() if cpu_clock else 0.0
                stack.pop()
            try:
                info = _info(name, args, result)
            except (AttributeError, TypeError, IndexError, ValueError, OSError):
                info = None  # the function's signature changed; time it anyway
            span = Span(sid, name, t0, t1, parent, self.run, threading.get_ident(), info, c1 - c0)
            self.spans.append(span)
            if name == "solver.fit":
                self.models.append((self.run, result))
            return result

        return wrapper

    @contextmanager
    def installed(self, targets=TARGETS):
        """Wrap `targets` in every loaded titan module for the block's duration."""
        self._local.stack = self._main_stack
        modules = [m for key, m in list(sys.modules.items()) if key == "titan" or key.startswith("titan.")]
        patched = []
        for mod_name, fn_name in targets:
            original = getattr(sys.modules.get(f"titan.{mod_name}"), fn_name, None)
            if original is None:  # gone from this version of the program: its metrics read 0
                continue
            wrapped = self.wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
                        patched.append((mod, attr, original))
        try:
            yield self
        finally:
            for mod, attr, original in reversed(patched):
                setattr(mod, attr, original)

    def write(self, path):
        """Write every span as one gzipped JSON line; called once, at the end of a run."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "run": s.run, "thread": s.thread,
                                     "info": s.info}) + "\n")


def self_times(spans):
    """Span id -> duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted(children.get(s.id, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.id] = (s.end - s.start) - covered
    return out


def fit_cpu_seconds(spans):
    return sum(s.cpu for s in spans if s.name == "solver.fit")


def layer_metrics(spans):
    """Per-layer metrics of one traced pipeline repetition."""
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    names = {s.id: s.name for s in spans}

    def dur(*keys):
        return sum(s.end - s.start for k in keys for s in by_name[k])

    def infos(key, field_):
        return [s.info[field_] for s in by_name[key] if s.info and field_ in s.info]

    def ratio(num, den):
        return num / den if den else 0.0

    selfs = self_times(spans)
    fit_ids = {s.id for s in by_name["solver.fit"]}
    parent_of = {s.id: s.parent for s in spans}

    def under_fit(sid):
        sid = parent_of[sid]
        while sid is not None:
            if sid in fit_ids:
                return True
            sid = parent_of.get(sid)
        return False

    fit_s = dur("solver.fit")
    fits = by_name["solver.fit"]
    phase_self = sum(selfs[s.id] for s in spans if s.name in SOLVER_PHASES and under_fit(s.id))
    iterations = sum(infos("solver.fit", "iterations"))
    q_steps = by_name["solver.update_Q"]
    q_evals = [s for s in by_name["solver.smooth_lagrangian"] if names.get(s.parent) == "solver.update_Q"]
    candidates = len(q_evals) - len(q_steps)  # the first eval of each step is its baseline
    accepted = sum(not stalled for stalled in infos("solver.update_Q", "stalled"))
    rows = sum(infos("solver.predict", "rows")) + sum(infos("baselines.baseline_predict", "rows"))
    sweep = by_name["evaluation.sweep_group_count"]
    sweep_wall = dur("evaluation.sweep_group_count")
    margins = [e / p for e, p in zip(infos("solver.fit", "eps_primal"), infos("solver.fit", "primal")) if p > 0]
    return {
        "solver.fit_s": fit_s,
        "solver.fit_cpu_s": sum(s.cpu for s in fits),
        "solver.iterations": iterations,
        "solver.converged": ratio(sum(infos("solver.fit", "converged")), len(infos("solver.fit", "converged"))),
        "solver.ms_per_iter": ratio(1000.0 * fit_s, iterations),
        "solver.primal_margin": median(margins) if margins else 0.0,
        "solver.unattributed_s": fit_s - phase_self,
        "solver.w_solve_s": dur("solver.solve_W_r_exact"),
        "solver.w_solve_calls": len(by_name["solver.solve_W_r_exact"]),
        "solver.grad_q_s": dur("solver.grad_Q"),
        "solver.q_backtrack_s": sum(s.end - s.start for s in q_evals),
        "solver.q_evals_per_iter": ratio(len(q_evals), iterations),
        "solver.q_accept_ratio": ratio(accepted, candidates),
        "solver.q_stalls": len(q_steps) - accepted,
        "solver.objective_s": dur("solver.objective"),
        "solver.check_finite_s": dur("solver.check_finite"),
        "solver.prox_s": dur("solver.update_duals", "solver.update_multipliers"),
        "solver.residuals_s": sum(
            s.end - s.start for k in ("solver.orthogonality_gap", "prox.norm_fro") for s in by_name[k]
            if names.get(s.parent) == "solver.fit"
        ),
        "solver.init_q0_s": dur("solver.structured_q0"),
        "storage.write_dataset_s": dur("storage.write_dataset"),
        "storage.read_dataset_s": dur("storage.read_dataset"),
        "storage.read_dataset_calls": len(by_name["storage.read_dataset"]),
        "storage.dataset_bytes": sum(infos("storage.write_dataset", "bytes")),
        "storage.bytes_read": sum(infos("storage.read_dataset", "bytes")),
        "storage.write_model_s": dur("storage.write_model"),
        "storage.read_model_s": dur("storage.read_model"),
        "storage.model_bytes": sum(infos("storage.write_model", "bytes")),
        "synth.generate_s": dur("synth.generate"),
        "roadnet.line_graph_s": dur("roadnet.load_edge_list", "roadnet.build_line_graph"),
        "features.parse_s": dur("features.load_incidents_csv", "features.load_speed_csv"),
        "features.assemble_s": dur("features.assemble_dataset"),
        "features.rows_kept_ratio": ratio(
            sum(infos("features.assemble_dataset", "rows")), sum(infos("features.assemble_dataset", "incidents"))
        ),
        "baselines.nmtl_s": dur("baselines.fit_nmtl"),
        "baselines.lasso_s": dur("baselines.fit_lasso"),
        "baselines.ridge_s": dur("baselines.fit_ridge"),
        "baselines.grid_fits": len(by_name["baselines.fit_baseline"]),
        "evaluation.evaluate_s": dur("evaluation.evaluate"),
        "evaluation.sweep_s": sweep_wall,
        "evaluation.sweep_cpu_util": ratio(sum(s.cpu for s in sweep), sweep_wall),
        "evaluation.predict_ms_per_row": ratio(1000.0 * dur("solver.predict", "baselines.baseline_predict"), rows),
    }
