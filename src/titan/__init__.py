"""Multi-task traffic incident duration prediction with grouped
temporal feature learning."""

from .baselines import BaselineModel, fit_baseline, fit_lasso, fit_nmtl, fit_ridge
from .errors import InputError, NumericalAbort
from .evaluation import (
    MetricsReport,
    MetricTriple,
    evaluate,
    mae,
    mape,
    rmse,
    sweep_group_count,
    top_group_per_task,
)
from .features import (
    IncidentRecord,
    MultiTaskDataset,
    SpeedSeries,
    TaskDataset,
    assemble_dataset,
    construct_features,
)
from .roadnet import TaskGraph, build_line_graph, load_edge_list, parse_edge_list
from .solver import Hyperparams, TrainedModel, fit, predict
from .synth import GroundTruth, SynthConfig, generate, plant_Q, plant_W

__version__ = "0.1.0"

__all__ = [
    "BaselineModel",
    "GroundTruth",
    "Hyperparams",
    "IncidentRecord",
    "InputError",
    "MetricTriple",
    "MetricsReport",
    "MultiTaskDataset",
    "NumericalAbort",
    "SpeedSeries",
    "SynthConfig",
    "TaskDataset",
    "TaskGraph",
    "TrainedModel",
    "assemble_dataset",
    "build_line_graph",
    "construct_features",
    "evaluate",
    "fit",
    "fit_baseline",
    "fit_lasso",
    "fit_nmtl",
    "fit_ridge",
    "generate",
    "load_edge_list",
    "mae",
    "mape",
    "parse_edge_list",
    "plant_Q",
    "plant_W",
    "predict",
    "rmse",
    "sweep_group_count",
    "top_group_per_task",
]
