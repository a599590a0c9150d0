"""Batch and online anomaly detection with isolation-scored Mondrian trees."""

from .decision import DecisionModel, assign_all, fit_kmeans2
from .errors import (
    DataFormatError,
    DimensionMismatchError,
    ModelFormatError,
    StratificationError,
)
from .evaluation import (
    ExperimentResult,
    LabeledDataset,
    auc,
    kfold_split,
    run_kfold_experiment,
    run_stream_experiment,
    stream_stages,
)
from .forest import (
    Forest,
    ForestConfig,
    anomaly_score,
    c_factor,
    extend_forest,
    harmonic,
    rescore_window,
    score_all,
    train_batch,
)
from .data_io import CsvSchema, SyntheticSpec, gen_synthetic, load_csv, load_model, save_model

__version__ = "0.1.0"

__all__ = [
    "CsvSchema",
    "DataFormatError",
    "DecisionModel",
    "DimensionMismatchError",
    "ExperimentResult",
    "Forest",
    "ForestConfig",
    "LabeledDataset",
    "ModelFormatError",
    "StratificationError",
    "SyntheticSpec",
    "anomaly_score",
    "assign_all",
    "auc",
    "c_factor",
    "extend_forest",
    "fit_kmeans2",
    "gen_synthetic",
    "harmonic",
    "kfold_split",
    "load_csv",
    "load_model",
    "rescore_window",
    "run_kfold_experiment",
    "run_stream_experiment",
    "save_model",
    "score_all",
    "stream_stages",
    "train_batch",
]
