from .config import ExperimentConfig, default_config, load_config, replace, sweep_points
from .metrics import MetricsRecord, rmse, rmse_projected
from .sweep import (
    SummaryRow,
    run_point,
    run_sweep,
    summarize,
    write_summary_csv,
    write_trial_csv,
)
from .trial import run_trial, training_trajectory

__all__ = [
    "ExperimentConfig",
    "MetricsRecord",
    "SummaryRow",
    "default_config",
    "load_config",
    "replace",
    "rmse",
    "rmse_projected",
    "run_point",
    "run_sweep",
    "run_trial",
    "summarize",
    "sweep_points",
    "training_trajectory",
    "write_summary_csv",
    "write_trial_csv",
]
