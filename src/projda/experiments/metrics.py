"""Error metrics and the per-trial record of an assimilation run."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def rmse(estimate, truth) -> float:
    """Root-mean-square error over the full state vector."""
    estimate = np.asarray(estimate, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if estimate.shape != truth.shape:
        raise ValueError(f"shape mismatch: {estimate.shape} vs {truth.shape}")
    diff = estimate - truth
    # np.mean's own sum and division, without its wrapper
    return float(np.sqrt(np.add.reduce(diff * diff, axis=None) / diff.size))


def rmse_projected(z_mean, basis, truth) -> float:
    """RMSE inside the reduced subspace: the estimate mean against the reduced
    truth, normalized by the reduced dimension. Errors in directions the basis
    cannot represent are excluded by construction."""
    z_mean = np.asarray(z_mean, dtype=float)
    z_truth = basis.reduce(np.asarray(truth, dtype=float))
    return rmse(z_mean, z_truth)


@dataclass
class MetricsRecord:
    """One trial's per-observation diagnostics.

    Arrays cover the observation times actually completed; a trial that died
    early carries failed=True and the reason in failure.
    """

    trial: int
    rmse: np.ndarray = field(default_factory=lambda: np.empty(0))
    rmse_proj: np.ndarray = field(default_factory=lambda: np.empty(0))
    ess: np.ndarray = field(default_factory=lambda: np.empty(0))
    resampled: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=bool))
    failed: bool = False
    failure: str = ""

    @property
    def n_observations(self) -> int:
        return self.rmse.size

    @property
    def mean_rmse(self) -> float:
        return float(np.mean(self.rmse)) if self.rmse.size else float("nan")

    @property
    def mean_rmse_proj(self) -> float:
        return float(np.mean(self.rmse_proj)) if self.rmse_proj.size else float("nan")

    @property
    def resample_fraction(self) -> float:
        return float(np.mean(self.resampled)) if self.resampled.size else float("nan")
