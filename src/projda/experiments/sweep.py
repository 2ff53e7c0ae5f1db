"""Parameter sweeps over trials, with deterministic aggregation and CSV output.

A sweep is the cartesian product of the configured axes, iterated with
scenario outermost, then forcing, Q scale, r_p, and r_d innermost. Results
are keyed by (point, trial), so the summary is identical for any worker
count.

Worker processes share the machine's cores. Unless the user chose a thread
count through OPENBLAS_NUM_THREADS or OMP_NUM_THREADS, each worker caps the
OpenBLAS libraries it has loaded (numpy and scipy wheels each ship one) at its
share of the usable CPUs, so the workers' multi-threaded triangular solves do
not oversubscribe the cores. The results do not depend on the thread count;
the sweep tests check this at shapes where OpenBLAS runs threaded.

Within one process, trials that start from the same state with the same
spin-up inputs (the same trial at different r_p or r_d, say) walk the truth
once: the first walk is kept for the rest of the sweep. Which worker draws
which trial varies from run to run, so under several workers the reuse is
partial; the results never depend on it.
"""

from __future__ import annotations

import csv
import ctypes
import logging
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig, replace
from .metrics import MetricsRecord
from .trial import run_trial

logger = logging.getLogger("projda.experiments")


@dataclass(frozen=True)
class SummaryRow:
    r_p: int
    r_d: int
    forcing: float
    scenario: str
    q_scale: float
    mean_rmse: float
    std_rmse: float
    mean_rmse_proj: float
    resamp_pct: float
    failed_trials: int


def sweep_points(config: ExperimentConfig) -> list[ExperimentConfig]:
    """Expand the sweep axes; an axis left empty stays at its config value."""
    points = []
    for scenario in config.sweep_scenario or (config.scenario,):
        for forcing in config.sweep_forcing or (config.forcing,):
            for q_scale in config.sweep_q_scale or (config.q_scale,):
                for r_p in config.sweep_r_p or (config.r_p,):
                    for r_d in config.sweep_r_d or (config.r_d,):
                        points.append(replace(
                            config, scenario=scenario, forcing=forcing,
                            q_scale=q_scale, r_p=r_p, r_d=r_d,
                            sweep_scenario=(), sweep_forcing=(),
                            sweep_q_scale=(), sweep_r_p=(), sweep_r_d=(),
                        ))
    return points


# A pool worker's spin-up memo, opened by the worker's initializer and kept
# for its life; the parent process never sets it.
_worker_spin_ups: dict | None = None


def _run_task(args, spin_ups: dict | None = None):
    """One (point, trial) task; spin_ups defaults to the pool worker's memo."""
    point_index, trial_index, cfg = args
    if spin_ups is None:
        spin_ups = _worker_spin_ups
    return point_index, trial_index, run_trial(cfg, trial_index, spin_ups)


def run_point(config: ExperimentConfig, jobs: int = 1) -> list[MetricsRecord]:
    """All trials of a single configuration, in trial order."""
    tasks = [(0, t, config) for t in range(config.trials)]
    results = _execute(tasks, *_pool_shape(jobs, len(tasks)))
    return [results[(0, t)] for t in range(config.trials)]


# (prefix, suffix) of the thread-count entry points: numpy's 64-bit-integer
# wheel library, scipy's wheel library, a system OpenBLAS
_OPENBLAS_NAMES = (("scipy_openblas_", "64_"), ("scipy_openblas_", ""), ("openblas_", ""))


def _openblas_entry_points(verb: str) -> list:
    """The ``<verb>_num_threads`` function of every OpenBLAS mapped into this
    process; empty where none is loaded or /proc/self/maps is unreadable."""
    try:
        with open("/proc/self/maps") as fh:
            fields = [line.split(maxsplit=5) for line in fh]
    except OSError:
        return []
    paths = sorted({f[5].strip() for f in fields
                    if len(f) == 6 and "openblas" in os.path.basename(f[5])})
    entries = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in _OPENBLAS_NAMES:
            fn = getattr(lib, f"{prefix}{verb}_num_threads{suffix}", None)
            if fn is not None:
                entries.append(fn)
                break
    return entries


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool_shape(jobs: int, n_tasks: int) -> tuple[int, int | None]:
    """Worker count, and the BLAS threads each worker gets (None: the library
    keeps its own setting, as it does in the serial path)."""
    workers = max(1, min(jobs, n_tasks))
    if (workers == 1 or "OPENBLAS_NUM_THREADS" in os.environ
            or "OMP_NUM_THREADS" in os.environ
            or not _openblas_entry_points("set")):
        return workers, None
    return workers, max(1, _usable_cpus() // workers)


def _limit_blas_threads(n_threads: int):
    for set_threads in _openblas_entry_points("set"):
        set_threads.argtypes = [ctypes.c_int]
        set_threads.restype = None
        set_threads(n_threads)


def _init_worker(blas_threads: int | None):
    global _worker_spin_ups
    _worker_spin_ups = {}
    if blas_threads is not None:
        _limit_blas_threads(blas_threads)


def _execute(tasks, workers: int, blas_threads: int | None) -> dict:
    results = {}
    if workers == 1:
        spin_ups = {}
        for task in tasks:
            p, t, rec = _run_task(task, spin_ups)
            results[(p, t)] = rec
        return results
    with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                             initargs=(blas_threads,)) as pool:
        for p, t, rec in pool.map(_run_task, tasks, chunksize=1):
            results[(p, t)] = rec
    return results


def summarize(config: ExperimentConfig, records: list[MetricsRecord]) -> SummaryRow:
    ok = [rec for rec in records if not rec.failed]
    if ok:
        per_trial = np.array([rec.mean_rmse for rec in ok])
        mean_rmse = float(np.mean(per_trial))
        std_rmse = float(np.std(per_trial))
        mean_proj = float(np.mean([rec.mean_rmse_proj for rec in ok]))
        resamp_pct = float(100.0 * np.mean([rec.resample_fraction for rec in ok]))
    else:
        mean_rmse = std_rmse = mean_proj = resamp_pct = float("nan")
    return SummaryRow(
        r_p=config.r_p, r_d=config.r_d, forcing=config.forcing,
        scenario=config.scenario, q_scale=config.q_scale,
        mean_rmse=mean_rmse, std_rmse=std_rmse, mean_rmse_proj=mean_proj,
        resamp_pct=resamp_pct, failed_trials=len(records) - len(ok),
    )


def run_sweep(config: ExperimentConfig, jobs: int = 1) -> list[SummaryRow]:
    points = sweep_points(config)
    tasks = [(p, t, cfg) for p, cfg in enumerate(points) for t in range(cfg.trials)]
    workers, blas_threads = _pool_shape(jobs, len(tasks))
    logger.info("sweep: %d points x %d trials, %d worker(s), BLAS threads per worker: %s",
                len(points), config.trials, workers,
                "library default" if blas_threads is None else blas_threads)
    results = _execute(tasks, workers, blas_threads)
    rows = []
    for p, cfg in enumerate(points):
        records = [results[(p, t)] for t in range(cfg.trials)]
        rows.append(summarize(cfg, records))
    return rows


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def _fmt(value: float) -> str:
    return f"{value:.10g}"


def write_trial_csv(path: str, records: list[MetricsRecord], cycle_dt: float):
    """Per-trial metrics, one row per completed observation time."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trial", "obs_index", "time", "rmse", "rmse_proj",
                         "ess", "resampled"])
        for rec in records:
            for i in range(rec.n_observations):
                obs_index = i + 1
                writer.writerow([
                    rec.trial, obs_index, _fmt(obs_index * cycle_dt),
                    _fmt(rec.rmse[i]), _fmt(rec.rmse_proj[i]),
                    _fmt(rec.ess[i]), int(rec.resampled[i]),
                ])


def write_summary_csv(path: str, rows: list[SummaryRow], model_kind: str):
    """Sweep summary; the third column is the forcing for the cyclic model and
    the observation scenario for the shallow-water model."""
    third = "F" if model_kind == "l96" else "scenario"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["r_p", "r_d", third, "Q_scale", "mean_rmse",
                         "std_rmse", "mean_rmse_proj", "resamp_pct",
                         "failed_trials"])
        for row in rows:
            third_value = _fmt(row.forcing) if model_kind == "l96" else row.scenario
            writer.writerow([
                row.r_p, row.r_d, third_value, _fmt(row.q_scale),
                _fmt(row.mean_rmse), _fmt(row.std_rmse),
                _fmt(row.mean_rmse_proj), _fmt(row.resamp_pct),
                row.failed_trials,
            ])
