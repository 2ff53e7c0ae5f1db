"""Parameter sweeps over trials, with deterministic aggregation and CSV output.

A sweep is the cartesian product of the configured axes, iterated with
scenario outermost, then forcing, Q scale, r_p, and r_d innermost. Results
are keyed by (point, trial), so the summary is identical for any worker
count.

Worker processes share the machine's cores. Unless the user chose a thread
count through OPENBLAS_NUM_THREADS or OMP_NUM_THREADS, each worker caps every
OpenBLAS library it has loaded at its share of the usable CPUs, so the
workers' multi-threaded matrix products and SVDs do not oversubscribe the
cores. projda itself loads only numpy's; a library caller may also have
scipy's, which is capped as well. The results do not depend on the thread
count; the sweep tests check this at shapes where OpenBLAS runs threaded.

The tasks go out in chunks, and the (point, trial) tasks of a chunk run as
one lockstep group (see trial.py): each cycle maps the states of all of them
through one model call. Within one process, trials that start from the same
state with the same spin-up inputs (the same trial at different r_p or r_d,
say) walk the truth once, the first walk being kept for the rest of the
sweep, and each input file is read once. Under several workers a sweep hands
out whole trials (all points of one trial: one walk, one group) as long as
every worker gets one; only the trials left over from an even share are split
point by point among the workers, so that no worker idles while another runs
a trial alone. The results never depend on it.
"""

from __future__ import annotations

import csv
import ctypes
import logging
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from .config import ExperimentConfig, replace
from .metrics import MetricsRecord
from .trial import TrialMemo, _file_inputs, run_trial

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


# A pool worker's trial memo, opened by the worker's initializer and kept for
# its life; the parent process never sets it.
_worker_memo: TrialMemo | None = None


def _run_chunk(chunk, memo: TrialMemo | None = None) -> list:
    """Run a list of (point, trial, config) tasks as one lockstep group:
    register them in memo (by default the pool worker's), then call run_trial
    for each, the first call running them all."""
    if memo is None:
        memo = _worker_memo
    memo.group = [(cfg, t) for _, t, cfg in chunk]
    return [(p, t, run_trial(cfg, t, memo)) for p, t, cfg in chunk]


def run_point(config: ExperimentConfig, jobs: int = 1) -> list[MetricsRecord]:
    """All trials of a single configuration, in trial order."""
    return _run_points([config], config.trials, jobs)[0]


# (prefix, suffix) of the thread-count entry points: numpy's 64-bit-integer
# wheel library, scipy's wheel library (loaded when a library caller imported
# scipy), a system OpenBLAS
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
    keeps its own setting, as it does in the serial path). Raises ConfigError
    for fewer than one job."""
    if jobs < 1:
        raise ConfigError(f"jobs (worker processes) must be >= 1, got {jobs}")
    workers = min(jobs, n_tasks)
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
    global _worker_memo
    _worker_memo = TrialMemo()
    if blas_threads is not None:
        _limit_blas_threads(blas_threads)


def _execute(chunks, workers: int, blas_threads: int | None,
             memo: TrialMemo | None = None) -> dict:
    """Run lists of (point, trial, config) tasks, each list a lockstep group;
    a pool worker takes one list at a time. memo is the serial path's."""
    results = {}
    if workers == 1:
        memo = TrialMemo() if memo is None else memo
        for chunk in chunks:
            for p, t, rec in _run_chunk(chunk, memo):
                results[(p, t)] = rec
        return results
    with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                             initargs=(blas_threads,)) as pool:
        for done in pool.map(_run_chunk, chunks):
            for p, t, rec in done:
                results[(p, t)] = rec
    return results


def _trial_chunks(n_points: int, n_trials: int, workers: int) -> list[list[tuple]]:
    """(point, trial) pairs grouped for the pool. The first trials, as many as
    share evenly among the workers, go out whole, one chunk per trial; each
    trial left over is split, point-strided, into enough chunks to give every
    worker some of the remainder."""
    whole = n_trials - n_trials % workers
    chunks = [[(p, t) for p in range(n_points)] for t in range(whole)]
    if whole < n_trials:
        pieces = min(n_points, -(-workers // (n_trials - whole)))
        chunks += [[(p, t) for p in range(k, n_points, pieces)]
                   for t in range(whole, n_trials) for k in range(pieces)]
    return chunks


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


def _run_points(points: list[ExperimentConfig], trials: int, jobs: int) -> list[list]:
    """The records of trials 0 .. trials - 1 of each point, in trial order,
    run by up to jobs worker processes. Every point's input files are read
    first, so that a bad file stops the run with one ReductionError before
    any trial; the serial path's trials reuse what was read."""
    workers, blas_threads = _pool_shape(jobs, len(points) * trials)
    memo = TrialMemo()
    for cfg in points:
        _file_inputs(cfg, cfg.build_model().dimension, memo.files)
    chunks = [[(p, t, points[p]) for p, t in chunk]
              for chunk in _trial_chunks(len(points), trials, workers)]
    logger.info("sweep: %d points x %d trials, %d worker(s), BLAS threads per worker: %s",
                len(points), trials, workers,
                "library default" if blas_threads is None else blas_threads)
    results = _execute(chunks, workers, blas_threads, memo)
    return [[results[(p, t)] for t in range(trials)] for p in range(len(points))]


def run_sweep(config: ExperimentConfig, jobs: int = 1) -> list[SummaryRow]:
    points = sweep_points(config)
    return [summarize(cfg, records)
            for cfg, records in zip(points, _run_points(points, config.trials, jobs))]


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
