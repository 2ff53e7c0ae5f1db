"""Parameter sweeps over trials, with deterministic aggregation and CSV output.

A sweep is its points: config.sweep_points, the product of the axes in
config._SWEEP_AXES (scenario outermost, then forcing, Q scale, r_p, and r_d
innermost), each point checked when the config is. Results are keyed by
(point, trial), so the summary is identical for any worker count.

A sweep of N jobs runs in the calling process and N - 1 pool workers (fewer
when there are fewer tasks): the caller is one of the workers, not a process
that waits for them. The pool, and with it concurrent.futures.process and
multiprocessing, loads when the first pool starts, so a run in one process
never loads them. The workers share the machine's cores. Unless the user
chose a thread count through OPENBLAS_NUM_THREADS or OMP_NUM_THREADS, the
caller caps every OpenBLAS library it has loaded at each process's share of
the usable CPUs before the pool forks, so the workers' multi-threaded matrix
products and SVDs do not oversubscribe the cores. Forked workers inherit the
cap; setting it again in a forked worker would start an OpenBLAS thread that
spins on a core the others need, so a worker sets only a count it did not
inherit (under another start method). The caller gets its own count back
when the pool is done. projda itself loads only numpy's OpenBLAS; a library
caller may also have scipy's, which is capped as well. The results do not
depend on the thread count; the sweep tests check this at shapes where
OpenBLAS runs threaded. A pool worker that dies (killed for memory, say)
fails the trials the pool had not returned, each naming it; every other
trial keeps its record.

The tasks go out in chunks, and the (point, trial) tasks of a chunk run as
one lockstep group (see trial.py): each cycle maps the states of all of them
through one model call. Before any trial, and before the pool starts, the
calling process reads every input file and walks every distinct truth of the
run once. Trials that start from the same state with the same spin-up inputs
(the same trial at different r_p or r_d, say) share a walk, and the distinct
start states of one model and walk go as the columns of one block. Every
trial, in the caller or in a pool worker, starts from those files and walks;
a forked worker also inherits numpy.random, which the Lorenz-96 start states
load. Under several workers a sweep hands out whole trials (all points of
one trial, one group) as long as every worker gets one; only the trials left
over from an even share are split point by point among the workers, so that
no worker idles while another runs a trial alone. Of the chunks, the caller
runs the first and every P-th after it, P being the process count, and the
pool the others. The results never depend on it.
"""

from __future__ import annotations

import csv
import ctypes
import logging
import os
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import product, repeat

import numpy as np

from ..errors import ConfigError
from .config import ExperimentConfig, _point, sweep_points
from .metrics import MetricsRecord
from .trial import TrialMemo, _file_inputs, _walk_ahead, run_trial

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
    """All trials of a single configuration, in trial order. The sweep axes
    play no part: the config runs at its base values, which must be valid."""
    return _run_points([_point(config)], config.trials, jobs)[0]


# (prefix, suffix) pairs the thread-count entry points may take: numpy 2's
# wheel library (scipy_openblas_, 64_), scipy's (scipy_openblas_, none; loaded
# when a library caller imported scipy), numpy 1.x's (openblas_, 64_), a
# system OpenBLAS (openblas_, none)
_OPENBLAS_NAMES = tuple(product(("scipy_openblas_", "openblas_"), ("64_", "")))


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


def _set_blas_threads(counts):
    """Set each OpenBLAS of this process to its count in counts, in the order
    _openblas_entry_points lists them, where it is not at that count already:
    a set call starts the library's threads anew, in a forked child even at
    the count the library has (every OpenBLAS has both entry points)."""
    for get_threads, set_threads, n_threads in zip(
            _openblas_entry_points("get"), _openblas_entry_points("set"), counts):
        if get_threads() != n_threads:
            set_threads.argtypes = [ctypes.c_int]
            set_threads.restype = None
            set_threads(n_threads)


@contextmanager
def _blas_threads_capped(n_threads: int | None):
    """Every OpenBLAS of this process at n_threads for the block, then back at
    its own count; None leaves the libraries alone."""
    if n_threads is None:
        yield
        return
    before = [get() for get in _openblas_entry_points("get")]
    _set_blas_threads(repeat(n_threads))
    try:
        yield
    finally:
        _set_blas_threads(before)


def _init_worker(blas_threads: int | None, files: dict, spin_ups: dict):
    """A pool worker's set-up: its trial memo, and the caller's BLAS cap for
    a worker that did not inherit it (one not forked)."""
    global _worker_memo
    _worker_memo = TrialMemo(spin_ups=spin_ups, files=files)
    if blas_threads is not None:
        _set_blas_threads(repeat(blas_threads))


def _lost(tasks: list, pool, workers: list) -> list:
    """Failed records of the (point, trial, config) tasks the pool did not
    return, each naming the worker that ended without its results, from the
    workers' exit codes once the pool has stopped: the pool ends the others
    with SIGTERM."""
    import signal  # loaded with the pool already

    pool.shutdown(wait=True)
    dead = [f"pid {w.pid} (exit code {w.exitcode})" for w in workers
            if w.exitcode not in (None, 0, -signal.SIGTERM)]
    failure = (f"BrokenProcessPool: pool worker {', '.join(dead) or 'of unknown pid'} "
               "ended before this trial finished")
    logger.warning("%d trial(s) failed: %s", len(tasks), failure)
    return [(p, t, MetricsRecord(trial=t, failed=True, failure=failure)) for p, t, _ in tasks]


def _execute(chunks, workers: int, blas_threads: int | None,
             memo: TrialMemo | None = None) -> dict:
    """Run lists of (point, trial, config) tasks, each list a lockstep group,
    in this process and workers - 1 pool workers, each of them at
    blas_threads BLAS threads while the pool runs (see _pool_shape). This
    process runs every workers-th list, the first included, with memo (a new
    one by default); a pool worker takes one of the other lists at a time and
    starts from the walks and files memo holds. With one worker there is no
    pool. A pool worker that dies fails the trials of every list the pool
    did not return; the others keep their records."""
    memo = TrialMemo() if memo is None else memo
    theirs = [chunk for i, chunk in enumerate(chunks) if i % workers]
    done = []
    # capped before the pool forks: a forked worker inherits the cap, and
    # setting it there would start an OpenBLAS thread that spins
    with _blas_threads_capped(blas_threads):
        pool = None
        if theirs:
            # imported here, so that a run without a pool never loads
            # multiprocessing and its sockets, subprocess and queue modules
            from concurrent.futures import ProcessPoolExecutor
            from concurrent.futures.process import BrokenProcessPool
            pool = ProcessPoolExecutor(max_workers=workers - 1, initializer=_init_worker,
                                       initargs=(blas_threads, memo.files, memo.spin_ups))
        try:
            # the first submission forks the workers, before this process
            # grows with its own share
            futures = [pool.submit(_run_chunk, chunk) for chunk in theirs]
            # the worker processes, for _lost, from the pool's private table:
            # no public attribute names them
            pool_workers = list(pool._processes.values()) if pool else []
            for chunk in chunks[::workers]:
                done += _run_chunk(chunk, memo)
            lost = []
            for chunk, future in zip(theirs, futures):
                try:
                    done += future.result()
                except BrokenProcessPool:
                    lost += chunk
            if lost:
                done += _lost(lost, pool, pool_workers)
        finally:
            if pool is not None:
                pool.shutdown(cancel_futures=True)
    return {(p, t): rec for p, t, rec in done}


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
    run by up to jobs processes, this one included. Every point's input files
    are read first, so that a bad file stops the run with one ReductionError
    before any trial; then every trial's truth is walked (see _walk_ahead).
    Every process's trials reuse what was read and walked."""
    workers, blas_threads = _pool_shape(jobs, len(points) * trials)
    memo = TrialMemo()
    for cfg in points:
        _file_inputs(cfg, cfg.build_model().dimension, memo.files)
    _walk_ahead([(cfg, t) for cfg in points for t in range(trials)], memo.spin_ups)
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
