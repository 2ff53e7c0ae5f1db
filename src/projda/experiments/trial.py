"""One twin-experiment trial: spin up a truth, build the reduction, assimilate.

Reproducibility contract: trial t of base seed s derives every random draw
from RngStream(s).child(t), with fixed purpose indices below that (truth
noise, observation noise, training, filter init, filter steps). Trials are
therefore independent of execution order and of each other. The per-cycle
streams (truth noise, observation noise, filter step, each under the
observation index t) build no generator: a trial derives their Philox keys
in blocks as it reaches them and re-keys one kept Generator for each, which
then draws exactly as the stream's own generator() (see
numerics._TimedStreams).

A trial's truth ends a deterministic walk of burn_in + training_steps model
steps; a time-dependent basis walks the last aus_spinup cycles of it itself.
_walk_ahead walks the trials of a run before any of them, keeping each walk
in TrialMemo.spin_ups under its (config, trial_index); trials that walk from
the same state with the same inputs share one walk, and the distinct start
states of one model go as the columns of one block, each column walked as
it would be alone. A trial with no walk there walks alone and keeps nothing.

Trials run in lockstep groups. Each cycle a trial names the states it maps
(its truth, the tangent block of a time-dependent basis, its particles), and
the states of every trial of the group on one model go through a single
model.cycle_map call; each trial then finishes its cycle alone. A model maps
every column by itself, and each mapped block is handed back in the memory
order its own call would return, so a trial's results do not depend on its
group. run_trial on its own runs a group of one.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from ..errors import ProjdaError, ReductionError
from ..filters import initialize_ensemble, proj_oppf_step, proj_pf_step
from ..models import load_snapshots, observe
from ..numerics import (
    FILTER_INIT,
    FILTER_STEP,
    OBS_NOISE,
    TRAINING,
    TRUTH_IC,
    TRUTH_NOISE,
    NoiseSpec,
    RngStream,
    _TimedStreams,
    qr_positive,
)
from ..reduction import (
    ReductionBasis,
    aus_step,
    build_reduced_model,
    dmd,
    dmd_basis,
    identity_reduced_model,
    load_basis,
    pod_basis,
)
from ..reduction.aus import tangent_block
from ..reduction.reduced_model import conjugate_noise, forecast_columns
from .config import ExperimentConfig, _snapshots_needed
from .metrics import MetricsRecord, rmse, rmse_projected

logger = logging.getLogger("projda.experiments")


def _initial_state(config: ExperimentConfig, model, rng: RngStream) -> np.ndarray:
    if config.model_kind == "l96":
        return model.default_state(rng.child(TRUTH_IC))
    return model.default_jet_state(jet_speed=config.jet_speed,
                                   jet_width=config.jet_width,
                                   perturb_amplitude=config.perturb_amplitude)


def _file_inputs(config: ExperimentConfig, dimension: int, files: dict) -> tuple:
    """The snapshots and the basis a trial of config reads from its
    snapshot_file and basis_file, each None where it reads no such file.
    files keeps what each file held, so that a process reads each file once.
    Raises ReductionError naming the file when it cannot be read, holds
    states of another dimension, or has fewer snapshots than the bases it
    trains need, fewer than r_p basis columns, or, for a DMD basis, which a
    trial uses whole, more than r_p + 1."""
    snapshots = basis = None
    need = _snapshots_needed(config)
    if config.snapshot_file and need:
        snapshots = _read(files, config.snapshot_file, _load_states)
        if snapshots.shape[1] != dimension:
            raise ReductionError(
                f"snapshot file {config.snapshot_file} is for dimension "
                f"{snapshots.shape[1]}, model has {dimension}"
            )
        if len(snapshots) < need:
            raise ReductionError(
                f"snapshot file {config.snapshot_file} holds {len(snapshots)} "
                f"snapshots, need {need}"
            )
    if (config.basis_file and config.reduction_kind in ("pod", "dmd")
            and not config.uses_identity_reduction):
        basis = _read(files, config.basis_file, load_basis)
        if basis.state_dim != dimension:
            raise ReductionError(
                f"basis file {config.basis_file} is for dimension "
                f"{basis.state_dim}, model has {dimension}"
            )
        if basis.rank < config.r_p:
            raise ReductionError(
                f"basis file {config.basis_file} holds {basis.rank} columns, "
                f"need {config.r_p}"
            )
        if basis.kind == "dmd" and basis.rank > config.r_p + 1:
            raise ReductionError(
                f"basis file {config.basis_file} holds {basis.rank} dmd columns, "
                f"need {config.r_p} or {config.r_p + 1} (a dmd basis is used whole)"
            )
    return snapshots, basis


def _load_states(path: str) -> np.ndarray:
    """The states of a snapshot file, read-only, as trials may share them."""
    states, _ = load_snapshots(path)
    states.flags.writeable = False
    return states


def _read(files: dict, path: str, load):
    """load(path), kept in files under the loader and path."""
    key = (load, path)
    if key not in files:
        files[key] = load(path)
    return files[key]


def _spin_up(model, x0, burn_in: int, training_steps: int = 0, stride: int | None = None):
    """Deterministic walk of burn_in + training_steps internal steps from x0,
    a state or a block whose columns are states, each column walked as it
    would be alone.

    Records the states at steps burn_in + k * stride when stride is given,
    with one model.step call from each recorded state to the next. Returns
    (x_end, snapshots or None) for a state, and a list of those pairs, one
    per column, for a block; every array is read-only, as trials may share
    them."""
    total = burn_in + training_steps
    snap_at = range(burn_in, total + 1, stride) if stride else range(0)
    # a copy: a walk of no steps returns it, made read-only, not the caller's x0
    x = np.array(x0, dtype=float)
    m = len(x)
    # each column's snapshots, written as they are reached
    snaps = np.empty((x.size // m, len(snap_at), m))
    s = 0
    for mark in sorted({*snap_at, total}):
        if mark > s:
            x = model.step(x, mark - s)
            s = mark
        if mark in snap_at:
            snaps[:, snap_at.index(mark)] = x.reshape(m, -1).T
    if x.ndim == 1:
        return _read_only(x, snaps[0] if stride else None)
    return [_read_only(x[:, j].copy(), snaps[j] if stride else None)
            for j in range(x.shape[1])]


def _read_only(*arrays) -> tuple:
    """arrays, each but a None made read-only."""
    for arr in arrays:
        if arr is not None:
            arr.flags.writeable = False
    return arrays


def _time_dependent(config: ExperimentConfig) -> bool:
    """Whether config's trials re-derive their (unstable-subspace) basis every cycle."""
    return config.reduction_kind == "aus" and not config.uses_identity_reduction


def _walk(config: ExperimentConfig, model) -> tuple:
    """(burn_in, training_steps, stride), _spin_up's arguments after x0: the
    walk a trial of config takes on model. It covers burn_in + training_steps,
    less the last aus_spinup observation cycles of a time-dependent basis,
    which _spin_up_aus walks in its tangent blocks; so the truth is the same
    whatever the reduction and filter."""
    if _time_dependent(config):
        end = config.burn_in + config.training_steps
        return (end - config.aus_spinup * model.steps_per_observation, 0, None)
    record = _snapshots_needed(config) > 0 and not config.snapshot_file
    return (config.burn_in, config.training_steps,
            config.training_stride if record else None)


def _walk_ahead(tasks, spin_ups: dict):
    """Keep in spin_ups, under each (config, trial_index) task, the walk its
    trial takes, which the trial then neither draws nor walks again. Tasks
    that walk from the same start state share a walk, and the distinct start
    states of one model and walk go as the columns of one block. A task
    whose start state cannot be built, or whose block fails to walk, gets no
    walk here; its trial walks alone in set-up and keeps nothing, so that a
    failure and its message are its own."""
    blocks: dict = {}
    for task in tasks:
        config, trial_index = task
        try:
            model = config.build_model()
            x0 = _initial_state(config, model, RngStream(config.base_seed).child(trial_index))
        except Exception:
            continue
        starts = blocks.setdefault((model,) + _walk(config, model), {})  # x0 -> (x0, tasks)
        starts.setdefault(x0.tobytes(), (x0, []))[1].append(task)
    for (model, *walk), starts in blocks.items():
        try:
            walked = _spin_up(model, np.stack([x0 for x0, _ in starts.values()], axis=1), *walk)
        except Exception:
            continue
        for (_, group), pair in zip(starts.values(), walked):
            spin_ups.update(dict.fromkeys(group, pair))


def training_trajectory(config: ExperimentConfig, trial_index: int = 0):
    """The deterministic training segment of a trial: burn in, then record
    every training_stride-th state. It is the walk run_trial trains on, so a
    basis built from the saved file equals the one built in-trial."""
    rng = RngStream(config.base_seed).child(trial_index)
    model = config.build_model()
    x0 = _initial_state(config, model, rng)
    _, states = _spin_up(model, x0, config.burn_in, config.training_steps,
                         config.training_stride)
    meta = {
        "model": config.model_kind,
        "M": model.dimension,
        "n_steps": len(states) - 1,
        "dt": model.dt * config.training_stride,
        "seed": config.base_seed,
        "noise_on": False,
    }
    return states, meta


@dataclass
class TrialMemo:
    """What the trials of one process share: deterministic walks by
    (config, trial_index) (spin_ups, see _walk_ahead), input files by path
    (files, see _file_inputs), and a lockstep group, the (config,
    trial_index) pairs registered to run together (group) with the records
    it finished ahead of their run_trial calls (records)."""

    spin_ups: dict = field(default_factory=dict)
    files: dict = field(default_factory=dict)
    group: list = field(default_factory=list)
    records: dict = field(default_factory=dict)


def _state_basis(kind: str, snapshots: np.ndarray, r: int, dmd_rank: int,
                 dt: float | None) -> ReductionBasis:
    """The pod or dmd state basis of rank r trained on the snapshot rows, dt
    apart (DMD alone reads it); dmd_rank 0 lets DMD pick its rank from the
    data. A trial and `projda reduce` both train through it."""
    if kind == "pod":
        return pod_basis(snapshots.T, r)
    return dmd_basis(dmd(snapshots.T, rank=dmd_rank or None, dt=dt), r)


def _bases(config: ExperimentConfig, model, h, q, r, snapshots,
           memo: TrialMemo) -> tuple:
    """The fixed basis of a trial and its reduced model. The config's
    snapshot_file and basis_file, where it uses them, take the place of the
    in-trial snapshots and of the trained basis."""
    if config.uses_identity_reduction:
        reduced = identity_reduced_model(model, h, q, r)
        return reduced.basis_in, reduced

    file_snapshots, u_file = _file_inputs(config, model.dimension, memo.files)
    if file_snapshots is not None:
        snapshots = file_snapshots
    if u_file is None:
        u = _state_basis(config.reduction_kind, snapshots, config.r_p, config.dmd_rank,
                         model.dt * config.training_stride)
    elif u_file.kind == "dmd":
        u = u_file  # its leading columns are not the lower-rank DMD basis
    else:
        u = u_file.leading(config.r_p)

    if config.data_reduction == "model":
        v = u.leading(config.r_d)
    else:
        v = pod_basis(h.apply(snapshots).T, config.r_d)
    return u, build_reduced_model(model, h, q, r, u, v, kind=config.data_reduction)


def _spin_up_aus(config: ExperimentConfig, model, x, rng: RngStream) -> tuple:
    """(u, x_end): the unstable-subspace basis stepped from a random start
    along the last aus_spinup observation cycles of the walk from x, and the
    walk's end state. Each cycle maps x as column 0 of its tangent block."""
    gen = rng.child(TRAINING).generator()
    seed_mat = gen.standard_normal((model.dimension, config.r_p))
    q_mat, _ = qr_positive(seed_mat)
    u = ReductionBasis(q_mat, kind="aus", validate=False)
    for _ in range(config.aus_spinup):
        mapped = model.cycle_map(tangent_block(x, u.columns, config.aus_eps))
        u, _ = aus_step(model, x, u, eps=config.aus_eps, mapped=mapped)
        x = mapped[:, 0].copy()
    return u, x


class _Trial:
    """One trial advanced a cycle at a time: begin_cycle gives the states the
    cycle maps, finish_cycle takes them mapped and does the rest. Any
    Exception it raises fails this trial alone (see guard)."""

    def __init__(self, config: ExperimentConfig, trial_index: int, memo: TrialMemo):
        self.config = config
        self.trial_index = trial_index
        self.t = 0  # the observation index of the current cycle
        self.record = MetricsRecord(trial=trial_index)
        self.rmses, self.projs, self.esses, self.flags = [], [], [], []
        self.guard(self._set_up, memo)

    def _set_up(self, memo: TrialMemo):
        config = self.config
        self.model = model = config.build_model()
        rng = RngStream(config.base_seed).child(self.trial_index)
        self.h = h = config.build_observation(model)
        self.q = q = NoiseSpec.scaled_identity(model.dimension, config.q_scale)
        self.r = r = NoiseSpec.scaled_identity(h.data_dim, config.r_scale)
        self.fcfg = config.filter_config()

        walked = memo.spin_ups.get((config, self.trial_index))
        if walked is None:
            walked = _spin_up(model, _initial_state(config, model, rng), *_walk(config, model))
        x, snapshots = walked
        self.time_dependent = _time_dependent(config)
        if self.time_dependent:
            self.u, x = _spin_up_aus(config, model, x, rng)
            self.reduced = None
        else:
            self.u, self.reduced = _bases(config, model, h, q, r, snapshots, memo)
        self.x_truth = x
        z0 = self.u.reduce(self.x_truth)
        q0 = conjugate_noise(q, self.u)
        self.ensemble = initialize_ensemble(z0, q0, config.n_particles,
                                            rng.child(FILTER_INIT))
        # one Generator, re-keyed for every stream of every cycle
        kept = np.random.Generator(np.random.Philox(0))
        self.streams = {purpose: _TimedStreams(rng.child(purpose), config.n_observations, kept)
                        for purpose in (TRUTH_NOISE, OBS_NOISE, FILTER_STEP)}

    @property
    def live(self) -> bool:
        return not self.record.failed and self.t < self.config.n_observations

    def guard(self, fn, *args):
        """fn(*args); None after failing this trial if it raises an Exception.

        The failure reads "Type: message"; for an exception that is not a
        ProjdaError, a bug rather than a diverged filter, it also names the
        observation index (or the set-up) and the traceback is logged."""
        try:
            return fn(*args)
        except Exception as exc:
            failure = f"{type(exc).__name__}: {exc}"
            bug = not isinstance(exc, ProjdaError)
            if bug:
                failure += f" (at observation {self.t})" if self.t else " (in set-up)"
            self.record.failed = True
            self.record.failure = failure
            logger.warning("trial %d failed after %d observations: %s",
                           self.trial_index, len(self.rmses), failure, exc_info=bug)
            return None

    def begin_cycle(self) -> list:
        """The states the next cycle maps through model.cycle_map, in the
        order a trial uses them: the truth, the tangent block of a
        time-dependent basis, the particles as columns."""
        self.t += 1
        blocks = [self.x_truth]
        if self.time_dependent:
            # kept for finish_cycle's basis step: the ensemble does not change
            # in between
            self.anchor = self.u.reconstruct(self.ensemble.mean())
            blocks.append(tangent_block(self.anchor, self.u.columns, self.config.aus_eps))
        return blocks + [forecast_columns(self.u, self.ensemble.particles)]

    def finish_cycle(self, mapped: list):
        """The rest of the cycle from the states of begin_cycle mapped, in the
        same order: truth noise, observation, basis advance (a time-dependent
        u steps on to the next), filter update, metrics."""
        config, t, streams = self.config, self.t, self.streams
        x_truth, particles = mapped[0], mapped[-1]
        if config.truth_noise:
            x_truth = x_truth + self.q.sample(streams[TRUTH_NOISE][t])
        self.x_truth = x_truth
        y = observe(x_truth, self.h, self.r, streams[OBS_NOISE][t])

        if self.time_dependent:
            u_next, _ = aus_step(self.model, self.anchor, self.u, eps=config.aus_eps,
                                 mapped=mapped[1])
            self.reduced = build_reduced_model(
                self.model, self.h, self.q, self.r,
                u=self.u, u_out=u_next, v=u_next.leading(config.r_d), kind="model",
            )
            self.u = u_next
        reduced = self.reduced
        y_hat = reduced.reduce_data(y)
        step_rng = streams[FILTER_STEP][t]
        fz = reduced.forecast_rows(particles)
        if config.uses_optimal_proposal:
            self.ensemble = proj_oppf_step(self.ensemble, reduced, y, y_hat,
                                           step_rng, self.fcfg, fz)
        else:
            self.ensemble = proj_pf_step(self.ensemble, reduced, y_hat, step_rng,
                                         self.fcfg, fz)

        z_mean = self.ensemble.mean()
        x_est = reduced.basis_out.reconstruct(z_mean)
        self.rmses.append(rmse(x_est, x_truth))
        self.projs.append(rmse_projected(z_mean, reduced.basis_out, x_truth))
        self.esses.append(self.ensemble.last_ess)
        self.flags.append(self.ensemble.last_resampled)

    def result(self) -> MetricsRecord:
        record = self.record
        record.rmse = np.asarray(self.rmses, dtype=float)
        record.rmse_proj = np.asarray(self.projs, dtype=float)
        record.ess = np.asarray(self.esses, dtype=float)
        record.resampled = np.asarray(self.flags, dtype=bool)
        if not record.failed:
            logger.info("trial %d: mean rmse %.4g, resampled %.1f%%",
                        self.trial_index, record.mean_rmse,
                        100 * record.resample_fraction)
        return record


def _map_together(model, blocks: list) -> list:
    """model.cycle_map of each block (states as columns, or one state), from
    one call on all their columns.

    Each mapped block comes back in the memory order its own call returns,
    because later matrix products round differently on another layout: the
    block's own order for a model that keeps its input's order, C order
    otherwise."""
    columns = [block.reshape(block.shape[0], -1) for block in blocks]
    out = model.cycle_map(np.concatenate(columns, axis=1))
    mapped, start = [], 0
    for block, cols in zip(blocks, columns):
        piece = out[:, start:start + cols.shape[1]]
        start += cols.shape[1]
        if block.ndim == 1:
            mapped.append(piece[:, 0].copy())
        else:
            keep_f = model.keeps_order and block.flags.f_contiguous
            mapped.append(np.array(piece, order="F" if keep_f else "C"))
    return mapped


def _cycle(model, trials: list):
    """One cycle of the live trials on one model, their states mapped by one
    call."""
    begun = [(trial, trial.guard(trial.begin_cycle)) for trial in trials]
    begun = [(trial, blocks) for trial, blocks in begun if blocks is not None]
    if not begun:
        return
    try:
        together = iter(_map_together(model, [b for _, blocks in begun for b in blocks]))
        mapped = [[next(together) for _ in blocks] for _, blocks in begun]
    except Exception:
        # some state could not be mapped: each trial maps its own blocks with
        # the calls it makes alone, so a failure and its message are its own
        mapped = [trial.guard(list, map(model.cycle_map, blocks)) for trial, blocks in begun]
    for (trial, _), own in zip(begun, mapped):
        if own is not None:
            trial.guard(trial.finish_cycle, own)


def _run_lockstep(keys: list, memo: TrialMemo) -> list[MetricsRecord]:
    """The records of the trials (config, trial_index) in keys, run together
    cycle by cycle, one model.cycle_map per model and cycle."""
    trials = [_Trial(config, t, memo) for config, t in keys]
    live = [trial for trial in trials if trial.live]
    while live:
        by_model: dict = {}
        for trial in live:
            by_model.setdefault(trial.model, []).append(trial)
        for model, group in by_model.items():
            _cycle(model, group)
        live = [trial for trial in live if trial.live]
    return [trial.result() for trial in trials]


def run_trial(config: ExperimentConfig, trial_index: int,
              memo: TrialMemo | None = None) -> MetricsRecord:
    """Run one assimilation trial and collect per-observation metrics.

    memo, when given, is shared by the trials that receive it; sweeps pass
    one per process, and the outputs do not depend on it. A trial takes its
    walk from memo.spin_ups, where _walk_ahead put it, or else walks alone
    and keeps nothing; input files in memo are not read again. A trial
    registered in memo.group runs in lockstep with the whole group: the
    first run_trial call of the group runs every trial in it and keeps the
    others' records for their own calls. Any other trial runs as a group of
    one."""
    memo = TrialMemo() if memo is None else memo
    key = (config, trial_index)
    if key not in memo.records:
        group = memo.group if key in memo.group else [key]
        if group is memo.group:
            memo.group = []
        for done, record in zip(group, _run_lockstep(group, memo)):
            memo.records.setdefault(done, []).append(record)
    records = memo.records[key]
    record = records.pop(0)
    if not records:
        del memo.records[key]
    return record
