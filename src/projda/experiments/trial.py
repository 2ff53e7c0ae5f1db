"""One twin-experiment trial: spin up a truth, build the reduction, assimilate.

Reproducibility contract: trial t of base seed s derives every random draw
from RngStream(s).child(t), with fixed purpose indices below that (truth
noise, observation noise, training, filter init, filter steps). Trials are
therefore independent of execution order and of each other.
"""

from __future__ import annotations

import logging

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
from ..reduction.reduced_model import conjugate_noise
from .config import ExperimentConfig
from .metrics import MetricsRecord, rmse, rmse_projected

logger = logging.getLogger("projda.experiments")


def _initial_state(config: ExperimentConfig, model, rng: RngStream) -> np.ndarray:
    if config.model_kind == "l96":
        return model.default_state(rng.child(TRUTH_IC))
    return model.default_jet_state(jet_speed=config.jet_speed,
                                   jet_width=config.jet_width,
                                   perturb_amplitude=config.perturb_amplitude)


def _needs_snapshots(config: ExperimentConfig) -> bool:
    if config.uses_identity_reduction:
        return False
    from_training = config.reduction_kind in ("pod", "dmd") and not config.basis_file
    return from_training or config.data_reduction == "data"


def _file_inputs(config: ExperimentConfig, dimension: int) -> tuple:
    """The snapshots and the basis a trial of config reads from its
    snapshot_file and basis_file, each None where it reads no such file.
    Raises ReductionError naming the file when it cannot be read, holds
    states of another dimension, or has fewer than r_p basis columns."""
    snapshots = basis = None
    if config.snapshot_file and _needs_snapshots(config):
        snapshots, _ = load_snapshots(config.snapshot_file)
        if snapshots.shape[1] != dimension:
            raise ReductionError(
                f"snapshot file {config.snapshot_file} is for dimension "
                f"{snapshots.shape[1]}, model has {dimension}"
            )
    if (config.basis_file and config.reduction_kind in ("pod", "dmd")
            and not config.uses_identity_reduction):
        basis = load_basis(config.basis_file)
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
    return snapshots, basis


def _walk(config: ExperimentConfig) -> tuple:
    """_spin_up's arguments after x0 for a trial: burn-in, training steps, the
    snapshot stride (None when the trial trains on no in-trial snapshots) and
    the basis spin-up window in observation cycles (0 when it needs none)."""
    record_snaps = _needs_snapshots(config) and not config.snapshot_file
    record_anchors = config.reduction_kind == "aus" and not config.uses_identity_reduction
    return (config.burn_in, config.training_steps,
            config.training_stride if record_snaps else None,
            config.aus_spinup if record_anchors else 0)


def _spin_up(model, x0, burn_in: int, training_steps: int = 0,
             stride: int | None = None, anchor_cycles: int = 0):
    """Deterministic walk of burn_in + training_steps internal steps from x0.

    Records the states at steps burn_in + k * stride when stride is given, and
    the states one observation cycle apart within the last anchor_cycles cycles
    (the basis spin-up anchors). Returns (x_end, snapshots or None, anchors or
    None), all read-only, as trials may share them."""
    spo = model.steps_per_observation
    total = burn_in + training_steps
    window = anchor_cycles * spo
    snaps, anchors = [], []
    x = np.asarray(x0, dtype=float)
    for s in range(total + 1):
        if stride and s >= burn_in and (s - burn_in) % stride == 0:
            snaps.append(x)
        if s < total and total - s <= window and (total - s) % spo == 0:
            anchors.append(x)
        if s < total:
            x = model.step(x)
    out = (x, np.asarray(snaps) if snaps else None, np.asarray(anchors) if anchors else None)
    for arr in out:
        if arr is not None:
            arr.flags.writeable = False
    return out


def _shared_spin_up(config: ExperimentConfig, model, x0, spin_ups: dict | None):
    """_spin_up's result for a trial, taken from spin_ups when an earlier
    trial walked from the same state with the same inputs; spin_ups None keeps
    nothing. The walk always covers burn_in + training_steps, so the truth is
    the same whatever the reduction and filter."""
    walk = _walk(config)
    if spin_ups is None:
        return _spin_up(model, x0, *walk)
    key = (model, x0.tobytes()) + walk
    walked = spin_ups.get(key)
    if walked is None:
        walked = spin_ups[key] = _spin_up(model, x0, *walk)
    return walked


def training_trajectory(config: ExperimentConfig, trial_index: int = 0):
    """The deterministic training segment of a trial: burn in, then record
    every training_stride-th state. It is the walk run_trial trains on, so a
    basis built from the saved file equals the one built in-trial."""
    rng = RngStream(config.base_seed).child(trial_index)
    model = config.build_model()
    x0 = _initial_state(config, model, rng)
    _, states, _ = _spin_up(model, x0, config.burn_in, config.training_steps,
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


class ReductionDriver:
    """Owns the reduction bases of one trial and rolls them forward in time.

    POD and DMD bases are fixed; the unstable-subspace basis is re-derived
    every cycle by propagating tangent directions from the current analysis
    mean, so advance() must run before each filter step. The config's
    snapshot_file and basis_file, where it uses them, take the place of the
    in-trial snapshots and of the trained basis."""

    def __init__(self, config: ExperimentConfig, model, h, q, r,
                 snapshots, anchors, rng: RngStream):
        self.config = config
        self.model = model
        self.h, self.q, self.r = h, q, r
        self.time_dependent = False

        if config.uses_identity_reduction:
            self.reduced = identity_reduced_model(model, h, q, r)
            self.initial_basis = self.reduced.basis_in
            return

        file_snapshots, u_file = _file_inputs(config, model.dimension)
        if file_snapshots is not None:
            snapshots = file_snapshots
        kind = config.reduction_kind
        if u_file is not None:
            u = u_file.leading(config.r_p)
        elif kind == "pod":
            u = pod_basis(snapshots.T, config.r_p)
        elif kind == "dmd":
            result = dmd(snapshots.T, rank=config.dmd_rank or None,
                         dt=model.dt * config.training_stride)
            u = dmd_basis(result, config.r_p)
        else:
            u = self._spin_up_aus(anchors, rng)
            self.time_dependent = True

        if config.data_reduction == "model":
            v = u.leading(config.r_d)
        else:
            data_snaps = h.apply(snapshots)
            v = pod_basis(data_snaps.T, config.r_d)
        self.u = u
        self.initial_basis = u
        if self.time_dependent:
            self.reduced = None
        else:
            self.reduced = build_reduced_model(model, h, q, r, u, v,
                                               kind=config.data_reduction)

    def _spin_up_aus(self, anchors, rng: RngStream) -> ReductionBasis:
        gen = rng.child(TRAINING).generator()
        seed_mat = gen.standard_normal((self.model.dimension, self.config.r_p))
        q_mat, _ = qr_positive(seed_mat)
        u = ReductionBasis(q_mat, kind="aus", validate=False)
        for anchor in anchors:
            u, _ = aus_step(self.model, anchor, u, eps=self.config.aus_eps)
        return u

    def advance(self, ensemble):
        """Prepare the reduced model of the upcoming cycle: a time-dependent
        basis steps from the current u to the next, which becomes u."""
        if not self.time_dependent:
            return self.reduced
        anchor = self.u.reconstruct(ensemble.mean())
        u_next, _ = aus_step(self.model, anchor, self.u, eps=self.config.aus_eps)
        self.reduced = build_reduced_model(
            self.model, self.h, self.q, self.r,
            u=self.u, u_out=u_next, v=u_next.leading(self.config.r_d),
            kind="model",
        )
        self.u = u_next
        return self.reduced


def run_trial(config: ExperimentConfig, trial_index: int,
              spin_ups: dict | None = None) -> MetricsRecord:
    """Run one assimilation trial and collect per-observation metrics.

    spin_ups, when given, is a memo of deterministic walks shared by the
    trials that receive it: a trial whose walk is in it skips its spin-up.
    Sweeps pass one per process; the outputs do not depend on it."""
    rng = RngStream(config.base_seed).child(trial_index)
    model = config.build_model()
    h = config.build_observation(model)
    q = NoiseSpec.scaled_identity(model.dimension, config.q_scale)
    r = NoiseSpec.scaled_identity(h.data_dim, config.r_scale)
    fcfg = config.filter_config()

    record = MetricsRecord(trial=trial_index)
    rmses, projs, esses, flags = [], [], [], []
    try:
        x_init = _initial_state(config, model, rng)
        x_start, snapshots, anchors = _shared_spin_up(config, model, x_init, spin_ups)
        driver = ReductionDriver(config, model, h, q, r, snapshots, anchors, rng)

        z0 = driver.initial_basis.reduce(x_start)
        q0 = conjugate_noise(q, driver.initial_basis)
        ensemble = initialize_ensemble(z0, q0, config.n_particles,
                                       rng.child(FILTER_INIT))

        optimal = config.uses_optimal_proposal
        x_truth = x_start
        for t in range(1, config.n_observations + 1):
            x_truth = model.cycle_map(x_truth)
            if config.truth_noise:
                x_truth = x_truth + q.sample(rng.child(TRUTH_NOISE, t))
            y = observe(x_truth, h, r, rng.child(OBS_NOISE, t))

            reduced = driver.advance(ensemble)
            y_hat = reduced.reduce_data(y)
            step_rng = rng.child(FILTER_STEP, t)
            if optimal:
                ensemble = proj_oppf_step(ensemble, reduced, y, y_hat, step_rng, fcfg)
            else:
                ensemble = proj_pf_step(ensemble, reduced, y_hat, step_rng, fcfg)

            z_mean = ensemble.mean()
            x_est = reduced.basis_out.reconstruct(z_mean)
            rmses.append(rmse(x_est, x_truth))
            projs.append(rmse_projected(z_mean, reduced.basis_out, x_truth))
            esses.append(ensemble.last_ess)
            flags.append(ensemble.last_resampled)
    except ProjdaError as exc:
        record.failed = True
        record.failure = f"{type(exc).__name__}: {exc}"
        logger.warning("trial %d failed after %d observations: %s",
                       trial_index, len(rmses), record.failure)

    record.rmse = np.asarray(rmses, dtype=float)
    record.rmse_proj = np.asarray(projs, dtype=float)
    record.ess = np.asarray(esses, dtype=float)
    record.resampled = np.asarray(flags, dtype=bool)
    if not record.failed:
        logger.info("trial %d: mean rmse %.4g, resampled %.1f%%",
                    trial_index, record.mean_rmse, 100 * record.resample_fraction)
    return record
