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


def _recording(config: ExperimentConfig):
    """What _spin_up records along the walk: training snapshots or not, basis
    spin-up anchors or not, and the anchors' window in observation cycles."""
    record_snaps = _needs_snapshots(config) and not config.snapshot_file
    record_anchors = config.reduction_kind == "aus" and not config.uses_identity_reduction
    return record_snaps, record_anchors, config.aus_spinup if record_anchors else 0


def _spin_up(config: ExperimentConfig, model, x0):
    """Deterministic walk to the assimilation start, recording training
    snapshots and basis spin-up anchor states along the way.

    The walk always covers burn_in + training_steps internal steps so the
    truth trajectory is identical across reduction and filter choices. The
    returned arrays are read-only, as trials may share them."""
    spo = model.steps_per_observation
    total = config.burn_in + config.training_steps
    record_snaps, record_anchors, aus_spinup = _recording(config)
    window = aus_spinup * spo
    snaps, anchors = [], []
    x = np.asarray(x0, dtype=float)
    for s in range(total + 1):
        if record_snaps and s >= config.burn_in and (s - config.burn_in) % config.training_stride == 0:
            snaps.append(x)
        if record_anchors and s < total and total - s <= window and (total - s) % spo == 0:
            anchors.append(x)
        if s < total:
            x = model.step(x)
    out = (x, np.asarray(snaps) if snaps else None, np.asarray(anchors) if anchors else None)
    for arr in out:
        if arr is not None:
            arr.flags.writeable = False
    return out


def _shared_spin_up(config: ExperimentConfig, model, x0, spin_ups: dict | None):
    """_spin_up's result, taken from spin_ups when an earlier trial walked
    from the same state with the same inputs; spin_ups None keeps nothing."""
    if spin_ups is None:
        return _spin_up(config, model, x0)
    key = (model, x0.tobytes(), config.burn_in, config.training_steps,
           config.training_stride, _recording(config))
    walked = spin_ups.get(key)
    if walked is None:
        walked = spin_ups[key] = _spin_up(config, model, x0)
    return walked


def training_trajectory(config: ExperimentConfig, trial_index: int = 0):
    """The deterministic training segment of a trial: burn in, then record
    every training_stride-th state. Matches what run_trial trains on, so a
    basis built from the saved file equals the one built in-trial."""
    rng = RngStream(config.base_seed).child(trial_index)
    model = config.build_model()
    x = _initial_state(config, model, rng)
    for _ in range(config.burn_in):
        x = model.step(x)
    states = [x]
    for s in range(1, config.training_steps + 1):
        x = model.step(x)
        if s % config.training_stride == 0:
            states.append(x)
    meta = {
        "model": config.model_kind,
        "M": model.dimension,
        "n_steps": len(states) - 1,
        "dt": model.dt * config.training_stride,
        "seed": config.base_seed,
        "noise_on": False,
    }
    return np.asarray(states), meta


class ReductionDriver:
    """Owns the reduction bases of one trial and rolls them forward in time.

    POD and DMD bases are fixed; the unstable-subspace basis is re-derived
    every cycle by propagating tangent directions from the current analysis
    mean, so advance() must run before each filter step and commit() after."""

    def __init__(self, config: ExperimentConfig, model, h, q, r,
                 snapshots, anchors, rng: RngStream):
        self.config = config
        self.model = model
        self.h, self.q, self.r = h, q, r
        self.time_dependent = False
        self._u_next = None

        if config.uses_identity_reduction:
            self.reduced = identity_reduced_model(model, h, q, r)
            self.initial_basis = self.reduced.basis_in
            return

        kind = config.reduction_kind
        if config.basis_file and kind in ("pod", "dmd"):
            u_full = load_basis(config.basis_file)
            if u_full.state_dim != model.dimension:
                raise ReductionError(
                    f"basis file is for dimension {u_full.state_dim}, "
                    f"model has {model.dimension}"
                )
            if u_full.rank < config.r_p:
                raise ReductionError(
                    f"basis file holds {u_full.rank} columns, need {config.r_p}"
                )
            u = u_full.leading(config.r_p)
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
        self.v = v
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
        u = ReductionBasis(q_mat, kind="aus", time_dependent=True, validate=False)
        for anchor in anchors:
            u, _ = aus_step(self.model, anchor, u, eps=self.config.aus_eps)
        return u

    def advance(self, ensemble):
        """Prepare the reduced model of the upcoming cycle."""
        if not self.time_dependent:
            return self.reduced
        anchor = self.u.reconstruct(ensemble.mean())
        u_next, _ = aus_step(self.model, anchor, self.u, eps=self.config.aus_eps)
        self._u_next = u_next
        self.reduced = build_reduced_model(
            self.model, self.h, self.q, self.r,
            u=self.u, u_out=u_next, v=u_next.leading(self.config.r_d),
            kind="model",
        )
        return self.reduced

    def commit(self):
        if self.time_dependent:
            self.u = self._u_next


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
        if config.snapshot_file and _needs_snapshots(config):
            snapshots, _ = load_snapshots(config.snapshot_file)
            if snapshots.shape[1] != model.dimension:
                raise ReductionError(
                    f"snapshot file is for dimension {snapshots.shape[1]}, "
                    f"model has {model.dimension}"
                )
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
            driver.commit()

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
