"""Particle filters in reduced coordinates.

Every filter step follows the same pattern: propagate particles through the
reduced model, draw from a proposal, update log-weights, and resample with
projected jitter when the effective sample size drops below a threshold.
The full-space filters are the same steps run with identity_reduced_model,
whose identity bases leave every map exact.

RNG contract per step, given the step's stream: the step builds the stream's
generator once and addresses its Philox by counter lane. Lane l starts at
counter [0, 0, l, 0] under the stream's key with an empty buffer, so lane 0 is
the stream's generator() itself and two lanes overlap only after 2**128 blocks.
Particle l draws its proposal noise from lane l (l = 0..L-1); an eventual
resample uses lane L, first one uniform for the systematic offset, then an
(L, M) jitter block. Adding a particle leaves the other particles' draws as
they were.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateWeightsError, WeightCollapseError
from .numerics import NoiseSpec, RngStream, _KeyedStream, _as_generator
from .reduction.reduced_model import ReducedModel


@dataclass(frozen=True)
class FilterConfig:
    """Resampling policy: trigger below ess_threshold_fraction * L, then add
    noise drawn from omega * I smoothed toward the observed subspace by alpha."""

    ess_threshold_fraction: float = 0.5
    resample_alpha: float = 0.99
    resample_omega: float = 1e-2

    def __post_init__(self):
        if not 0.0 < self.ess_threshold_fraction <= 1.0:
            raise ValueError("ess_threshold_fraction must lie in (0, 1]")
        if not 0.0 <= self.resample_alpha <= 1.0:
            raise ValueError("resample_alpha must lie in [0, 1]")
        if self.resample_omega < 0.0:
            raise ValueError("resample_omega must be nonnegative")


class ParticleEnsemble:
    """Weighted particles as rows, with the diagnostics of the last update."""

    def __init__(self, particles, weights, last_ess: float | None = None,
                 last_resampled: bool = False):
        particles = np.asarray(particles, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if particles.ndim != 2:
            raise ValueError(f"particles must be (n, dim), got shape {particles.shape}")
        if weights.shape != (particles.shape[0],):
            raise ValueError("weights must be one per particle")
        if not np.isfinite(particles).all():
            raise ValueError("particles contain non-finite entries")
        if (weights < 0).any() or not np.isfinite(weights).all():
            raise ValueError("weights must be finite and nonnegative")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {weights.sum()!r}")
        self.particles = particles
        self.weights = weights
        self.last_ess = last_ess
        self.last_resampled = last_resampled

    @classmethod
    def uniform(cls, particles) -> "ParticleEnsemble":
        particles = np.asarray(particles, dtype=float)
        n = particles.shape[0]
        return cls(particles, np.full(n, 1.0 / n))

    @property
    def n_particles(self) -> int:
        return self.particles.shape[0]

    def mean(self) -> np.ndarray:
        return self.weights @ self.particles


def initialize_ensemble(center, noise: NoiseSpec, n_particles: int,
                        rng) -> ParticleEnsemble:
    """Uniform-weight particles scattered around a center state."""
    center = np.asarray(center, dtype=float)
    if n_particles < 1:
        raise ValueError("need at least one particle")
    gen = _as_generator(rng)
    spread = noise.color(gen.standard_normal((n_particles, center.size)))
    return ParticleEnsemble.uniform(center[None, :] + spread)


def ess(weights) -> float:
    """Effective sample size (sum w)^2 / sum w^2 of nonnegative weights."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise DegenerateWeightsError("weights must be a nonempty vector")
    if (w < 0).any() or not np.isfinite(w).all():
        raise DegenerateWeightsError("weights must be finite and nonnegative")
    total = w.sum()
    if total <= 0.0:
        raise DegenerateWeightsError("weights sum to zero")
    return float(total * total / np.sum(w * w))


def systematic_resample(weights, rng) -> np.ndarray:
    """Systematic resampling: one uniform offset, L evenly spaced positions.

    Returns the selected ancestor index per slot. Each particle is selected
    within one of n * weight times.
    """
    w = np.asarray(weights, dtype=float)
    if (w < 0).any() or not np.isfinite(w).all():
        raise DegenerateWeightsError("weights must be finite and nonnegative")
    total = w.sum()
    if total <= 0.0:
        raise DegenerateWeightsError("weights sum to zero")
    n = w.size
    gen = _as_generator(rng)
    positions = gen.uniform(0.0, 1.0 / n) + np.arange(n) / n
    cumulative = np.cumsum(w / total)
    idx = np.searchsorted(cumulative, positions, side="right")
    return np.minimum(idx, n - 1)


def _normalized_from_log(log_w: np.ndarray) -> np.ndarray:
    peak = np.max(log_w)
    if not np.isfinite(peak):
        raise WeightCollapseError(
            "every particle weight vanished (largest log-weight is not finite)"
        )
    w = np.exp(log_w - peak)
    total = w.sum()
    if not np.isfinite(total) or total <= 0.0:
        raise WeightCollapseError("particle weights did not normalize")
    return w / total


def _finish_step(reduced: ReducedModel, z_new: np.ndarray, log_w: np.ndarray,
                 lane: Callable[[int], np.random.Generator],
                 config: FilterConfig) -> ParticleEnsemble:
    """Normalize weights, then resample with projected jitter if ESS is low."""
    w = _normalized_from_log(log_w)
    n = w.size
    sample_size = ess(w)
    resampled = sample_size < config.ess_threshold_fraction * n
    if resampled:
        gen = lane(n)
        ancestors = systematic_resample(w, gen)
        z_new = z_new[ancestors] + reduced.jitter_noise(
            gen, n, config.resample_omega, config.resample_alpha
        )
        w = np.full(n, 1.0 / n)
    return ParticleEnsemble(z_new, w, last_ess=sample_size, last_resampled=resampled)


def _lanes(rng: RngStream) -> Callable[[int], np.random.Generator]:
    """lane(l) -> the step stream's one generator, repositioned at the start
    of counter lane l: Philox counter [0, 0, l, 0], the stream's key, an
    empty buffer (see _KeyedStream). A stream whose key is not known ahead
    builds its generator here."""
    if not isinstance(rng, _KeyedStream):
        gen = rng.generator()
        rng = _KeyedStream(rng.seed, rng.key, gen.bit_generator.state["state"]["key"], gen)
    return rng.lane


def _proposal_draws(lane: Callable[[int], np.random.Generator], n: int,
                    dim: int) -> np.ndarray:
    # one lane per particle, so particle count changes never shift another
    # particle's draws
    xi = np.empty((n, dim))
    for l in range(n):
        lane(l).standard_normal(out=xi[l])
    return xi


def proj_pf_step(ensemble: ParticleEnsemble, reduced: ReducedModel,
                 y_hat: np.ndarray, rng: RngStream,
                 config: FilterConfig | None = None,
                 fz: np.ndarray | None = None) -> ParticleEnsemble:
    """Bootstrap update: propose from the reduced model, weight by the reduced
    data likelihood evaluated at the proposed particle.

    fz, when given, is the forecast reduced.forecast(ensemble.particles)
    already taken, as rows; a lockstep trial maps its particles together with
    its other states and passes reduced.forecast_rows of them here."""
    config = config or FilterConfig()
    y_hat = np.asarray(y_hat, dtype=float)
    if fz is None:
        fz = reduced.forecast(ensemble.particles)
    lane = _lanes(rng)
    xi = _proposal_draws(lane, ensemble.n_particles, reduced.reduced_dim)
    z_new = fz + reduced.q_q.color(xi)
    nu = y_hat[None, :] - z_new @ reduced.h_q.T
    with np.errstate(divide="ignore"):
        log_w = np.log(ensemble.weights) - 0.5 * reduced.r_q.quad(nu)
    return _finish_step(reduced, z_new, log_w, lane, config)


def proj_oppf_step(ensemble: ParticleEnsemble, reduced: ReducedModel,
                   y: np.ndarray, y_hat: np.ndarray, rng: RngStream,
                   config: FilterConfig | None = None,
                   fz: np.ndarray | None = None) -> ParticleEnsemble:
    """Optimal-proposal update: condition the proposal on the new observation,
    weight by the innovation of the deterministic forecast. fz is as in
    proj_pf_step."""
    config = config or FilterConfig()
    y = np.asarray(y, dtype=float)
    y_hat = np.asarray(y_hat, dtype=float)
    proposal = reduced.optimal_proposal()
    if fz is None:
        fz = reduced.forecast(ensemble.particles)
    resid = y[None, :] - fz @ reduced.hu.T
    lane = _lanes(rng)
    xi = _proposal_draws(lane, ensemble.n_particles, reduced.reduced_dim)
    z_new = fz + proposal.mean_shift(resid) + proposal.sample_delta(xi)
    nu = y_hat[None, :] - fz @ reduced.h_q.T
    with np.errstate(divide="ignore"):
        log_w = np.log(ensemble.weights) - 0.5 * reduced.weight_quad(nu)
    return _finish_step(reduced, z_new, log_w, lane, config)
