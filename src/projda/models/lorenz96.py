"""Lorenz-96 cyclic lattice model with fixed-step RK4 integration."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import BlowupError


_NEIGHBOURS: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _neighbours(m: int):
    """Cyclic indices (i+1, i-1, i-2) mod m, built once per dimension."""
    idx = _NEIGHBOURS.get(m)
    if idx is None:
        i = np.arange(m)
        idx = _NEIGHBOURS[m] = ((i + 1) % m, (i - 1) % m, (i - 2) % m)
    return idx


def l96_rhs(u: np.ndarray, forcing: float) -> np.ndarray:
    """du_i/dt = (u_{i+1} - u_{i-2}) u_{i-1} - u_i + F with cyclic indices.

    Accepts a single state of shape (M,) or a batch of column states (M, k).
    The result keeps the memory order of u (a gather alone returns C order),
    because later matrix products round differently on a different layout.
    """
    u = np.asarray(u, dtype=float)
    if u.shape[0] < 4:
        raise ValueError("Lorenz-96 needs dimension >= 4")
    ip1, im1, im2 = _neighbours(u.shape[0])
    out = np.empty_like(u)
    np.subtract(u.take(ip1, axis=0), u.take(im2, axis=0), out=out)
    out *= u.take(im1, axis=0)
    out -= u
    out += forcing
    return out


def step_rk4(rhs, state: np.ndarray, dt: float) -> np.ndarray:
    """One classical 4th-order Runge-Kutta step of x' = rhs(x)."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    k1 = rhs(state)
    k2 = rhs(state + 0.5 * dt * k1)
    k3 = rhs(state + 0.5 * dt * k2)
    k4 = rhs(state + dt * k3)
    out = state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(out)):
        raise BlowupError("RK4 step produced non-finite values")
    return out


@dataclass(frozen=True)
class L96Spec:
    """Lorenz-96 configuration: dimension, forcing, internal step, observation cadence."""

    dimension: int = 40
    forcing: float = 8.0
    dt: float = 0.01
    steps_per_observation: int = 5

    def __post_init__(self):
        if self.dimension < 4:
            raise ValueError("dimension must be >= 4")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.steps_per_observation < 1:
            raise ValueError("steps_per_observation must be >= 1")

    @property
    def cycle_dt(self) -> float:
        return self.dt * self.steps_per_observation

    def rhs(self, u):
        return l96_rhs(u, self.forcing)

    def step(self, state):
        """One internal deterministic step; vectorized over column batches."""
        return step_rk4(self.rhs, np.asarray(state, dtype=float), self.dt)

    def cycle_map(self, state):
        """Deterministic map over one observation cycle (steps_per_observation steps)."""
        x = np.asarray(state, dtype=float)
        for _ in range(self.steps_per_observation):
            x = self.step(x)
        return x

    def default_state(self, rng=None) -> np.ndarray:
        """Forcing-level rest state, optionally with a small random perturbation
        to break the symmetry before spin-up."""
        x = np.full(self.dimension, self.forcing, dtype=float)
        if rng is not None:
            gen = rng.generator() if hasattr(rng, "generator") else rng
            x = x + 0.1 * gen.standard_normal(self.dimension)
        else:
            x[0] += 0.01
        return x
