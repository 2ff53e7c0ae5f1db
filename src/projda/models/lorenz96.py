"""Lorenz-96 cyclic lattice model with fixed-step RK4 integration.

A call of step(state, n) runs in the buffers of one plan per state shape,
built on first use and kept for the life of the process. It returns one fresh
array in its input's memory order, because later matrix products round
differently on a different layout; calls on one shape must not overlap (no
threads). cycle_map is the call of steps_per_observation steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import BlowupError


_PLANS: dict[tuple, "_StepPlan"] = {}


def _plan(x: np.ndarray) -> "_StepPlan":
    """The plan of states of x's shape, built once per process."""
    if x.shape not in _PLANS:
        if x.shape[0] < 4:
            raise ValueError("Lorenz-96 needs dimension >= 4")
        _PLANS[x.shape] = _StepPlan(x.shape)
    return _PLANS[x.shape]


class _StepPlan:
    """C-ordered buffers for the RK4 step of states of one shape.

    The stage state lives in the rows u[M-2], u[M-1], u[0..M-1], u[0], so its
    cyclic neighbours are row slices. Each element gets the float operations
    of the allocating step x + (dt/6)(k1 + 2 k2 + 2 k3 + k4), in the same
    order, so every value matches it bit for bit.
    """

    def __init__(self, shape: tuple):
        m = shape[0]
        w = np.zeros((m + 3,) + shape[1:])
        self.ip1, self.im1, self.im2, self.stage = w[3:], w[1:m + 1], w[:m], w[2:m + 2]
        self.wraps = ((w[:2], w[m:m + 2]), (w[m + 2:], w[2:3]))
        self.k = [np.zeros(shape) for _ in range(5)]  # k1..k4, scratch

    def tendency(self, forcing, out: np.ndarray) -> np.ndarray:
        """The Lorenz-96 tendency of the stage state, into out:
        du_i/dt = (u_{i+1} - u_{i-2}) u_{i-1} - u_i + F with cyclic indices."""
        for rows, source in self.wraps:
            rows[...] = source
        np.subtract(self.ip1, self.im2, out=out)
        out *= self.im1
        out -= self.stage
        out += forcing
        return out

    def step(self, x: np.ndarray, constants: tuple, n: int) -> np.ndarray:
        """n RK4 steps from x into one fresh array in x's memory order; each
        step after the first updates that array in place."""
        forcing, half, full, sixth, two = constants
        k1, k2, k3, k4, scaled = self.k
        out = np.empty_like(x)
        for _ in range(n):
            self.stage[...] = x
            self.tendency(forcing, k1)
            for k_in, k_out, h in ((k1, k2, half), (k2, k3, half), (k3, k4, full)):
                np.multiply(k_in, h, out=scaled)
                np.add(x, scaled, out=self.stage)
                self.tendency(forcing, k_out)
            k2 *= two
            k2 += k1
            k3 *= two
            k2 += k3
            k2 += k4
            k2 *= sixth
            x = np.add(x, k2, out=out)
            if not np.isfinite(out).all():
                raise BlowupError("RK4 step produced non-finite values")
        return out


@dataclass(frozen=True)
class L96Spec:
    """Lorenz-96 configuration: dimension, forcing, internal step, observation cadence."""

    dimension: int = 40
    forcing: float = 8.0
    dt: float = 0.01
    steps_per_observation: int = 5

    # step and cycle_map return their input's memory order (see the module docstring)
    keeps_order = True

    def __post_init__(self):
        if self.dimension < 4:
            raise ValueError("dimension must be >= 4")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.steps_per_observation < 1:
            raise ValueError("steps_per_observation must be >= 1")
        # F, dt/2, dt, dt/6 and 2 for the step, as 0-d arrays: ufuncs take
        # them in faster than Python floats
        object.__setattr__(self, "_rk4", tuple(
            np.array(c, dtype=float)
            for c in (self.forcing, 0.5 * self.dt, self.dt, self.dt / 6.0, 2.0)))

    @property
    def cycle_dt(self) -> float:
        return self.dt * self.steps_per_observation

    def step(self, state, n: int = 1):
        """n internal deterministic RK4 steps of a state or of each column of
        a block. The result is bit for bit that of n calls of one step, and a
        walk that blows up raises the same BlowupError at the same step,
        without numpy's overflow warnings. It is one fresh array in the
        input's memory order."""
        if n < 1:
            raise ValueError(f"step count must be >= 1, got {n}")
        x = np.asarray(state, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            return _plan(x).step(x, self._rk4, n)

    def cycle_map(self, state):
        """Deterministic map over one observation cycle: one call of step."""
        return self.step(state, self.steps_per_observation)

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
