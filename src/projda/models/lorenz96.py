"""Lorenz-96 cyclic lattice model with fixed-step RK4 integration.

A call of step(state, n) runs in the buffers of one plan per state shape,
built on first use and kept for the life of the process: the state between
halo rows that hold its cyclic neighbours, so the stages need no wrap copies
(see _StepPlan). It returns one fresh array in its input's memory order,
because later matrix products round differently on a different layout; calls
on one shape must not overlap (no threads). cycle_map is the call of
steps_per_observation steps.
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
    """C-ordered buffers for the RK4 step of states of one shape, with halo
    rows.

    The state lives in rows 8 .. M+7 of an (M + 12)-row buffer, whose rows
    0..7 and M+8..M+11 hold its cyclic neighbours u[M-8..M-1] and u[0..3],
    filled once per step: two row copies, or one gather where M < 8. The
    tendency at row i reads rows i-2 .. i+1 only, so each of the four stages
    computes it over a range 2 rows shorter on the left and 1 on the right
    than its input's, the fourth over the M state rows: no stage copies or
    wraps its input. Each element gets the float operations of the
    allocating step x + (dt/6)(k1 + 2 k2 + 2 k3 + k4), in the same order, so
    every value matches it bit for bit.
    """

    def __init__(self, shape: tuple):
        m = shape[0]
        x, stage, *k = (np.zeros((m + 12,) + shape[1:]) for _ in range(6))
        self.x, self.state = x, x[8:m + 8]
        # the halo's sources: two row blocks, or where M < 8 a gather of every row
        self.halo = ((x[:8], x[m:m + 8]), (x[m + 8:], x[8:12])) if m >= 8 else ()
        self.gather = None if m >= 8 else 8 + np.arange(-8, m + 4) % m
        # stage j's tendency k[j] spans rows [lo, hi) and reads its input
        # over rows [lo - 2, hi + 1): x, then x + h k[j - 1] in stage
        self.stages = []
        for j, source in enumerate((x, stage, stage, stage)):
            lo, hi = 2 * j + 2, m + 11 - j
            rows = slice(lo - 2, hi + 1)
            stage_in = (k[j - 1][rows], x[rows], stage[rows]) if j else None
            self.stages.append((stage_in, source[lo + 1:hi + 1], source[lo - 2:hi - 2],
                                source[lo - 1:hi - 1], source[lo:hi], k[j][lo:hi]))
        self.k = [kj[8:m + 8] for kj in k]

    def step(self, x: np.ndarray, constants: tuple, n: int) -> np.ndarray:
        """n RK4 steps from x into one fresh array in x's memory order."""
        forcing, half, full, sixth, two = constants
        k1, k2, k3, k4 = self.k
        state = self.state
        state[...] = x
        for _ in range(n):
            if self.gather is not None:
                np.take(self.x, self.gather, axis=0, out=self.x)  # buffered: safe in place
            for rows, source in self.halo:
                rows[...] = source
            for (stage_in, ip1, im2, im1, u, k_out), h in zip(self.stages,
                                                              (None, half, half, full)):
                if stage_in is not None:
                    k_in, x_in, u_in = stage_in
                    np.multiply(k_in, h, out=u_in)
                    np.add(x_in, u_in, out=u_in)
                # du_i/dt = (u_{i+1} - u_{i-2}) u_{i-1} - u_i + F
                np.subtract(ip1, im2, out=k_out)
                k_out *= im1
                k_out -= u
                k_out += forcing
            k2 *= two
            k2 += k1
            k3 *= two
            k2 += k3
            k2 += k4
            k2 *= sixth
            np.add(state, k2, out=state)
            if not np.isfinite(state).all():
                raise BlowupError("RK4 step produced non-finite values")
        out = np.empty_like(x)
        out[...] = state
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
