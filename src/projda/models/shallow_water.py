"""Rotating shallow-water channel model, two-step Lax-Wendroff finite differences.

Geometry: periodic in x, rigid free-slip walls in y. The hyperbolic core advances
the conservative variables (h, hu, hv) with the Richtmyer two-step scheme, which
conserves total mass exactly (wall ghost cells mirror h and u evenly and v oddly,
so the wall mass flux is identically zero). Coriolis, horizontal viscosity, and
linear bottom friction are applied as a first-order source split on velocities.

The flat state vector is [u; v; h] with each field flattened in row-major
(y, x) order, so the state dimension is M = 3 * nx * ny.

A call of step(state, n) on k columns runs n steps in the buffers of one step
plan per (spec, k), built on first use and kept for the life of the process;
each call returns one fresh array, and calls of one shape must not overlap (no
threads). cycle_map is the call of steps_per_observation steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import BlowupError


@dataclass(frozen=True)
class SWESpec:
    """Shallow-water configuration.

    Physical parameters are documented defaults, tunable via config: gravity g,
    Coriolis parameter f, bottom friction c_b, viscosity nu, mean depth for the
    construction-time CFL check, grid spacing dx/dy.
    """

    nx: int = 64
    ny: int = 16
    dx: float = 20_000.0
    dy: float = 20_000.0
    gravity: float = 9.81
    coriolis: float = 1e-4
    friction: float = 1e-6
    viscosity: float = 1e4
    depth: float = 250.0
    dt: float = 60.0
    steps_per_observation: int = 60

    # step and cycle_map return C order whatever the input's
    keeps_order = False

    def __post_init__(self):
        if self.nx < 4 or self.ny < 4:
            raise ValueError("grid must be at least 4x4")
        if min(self.dx, self.dy, self.dt, self.gravity, self.depth) <= 0:
            raise ValueError("dx, dy, dt, gravity, depth must be positive")
        cfl = np.sqrt(self.gravity * self.depth) * self.dt / min(self.dx, self.dy)
        if cfl >= 1.0:
            raise ValueError(
                f"CFL number sqrt(g h) dt/dx = {cfl:.3f} >= 1 at construction"
            )

    @property
    def dimension(self) -> int:
        return 3 * self.nx * self.ny

    @property
    def cycle_dt(self) -> float:
        return self.dt * self.steps_per_observation

    # -- state packing -----------------------------------------------------

    def pack(self, u, v, h) -> np.ndarray:
        return np.concatenate([u.ravel(), v.ravel(), h.ravel()])

    # -- stepping ----------------------------------------------------------

    def step(self, state: np.ndarray, n: int = 1) -> np.ndarray:
        """n internal steps; accepts (M,) or a batch of column states (M, k).

        The result is bit for bit that of n calls of one step, and a failing
        walk raises the same BlowupError, message and column, at the same
        step. It is a fresh C-ordered array, (M,) or (M, k) whatever the
        memory order of the input, which callers may keep. A single state is
        stepped as a batch of one.

        Every intermediate lives in the plan of this spec and k (`_plan`),
        built on the first step of that shape and reused after, so a call
        allocates only the array it returns. Step i > 0 starts from the
        buffers where step i - 1 left its output, and takes its input checks
        from the reductions that checked that output; a failed check is
        redone on the whole state as the first step checks its input, so the
        messages are those of single steps. The plan makes the step
        non-re-entrant: two steps of one shape must not run at the same time
        in one process (projda runs no threads; sweep workers are processes).
        """
        if n < 1:
            raise ValueError(f"step count must be >= 1, got {n}")
        state = np.asarray(state, dtype=float)
        batched = state.ndim == 2
        cols = state if batched else state[:, None]
        k = cols.shape[1]
        fields = _fields(cols, self.nx, self.ny)
        _check(fields, self._stability_error, batched)
        plan = _plan(self, k)
        # the fastest flow over the deepest layer at the finer grid spacing
        # bounds the CFL number of either direction from above (each float
        # operation rounds monotonically); a NaN or inf velocity fails it too
        spacing = min(self.dx, self.dy)
        for i in range(n):
            h_min, h_max = _range(plan.advect(fields))
            if not (h_min > 0.0 and h_max < np.inf):
                _check(plan.h_new[None], _depth_error, batched)
            plan.source_split()
            flow_min, flow_max = _range(plan.rot_core)
            c = math.sqrt(self.gravity * h_max)
            if not (max(flow_max, -flow_min) + c) * self.dt / spacing < 1.0:
                out = self._emit(plan)
                _check(out, _finite_error, batched)
                if i + 1 < n:
                    _check(_fields(out, self.nx, self.ny), self._stability_error, batched)
            fields = (*plan.rot_core, plan.h_new)
        out = self._emit(plan)
        return out if batched else out[:, 0]

    def cycle_map(self, state):
        """Deterministic map over one observation cycle: one call of step."""
        return self.step(state, self.steps_per_observation)

    def _emit(self, plan: "_StepPlan") -> np.ndarray:
        """The state a plan's last step produced, as a fresh (M, k) array."""
        out = np.empty((self.dimension, plan.k))
        fields = _fields(out, self.nx, self.ny)
        fields[:2] = plan.rot_core
        fields[2] = plan.h_new
        return out

    def _stability_error(self, fields) -> str | None:
        """Why the (u, v, h) fields cannot be stepped, or None."""
        u, v, h = fields
        h_max = np.maximum.reduce(h, None)
        message = _depth_error(h, h_max)
        if message is not None:
            return message
        u_min, u_max = _range(u)
        v_min, v_max = _range(v)
        if not all(-np.inf < a < np.inf for a in (u_min, u_max, v_min, v_max)):
            return "shallow-water velocities are non-finite"
        c = np.sqrt(self.gravity * h_max)
        cfl = max(
            (max(u_max, -u_min) + c) * self.dt / self.dx,
            (max(v_max, -v_min) + c) * self.dt / self.dy,
        )
        if cfl >= 1.0:
            return f"runtime CFL violation: (|u| + sqrt(g h)) dt/dx = {cfl:.3f} >= 1"
        return None

    # -- initial condition ---------------------------------------------------

    def default_jet_state(
        self,
        jet_speed: float = 5.0,
        jet_width: float = 80_000.0,
        perturb_amplitude: float = 0.5,
    ) -> np.ndarray:
        """Geostrophically balanced zonal jet plus a small height perturbation.

        u(y) = U0 sech^2((y - y_c)/L), h(y) = depth - (f U0 L / g) tanh((y - y_c)/L);
        the perturbation seeds the barotropic instability with wavenumbers 1..3.
        """
        y = (np.arange(self.ny) + 0.5) * self.dy
        x = (np.arange(self.nx) + 0.5) * self.dx
        yc = 0.5 * self.ny * self.dy
        s = (y - yc) / jet_width

        u_prof = jet_speed / np.cosh(s) ** 2
        h_prof = self.depth - (self.coriolis * jet_speed * jet_width / self.gravity) * np.tanh(s)

        u = np.tile(u_prof[:, None], (1, self.nx))
        v = np.zeros((self.ny, self.nx))
        h = np.tile(h_prof[:, None], (1, self.nx))

        lx = self.nx * self.dx
        envelope = np.exp(-s**2)[:, None]
        phases = (0.0, 1.3, 2.1)
        for k, phase in enumerate(phases, start=1):
            h = h + perturb_amplitude * envelope * np.sin(2.0 * np.pi * k * x[None, :] / lx + phase)
        return self.pack(u, v, h)


def _fields(cols: np.ndarray, nx: int, ny: int) -> np.ndarray:
    """(M, k) column states viewed as (u, v, h) fields of shape (3, k, ny, nx)."""
    return cols.T.reshape(cols.shape[1], 3, ny, nx).transpose(1, 0, 2, 3)


_PLANS: dict = {}


def _plan(spec: SWESpec, k: int) -> "_StepPlan":
    """The step plan of k columns of spec, built once per process."""
    plan = _PLANS.get((spec, k))
    if plan is None:
        plan = _PLANS[spec, k] = _StepPlan(spec, k)
    return plan


class _StepPlan:
    """Buffers and views for one step of k columns on one grid.

    The fields of all columns are stacked as (field, column, ny+2, nx+2)
    ghost-padded grids and flattened, so the x neighbour of flat cell p is p+1
    and its y neighbour p+w. Each stage runs over the whole flat buffer with
    `out=` into the plan; the interior cells of every grid lie in [lo, end).
    Cells in between (ghost columns, the seams between grids) get finite
    values that are never read back. Every buffer starts zeroed.

    Each expression runs as one ufunc call per operation, in place where it
    can, with its float operations in the order of the plain expression, so
    every value is bit for bit what the allocating form gives.
    """

    def __init__(self, spec: SWESpec, k: int):
        nx, ny = spec.nx, spec.ny
        self.k = k
        w = nx + 2
        n = (ny + 2) * w
        size = k * n  # cells per field
        lo = w + 1
        end = 3 * size - n + (ny + 1) * w - 1
        stop = end - size  # two fields, not three
        # half-step faces in the last row of a field's last grid pair cells of
        # two fields, so their depth may have any sign; the second fluxes,
        # which divide by it, leave that row out as zeros
        m = size - w

        self.g_half = 0.5 * spec.gravity
        lx = spec.dt / spec.dx
        ly = spec.dt / spec.dy
        self.lx, self.ly = lx, ly
        self.lx_half, self.ly_half = 0.5 * lx, 0.5 * ly
        ang = spec.coriolis * spec.dt
        self.cs, self.sn = np.cos(ang), np.sin(ang)
        self.decay = np.exp(-spec.friction * spec.dt)
        self.dt_nu = spec.dt * spec.viscosity
        self.dx2, self.dy2 = spec.dx**2, spec.dy**2

        # conservative variables (h, hu, hv), their pressure g h^2/2 and the
        # velocity ratio of a flux
        cons = np.zeros((3, k, ny + 2, w))
        self.core = cons[:, :, 1:-1, 1:-1]
        self.cons_ghosts = _Ghosts(cons, n_even=2)
        self.c = c = cons.reshape(3, size)
        cf = cons.ravel()
        self.pressure = np.zeros(size)
        self.vel = np.zeros(size)

        # stage-1 fluxes, then the half-step states on the x face between p
        # and p+1 and the y face between p and p+w, then the stage-2 fluxes of
        # those states in the stage-1 buffers (zero past m)
        self.fx = fx = np.zeros((3, size))
        self.fy = fy = np.zeros((3, size))
        mx = np.zeros((3, size))
        my = np.zeros((3, size))
        diff = np.zeros(3 * size)
        fxf, fyf, mxf, myf = fx.ravel(), fy.ravel(), mx.ravel(), my.ravel()
        self.half_x = (cf[1:], cf[:-1], fxf[1:], fxf[:-1], mxf[:-1], diff[:-1])
        self.half_y = (cf[w:], cf[:-w], fyf[w:], fyf[:-w], myf[:-w], diff[:-w])
        self.m = m
        self.face_x = mx[:, :m]
        self.face_y = my[:, :m]

        # conservative update: cell p has x faces p-1, p and y faces p-w, p
        new = np.zeros((3, k, ny + 2, w))
        self.update = (cf[lo:end], new.ravel()[lo:end], diff[:end - lo],
                       fxf[lo:end], fxf[lo - 1:end - 1],
                       fyf[lo:end], fyf[lo - w:end - w])
        self.h_new = new[0, :, 1:-1, 1:-1]
        self.pq_new = new[1:, :, 1:-1, 1:-1]

        # source split: velocities, their rotation, and the Laplacian of the
        # rotated velocities for the viscosity
        self.uv = np.zeros((2, k, ny, nx))
        self.turn = np.zeros((2, k, ny, nx))
        rot = np.zeros((2, k, ny + 2, w))
        self.rot_core = rot[:, :, 1:-1, 1:-1]
        self.rot_ghosts = _Ghosts(rot, n_even=1)
        r = rot.ravel()
        self.centre = r[lo:stop]
        self.twice, self.lap_x, self.lap_y = np.zeros((3, stop - lo))
        self.neighbours = (r[lo + 1:stop + 1], r[lo - 1:stop - 1],
                           r[lo + w:stop + w], r[lo - w:stop - w])

    def advect(self, fields) -> np.ndarray:
        """Two-step Lax-Wendroff update of (u, v, h) fields, which may be
        views of the plan's own rot_core and h_new; the new depth."""
        u, v, h = fields
        core = self.core
        core[0] = h
        np.multiply(h, u, out=core[1])
        np.multiply(h, v, out=core[2])
        self.cons_ghosts.fill()
        c, pressure, vel = self.c, self.pressure, self.vel
        np.multiply(c[0], self.g_half, out=pressure)
        pressure *= c[0]
        _flux(c, 1, pressure, vel, self.fx)
        _flux(c, 2, pressure, vel, self.fy)

        for (c_next, c_here, f_next, f_here, half, d), l_half in (
                (self.half_x, self.lx_half), (self.half_y, self.ly_half)):
            np.add(c_next, c_here, out=half)
            half *= 0.5
            np.subtract(f_next, f_here, out=d)
            d *= l_half
            half -= d

        m = self.m
        pressure, vel = pressure[:m], vel[:m]
        for face, f, axis in ((self.face_x, self.fx, 1), (self.face_y, self.fy, 2)):
            np.multiply(face[0], self.g_half, out=pressure)
            pressure *= face[0]
            _flux(face, axis, pressure, vel, f[:, :m])
            f[:, m:] = 0.0

        c_in, new, d, fx_out, fx_in, fy_out, fy_in = self.update
        np.subtract(fx_out, fx_in, out=d)
        d *= self.lx
        np.subtract(c_in, d, out=new)
        np.subtract(fy_out, fy_in, out=d)
        d *= self.ly
        new -= d
        return self.h_new

    def source_split(self) -> None:
        """Coriolis rotation and friction decay (exact), explicit viscosity.

        Runs after `advect`; the new velocities are left in rot_core and the
        new depth in h_new.
        """
        uv, turn, rot = self.uv, self.turn, self.rot_core
        np.divide(self.pq_new, self.h_new, out=uv)
        np.multiply(uv, self.cs, out=rot)
        np.multiply(uv[1], self.sn, out=turn[0])
        np.multiply(uv[0], -self.sn, out=turn[1])
        rot += turn
        self.rot_ghosts.fill()

        centre, twice, lap_x, lap_y = self.centre, self.twice, self.lap_x, self.lap_y
        east, west, north, south = self.neighbours
        np.multiply(centre, 2.0, out=twice)
        np.subtract(east, twice, out=lap_x)
        lap_x += west
        lap_x /= self.dx2
        np.subtract(north, twice, out=lap_y)
        lap_y += south
        lap_y /= self.dy2
        lap_x += lap_y
        lap_x *= self.dt_nu
        centre *= self.decay
        centre += lap_x


class _Ghosts:
    """The ghost layer of stacked padded fields (f, k, ny+2, nx+2) as a gather.

    Periodic in x. At the y walls the first n_even fields are mirrored unchanged
    (h, u and x-momentum) and the rest with a sign flip (v and y-momentum),
    which zeroes the wall-normal flow at the wall faces. Each ghost copies one
    interior cell times +1 or -1, which equals the value or its negation.
    """

    def __init__(self, buf: np.ndarray, n_even: int):
        # x ghosts first, then whole wall rows: a corner takes the source of
        # the x ghost beside it, so every source is an interior cell
        src = np.arange(buf.size).reshape(buf.shape)
        src[:, :, 1:-1, 0] = src[:, :, 1:-1, -2]
        src[:, :, 1:-1, -1] = src[:, :, 1:-1, 1]
        src[:, :, 0] = src[:, :, 1]
        src[:, :, -1] = src[:, :, -2]
        sign = np.ones(buf.shape)
        sign[n_even:, :, 0] = sign[n_even:, :, -1] = -1.0
        ghost = np.ones(buf.shape, dtype=bool)
        ghost[:, :, 1:-1, 1:-1] = False
        self.flat = buf.ravel()
        self.dst = np.flatnonzero(ghost)
        self.src = src[ghost]
        self.sign = sign[ghost]
        self.values = np.zeros(self.dst.size)

    def fill(self) -> None:
        values = self.values
        # the indices are all in range; mode="raise" would buffer the output
        np.take(self.flat, self.src, out=values, mode="clip")
        values *= self.sign
        self.flat[self.dst] = values


def _flux(s: np.ndarray, axis: int, pressure: np.ndarray, vel: np.ndarray,
          f: np.ndarray) -> None:
    """Flux of stacked (h, hu, hv) of shape (3, m) along x (axis=1) or y (axis=2).

    x: (hu, hu^2 + g h^2/2, huv); y: (hv, huv, hv^2 + g h^2/2), with the
    pressure term g h^2/2 passed in, into f of shape (3, m); vel is scratch.
    """
    np.divide(s[axis], s[0], out=vel)
    np.multiply(s[1:], vel, out=f[1:])
    f[0] = s[axis]
    f[axis] += pressure


def _check(a: np.ndarray, error, batched: bool) -> None:
    """Raise BlowupError if error(a) gives a message; a holds columns on axis 1.

    A check of all columns at once passes whenever every column passes. Only
    a failure is traced to the first failing column, which the message of a
    batched step names, so a column is blamed for its own values alone.
    """
    if error(a) is None:
        return
    for j in range(a.shape[1]):
        message = error(a[:, j])
        if message is not None:
            raise BlowupError(f"{message} (column {j})" if batched else message)


def _range(a: np.ndarray) -> tuple:
    """The minimum and the maximum of a, NaN if a holds one; the ufuncs' own
    reductions, as a.min() and a.max() without the Python wrapper."""
    return np.minimum.reduce(a, None), np.maximum.reduce(a, None)


def _depth_error(h: np.ndarray, h_max: float | None = None) -> str | None:
    """Why the depths h cannot be stepped, or None; h_max is their maximum."""
    if h_max is None:
        h_max = np.maximum.reduce(h, None)
    if np.minimum.reduce(h, None) > 0.0 and h_max < np.inf:
        return None
    return "shallow-water layer depth became non-positive or non-finite"


def _finite_error(a: np.ndarray) -> str | None:
    if np.isfinite(a).all():
        return None
    return "shallow-water step produced non-finite values"
