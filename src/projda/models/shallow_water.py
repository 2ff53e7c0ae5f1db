"""Rotating shallow-water channel model, two-step Lax-Wendroff finite differences.

Geometry: periodic in x, rigid free-slip walls in y. The hyperbolic core advances
the conservative variables (h, hu, hv) with the Richtmyer two-step scheme, which
conserves total mass exactly (wall ghost cells mirror h and u evenly and v oddly,
so the wall mass flux is identically zero). Coriolis, horizontal viscosity, and
linear bottom friction are applied as a first-order source split on velocities.

The flat state vector is [u; v; h] with each field flattened in row-major
(y, x) order, so the state dimension is M = 3 * nx * ny.
"""

from __future__ import annotations

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

    def split(self, state: np.ndarray):
        """Flat (M,) state -> (u, v, h) fields of shape (ny, nx)."""
        n = self.nx * self.ny
        u = state[:n].reshape(self.ny, self.nx)
        v = state[n:2 * n].reshape(self.ny, self.nx)
        h = state[2 * n:].reshape(self.ny, self.nx)
        return u, v, h

    def pack(self, u, v, h) -> np.ndarray:
        return np.concatenate([u.ravel(), v.ravel(), h.ravel()])

    # -- stepping ----------------------------------------------------------

    def step(self, state: np.ndarray) -> np.ndarray:
        """One internal step; accepts (M,) or a batch of column states (M, k).

        A single state is stepped as a batch of one. A batch comes back as a
        C-ordered (M, k) array whatever the memory order of the input.
        """
        state = np.asarray(state, dtype=float)
        batched = state.ndim == 2
        cols = state if batched else state[:, None]
        k = cols.shape[1]
        nx, ny = self.nx, self.ny
        g = self.gravity
        lx = self.dt / self.dx
        ly = self.dt / self.dy

        # The fields of all columns are stacked as (field, column, ny+2, nx+2)
        # ghost-padded grids and flattened, so the x neighbour of flat cell p
        # is p+1 and its y neighbour p+w. Each stage runs over the whole flat
        # buffer; the interior cells of every grid lie in [lo, end). Cells in
        # between (ghost columns, the seams between grids) get finite values
        # that are never read back.
        w = nx + 2
        n = (ny + 2) * w
        size = k * n  # cells per field
        lo = w + 1
        end = 3 * size - n + (ny + 1) * w - 1

        fields = cols.T.reshape(k, 3, ny, nx).transpose(1, 0, 2, 3)
        _check(fields, self._stability_error, batched)
        u, v, h = fields

        # conservative variables (h, hu, hv) and their fluxes
        cons = np.empty((3, k, ny + 2, w))
        core = cons[:, :, 1:-1, 1:-1]
        core[0] = h
        np.multiply(h, u, out=core[1])
        np.multiply(h, v, out=core[2])
        _fill_ghosts(cons, n_even=2)
        c = cons.reshape(3, size)
        pressure = (0.5 * g) * c[0] * c[0]
        fx = _flux(c, 1, pressure, size).ravel()
        fy = _flux(c, 2, pressure, size).ravel()
        c = c.ravel()

        # half-step states on the x face between p and p+1 and the y face
        # between p and p+w. Faces in the last row of a field's last grid
        # pair cells of two fields, so their depth may have any sign; the
        # second fluxes, which divide by it, leave that row out as zeros.
        mx = np.empty((3, size))
        my = np.empty((3, size))
        np.subtract(0.5 * (c[1:] + c[:-1]), (0.5 * lx) * (fx[1:] - fx[:-1]),
                    out=mx.ravel()[:-1])
        np.subtract(0.5 * (c[w:] + c[:-w]), (0.5 * ly) * (fy[w:] - fy[:-w]),
                    out=my.ravel()[:-w])
        mx, my = mx[:, :size - w], my[:, :size - w]
        fx = _flux(mx, 1, (0.5 * g) * mx[0] * mx[0], size).ravel()
        fy = _flux(my, 2, (0.5 * g) * my[0] * my[0], size).ravel()

        # conservative update: cell p has x faces p-1, p and y faces p-w, p
        new = np.empty((3, k, ny + 2, w))
        np.subtract(
            c[lo:end] - lx * (fx[lo:end] - fx[lo - 1:end - 1]),
            ly * (fy[lo:end] - fy[lo - w:end - w]),
            out=new.ravel()[lo:end],
        )
        h_new, p_new, q_new = new[:, :, 1:-1, 1:-1]
        _check(h_new[None], _depth_error, batched)
        u_new = p_new / h_new
        v_new = q_new / h_new

        # source split: exact Coriolis rotation and friction decay, explicit viscosity
        ang = self.coriolis * self.dt
        cs, sn = np.cos(ang), np.sin(ang)
        rot = np.empty((2, k, ny + 2, w))
        np.add(cs * u_new, sn * v_new, out=rot[0, :, 1:-1, 1:-1])
        np.add(-sn * u_new, cs * v_new, out=rot[1, :, 1:-1, 1:-1])
        _fill_ghosts(rot, n_even=1)
        r = rot.ravel()
        stop = end - size  # two fields here, not three
        centre = r[lo:stop]
        twice = 2.0 * centre
        lap = (((r[lo + 1:stop + 1] - twice) + r[lo - 1:stop - 1]) / self.dx**2
               + ((r[lo + w:stop + w] - twice) + r[lo - w:stop - w]) / self.dy**2)
        decay = np.exp(-self.friction * self.dt)
        np.add(decay * centre, (self.dt * self.viscosity) * lap, out=centre)

        out = np.empty((self.dimension, k))
        fields = out.T.reshape(k, 3, ny, nx).transpose(1, 0, 2, 3)
        fields[:2] = rot[:, :, 1:-1, 1:-1]
        fields[2] = h_new
        _check(out, _finite_error, batched)
        return out if batched else out[:, 0]

    def cycle_map(self, state):
        x = np.asarray(state, dtype=float)
        for _ in range(self.steps_per_observation):
            x = self.step(x)
        return x

    def _stability_error(self, fields) -> str | None:
        """Why the (u, v, h) fields cannot be stepped, or None."""
        u, v, h = fields
        message = _depth_error(h)
        if message is not None:
            return message
        c = np.sqrt(self.gravity * h.max())
        cfl = max(
            (np.abs(u).max() + c) * self.dt / self.dx,
            (np.abs(v).max() + c) * self.dt / self.dy,
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


def _fill_ghosts(buf: np.ndarray, n_even: int) -> None:
    """Fill the ghost layer of stacked padded fields (f, k, ny+2, nx+2) in place.

    Periodic in x. At the y walls the first n_even fields are mirrored unchanged
    (h, u and x-momentum) and the rest with a sign flip (v and y-momentum),
    which zeroes the wall-normal flow at the wall faces.
    """
    buf[:, :, 1:-1, 0] = buf[:, :, 1:-1, -2]
    buf[:, :, 1:-1, -1] = buf[:, :, 1:-1, 1]
    buf[:n_even, :, 0] = buf[:n_even, :, 1]
    buf[:n_even, :, -1] = buf[:n_even, :, -2]
    np.negative(buf[n_even:, :, 1], out=buf[n_even:, :, 0])
    np.negative(buf[n_even:, :, -2], out=buf[n_even:, :, -1])


def _flux(s: np.ndarray, axis: int, pressure: np.ndarray, size: int) -> np.ndarray:
    """Flux of stacked (h, hu, hv) of shape (3, m) along x (axis=1) or y (axis=2).

    x: (hu, hu^2 + g h^2/2, huv); y: (hv, huv, hv^2 + g h^2/2), with the
    pressure term g h^2/2 passed in. Comes back as (3, size), zero past m.
    """
    m = s.shape[1]
    vel = s[axis] / s[0]
    f = np.empty((3, size))
    np.multiply(s, vel, out=f[:, :m])
    f[:, m:] = 0.0
    f[0, :m] = s[axis]
    f[axis, :m] += pressure
    return f


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


def _depth_error(h: np.ndarray) -> str | None:
    if h.min() > 0.0 and h.max() < np.inf:
        return None
    return "shallow-water layer depth became non-positive or non-finite"


def _finite_error(a: np.ndarray) -> str | None:
    if np.isfinite(a).all():
        return None
    return "shallow-water step produced non-finite values"
