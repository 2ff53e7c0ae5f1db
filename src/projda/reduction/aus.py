"""Unstable-subspace tracking: discrete QR recursion, Lyapunov spectra,
Kaplan-Yorke dimension.

One tangent recursion serves both uses, the discrete QR scheme of Benettin
et al. (1980) that AUS reuses (Trevisan & Uboldi 2004): a block of directions
is carried through a map by finite differences about a base point and
re-orthonormalized by positive-diagonal QR. aus_step is that step, through a
model's cycle_map (one observation cycle) unless the caller hands it the
mapped block; lyapunov_spectrum repeats aus_step over maps of qr_interval
model steps, one model.step call each, carries column 0 of each mapped block
on as its base point, and sums the log diagonal of T. tangent_block gives the
block a step maps, so that a caller can map it together with other states.
"""

from __future__ import annotations

import numpy as np

from ..errors import RankDeficiencyError, ReductionError
from ..numerics import qr_positive
from .basis import ReductionBasis


def _offset(x, eps: float) -> float:
    """e = eps * max(||x||, 1), the finite-difference offset at the point x."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    return eps * max(np.linalg.norm(x), 1.0)


def tangent_block(x, columns, eps: float) -> np.ndarray:
    """The block [x, x + e U] the tangent recursion maps at the point x, for
    the columns U and the offset e of eps at x."""
    return np.concatenate([x[:, None], x[:, None] + _offset(x, eps) * columns], axis=1)


def aus_step(model, x, basis: ReductionBasis, eps: float = 1e-6, mapped=None):
    """One step of the tangent recursion at the trajectory point x: the next
    basis Q and the triangular T of (Q, T) = qr_positive(Z), where
    Z = [f(x + e U) - f(x)] / e column-wise approximates the Jacobian action
    on the columns U. mapped, when given, is f of tangent_block(x,
    basis.columns, eps), already taken; otherwise f is model.cycle_map.
    Raises ReductionError on basis collapse (rank-deficient Z)."""
    x = np.asarray(x, dtype=float)
    if mapped is None:
        mapped = model.cycle_map(tangent_block(x, basis.columns, eps))
    z = (mapped[:, 1:] - mapped[:, :1]) / _offset(x, eps)
    try:
        q, t = qr_positive(z)
    except RankDeficiencyError as exc:
        raise ReductionError(f"tangent basis collapsed: {exc}") from exc
    return ReductionBasis(q, kind="aus", validate=False), t


def lyapunov_spectrum(model, x0, n_steps: int, p: int, eps: float = 1e-6,
                      qr_interval: int = 10) -> np.ndarray:
    """Leading p Lyapunov exponents of the model's internal step map.

    aus_step repeated from the first p coordinate axes, over maps of
    qr_interval model steps taken by one model.step call (the last one
    shorter when n_steps is not a multiple), with column 0 of each mapped
    block the next base point; the exponents are the accumulated log
    diagonal of T divided by the elapsed time n_steps * model.dt. Returned
    sorted descending.
    """
    x = np.asarray(x0, dtype=float)
    m = x.size
    if p > m:
        raise ValueError(f"cannot compute {p} exponents in dimension {m}")
    if n_steps < 1 or qr_interval < 1:
        raise ValueError("n_steps and qr_interval must be >= 1")

    basis = ReductionBasis(np.eye(m, p), kind="aus", validate=False)
    log_sums = np.zeros(p)
    for start in range(0, n_steps, qr_interval):
        stop = min(start + qr_interval, n_steps)
        block = model.step(tangent_block(x, basis.columns, eps), stop - start)
        try:
            basis, t = aus_step(model, x, basis, eps, mapped=block)
        except ReductionError as exc:
            raise ReductionError(f"at step {stop - 1}, {exc}") from exc
        x = block[:, 0]
        log_sums += np.log(np.diag(t))

    exponents = log_sums / (n_steps * model.dt)
    return np.sort(exponents)[::-1]


def kaplan_yorke(exponents) -> float:
    """Kaplan-Yorke dimension of a descending Lyapunov spectrum.

    D = k + (l_1 + ... + l_k)/|l_{k+1}| with k the largest index whose partial
    sum is positive. Returns 0.0 when the leading exponent is nonpositive
    (non-expanding spectrum); raises when every partial sum is positive, since
    the crossing index then lies beyond the computed spectrum.
    """
    lam = np.asarray(exponents, dtype=float)
    if lam.ndim != 1 or lam.size == 0:
        raise ValueError("exponents must be a nonempty 1-d sequence")
    if np.any(np.diff(lam) > 1e-12):
        raise ValueError("exponents must be sorted descending")
    if lam[0] <= 0.0:
        return 0.0
    sums = np.cumsum(lam)
    positive = np.flatnonzero(sums > 0.0)
    k0 = positive[-1]
    if k0 == lam.size - 1:
        raise ReductionError(
            "all partial sums are positive; the spectrum is too short to "
            "bracket the Kaplan-Yorke crossing"
        )
    return float(k0 + 1 + sums[k0] / abs(lam[k0 + 1]))
