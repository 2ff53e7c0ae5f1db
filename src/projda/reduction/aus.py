"""Unstable-subspace tracking: discrete QR recursion, Lyapunov spectra,
Kaplan-Yorke dimension.

One tangent recursion serves both uses, the discrete QR scheme of Benettin
et al. (1980) that AUS reuses (Trevisan & Uboldi 2004): a block of directions
is carried through a map by finite differences about a base point and
re-orthonormalized by positive-diagonal QR. aus_step takes one such step
through a model's cycle_map (one observation cycle); lyapunov_spectrum folds
the same step over maps of qr_interval calls to the model's step and sums the
log diagonal of T.
"""

from __future__ import annotations

import numpy as np

from ..errors import RankDeficiencyError, ReductionError
from ..numerics import qr_positive
from .basis import ReductionBasis


def _tangent_qr(fmap, x, columns, eps: float):
    """One step of the tangent recursion at the point x through fmap.

    The Jacobian action on the columns U is approximated by finite
    differences, Z = [f(x + e U) - f(x)] / e column-wise with
    e = eps * max(||x||, 1), and (Q, T) = qr_positive(Z). Returns
    (f(x), (Q, T)); a rank-deficient Z raises ReductionError.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    e = eps * max(np.linalg.norm(x), 1.0)
    fblock = fmap(np.concatenate([x[:, None], x[:, None] + e * columns], axis=1))
    z = (fblock[:, 1:] - fblock[:, :1]) / e
    try:
        return fblock[:, 0], qr_positive(z)
    except RankDeficiencyError as exc:
        raise ReductionError(f"tangent basis collapsed: {exc}") from exc


def aus_step(model, x, basis: ReductionBasis, eps: float = 1e-6):
    """One step of the tangent recursion through model.cycle_map at the
    trajectory point x: returns the next basis Q and the triangular factor T.
    Raises ReductionError on basis collapse (rank-deficient Z)."""
    _, (q, t) = _tangent_qr(model.cycle_map, np.asarray(x, dtype=float),
                            basis.columns, eps)
    return ReductionBasis(q, kind="aus", validate=False), t


def _steps(model, k: int):
    """The map of k calls to model.step."""
    def fmap(block):
        for _ in range(k):
            block = model.step(block)
        return block
    return fmap


def lyapunov_spectrum(model, x0, n_steps: int, p: int, eps: float = 1e-6,
                      qr_interval: int = 10) -> np.ndarray:
    """Leading p Lyapunov exponents of the model's internal step map.

    The tangent recursion of aus_step, started from the first p coordinate
    axes, over maps of qr_interval model steps (the last one shorter when
    n_steps is not a multiple); the exponents are the accumulated log
    diagonal of T divided by the elapsed time n_steps * model.dt. Returned
    sorted descending.
    """
    x = np.asarray(x0, dtype=float)
    m = x.size
    if p > m:
        raise ValueError(f"cannot compute {p} exponents in dimension {m}")
    if n_steps < 1 or qr_interval < 1:
        raise ValueError("n_steps and qr_interval must be >= 1")

    q = np.eye(m, p)
    log_sums = np.zeros(p)
    for start in range(0, n_steps, qr_interval):
        stop = min(start + qr_interval, n_steps)
        try:
            x, (q, t) = _tangent_qr(_steps(model, stop - start), x, q, eps)
        except ReductionError as exc:
            raise ReductionError(f"at step {stop - 1}, {exc}") from exc
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
