"""Exact dynamic mode decomposition with time-integrated mode energies."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from ..errors import ReductionError
from ..numerics import _converging, _numerical_rank
from .basis import ReductionBasis

logger = logging.getLogger("projda.reduction.dmd")

# relative threshold below which an eigenvalue is treated as exactly zero
# (mode reconstruction divides by lambda)
_ZERO_EIG_RTOL = 1e-14
# relative threshold on |Im lambda| below which a mode counts as real
_REAL_EIG_RTOL = 1e-10


@dataclass(frozen=True, eq=False)
class DmdResult:
    """Modes, spectrum and amplitudes of an exact-DMD fit.

    Entries are sorted by descending time-integrated energy; complex conjugate
    pairs stay adjacent. n_dropped counts modes discarded because their
    eigenvalue was numerically zero.
    """

    modes: np.ndarray        # (M, n) complex, unit-norm columns
    eigenvalues: np.ndarray  # (n,) complex, discrete-time
    frequencies: np.ndarray  # (n,) complex, log(lambda)/dt
    coefficients: np.ndarray  # (n,) complex amplitudes from the 5-point fit
    energies: np.ndarray     # (n,) real, descending
    timestep: float
    n_dropped: int = 0

    @property
    def n_modes(self) -> int:
        return self.eigenvalues.size


def dmd(snapshots: np.ndarray, rank: int | None = None, dt: float = 1.0) -> DmdResult:
    """Exact DMD of an M x (T+1) snapshot matrix with snapshot spacing dt.

    Pipeline: split the snapshots into X1 (drop last column) and X2 (drop
    first); thin SVD of X1 truncated to `rank`; compressed operator
    A_R = Phi^T X2 Psi Sigma^{-1}; eigendecomposition; mode reconstruction
    v_m = X2 Psi Sigma^{-1} v_hat_m / lambda_m normalized to unit norm;
    continuous frequencies log(lambda)/dt; amplitudes by least squares of the
    modal ansatz at 5 equally spaced snapshots; energies from the closed-form
    time integral of each mode's envelope. Results sorted by descending energy.
    """
    x = np.asarray(snapshots, dtype=float)
    if x.ndim != 2 or x.shape[1] < 3:
        raise ReductionError("DMD needs an M x (T+1) snapshot matrix with T >= 2")
    if not np.all(np.isfinite(x)):
        raise ReductionError("snapshot matrix has non-finite entries")
    if dt <= 0:
        raise ReductionError("snapshot spacing dt must be positive")
    m, n_snap = x.shape
    n_pairs = n_snap - 1

    x1 = x[:, :-1]
    x2 = x[:, 1:]

    with _converging("np.linalg.svd", x1):
        phi, sigma, psi_t = np.linalg.svd(x1, full_matrices=False)
    numerical_rank = _numerical_rank(sigma, x1.shape)
    if rank is None:
        rank = min(n_pairs, int(np.floor(0.9 * m)), numerical_rank)
        rank = max(rank, 1)
    if rank > numerical_rank:
        raise ReductionError(
            f"requested DMD rank {rank} exceeds the numerical rank {numerical_rank} "
            f"of the left snapshot matrix"
        )
    phi_r = phi[:, :rank]
    sigma_r = sigma[:rank]
    psi_r = psi_t[:rank, :].T

    # compressed operator and its spectrum
    core = x2 @ (psi_r / sigma_r)        # X2 Psi Sigma^{-1}, (M, rank)
    a_r = phi_r.T @ core
    with _converging("np.linalg.eig", a_r):
        eigvals, eigvecs = np.linalg.eig(a_r)
    # eig returns float64 when the spectrum is entirely real; the log below
    # must take the complex branch for negative eigenvalues
    eigvals = eigvals.astype(complex)

    # drop numerically zero eigenvalues; reconstruction divides by lambda
    scale = np.max(np.abs(eigvals)) if eigvals.size else 0.0
    keep = np.abs(eigvals) > _ZERO_EIG_RTOL * max(scale, 1e-300)
    n_dropped = int(np.sum(~keep))
    if n_dropped:
        logger.warning("DMD dropped %d mode(s) with numerically zero eigenvalue", n_dropped)
    eigvals = eigvals[keep]
    eigvecs = eigvecs[:, keep]
    if eigvals.size == 0:
        raise ReductionError("all DMD eigenvalues are numerically zero")

    modes = (core @ eigvecs) / eigvals
    modes = modes / np.linalg.norm(modes, axis=0)

    freqs = np.log(eigvals) / dt

    # amplitudes: least squares of x_t ~ sum_m v_m lambda_m^t b_m at 5 equally
    # spaced snapshot indices
    n_fit = min(5, n_snap)
    # ascending, so repeats are neighbours (np.unique would load numpy.ma)
    fit_idx = np.round(np.linspace(0, n_snap - 1, n_fit)).astype(int)
    fit_idx = fit_idx[np.r_[True, fit_idx[1:] != fit_idx[:-1]]]
    blocks = [modes * (eigvals[None, :] ** t) for t in fit_idx]
    lhs = np.vstack(blocks)
    rhs = x[:, fit_idx].T.reshape(-1)
    with _converging("np.linalg.lstsq", lhs):
        coeffs, *_ = np.linalg.lstsq(lhs, rhs.astype(complex), rcond=None)

    duration = dt * (n_snap - 1)
    energies = _mode_energies(coeffs, freqs, duration)

    order = np.argsort(-energies, kind="stable")
    return DmdResult(
        modes=modes[:, order],
        eigenvalues=eigvals[order],
        frequencies=freqs[order],
        coefficients=coeffs[order],
        energies=energies[order],
        timestep=float(dt),
        n_dropped=n_dropped,
    )


def _mode_energies(coeffs: np.ndarray, freqs: np.ndarray, duration: float) -> np.ndarray:
    """Root-mean envelope of b e^{omega t} over [0, duration].

    energy^2 = |b|^2 (e^{2 Re(omega) T} - 1) / (2 Re(omega) T); the neutral
    branch (|Re omega| T below 1e-12) reduces to |b|.
    """
    b_abs = np.abs(coeffs)
    growth = 2.0 * freqs.real * duration
    neutral = np.abs(freqs.real) * duration < 1e-12
    with np.errstate(over="ignore", invalid="ignore"):
        factor = np.where(neutral, 1.0, (np.expm1(growth)) / np.where(neutral, 1.0, growth))
    return b_abs * np.sqrt(factor)


def dmd_basis(result: DmdResult, r: int) -> ReductionBasis:
    """Orthonormal basis spanning the r most energetic real mode directions.

    A real mode contributes its (real) vector; a complex conjugate pair
    contributes the real and imaginary parts of one member and is never split.
    When the requested r would split a pair it is rounded up by one with a
    notice. The stacked directions are orthonormalized by SVD.
    """
    if r < 1:
        raise ReductionError("rank must be >= 1")
    directions = []
    i = 0
    n = result.n_modes
    while len(directions) < r:
        if i >= n:
            raise ReductionError(
                f"not enough DMD modes ({n}) to assemble {r} real directions"
            )
        lam = result.eigenvalues[i]
        vec = result.modes[:, i]
        if abs(lam.imag) <= _REAL_EIG_RTOL * max(abs(lam), 1e-300):
            directions.append(vec.real)
            i += 1
        else:
            if i + 1 >= n or not np.isclose(
                result.eigenvalues[i + 1], np.conj(lam), rtol=1e-8, atol=1e-12
            ):
                raise ReductionError(
                    f"DMD mode {i} has no adjacent conjugate partner; "
                    f"result ordering is corrupted"
                )
            if len(directions) + 2 > r:
                logger.info(
                    "dmd_basis: rank %d would split a conjugate pair; using %d", r, r + 1
                )
                r += 1
            directions.append(vec.real)
            directions.append(vec.imag)
            i += 2

    stack = np.column_stack(directions)
    with _converging("np.linalg.svd", stack):
        u, s, _ = np.linalg.svd(stack, full_matrices=False)
    rank_s = _numerical_rank(s, stack.shape)
    if rank_s < stack.shape[1]:
        raise ReductionError(
            f"selected DMD directions are linearly dependent "
            f"(rank {rank_s} < {stack.shape[1]})"
        )
    return ReductionBasis(u[:, :stack.shape[1]], kind="dmd", validate=False)
