"""Dense linear-algebra primitives, Gaussian noise specs, and the deterministic RNG.

Matrices are plain numpy float64 arrays. Every factorization either returns valid
output or raises a typed error; NaN contamination is never passed through silently.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericsError, RankDeficiencyError


# ---------------------------------------------------------------------------
# Deterministic RNG
# ---------------------------------------------------------------------------

class RngStream:
    """Named substream of a counter-based generator.

    A stream is identified by (seed, key) where key is a tuple of small
    nonnegative integers. Identical identification yields an identical sample
    sequence across runs and platforms (numpy Philox behind SeedSequence).
    ``child(i, j, ...)`` derives an independent substream; ``generator()``
    returns a fresh Generator positioned at the start of the stream, so two
    calls on the same stream replay the same values.
    """

    __slots__ = ("seed", "key")

    def __init__(self, seed: int, key: tuple = ()):
        if seed < 0:
            raise ValueError("seed must be nonnegative")
        self.seed = int(seed)
        self.key = tuple(int(k) for k in key)
        if any(k < 0 or k >= 2**32 for k in self.key):
            raise ValueError("stream key entries must fit in uint32")

    def child(self, *ids: int) -> "RngStream":
        return RngStream(self.seed, self.key + ids)

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.key)
        return np.random.Generator(np.random.Philox(ss))

    def __repr__(self):
        return f"RngStream(seed={self.seed}, key={self.key})"

    def __eq__(self, other):
        return (
            isinstance(other, RngStream)
            and self.seed == other.seed
            and self.key == other.key
        )

    def __hash__(self):
        return hash((self.seed, self.key))


def _as_generator(rng) -> np.random.Generator:
    """Accept an RngStream or a live Generator; internal callers pass the
    latter when several draws must continue one sequence."""
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError(f"expected RngStream or numpy Generator, got {type(rng)!r}")


# Purpose identifiers for the standard substream hierarchy used by the
# experiment driver: trial stream = RngStream(base_seed).child(trial_index),
# then one of these, then any per-time index. A filter step addresses its
# particles by counter lanes of its stream's generator (see projda.filters).
TRUTH_IC = 0
TRUTH_NOISE = 1
OBS_NOISE = 2
TRAINING = 3
FILTER_INIT = 4
FILTER_STEP = 5


# ---------------------------------------------------------------------------
# Factorizations
# ---------------------------------------------------------------------------

@contextmanager
def _converging(routine: str, a: np.ndarray):
    """Raise a LAPACK failure of the block as a NumericsError naming the
    routine and the shape of its matrix a."""
    try:
        yield
    except np.linalg.LinAlgError as exc:
        raise NumericsError(
            f"{routine} of a {a.shape[0]}x{a.shape[1]} matrix failed: {exc}") from exc


def _numerical_rank(s: np.ndarray, shape: tuple) -> int:
    """Number of the descending singular values s of a matrix of the given
    shape above max(shape) * eps * s[0]."""
    tol = max(shape) * np.finfo(float).eps * (s[0] if s.size else 0.0)
    return int(np.sum(s > tol))


def _check_finite(a, name: str) -> np.ndarray:
    """a as a float array; non-finite entries raise a NumericsError naming it."""
    a = np.asarray(a, dtype=float)
    if not np.isfinite(a).all():
        raise NumericsError(f"{name} contains non-finite entries")
    return a


def _inverse_cholesky(a: np.ndarray, failure: str) -> tuple[np.ndarray, np.ndarray]:
    """Lower Cholesky factor L of the SPD matrix a and its inverse L^{-1}, so
    that every later solve with a is a matrix product. A non-finite or non-SPD
    a raises NumericsError(failure)."""
    _check_finite(a, f"{failure}: the matrix")
    try:
        chol = np.linalg.cholesky(a)
        inv_chol = np.linalg.inv(chol)
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"{failure}: {exc}") from exc
    return chol, _check_finite(inv_chol, f"{failure}: the inverse factor")


def qr_positive(a):
    """Reduced Householder QR (LAPACK, through np.linalg.qr) with a
    positive-diagonal convention.

    Returns (Q, T) with Q column-orthonormal, T upper triangular, diag(T) > 0,
    and Q @ T = A. Raises RankDeficiencyError naming the first column whose
    |T_ii| is at most 1e-12 * ||A||.
    """
    a = _check_finite(a, "qr input")
    if a.ndim != 2:
        raise NumericsError(f"qr input must be 2-dimensional, got shape {a.shape}")
    m, n = a.shape
    if n > m:
        raise RankDeficiencyError(f"qr_positive needs columns <= rows, got {m}x{n}")
    q, t = np.linalg.qr(a)
    pivots = np.abs(np.diag(t))
    tol = 1e-12 * max(np.linalg.norm(a), 1e-300)
    dependent = np.flatnonzero(pivots <= tol)
    if dependent.size:
        i = dependent[0]
        raise RankDeficiencyError(
            f"qr_positive: column {i} is numerically dependent "
            f"(pivot {pivots[i]:.3e} <= {tol:.3e})"
        )
    signs = np.sign(np.diag(t))
    return q * signs, t * signs[:, None]


# ---------------------------------------------------------------------------
# Gaussian noise specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class NoiseSpec:
    """Covariance of an additive Gaussian term, scalar-identity or dense SPD.

    The scalar form stores one nonnegative real (variance per component); a
    scale of exactly zero means a degenerate (deterministic) term. The dense
    form caches its lower Cholesky factor L and its inverse on first use:
    color multiplies by L, solve and quad by L^{-1}.
    """

    dim: int
    scale: float = 1.0
    matrix: np.ndarray | None = None
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @staticmethod
    def scaled_identity(dim: int, scale: float) -> "NoiseSpec":
        if scale < 0:
            raise ValueError("noise scale must be nonnegative")
        return NoiseSpec(dim=int(dim), scale=float(scale))

    @staticmethod
    def dense(matrix) -> "NoiseSpec":
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("dense noise covariance must be square")
        if not np.all(np.isfinite(m)):
            raise ValueError("dense noise covariance has non-finite entries")
        # np.allclose(m, m.T, rtol=1e-10, atol=1e-12) without its NaN and inf
        # handling, which finite entries do not need, at about a quarter of its cost
        tol = np.abs(m.T) * 1e-10
        tol += 1e-12
        if not (np.abs(m - m.T) <= tol).all():
            raise ValueError("dense noise covariance must be symmetric")
        return NoiseSpec(dim=m.shape[0], scale=float("nan"), matrix=m)

    @property
    def is_scalar(self) -> bool:
        return self.matrix is None

    @property
    def is_zero(self) -> bool:
        return self.matrix is None and self.scale == 0.0

    def cov_matrix(self) -> np.ndarray:
        if self.matrix is not None:
            return self.matrix
        return self.scale * np.eye(self.dim)

    def _factors(self) -> tuple[np.ndarray, np.ndarray]:
        """(L, L^{-1}) of the dense form, L L^T = cov (cached)."""
        if "chol" not in self._cache:
            self._cache["chol"] = _inverse_cholesky(self.matrix, "noise covariance is not SPD")
        return self._cache["chol"]

    def color(self, xi: np.ndarray) -> np.ndarray:
        """Transform standard-normal draws (last axis = dim) into draws of this
        covariance: C xi with C C^T = cov."""
        xi = np.asarray(xi, dtype=float)
        if self.is_zero:
            return np.zeros_like(xi)
        if self.is_scalar:
            return np.sqrt(self.scale) * xi
        return xi @ self._factors()[0].T

    def sample(self, rng, size: int | None = None) -> np.ndarray:
        """Draw one sample (size=None) or a (size, dim) block of samples."""
        gen = _as_generator(rng)
        shape = (self.dim,) if size is None else (size, self.dim)
        if self.is_zero:
            return np.zeros(shape)
        return self.color(gen.standard_normal(shape))

    def solve(self, v: np.ndarray) -> np.ndarray:
        """cov^{-1} v along the last axis."""
        if self.is_zero:
            raise NumericsError("zero covariance is not invertible")
        if self.is_scalar:
            return v / self.scale
        inv_chol = self._factors()[1]
        return (_check_finite(v, "noise solve input") @ inv_chol.T) @ inv_chol

    def quad(self, v: np.ndarray) -> np.ndarray:
        """v^T cov^{-1} v along the last axis.

        For an exactly zero covariance this is the degenerate-Gaussian limit:
        0 for a zero residual, +inf otherwise.
        """
        v = np.asarray(v, dtype=float)
        if self.is_zero:
            sq = np.sum(v * v, axis=-1)
            return np.where(sq == 0.0, 0.0, np.inf)
        if self.is_scalar:
            return np.sum(v * v, axis=-1) / self.scale
        w = _check_finite(v, "noise quadratic form input") @ self._factors()[1].T
        return np.sum(w * w, axis=-1)
