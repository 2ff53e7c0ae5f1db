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


# SeedSequence's hash constants (numpy.random.bit_generator)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hashmix(value, const: int, mult: int = _MULT_A) -> tuple:
    """SeedSequence's hashmix of value (a Python int below 2**32 or a uint32
    array) under the running constant const: (hash, next constant)."""
    const_next = const * mult & _MASK32
    value = (value ^ const) * const_next & _MASK32
    return value ^ value >> 16, const_next


def _mix(x, y):
    """SeedSequence's mix of a pool word x with a hash y."""
    result = (_MIX_L * x & _MASK32) - _MIX_R * y & _MASK32
    return result ^ result >> 16


def _philox_keys(seed: int, prefix: tuple, ts: np.ndarray) -> np.ndarray:
    """The Philox keys of RngStream(seed, prefix + (t,)).generator() for each t
    of the uint32 array ts, as a (len(ts), 2) uint64 array: a copy of
    SeedSequence's pool mixing and of its generate_state(2, np.uint64). The
    words before t mix once, as Python ints; t, always the last word, mixes
    into the four pool words as a vector."""
    words = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    # a spawn key follows the seed's words padded to the pool size
    words += [0] * (4 - len(words)) + list(prefix) + [ts]
    pool, const = [], _INIT_A
    for word in words[:4]:
        value, const = _hashmix(word, const)
        pool.append(value)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                value, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], value)
    for word in words[4:]:
        for dst in range(4):
            value, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], value)
    state, const = [], _INIT_B
    for word in pool:
        value, const = _hashmix(word, const, _MULT_B)
        state.append(value.astype(np.uint64))
    return np.stack([state[0] | state[1] << 32, state[2] | state[3] << 32], axis=1)


class _KeyedStream(RngStream):
    """RngStream(seed, key) drawing through a Generator it is handed, which it
    re-keys with the stream's Philox key, derived ahead by _philox_keys, in
    place of building its own. lane(l) is that Generator at the start of
    counter lane l of the stream: Philox counter [0, 0, l, 0], an empty
    buffer; lane 0 draws as the stream's own generator() does, and so does
    generator() here. The Generator serves one stream at a time: each call
    repositions it."""

    __slots__ = ("_gen", "_state")

    def __init__(self, seed: int, key: tuple, philox_key: np.ndarray, gen: np.random.Generator):
        # seed and key are those of a checked stream; no check again
        self.seed, self.key, self._gen = seed, key, gen
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": np.zeros(4, dtype=np.uint64), "key": philox_key},
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def lane(self, l: int) -> np.random.Generator:
        self._state["state"]["counter"][2] = l
        self._gen.bit_generator.state = self._state
        return self._gen

    def generator(self) -> np.random.Generator:
        return self.lane(0)


# keys _TimedStreams derives at a time: about 4 KiB of them
_KEY_BLOCK = 256


class _TimedStreams:
    """The streams parent.child(t) for t = 1 .. last, as _KeyedStreams drawing
    through gen. Their keys are derived _KEY_BLOCK at a time as t reaches
    them, so memory does not grow with last."""

    def __init__(self, parent: RngStream, last: int, gen: np.random.Generator):
        parent.child(last)  # a ValueError where last does not fit a stream key
        self.parent, self.last, self.gen = parent, last, gen
        self.first, self.keys = 1, np.empty((0, 2), dtype=np.uint64)

    def __getitem__(self, t: int) -> _KeyedStream:
        seed, prefix = self.parent.seed, self.parent.key
        if not 0 <= t - self.first < len(self.keys):
            ts = np.arange(t, min(t + _KEY_BLOCK, self.last + 1), dtype=np.uint32)
            self.first, self.keys = t, _philox_keys(seed, prefix, ts)
        return _KeyedStream(seed, prefix + (t,), self.keys[t - self.first], self.gen)


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
# A trial derives the keys of its per-time streams in bulk (_TimedStreams)
# and draws through one re-keyed Generator, exactly as each stream's own.
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
