"""Orthonormal reduction bases and their file format.

Basis files hold the M x r column-major little-endian float64 entries with a
JSON sidecar {kind, M, r, source_snapshot_file, parameters}.
"""

from __future__ import annotations

import numpy as np

from ..errors import ReductionError
from ..models.simulate import read_raw_file, write_raw_file


class ReductionBasis:
    """Matrix U with orthonormal columns mapping reduced coordinates to states.

    reduce(x) = U^T x, reconstruct(z) = U z. kind names the method that built
    U (pod, dmd, aus); identity_basis gives the identity without a matrix.
    """

    is_identity = False

    def __init__(self, columns: np.ndarray, kind: str, validate: bool = True):
        # canonical layout: BLAS kernels round differently per memory order, so
        # a basis loaded from file must not differ from one built in memory
        u = np.ascontiguousarray(columns, dtype=float)
        if u.ndim != 2:
            raise ReductionError("basis columns must form a 2-d matrix")
        m, r = u.shape
        if r > m:
            raise ReductionError(f"basis rank {r} exceeds state dimension {m}")
        if validate:
            gram_err = np.max(np.abs(u.T @ u - np.eye(r)))
            if gram_err > 1e-10:
                raise ReductionError(
                    f"basis columns are not orthonormal (max |U^T U - I| = {gram_err:.3e})"
                )
        self.columns = u
        self.kind = kind

    @property
    def state_dim(self) -> int:
        return self.columns.shape[0]

    @property
    def rank(self) -> int:
        return self.columns.shape[1]

    def reduce(self, x: np.ndarray) -> np.ndarray:
        """U^T x along the last axis."""
        return np.asarray(x, dtype=float) @ self.columns

    def reconstruct(self, z: np.ndarray) -> np.ndarray:
        """U z along the last axis."""
        return np.asarray(z, dtype=float) @ self.columns.T

    def leading(self, r: int) -> "ReductionBasis":
        """Basis of the first r columns."""
        if r > self.rank:
            raise ReductionError(f"requested {r} columns, basis has {self.rank}")
        if r == self.rank:
            return self
        return ReductionBasis(self.columns[:, :r], kind=self.kind, validate=False)


class _IdentityBasis(ReductionBasis):
    """U = I held as its dimension alone, so the unprojected filters share the
    projected code path at no cost: both maps copy their input, and the matrix
    is built only when columns is read."""

    is_identity = True

    def __init__(self, dim: int):
        self.kind = "identity"
        self._dim = int(dim)

    @property
    def columns(self) -> np.ndarray:
        return np.eye(self._dim)

    @property
    def state_dim(self) -> int:
        return self._dim

    @property
    def rank(self) -> int:
        return self._dim

    def reduce(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float).copy()

    def reconstruct(self, z: np.ndarray) -> np.ndarray:
        return np.asarray(z, dtype=float).copy()


def identity_basis(dim: int) -> ReductionBasis:
    return _IdentityBasis(dim)


def save_basis(path: str, basis: ReductionBasis, source_snapshot_file: str = "",
               parameters: dict | None = None):
    # the columns in Fortran order are the rows of their transpose
    write_raw_file(path, basis.columns.T, {
        "kind": basis.kind,
        "M": basis.state_dim,
        "r": basis.rank,
        "source_snapshot_file": source_snapshot_file,
        "parameters": parameters or {},
    })


def load_basis(path: str) -> ReductionBasis:
    raw, sidecar = read_raw_file(path, "basis", ("M", "r"))
    m, r, kind = sidecar["M"], sidecar["r"], sidecar.get("kind")
    # an identity basis maps states through unchanged whatever its columns,
    # so a file never stands for one
    if kind not in ("pod", "dmd", "aus"):
        raise ReductionError(
            f"basis sidecar {path}.json needs 'kind' pod, dmd or aus, found {kind!r}"
        )
    if raw.size != m * r:
        raise ReductionError(f"basis file {path} holds {raw.size} values, expected {m * r}")
    cols = raw.reshape((m, r), order="F")
    try:
        return ReductionBasis(cols, kind=kind)
    except ReductionError as exc:
        raise ReductionError(f"basis file {path}: {exc}") from None
