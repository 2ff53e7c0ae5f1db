"""Proper orthogonal decomposition basis from a snapshot matrix."""

from __future__ import annotations

import numpy as np

from ..errors import ReductionError
from ..numerics import _converging, _numerical_rank
from .basis import ReductionBasis


def pod_basis(snapshots: np.ndarray, r: int | None = None) -> ReductionBasis:
    """First r left singular vectors of the M x T snapshot matrix.

    Columns are ordered by descending singular value, so the truncation is the
    rank-r projection with minimal Frobenius error among all rank-r bases.
    Without r, every vector up to the numerical rank; pod_leading(that, r) is
    then bit for bit pod_basis(snapshots, r).
    """
    x = np.asarray(snapshots, dtype=float)
    if x.ndim != 2:
        raise ReductionError("snapshot matrix must be 2-d (states as columns)")
    if not np.all(np.isfinite(x)):
        raise ReductionError("snapshot matrix has non-finite entries")
    if r is not None and r < 1:
        raise ReductionError("rank must be >= 1")
    with _converging("np.linalg.svd", x):
        u, s, _ = np.linalg.svd(x, full_matrices=False)
    modes = ReductionBasis(u[:, :_numerical_rank(s, x.shape)], kind="pod", validate=False)
    return modes if r is None else pod_leading(modes, r)


def pod_leading(modes: ReductionBasis, r: int) -> ReductionBasis:
    """The first r columns of modes, the POD basis of a snapshot matrix up to
    its numerical rank."""
    if r > modes.rank:
        raise ReductionError(
            f"requested rank {r} exceeds the numerical rank {modes.rank} "
            f"of the snapshot matrix"
        )
    return modes.leading(r)
