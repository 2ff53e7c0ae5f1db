"""Proper orthogonal decomposition basis from a snapshot matrix."""

from __future__ import annotations

import numpy as np

from ..errors import ReductionError
from ..numerics import _converging, _numerical_rank
from .basis import ReductionBasis


def pod_basis(snapshots: np.ndarray, r: int) -> ReductionBasis:
    """First r left singular vectors of the M x T snapshot matrix.

    Columns are ordered by descending singular value, so the truncation is the
    rank-r projection with minimal Frobenius error among all rank-r bases.
    """
    x = np.asarray(snapshots, dtype=float)
    if x.ndim != 2:
        raise ReductionError("snapshot matrix must be 2-d (states as columns)")
    if not np.all(np.isfinite(x)):
        raise ReductionError("snapshot matrix has non-finite entries")
    if r < 1:
        raise ReductionError("rank must be >= 1")
    with _converging("np.linalg.svd", x):
        u, s, _ = np.linalg.svd(x, full_matrices=False)
    numerical_rank = _numerical_rank(s, x.shape)
    if r > numerical_rank:
        raise ReductionError(
            f"requested rank {r} exceeds the numerical rank {numerical_rank} "
            f"of the snapshot matrix"
        )
    return ReductionBasis(u[:, :r], kind="pod", validate=False)
