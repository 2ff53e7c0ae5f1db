"""Row-subsampling observation operator y = H x + v."""

from __future__ import annotations

import numpy as np

from ..numerics import NoiseSpec, _as_generator


class ObservationOperator:
    """Selection of distinct state indices; H is a row-subsampled identity.

    For such H the Moore-Penrose pseudoinverse is exactly H^T, which the
    reduced-model assembly exploits. Every k-th component of an M-vector is
    ObservationOperator(np.arange(start, stop, k), M).
    """

    def __init__(self, indices, state_dim: int):
        idx = np.asarray(indices, dtype=int)
        if idx.ndim != 1 or idx.size == 0:
            raise ValueError("observation indices must be a nonempty 1-d sequence")
        # sorted neighbours, not np.unique, which loads numpy.ma on first use
        ordered = np.sort(idx)
        if np.any(ordered[1:] == ordered[:-1]):
            raise ValueError("observation indices must be distinct")
        if idx.min() < 0 or idx.max() >= state_dim:
            raise ValueError(
                f"observation indices must lie in [0, {state_dim}), "
                f"got range [{idx.min()}, {idx.max()}]"
            )
        self.indices = idx
        self.state_dim = int(state_dim)

    @property
    def data_dim(self) -> int:
        return self.indices.size

    def apply(self, x: np.ndarray) -> np.ndarray:
        """H x along the last axis; works on states and row-stacked ensembles."""
        return np.asarray(x)[..., self.indices]


def observe(x: np.ndarray, h: ObservationOperator, r: NoiseSpec, rng) -> np.ndarray:
    """y = H x + v with v ~ N(0, R)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (h.state_dim,):
        raise ValueError(f"state has shape {x.shape}, operator expects ({h.state_dim},)")
    if r.dim != h.data_dim:
        raise ValueError(f"noise dim {r.dim} does not match data dim {h.data_dim}")
    y = h.apply(x)
    if r.is_zero:
        return y
    return y + r.sample(_as_generator(rng))
