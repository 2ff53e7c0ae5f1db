"""Reduced physical model and reduced data model bound into one object.

The reduced state update is f^q(z) = U_out^T f(U_in z) with model-noise
covariance Q^q = U_out^T Q U_out. The data model comes in two kinds:

* model-based: V spans a subspace of the state space (M x r_d);
  reduced data y_hat = V^T H^+ y, operator H^q = V^T H^+ H U, noise
  R^q = V^T H^+ R (H^+)^T V.
* data-based: V spans a subspace of the data space (d x r_d);
  y_hat = V^T y, H^q = V^T H U, R^q = V^T R V.

Identity bases make every map collapse to the unprojected filter exactly, so
the unprojected and projected algorithms share one code path. That path holds
no M x M matrix: the identity basis is its dimension alone, its observed rows
HU are the d x M row selection H, and with U_out = I and scalar Q and R the
proposal precision is diagonal, so OptimalProposal keeps the diagonal as its
factor (see there).
"""

from __future__ import annotations

import numpy as np

from ..errors import NumericsError, ReductionError
from ..models.observation import ObservationOperator
from ..numerics import NoiseSpec, _check_finite, _inverse_cholesky
from .basis import ReductionBasis


def conjugate_noise(noise: NoiseSpec, basis: ReductionBasis) -> NoiseSpec:
    """B^T cov B for column-orthonormal B; scalar covariance stays scalar exactly."""
    if basis.is_identity:
        return noise
    if noise.is_scalar:
        return NoiseSpec.scaled_identity(basis.rank, noise.scale)
    return NoiseSpec.dense(basis.columns.T @ noise.matrix @ basis.columns)


def forecast_columns(basis_in: ReductionBasis, z_rows: np.ndarray) -> np.ndarray:
    """The states U_in z of row-stacked reduced states as columns: the block
    the forecast f^q maps."""
    return basis_in.reconstruct(z_rows).T


def _observed_rows(basis: ReductionBasis, h: ObservationOperator) -> np.ndarray:
    """H B, the observed rows of a basis; for the identity, the selection H."""
    if not basis.is_identity:
        return basis.columns[h.indices, :]
    rows = np.zeros((h.data_dim, basis.rank))
    rows[np.arange(h.data_dim), h.indices] = 1.0
    return rows


class ReducedModel:
    """All precomputed operators one assimilation cycle needs."""

    def __init__(self, model, h: ObservationOperator, q: NoiseSpec, r: NoiseSpec,
                 basis_in: ReductionBasis, basis_out: ReductionBasis,
                 data_basis: ReductionBasis, data_kind: str):
        if data_kind not in ("model", "data"):
            raise ValueError("data_kind must be 'model' or 'data'")
        m = h.state_dim
        if basis_in.state_dim != m or basis_out.state_dim != m:
            raise ReductionError("state basis dimension does not match the model")
        if basis_in.rank != basis_out.rank:
            raise ReductionError("incoming and outgoing state bases must share a rank")
        expected_v_dim = m if data_kind == "model" else h.data_dim
        if data_basis.state_dim != expected_v_dim:
            raise ReductionError(
                f"{data_kind}-based data basis must have {expected_v_dim} rows, "
                f"got {data_basis.state_dim}"
            )

        self.model = model
        self.h = h
        self.q = q
        self.r = r
        self.basis_in = basis_in
        self.basis_out = basis_out
        self.data_basis = data_basis
        self.data_kind = data_kind

        # H U_out: a row subsample of the outgoing basis, exact (no matmul)
        self.hu = _observed_rows(basis_out, h)

        # reduced data operator H^q (r_d x r_p)
        if data_kind == "data":
            self.h_q = data_basis.reduce(self.hu.T).T
            self._hv = None
        else:
            # H V: row subsample of V, used for y_hat = (HV)^T y, H^q and R^q;
            # V^T H^+ H U = (HV)^T (HU) because H^+ = H^T
            self._hv = _observed_rows(data_basis, h)
            self.h_q = self._hv.T @ self.hu

        self.q_q = conjugate_noise(q, basis_out)

        # reduced data noise R^q
        if data_kind == "data":
            self.r_q = conjugate_noise(r, data_basis)
        else:
            rv = r.cov_matrix() @ self._hv
            self.r_q = NoiseSpec.dense(self._hv.T @ rv)
        try:
            if not self.r_q.is_scalar:
                self.r_q._factors()
        except NumericsError as exc:
            raise ReductionError(
                f"reduced data noise R^q is numerically singular; the "
                f"{data_kind}-based data reduction is the cause: {exc}"
            ) from exc

        # smoothing directions for the projected resampling noise, in state space
        if data_kind == "model":
            self._jitter_cols = data_basis.columns
        else:
            w = np.zeros((m, data_basis.rank))
            w[h.indices, :] = data_basis.columns
            self._jitter_cols = w

        self._proposal = None
        self._zq_inv_chol = None

    # -- dimensions ---------------------------------------------------------

    @property
    def state_dim(self) -> int:
        return self.basis_in.state_dim

    @property
    def reduced_dim(self) -> int:
        return self.basis_in.rank

    # -- maps ----------------------------------------------------------------

    def forecast(self, z_rows: np.ndarray) -> np.ndarray:
        """f^q on row-stacked reduced states: U_out^T f(U_in z)."""
        mapped = self.model.cycle_map(forecast_columns(self.basis_in, z_rows))
        return self.forecast_rows(mapped)

    def forecast_rows(self, mapped: np.ndarray) -> np.ndarray:
        """U_out^T of the mapped forecast columns f(U_in z), as rows: the end
        of forecast, for columns mapped elsewhere."""
        return self.basis_out.reduce(mapped.T)

    def reduce_data(self, y: np.ndarray) -> np.ndarray:
        """y_hat = V^T H^+ y (model-based) or V^T y (data-based)."""
        y = np.asarray(y, dtype=float)
        if self.data_kind == "data":
            return self.data_basis.reduce(y)
        return self._hv.T @ y

    def jitter_noise(self, gen: np.random.Generator, count: int, omega: float,
                     alpha: float) -> np.ndarray:
        """Projected resampling noise rows: U_out^T [a W W^T + (1-a) I] xi with
        xi ~ N(0, omega I_M); W is V lifted to the state space for data-based
        reductions."""
        xi = np.sqrt(omega) * gen.standard_normal((count, self.state_dim))
        w = self._jitter_cols
        smoothed = alpha * ((xi @ w) @ w.T) + (1.0 - alpha) * xi
        return self.basis_out.reduce(smoothed)

    # -- cached factorizations ------------------------------------------------

    def optimal_proposal(self) -> "OptimalProposal":
        if self._proposal is None:
            self._proposal = OptimalProposal(self)
        return self._proposal

    def weight_quad(self, nu_rows: np.ndarray) -> np.ndarray:
        """nu^T (Z^q)^{-1} nu rowwise; Z^q (zq_matrix) = L L^T is factored once
        and the rows are multiplied by L^{-T}."""
        if self._zq_inv_chol is None:
            self._zq_inv_chol = _inverse_cholesky(
                self.zq_matrix(), "weight matrix Z^q is singular")[1]
        w = _check_finite(nu_rows, "weight quadratic form input") @ self._zq_inv_chol.T
        return np.sum(w * w, axis=-1)

    def zq_matrix(self) -> np.ndarray:
        """Z^q = H^q Q^q H^q^T + R^q, the covariance of the weighting innovation."""
        if self.q_q.is_scalar:
            # the values and memory order (q I) @ H^q^T has, without q I
            qh = self.q_q.scale * np.ascontiguousarray(self.h_q.T)
        else:
            qh = self.q_q.matrix @ self.h_q.T
        return self.h_q @ qh + self.r_q.cov_matrix()


class OptimalProposal:
    """Gaussian proposal of the optimal-proposal update in reduced coordinates.

    Precision A = (Q^q)^{-1} + (HU)^T R^{-1} (HU) is factored once, A = L L^T,
    and only L^{-1} is kept, so every cycle's algebra is matrix products:
    a draw is delta = L^{-T} xi (rows: xi L^{-1}) and the mean shift is
    A^{-1} (HU)^T R^{-1} (y - HU f^q(z)) = L^{-T} L^{-1} rhs.

    When U_out is the identity and Q and R are scalar, A is the diagonal
    a = 1/q + [i observed]/r and L = diag(sqrt(a)), so only the vector
    1/sqrt(a) is kept: the mean shift is (rhs * (1/sqrt(a))) * (1/sqrt(a)) and a
    draw is xi * (1/sqrt(a)). The dense route's L^{-1} of that diagonal L is the
    same correctly rounded 1/sqrt(a), and its products add only exact zeros, so
    both routes give the same bits for any particle count.
    """

    def __init__(self, reduced: ReducedModel):
        hu = reduced.hu
        q_q, r = reduced.q_q, reduced.r
        if q_q.is_zero:
            raise NumericsError("optimal proposal requires a nonzero model noise Q")
        if r.is_zero:
            raise NumericsError("optimal proposal requires a nonzero observation noise R")
        self._rinv_hu = r.solve(hu.T).T
        self._inv_chol = self._inv_sqrt_a = None
        if reduced.basis_out.is_identity and q_q.is_scalar and r.is_scalar:
            # the diagonal of I/q + H^T H/r, summed as the dense route sums it
            a = np.full(reduced.reduced_dim, 1.0 / q_q.scale)
            a[reduced.h.indices] += 1.0 / r.scale
            self._inv_sqrt_a = 1.0 / np.sqrt(a)
            return
        a = q_q.solve(np.eye(reduced.reduced_dim)) + hu.T @ self._rinv_hu
        self._inv_chol = _inverse_cholesky(a, "proposal precision Q_p^{-1} is singular")[1]

    def mean_shift(self, resid_rows: np.ndarray) -> np.ndarray:
        """Q_p (HU)^T R^{-1} resid, rowwise over (count, d) residuals."""
        rhs = resid_rows @ self._rinv_hu
        if self._inv_chol is None:
            return (rhs * self._inv_sqrt_a) * self._inv_sqrt_a
        rhs = _check_finite(rhs, "proposal mean shift right-hand side")
        return (rhs @ self._inv_chol.T) @ self._inv_chol

    def sample_delta(self, xi_rows: np.ndarray) -> np.ndarray:
        """Draws of N(0, Q_p) from standard-normal rows: L^{-T} xi."""
        if self._inv_chol is None:
            return xi_rows * self._inv_sqrt_a
        return _check_finite(xi_rows, "proposal draw input") @ self._inv_chol


def build_reduced_model(model, h: ObservationOperator, q: NoiseSpec, r: NoiseSpec,
                        u: ReductionBasis, v: ReductionBasis | None = None,
                        kind: str = "model", u_out: ReductionBasis | None = None) -> ReducedModel:
    """Assemble the reduced physical and data models.

    u is the state basis (M x r_p); v the data basis, M x r_d for kind='model'
    or d x r_d for kind='data', defaulting to u itself; u_out supports
    time-dependent bases (defaults to u).
    """
    if v is None:
        if kind == "data":
            raise ReductionError("data-based reduction requires an explicit data basis")
        v = u
    return ReducedModel(model, h, q, r, basis_in=u, basis_out=u_out or u,
                        data_basis=v, data_kind=kind)


def identity_reduced_model(model, h: ObservationOperator, q: NoiseSpec,
                           r: NoiseSpec) -> ReducedModel:
    """The trivial reduction: U = I_M, V = I_d, data-based. Unprojected filters
    run through this object so that they share the projected code path."""
    from .basis import identity_basis

    return build_reduced_model(
        model, h, q, r,
        u=identity_basis(h.state_dim),
        v=identity_basis(h.data_dim),
        kind="data",
    )
