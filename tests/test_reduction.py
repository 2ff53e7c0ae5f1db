"""Reduction layer: bases, POD, DMD, tangent-space tracking, reduced models.

Hand oracles:
- POD truncation error: ||X - U_r U_r^T X||_F^2 equals the sum of the
  discarded squared singular values.
- Kaplan-Yorke of (1, -2) is 1.5; of (-1, -2) is 0.
- Scalar optimal proposal with H = I, Q = q I, R = r I has covariance
  (1/q + 1/r)^{-1} I and weight covariance (q + r) I.
"""

import numpy as np
import pytest

from projda.errors import NumericsError, RankDeficiencyError, ReductionError
from projda.models import L96Spec, ObservationOperator, SWESpec
from projda.numerics import NoiseSpec, RngStream, qr_positive
from projda.reduction import (
    OptimalProposal,
    ReductionBasis,
    aus_step,
    build_reduced_model,
    dmd,
    dmd_basis,
    identity_basis,
    identity_reduced_model,
    kaplan_yorke,
    lyapunov_spectrum,
    pod_basis,
)
from projda.reduction.reduced_model import conjugate_noise


class TestReductionBasis:
    def test_reduce_reconstruct_orientation(self):
        u = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        b = ReductionBasis(u, kind="pod")
        np.testing.assert_array_equal(b.reduce(np.array([3.0, 4.0, 5.0])), [3.0, 4.0])
        np.testing.assert_array_equal(b.reconstruct(np.array([3.0, 4.0])), [3.0, 4.0, 0.0])
        rows = np.arange(6.0).reshape(2, 3)
        assert b.reduce(rows).shape == (2, 2)

    def test_projection_is_idempotent(self):
        rng = np.random.default_rng(2)
        q, _ = np.linalg.qr(rng.standard_normal((7, 3)))
        b = ReductionBasis(q, kind="pod")
        x = rng.standard_normal(7)
        once = b.reconstruct(b.reduce(x))
        np.testing.assert_allclose(b.reconstruct(b.reduce(once)), once, atol=1e-13)

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ReductionError):
            ReductionBasis(np.ones((4, 2)), kind="pod")

    def test_identity_fast_path_copies(self):
        b = identity_basis(4)
        x = np.arange(4.0)
        z = b.reduce(x)
        np.testing.assert_array_equal(z, x)
        z[0] = 99.0
        assert x[0] == 0.0  # no aliasing

    def test_leading(self):
        u = np.eye(5)[:, :4]
        b = ReductionBasis(u, kind="pod")
        assert b.leading(2).rank == 2
        assert b.leading(4) is b
        with pytest.raises(ReductionError):
            b.leading(5)


class TestPod:
    def test_truncation_error_equals_discarded_spectrum(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((20, 12))
        s = np.linalg.svd(x, compute_uv=False)
        for r in (1, 3, 7):
            b = pod_basis(x, r)
            err = np.linalg.norm(x - b.columns @ (b.columns.T @ x)) ** 2
            np.testing.assert_allclose(err, np.sum(s[r:] ** 2), rtol=1e-10)

    def test_first_mode_of_rank_one_matrix(self):
        v = np.array([3.0, 0.0, 4.0]) / 5.0
        x = np.outer(v, [1.0, 2.0, 3.0])
        b = pod_basis(x, 1)
        np.testing.assert_allclose(np.abs(b.columns[:, 0]), np.abs(v), atol=1e-12)

    def test_rank_overflow_raises(self):
        v = np.array([3.0, 0.0, 4.0]) / 5.0
        with pytest.raises(ReductionError):
            pod_basis(np.outer(v, [1.0, 2.0, 3.0]), 2)

    def test_input_validation(self):
        with pytest.raises(ReductionError):
            pod_basis(np.ones(5), 1)
        with pytest.raises(ReductionError):
            pod_basis(np.full((3, 3), np.nan), 1)


class TestDmd:
    def _linear_snapshots(self, a, x0, n):
        cols = [x0]
        for _ in range(n - 1):
            cols.append(a @ cols[-1])
        return np.column_stack(cols)

    def test_recovers_linear_spectrum(self):
        # diagonalizable stable matrix, generic start: eigenvalues are exact
        rng = np.random.default_rng(1)
        lams = np.array([0.95, 0.8, -0.6, 0.3])
        v = rng.standard_normal((4, 4))
        a = v @ np.diag(lams) @ np.linalg.inv(v)
        snaps = self._linear_snapshots(a, rng.standard_normal(4), 12)
        res = dmd(snaps, rank=4)
        np.testing.assert_allclose(sorted(res.eigenvalues.real), sorted(lams), atol=1e-8)
        np.testing.assert_allclose(res.eigenvalues.imag, 0.0, atol=1e-8)

    def test_modes_are_eigenvectors(self):
        rng = np.random.default_rng(3)
        lams = np.array([0.9, 0.5, 0.2])
        v = rng.standard_normal((3, 3))
        a = v @ np.diag(lams) @ np.linalg.inv(v)
        snaps = self._linear_snapshots(a, rng.standard_normal(3), 10)
        res = dmd(snaps, rank=3)
        for j in range(res.n_modes):
            m = res.modes[:, j].real
            np.testing.assert_allclose(a @ m, res.eigenvalues[j].real * m, atol=1e-8)

    def test_conjugate_pair_stays_adjacent(self):
        # rotation-scaling block has eigenvalues rho e^{+-i theta}
        rho, theta = 0.9, 0.7
        a = rho * np.array([[np.cos(theta), -np.sin(theta)],
                            [np.sin(theta), np.cos(theta)]])
        snaps = self._linear_snapshots(a, np.array([1.0, 0.2]), 14)
        res = dmd(snaps, rank=2)
        assert res.n_modes == 2
        np.testing.assert_allclose(res.eigenvalues[0], np.conj(res.eigenvalues[1]), atol=1e-10)
        np.testing.assert_allclose(np.abs(res.eigenvalues), rho, atol=1e-9)

    def test_frequencies_are_log_eigenvalues(self):
        a = np.diag([0.9, 0.4])
        snaps = self._linear_snapshots(a, np.array([1.0, 1.0]), 8)
        res = dmd(snaps, rank=2, dt=0.5)
        np.testing.assert_allclose(
            sorted(res.frequencies.real), sorted(np.log([0.4, 0.9]) / 0.5), atol=1e-9
        )

    def test_basis_never_splits_conjugate_pair(self):
        rho, theta = 0.95, 0.5
        rot = rho * np.array([[np.cos(theta), -np.sin(theta)],
                              [np.sin(theta), np.cos(theta)]])
        a = np.zeros((3, 3))
        a[:2, :2] = rot
        a[2, 2] = 0.2
        snaps = self._linear_snapshots(a, np.array([1.0, 0.3, 1.0]), 14)
        res = dmd(snaps, rank=3)
        # most energetic structure is the oscillating pair; rank 1 rounds to 2
        b = dmd_basis(res, 1)
        assert b.rank in (1, 2)
        np.testing.assert_allclose(b.columns.T @ b.columns, np.eye(b.rank), atol=1e-10)

    def test_basis_spans_dominant_real_mode(self):
        a = np.diag([0.95, 0.3, 0.1])
        snaps = self._linear_snapshots(a, np.array([1.0, 1.0, 1.0]), 10)
        b = dmd_basis(dmd(snaps, rank=3), 1)
        np.testing.assert_allclose(np.abs(b.columns[:, 0]), [1.0, 0.0, 0.0], atol=1e-7)

    def test_requested_rank_overflow(self):
        snaps = self._linear_snapshots(np.diag([0.5, 0.4]), np.array([1.0, 1.0]), 8)
        with pytest.raises(ReductionError):
            dmd(snaps, rank=5)


class _DiagonalMap:
    """Linear test model x -> diag(d) x; exponents are log|d_i| / dt exactly."""

    def __init__(self, diag, dt=1.0):
        self.diag = np.asarray(diag, dtype=float)
        self.dt = dt
        self.dimension = self.diag.size

    def step(self, state, n=1):
        state = np.asarray(state, dtype=float)
        d = self.diag if state.ndim == 1 else self.diag[:, None]
        for _ in range(n):
            state = d * state
        return state

    def cycle_map(self, state):
        return self.step(state)


class TestLyapunov:
    def test_linear_map_exponents_exact(self):
        model = _DiagonalMap([2.0, 1.0, 0.5])
        x0 = np.array([0.3, 0.4, 0.5])
        lam = lyapunov_spectrum(model, x0, n_steps=50, p=3, qr_interval=5)
        np.testing.assert_allclose(lam, np.log([2.0, 1.0, 0.5]), atol=1e-9)

    def test_subset_of_exponents(self):
        model = _DiagonalMap([3.0, 2.0, 0.5, 0.1])
        lam = lyapunov_spectrum(model, np.ones(4), n_steps=30, p=2, qr_interval=3)
        np.testing.assert_allclose(lam, np.log([3.0, 2.0]), atol=1e-9)

    def test_dt_scales_exponents(self):
        model = _DiagonalMap([2.0, 0.5], dt=0.25)
        lam = lyapunov_spectrum(model, np.ones(2), n_steps=40, p=2)
        np.testing.assert_allclose(lam, np.log([2.0, 0.5]) / 0.25, atol=1e-8)

    def test_kaplan_yorke_hand_oracles(self):
        assert kaplan_yorke(np.array([1.0, -2.0])) == pytest.approx(1.5)
        assert kaplan_yorke(np.array([-1.0, -2.0])) == 0.0
        assert kaplan_yorke(np.array([1.0, 0.5, -3.0])) == pytest.approx(2.5)

    def test_kaplan_yorke_rejects_unbracketed(self):
        with pytest.raises(ReductionError):
            kaplan_yorke(np.array([2.0, 1.0]))

    def test_kaplan_yorke_rejects_unsorted(self):
        with pytest.raises(ValueError):
            kaplan_yorke(np.array([1.0, 2.0]))

    def test_aus_step_tracks_dominant_subspace(self):
        model = _DiagonalMap([3.0, 2.0, 0.1, 0.05])
        basis = ReductionBasis(np.linalg.qr(
            np.random.default_rng(5).standard_normal((4, 2)))[0], kind="aus")
        x = np.array([0.01, 0.02, 0.01, 0.03])
        for _ in range(40):
            basis, t = aus_step(model, x, basis)
            x = model.step(x)
        # span converges to the two expanding axes
        np.testing.assert_allclose(np.abs(basis.columns[:2, :]).sum(), 2.0, atol=1e-6)
        np.testing.assert_allclose(basis.columns[2:, :], 0.0, atol=1e-6)
        assert np.all(np.diag(t) > 0)

    def test_aus_step_rejects_collapsed_tangent(self):
        model = _DiagonalMap([1.0, 0.0, 0.0])  # rank-1 Jacobian
        basis = ReductionBasis(np.eye(3)[:, :2], kind="aus")
        with pytest.raises(ReductionError):
            aus_step(model, np.ones(3), basis)

    def test_spectrum_collapse_names_the_step(self):
        model = _DiagonalMap([1.0, 0.0, 0.0])
        with pytest.raises(ReductionError, match="at step 4, tangent basis collapsed"):
            lyapunov_spectrum(model, np.ones(3), n_steps=12, p=2, qr_interval=5)

    @pytest.mark.parametrize("eps", [0.0, -1e-6])
    def test_nonpositive_eps_rejected(self, eps):
        model = _DiagonalMap([2.0, 1.0, 0.5])
        basis = ReductionBasis(np.eye(3)[:, :2], kind="aus")
        with pytest.raises(ValueError, match="eps"):
            lyapunov_spectrum(model, np.ones(3), n_steps=10, p=2, eps=eps)
        with pytest.raises(ValueError, match="eps"):
            aus_step(model, np.ones(3), basis, eps=eps)


def _benettin_reference(model, x0, n_steps, p, eps=1e-6, qr_interval=10):
    """The Benettin loop lyapunov_spectrum ran before it shared aus_step's
    tangent recursion, kept verbatim as the bit-for-bit reference."""
    x = np.asarray(x0, dtype=float)
    m = x.size
    q = np.eye(m, p)
    log_sums = np.zeros(p)
    e = eps * max(np.linalg.norm(x), 1.0)
    cloud = x[:, None] + e * q
    since_qr = 0
    for step in range(n_steps):
        block = np.concatenate([x[:, None], cloud], axis=1)
        block = model.step(block)
        x = block[:, 0]
        cloud = block[:, 1:]
        since_qr += 1
        if since_qr == qr_interval or step == n_steps - 1:
            z = (cloud - x[:, None]) / e
            try:
                q, t = qr_positive(z)
            except RankDeficiencyError as exc:
                raise ReductionError(f"tangent basis collapsed at step {step}: {exc}") from exc
            log_sums += np.log(np.diag(t))
            e = eps * max(np.linalg.norm(x), 1.0)
            cloud = x[:, None] + e * q
            since_qr = 0
    exponents = log_sums / (n_steps * model.dt)
    return np.sort(exponents)[::-1]


def _tangent_qr_reference(model, x0, n_steps, p, eps=1e-6, qr_interval=10):
    """The loop lyapunov_spectrum ran before aus_step became its QR step: one
    model.step call per interval, then its own finite-difference QR, kept
    verbatim as the bit-for-bit reference."""
    def tangent_qr(fblock, x):
        z = (fblock[:, 1:] - fblock[:, :1]) / (eps * max(np.linalg.norm(x), 1.0))
        try:
            return fblock[:, 0], qr_positive(z)
        except RankDeficiencyError as exc:
            raise ReductionError(f"tangent basis collapsed: {exc}") from exc

    x = np.asarray(x0, dtype=float)
    q = np.eye(x.size, p)
    log_sums = np.zeros(p)
    for start in range(0, n_steps, qr_interval):
        stop = min(start + qr_interval, n_steps)
        e = eps * max(np.linalg.norm(x), 1.0)
        block = np.concatenate([x[:, None], x[:, None] + e * q], axis=1)
        block = model.step(block, stop - start)
        try:
            x, (q, t) = tangent_qr(block, x)
        except ReductionError as exc:
            raise ReductionError(f"at step {stop - 1}, {exc}") from exc
        log_sums += np.log(np.diag(t))
    exponents = log_sums / (n_steps * model.dt)
    return np.sort(exponents)[::-1]


class TestSpectrumMatchesBenettinLoop:
    @pytest.fixture(scope="class")
    def l96(self):
        model = L96Spec(dimension=40)
        x = model.default_state()
        for _ in range(500):
            x = model.step(x)
        return model, x

    @pytest.mark.parametrize("p, n_steps, qr_interval",
                             [(34, 1003, 10), (20, 997, 7), (5, 60, 1)])
    def test_l96(self, l96, p, n_steps, qr_interval):
        model, x0 = l96
        lam = lyapunov_spectrum(model, x0, n_steps, p, qr_interval=qr_interval)
        ref = _benettin_reference(model, x0, n_steps, p, qr_interval=qr_interval)
        assert np.array_equal(lam, ref)

    def test_swe_partial_last_interval(self):
        model = SWESpec(nx=8, ny=8)
        x0 = model.default_jet_state()
        lam = lyapunov_spectrum(model, x0, n_steps=53, p=6)
        assert np.array_equal(lam, _benettin_reference(model, x0, 53, 6))

    @pytest.mark.parametrize("p, n_steps, qr_interval", [(34, 3003, 10), (7, 101, 4)])
    def test_l96_equals_the_tangent_qr_loop(self, l96, p, n_steps, qr_interval):
        model, x0 = l96
        lam = lyapunov_spectrum(model, x0, n_steps, p, qr_interval=qr_interval)
        ref = _tangent_qr_reference(model, x0, n_steps, p, qr_interval=qr_interval)
        assert np.array_equal(lam, ref)

    def test_swe_partial_last_interval_equals_the_tangent_qr_loop(self):
        model = SWESpec(nx=8, ny=8)
        x0 = model.default_jet_state()
        lam = lyapunov_spectrum(model, x0, n_steps=57, p=6, qr_interval=20)
        ref = _tangent_qr_reference(model, x0, 57, 6, qr_interval=20)
        assert np.array_equal(lam, ref)


class TestConjugateNoise:
    def test_scalar_passes_through_scale(self):
        u = ReductionBasis(np.eye(5)[:, :2], kind="pod")
        q = conjugate_noise(NoiseSpec.scaled_identity(5, 0.3), u)
        assert q.is_scalar and q.dim == 2 and q.scale == 0.3

    def test_identity_basis_is_noop(self):
        q = NoiseSpec.scaled_identity(4, 0.7)
        assert conjugate_noise(q, identity_basis(4)) is q

    def test_dense_is_congruence(self):
        rng = np.random.default_rng(9)
        m = rng.standard_normal((4, 4))
        cov = m @ m.T + np.eye(4)
        u, _ = np.linalg.qr(rng.standard_normal((4, 2)))
        b = ReductionBasis(u, kind="pod")
        out = conjugate_noise(NoiseSpec.dense(cov), b)
        np.testing.assert_allclose(out.cov_matrix(), u.T @ cov @ u, atol=1e-12)


def _dense_h(h: ObservationOperator) -> np.ndarray:
    """H as a dense 0/1 matrix; its pseudoinverse H^+ is H^T."""
    out = np.zeros((h.data_dim, h.state_dim))
    out[np.arange(h.data_dim), h.indices] = 1.0
    return out


def _small_setup(m=8, r_p=4, r_d=2, kind="model", q_scale=0.1, r_scale=0.01):
    model = L96Spec(dimension=m, forcing=8.0)
    h = ObservationOperator(np.arange(0, m, 2), m)
    q = NoiseSpec.scaled_identity(m, q_scale)
    r = NoiseSpec.scaled_identity(h.data_dim, r_scale)
    rng = np.random.default_rng(13)
    u_full, _ = np.linalg.qr(rng.standard_normal((m, r_p)))
    u = ReductionBasis(u_full, kind="pod")
    if kind == "model":
        return model, h, q, r, build_reduced_model(model, h, q, r, u, kind="model",
                                                   v=u.leading(r_d))
    v_cols, _ = np.linalg.qr(rng.standard_normal((h.data_dim, r_d)))
    v = ReductionBasis(v_cols, kind="pod")
    return model, h, q, r, build_reduced_model(model, h, q, r, u, v=v, kind="data")


class TestReducedModel:
    def test_model_kind_h_matches_dense_formula(self):
        model, h, q, r, red = _small_setup(kind="model")
        u = red.basis_out.columns
        v = red.data_basis.columns
        dense = v.T @ np.linalg.pinv(_dense_h(h)) @ _dense_h(h) @ u
        np.testing.assert_allclose(red.h_q, dense, atol=1e-12)

    def test_model_kind_r_matches_dense_formula(self):
        model, h, q, r, red = _small_setup(kind="model")
        hv = _dense_h(h) @ red.data_basis.columns
        np.testing.assert_allclose(red.r_q.cov_matrix(), hv.T @ r.cov_matrix() @ hv,
                                   atol=1e-14)

    def test_data_kind_h_and_r(self):
        model, h, q, r, red = _small_setup(kind="data")
        v = red.data_basis.columns
        u = red.basis_out.columns
        np.testing.assert_allclose(red.h_q, v.T @ _dense_h(h) @ u, atol=1e-12)
        np.testing.assert_allclose(red.r_q.cov_matrix(), 0.01 * v.T @ v, atol=1e-14)

    def test_reduced_process_noise(self):
        model, h, q, r, red = _small_setup()
        assert red.q_q.is_scalar and red.q_q.scale == 0.1 and red.q_q.dim == 4

    def test_forecast_is_conjugated_cycle_map(self):
        model, h, q, r, red = _small_setup()
        z = np.random.default_rng(4).standard_normal((3, 4))
        x = z @ red.basis_in.columns.T
        expect = model.cycle_map(x.T).T @ red.basis_out.columns
        np.testing.assert_allclose(red.forecast(z), expect, atol=1e-12)

    def test_reduce_data_model_kind(self):
        model, h, q, r, red = _small_setup(kind="model")
        y = np.arange(float(h.data_dim))
        hv = _dense_h(h) @ red.data_basis.columns
        np.testing.assert_allclose(red.reduce_data(y), hv.T @ y, atol=1e-13)

    def test_reduce_data_data_kind(self):
        model, h, q, r, red = _small_setup(kind="data")
        y = np.arange(float(h.data_dim))
        np.testing.assert_allclose(red.reduce_data(y), red.data_basis.columns.T @ y,
                                   atol=1e-13)

    def test_weight_quad_matches_direct_inverse(self):
        model, h, q, r, red = _small_setup()
        zq = red.zq_matrix()
        nu = np.random.default_rng(6).standard_normal((5, red.data_basis.rank))
        direct = np.einsum("ij,ij->i", nu, np.linalg.solve(zq, nu.T).T)
        np.testing.assert_allclose(red.weight_quad(nu), direct, rtol=1e-10)

    def test_zq_matrix_formula(self):
        model, h, q, r, red = _small_setup()
        expect = red.h_q @ red.q_q.cov_matrix() @ red.h_q.T + red.r_q.cov_matrix()
        np.testing.assert_allclose(red.zq_matrix(), expect, atol=1e-14)

    def test_identity_reduced_model_round_trip(self):
        model = L96Spec(dimension=6)
        h = ObservationOperator(np.arange(6), 6)
        q = NoiseSpec.scaled_identity(6, 0.1)
        r = NoiseSpec.scaled_identity(6, 0.01)
        red = identity_reduced_model(model, h, q, r)
        assert red.basis_in.is_identity and red.data_basis.is_identity
        z = np.random.default_rng(0).standard_normal((2, 6))
        np.testing.assert_array_equal(red.forecast(z), model.cycle_map(z.T).T)
        y = np.arange(6.0)
        np.testing.assert_array_equal(red.reduce_data(y), y)
        np.testing.assert_allclose(red.zq_matrix(), 0.11 * np.eye(6), atol=1e-14)

    def test_data_kind_requires_explicit_v(self):
        model = L96Spec(dimension=8)
        h = ObservationOperator(np.arange(0, 8, 2), 8)
        q = NoiseSpec.scaled_identity(8, 0.1)
        r = NoiseSpec.scaled_identity(4, 0.01)
        u = ReductionBasis(np.eye(8)[:, :3], kind="pod")
        with pytest.raises(ReductionError):
            build_reduced_model(model, h, q, r, u, kind="data")

    @pytest.mark.parametrize("alias", ["model-based", "data-based"])
    def test_kind_aliases_rejected(self, alias):
        model, h, q, r, _ = _small_setup()
        u_cols, _ = np.linalg.qr(np.random.default_rng(17).standard_normal((8, 3)))
        with pytest.raises(ValueError, match="'model' or 'data'"):
            build_reduced_model(model, h, q, r, ReductionBasis(u_cols, kind="pod"),
                                kind=alias)

    def test_unobserved_data_basis_rejected(self):
        # a basis whose observed rows are rank deficient gives a singular R^q
        model, h, q, r, _ = _small_setup()
        u = ReductionBasis(np.eye(8)[:, :3], kind="pod")  # second column unobserved
        with pytest.raises(ReductionError, match="R\\^q is numerically singular.*"
                                                 "noise covariance is not SPD"):
            build_reduced_model(model, h, q, r, u, kind="model")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_weight_quad_rejects_non_finite_innovation(self, bad):
        model, h, q, r, red = _small_setup()
        nu = np.ones((3, red.data_basis.rank))
        nu[1, 0] = bad
        with pytest.raises(NumericsError, match="non-finite"):
            red.weight_quad(nu)

    def test_non_spd_weight_matrix_is_named(self):
        model, h, q, r, red = _small_setup()
        red.zq_matrix = lambda: -np.eye(red.data_basis.rank)
        with pytest.raises(NumericsError, match="^weight matrix Z\\^q is singular: "):
            red.weight_quad(np.ones((1, red.data_basis.rank)))


def _proposal_covariance(prop, n):
    """Q_p as the Gram matrix of the proposal's factor L^{-T}: the draws
    sample_delta makes from the n standard basis rows."""
    delta = prop.sample_delta(np.eye(n))
    return delta.T @ delta


class TestOptimalProposal:
    def test_scalar_closed_forms(self):
        # H = I, U = V = I: Q_p = (1/q + 1/r)^{-1} I and Z = (q + r) I
        qs, rs = 0.1, 0.01
        model = L96Spec(dimension=5)
        h = ObservationOperator(np.arange(5), 5)
        red = identity_reduced_model(model, h, NoiseSpec.scaled_identity(5, qs),
                                     NoiseSpec.scaled_identity(5, rs))
        prop = red.optimal_proposal()
        np.testing.assert_allclose(_proposal_covariance(prop, 5),
                                   (1 / qs + 1 / rs) ** -1 * np.eye(5), atol=1e-14)
        np.testing.assert_allclose(red.zq_matrix(), (qs + rs) * np.eye(5), atol=1e-14)

    def test_scalar_mean_shift(self):
        # m - f = Q_p H^T R^{-1} resid = resid * q / (q + r) for scalars
        qs, rs = 0.4, 0.1
        model = L96Spec(dimension=4)
        h = ObservationOperator(np.arange(4), 4)
        red = identity_reduced_model(model, h, NoiseSpec.scaled_identity(4, qs),
                                     NoiseSpec.scaled_identity(4, rs))
        resid = np.array([[1.0, -2.0, 0.0, 4.0]])
        shift = red.optimal_proposal().mean_shift(resid)
        np.testing.assert_allclose(shift, resid * qs / (qs + rs), atol=1e-13)

    def test_sample_delta_has_proposal_covariance(self):
        model, h, q, r, red = _small_setup()
        # push the standard basis through: columns of L^{-T} have cov Q_p
        hu = red.hu
        qp = np.linalg.inv(np.eye(red.reduced_dim) / red.q_q.scale + hu.T @ hu / r.scale)
        np.testing.assert_allclose(_proposal_covariance(red.optimal_proposal(),
                                                        red.reduced_dim), qp, atol=1e-12)

    def test_general_case_matches_dense_algebra(self):
        model, h, q, r, red = _small_setup(kind="model", q_scale=0.3, r_scale=0.05)
        prop = red.optimal_proposal()
        hq = red.h_q  # proposal uses the sampled basis rows, not h_q
        hu = red.hu
        qinv = np.linalg.inv(red.q_q.cov_matrix())
        rinv = np.linalg.inv(r.cov_matrix())
        qp = np.linalg.inv(qinv + hu.T @ rinv @ hu)
        np.testing.assert_allclose(_proposal_covariance(prop, red.reduced_dim), qp,
                                   atol=1e-12)
        resid = np.random.default_rng(8).standard_normal((3, h.data_dim))
        np.testing.assert_allclose(prop.mean_shift(resid), resid @ (qp @ hu.T @ rinv).T,
                                   atol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_dense_route_rejects_non_finite_rows(self, bad):
        model, h, q, r, red = _small_setup()
        prop = red.optimal_proposal()
        resid = np.ones((2, h.data_dim))
        resid[0, 1] = bad
        # the check reads the right-hand side, where inf times 0 is already nan
        with np.errstate(invalid="ignore"), pytest.raises(NumericsError, match="non-finite"):
            prop.mean_shift(resid)
        xi = np.ones((2, red.reduced_dim))
        xi[1, 0] = bad
        with pytest.raises(NumericsError, match="non-finite"):
            prop.sample_delta(xi)

    def test_non_finite_precision_is_named(self):
        # a NaN model-noise scale reaches the proposal precision
        model, h, q, r, red = _small_setup(q_scale=float("nan"))
        with pytest.raises(NumericsError, match="^proposal precision Q_p\\^\\{-1\\} is singular: "):
            red.optimal_proposal()

    def test_dense_model_noise_is_inverted_through_its_factor(self):
        model, h, q, r, _ = _small_setup()
        q_dense = NoiseSpec.dense(0.1 * np.eye(8) + 0.02 * np.ones((8, 8)))
        u = ReductionBasis(np.linalg.qr(np.random.default_rng(3).standard_normal((8, 4)))[0],
                           kind="pod")
        red = build_reduced_model(model, h, q_dense, r, u, v=u.leading(2), kind="model")
        assert not red.q_q.is_scalar
        hu = red.hu
        qp = np.linalg.inv(np.linalg.inv(red.q_q.cov_matrix()) + hu.T @ hu / r.scale)
        np.testing.assert_allclose(_proposal_covariance(red.optimal_proposal(), 4), qp,
                                   atol=1e-12)

    def test_zero_observation_noise_rejected(self):
        model = L96Spec(dimension=4)
        h = ObservationOperator(np.arange(4), 4)
        red = identity_reduced_model(model, h, NoiseSpec.scaled_identity(4, 0.1),
                                     NoiseSpec.scaled_identity(4, 0.0))
        with pytest.raises(NumericsError, match="observation noise"):
            red.optimal_proposal()

    def test_zero_process_noise_rejected(self):
        model = L96Spec(dimension=4)
        h = ObservationOperator(np.arange(4), 4)
        red = identity_reduced_model(model, h, NoiseSpec.scaled_identity(4, 0.0),
                                     NoiseSpec.scaled_identity(4, 0.01))
        with pytest.raises(NumericsError):
            red.optimal_proposal()


class TestBasisIo:
    def test_save_load_roundtrip(self, tmp_path):
        from projda.reduction import load_basis, save_basis
        rng = np.random.default_rng(21)
        u, _ = np.linalg.qr(rng.standard_normal((9, 4)))
        b = ReductionBasis(u, kind="pod")
        path = str(tmp_path / "basis.bin")
        save_basis(path, b, source_snapshot_file="snaps.bin", parameters={"r": 4})
        loaded = load_basis(path)
        np.testing.assert_array_equal(loaded.columns, b.columns)
        assert loaded.kind == "pod"

    def test_file_is_column_major_float64(self, tmp_path):
        from projda.reduction import save_basis
        u = np.eye(3)[:, :2]
        path = str(tmp_path / "b.bin")
        save_basis(path, ReductionBasis(u, kind="pod"))
        raw = np.fromfile(path, dtype="<f8")
        np.testing.assert_array_equal(raw, u.flatten(order="F"))

    def test_truncated_file_rejected(self, tmp_path):
        from projda.reduction import load_basis, save_basis
        u = np.eye(4)[:, :2]
        path = str(tmp_path / "b.bin")
        save_basis(path, ReductionBasis(u, kind="pod"))
        with open(path, "r+b") as fh:
            fh.truncate(8 * 7)
        with pytest.raises(ReductionError, match="holds 7 values, expected 8"):
            load_basis(path)
