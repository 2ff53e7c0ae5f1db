"""Dynamical models and observation operators.

Hand oracles:
- Lorenz-96 rhs at u=(1,2,3,4), F=0 is (-5, -3, 3, -7): for M=4 the cyclic
  rule (u_{i+1} - u_{i-2}) u_{i-1} - u_i gives (2-3)*4-1, (3-4)*1-2,
  (4-1)*2-3, (1-2)*3-4.
- One RK4 step of x' = -x equals 1 - h + h^2/2 - h^3/6 + h^4/24 exactly.
"""

import numpy as np
import pytest

from projda.errors import BlowupError
from projda.models import (
    L96Spec,
    ObservationOperator,
    SWESpec,
    l96_rhs,
    observe,
    run_deterministic,
    simulate_truth,
    step_rk4,
)
from projda.numerics import NoiseSpec, RngStream


class TestLorenz96:
    def test_rhs_hand_oracle(self):
        got = l96_rhs(np.array([1.0, 2.0, 3.0, 4.0]), forcing=0.0)
        np.testing.assert_array_equal(got, [-5.0, -3.0, 3.0, -7.0])

    def test_rhs_forcing_shifts(self):
        u = np.array([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(l96_rhs(u, 8.0), l96_rhs(u, 0.0) + 8.0)

    def test_rhs_rest_state_is_fixed_point(self):
        u = np.full(7, 5.0)
        np.testing.assert_array_equal(l96_rhs(u, 5.0), np.zeros(7))

    @pytest.mark.parametrize("make", [
        lambda g: g.standard_normal(9),
        lambda g: g.standard_normal((9, 5)),
        lambda g: g.standard_normal((5, 9)).T,  # F-ordered, as ReducedModel.forecast passes
        lambda g: g.standard_normal(4),
        lambda g: g.standard_normal((3, 4)).T,
    ], ids=["single", "c_block", "f_block", "m4_single", "m4_f_block"])
    def test_rhs_matches_roll_and_keeps_memory_order(self, make):
        u = make(np.random.default_rng(3))
        expect = (np.roll(u, -1, axis=0) - np.roll(u, 2, axis=0)) * np.roll(u, 1, axis=0) - u + 8.0
        got = l96_rhs(u, 8.0)
        np.testing.assert_array_equal(got, expect)
        # the layout matters: a matrix product of the result rounds differently
        # on C- and F-ordered operands
        assert got.flags.c_contiguous == u.flags.c_contiguous
        assert got.flags.f_contiguous == u.flags.f_contiguous

    def test_rk4_linear_decay_exact_polynomial(self):
        h = 0.01
        got = step_rk4(lambda x: -x, np.array([1.0]), h)
        expect = 1.0 - h + h**2 / 2 - h**3 / 6 + h**4 / 24
        np.testing.assert_allclose(got, [expect], rtol=0, atol=0)
        np.testing.assert_allclose(got, [np.exp(-h)], atol=1e-10)

    def test_rk4_batched_columns_match(self):
        spec = L96Spec(dimension=6, forcing=8.0)
        rng = np.random.default_rng(0)
        block = rng.standard_normal((6, 3))
        stepped = spec.step(block)
        for j in range(3):
            np.testing.assert_array_equal(stepped[:, j], spec.step(block[:, j]))

    def test_cycle_map_is_repeated_step(self):
        spec = L96Spec(dimension=8, steps_per_observation=3)
        x = spec.default_state()
        y = x
        for _ in range(3):
            y = spec.step(y)
        np.testing.assert_array_equal(spec.cycle_map(x), y)
        assert spec.cycle_dt == pytest.approx(0.03)

    def test_trajectory_stays_bounded(self):
        spec = L96Spec()
        x = spec.default_state(RngStream(1))
        for _ in range(2000):
            x = spec.step(x)
        assert np.all(np.abs(x) < 30)

    def test_validation(self):
        with pytest.raises(ValueError):
            L96Spec(dimension=3)
        with pytest.raises(ValueError):
            L96Spec(dt=0.0)


class TestShallowWater:
    def test_pack_split_roundtrip(self):
        spec = SWESpec(nx=8, ny=4)
        state = np.arange(spec.dimension, dtype=float)
        u, v, h = spec.split(state)
        assert u.shape == (4, 8)
        np.testing.assert_array_equal(spec.pack(u, v, h), state)

    def test_mass_is_conserved_exactly(self):
        spec = SWESpec(nx=16, ny=8)
        x = spec.default_jet_state()
        mass0 = spec.split(x)[2].sum()
        for _ in range(50):
            x = spec.step(x)
        assert spec.split(x)[2].sum() == pytest.approx(mass0, rel=1e-13)

    def test_jet_state_is_near_geostrophic_balance(self):
        # f u ~ -g dh/dy along the jet core; the discrete residual should be
        # small relative to the Coriolis term itself
        spec = SWESpec()
        u, v, h = spec.split(spec.default_jet_state(perturb_amplitude=0.0))
        dhdy = (np.roll(h, -1, axis=0) - np.roll(h, 1, axis=0)) / (2 * spec.dy)
        resid = spec.coriolis * u + spec.gravity * dhdy
        interior = resid[2:-2, :]
        assert np.max(np.abs(interior)) < 0.05 * np.max(np.abs(spec.coriolis * u))

    def test_step_preserves_quiescent_state(self):
        spec = SWESpec(nx=8, ny=4)
        x = spec.pack(*[np.zeros((4, 8)) for _ in range(2)], np.full((4, 8), spec.depth))
        np.testing.assert_allclose(spec.step(x), x, atol=1e-12)

    def test_batched_step_matches_single(self):
        spec = SWESpec(nx=8, ny=4)
        x = spec.default_jet_state()
        block = np.stack([x, x + 0.01], axis=1)
        stepped = spec.step(block)
        np.testing.assert_array_equal(stepped[:, 0], spec.step(x))
        np.testing.assert_array_equal(stepped[:, 1], spec.step(x + 0.01))

    def test_static_cfl_rejected_at_construction(self):
        with pytest.raises(ValueError):
            SWESpec(nx=8, ny=4, dt=600.0, depth=3000.0)

    def test_runtime_cfl_violation_raises(self):
        # valid at rest, but a fast enough flow state breaks the dynamic bound
        spec = SWESpec(nx=8, ny=4)
        u = np.full((4, 8), 300.0)
        x = spec.pack(u, u, np.full((4, 8), spec.depth))
        with pytest.raises(BlowupError):
            spec.step(x)

    def test_five_day_stability(self):
        spec = SWESpec()
        x = spec.default_jet_state()
        for _ in range(24 * 60):  # one model day at dt=60
            x = spec.step(x)
        u, v, h = spec.split(x)
        assert np.all(h > 0) and np.all(np.abs(u) < 60)


class TestObservation:
    def test_every_kth_indices(self):
        h = ObservationOperator.every_kth(10, 3)
        np.testing.assert_array_equal(h.indices, [0, 3, 6, 9])
        assert h.data_dim == 4

    def test_apply_matches_matrix(self):
        h = ObservationOperator.every_kth(6, 2, start=1)
        x = np.arange(6.0)
        np.testing.assert_array_equal(h.apply(x), [1.0, 3.0, 5.0])
        np.testing.assert_array_equal(h.matrix() @ x, h.apply(x))

    def test_pinv_is_transpose_for_row_subsampling(self):
        h = ObservationOperator.every_kth(7, 2)
        np.testing.assert_array_equal(h.pinv_matrix(), h.matrix().T)
        # H H^+ = I on data space
        np.testing.assert_array_equal(h.matrix() @ h.pinv_matrix(), np.eye(h.data_dim))

    def test_identity_operator(self):
        h = ObservationOperator.identity(5)
        assert h.is_identity and h.data_dim == 5
        x = np.arange(5.0)
        np.testing.assert_array_equal(h.apply(x), x)

    def test_apply_batched_rows(self):
        h = ObservationOperator.every_kth(6, 3)
        rows = np.arange(12.0).reshape(2, 6)
        np.testing.assert_array_equal(h.apply(rows), rows[:, [0, 3]])

    def test_validation(self):
        with pytest.raises(ValueError):
            ObservationOperator([0, 0], 4)  # duplicate indices
        with pytest.raises(ValueError):
            ObservationOperator([5], 4)  # out of range

    def test_observe_is_truth_plus_noise(self):
        h = ObservationOperator.every_kth(8, 2)
        r = NoiseSpec.scaled_identity(h.data_dim, 0.01)
        x = np.arange(8.0)
        rng = RngStream(3)
        y = observe(x, h, r, rng)
        noise = r.sample(RngStream(3).generator())
        np.testing.assert_array_equal(y, h.apply(x) + noise)


class TestSimulate:
    def test_deterministic_trajectory_shape_and_stride(self):
        spec = L96Spec(dimension=5)
        x0 = spec.default_state()
        out = run_deterministic(spec, x0, 10, stride=2)
        assert out.shape == (6, 5)
        np.testing.assert_array_equal(out[0], x0)
        x = x0
        for _ in range(2):
            x = spec.step(x)
        np.testing.assert_array_equal(out[1], x)

    def test_truth_with_noise_off_matches_cycle_map(self):
        spec = L96Spec(dimension=5)
        x0 = spec.default_state()
        out = simulate_truth(spec, x0, 3, None, RngStream(0), noise_on=False)
        np.testing.assert_array_equal(out[1], spec.cycle_map(x0))
        np.testing.assert_array_equal(out[3], spec.cycle_map(spec.cycle_map(out[1])))

    def test_truth_noise_is_stream_addressed(self):
        # cycle t draws from child(t-1): a rerun of the tail reproduces it
        spec = L96Spec(dimension=5)
        q = NoiseSpec.scaled_identity(5, 0.1)
        x0 = spec.default_state()
        full = simulate_truth(spec, x0, 4, q, RngStream(11))
        # rebuild cycle 4 by hand from cycle 3's state
        x = spec.cycle_map(full[3]) + q.sample(RngStream(11).child(3).generator())
        np.testing.assert_array_equal(full[4], x)

    def test_truth_requires_matching_noise_dim(self):
        spec = L96Spec(dimension=5)
        with pytest.raises(ValueError):
            simulate_truth(spec, spec.default_state(), 2,
                           NoiseSpec.scaled_identity(4, 0.1), RngStream(0))
