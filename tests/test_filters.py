"""Particle filter steps, resampling, and the rng consumption contract.

Hand oracles:
- ESS of (3/4, 1/4) is 16/10 = 1.6.
- Optimal-proposal weights with H = I, Q = q I, R = r I follow the closed
  form -0.5 |y - f(x)|^2 / (q + r); the proposal mean shift is q/(q+r) times
  the innovation and the proposal noise scale is sqrt((1/q + 1/r)^{-1}).
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from projda.errors import DegenerateWeightsError, ReductionError, WeightCollapseError
from projda.filters import (
    FilterConfig,
    ParticleEnsemble,
    _lanes,
    _normalized_from_log,
    ess,
    initialize_ensemble,
    proj_oppf_step,
    proj_pf_step,
    systematic_resample,
)
from projda.models import L96Spec, ObservationOperator, SWESpec, observe
from projda.numerics import NoiseSpec, RngStream
from projda.reduction import (
    ReductionBasis,
    build_reduced_model,
    identity_basis,
    identity_reduced_model,
)


class TestEss:
    def test_hand_oracle(self):
        assert ess(np.array([0.75, 0.25])) == pytest.approx(1.6, abs=1e-14)

    def test_uniform_is_n(self):
        assert ess(np.full(7, 1.0 / 7)) == pytest.approx(7.0, abs=1e-12)

    def test_degenerate_is_one(self):
        assert ess(np.array([0.0, 1.0, 0.0])) == pytest.approx(1.0, abs=1e-14)

    def test_unnormalized_invariance(self):
        w = np.array([3.0, 1.0])
        assert ess(w) == pytest.approx(ess(w / w.sum()), abs=1e-12)

    def test_errors(self):
        with pytest.raises(DegenerateWeightsError):
            ess(np.array([0.5, -0.5]))
        with pytest.raises(DegenerateWeightsError):
            ess(np.zeros(3))
        with pytest.raises(DegenerateWeightsError):
            ess(np.array([np.nan, 1.0]))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=1e-9, max_value=1e3), min_size=1, max_size=20))
def test_ess_bounds(vals):
    w = np.asarray(vals)
    n = w.size
    assert 1.0 - 1e-9 <= ess(w) <= n + 1e-9


class TestSystematicResample:
    def test_degenerate_weight_selects_single_ancestor(self):
        anc = systematic_resample(np.array([1.0, 0.0, 0.0]), RngStream(0))
        np.testing.assert_array_equal(anc, [0, 0, 0])

    def test_zero_weight_never_selected(self):
        anc = systematic_resample(np.array([0.0, 1.0]), RngStream(1))
        np.testing.assert_array_equal(anc, [1, 1])

    def test_replayable(self):
        w = np.array([0.2, 0.5, 0.3])
        a = systematic_resample(w, RngStream(5))
        b = systematic_resample(w, RngStream(5))
        np.testing.assert_array_equal(a, b)

    def test_consumes_one_uniform(self):
        w = np.array([0.25, 0.75])
        gen = RngStream(8).generator()
        anc = systematic_resample(w, gen)
        u0 = RngStream(8).generator().uniform(0.0, 0.5)
        positions = u0 + np.arange(2) / 2
        expect = np.minimum(np.searchsorted(np.cumsum(w), positions, side="right"), 1)
        np.testing.assert_array_equal(anc, expect)

    def test_errors(self):
        with pytest.raises(DegenerateWeightsError):
            systematic_resample(np.array([-0.1, 1.1]), RngStream(0))
        with pytest.raises(DegenerateWeightsError):
            systematic_resample(np.zeros(2), RngStream(0))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=2, max_size=15),
    st.integers(min_value=0, max_value=10**6),
)
def test_systematic_counts_within_one_of_expectation(vals, seed):
    w = np.asarray(vals)
    if w.sum() <= 0:
        w = w + 1.0
    n = w.size
    anc = systematic_resample(w, RngStream(seed))
    assert anc.shape == (n,)
    counts = np.bincount(anc, minlength=n)
    expect = n * w / w.sum()
    assert np.all(np.abs(counts - expect) < 1.0 + 1e-9)


class TestParticleEnsemble:
    def test_mean_is_weighted(self):
        e = ParticleEnsemble(np.array([[0.0, 0.0], [2.0, 4.0]]), np.array([0.25, 0.75]))
        np.testing.assert_allclose(e.mean(), [1.5, 3.0], atol=1e-15)

    def test_uniform_constructor(self):
        e = ParticleEnsemble.uniform(np.zeros((4, 2)))
        np.testing.assert_array_equal(e.weights, np.full(4, 0.25))
        assert e.n_particles == 4 and e.particles.shape == (4, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            ParticleEnsemble(np.zeros(3), np.ones(3))
        with pytest.raises(ValueError):
            ParticleEnsemble(np.zeros((2, 2)), np.array([0.9, 0.2]))
        with pytest.raises(ValueError):
            ParticleEnsemble(np.full((2, 2), np.inf), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            ParticleEnsemble(np.zeros((2, 2)), np.array([1.5, -0.5]))

    def test_initialize_replay(self):
        q = NoiseSpec.scaled_identity(3, 0.04)
        e = initialize_ensemble(np.array([1.0, 2.0, 3.0]), q, 5, RngStream(7))
        xi = RngStream(7).generator().standard_normal((5, 3))
        np.testing.assert_array_equal(e.particles, np.array([1.0, 2.0, 3.0]) + 0.2 * xi)
        np.testing.assert_array_equal(e.weights, np.full(5, 0.2))


def test_normalized_from_log_shift_invariant():
    log_w = np.array([-1000.0, -1001.0, -1002.0])
    w = _normalized_from_log(log_w)
    np.testing.assert_allclose(w, _normalized_from_log(log_w + 500.0), atol=1e-15)
    np.testing.assert_allclose(w.sum(), 1.0, atol=1e-15)
    with pytest.raises(WeightCollapseError):
        _normalized_from_log(np.array([-np.inf, -np.inf]))


def _l96_setup(m=6, q_scale=0.1, r_scale=0.01, every=2):
    model = L96Spec(dimension=m, forcing=8.0)
    h = ObservationOperator(np.arange(0, m, every), m)
    q = NoiseSpec.scaled_identity(m, q_scale)
    r = NoiseSpec.scaled_identity(h.data_dim, r_scale)
    return model, h, q, r


def _explicit_identity(model, h, q, r):
    """Identity bases as plain matrices, so the reduced model runs its general
    matmul arithmetic instead of the identity-kind shortcuts."""
    def eye(n):
        return ReductionBasis(np.eye(n), kind="pod", validate=False)

    return build_reduced_model(model, h, q, r, u=eye(h.state_dim), v=eye(h.data_dim),
                               kind="data")


def _full_pf(e, model, h, q, r, y, rng, config=None):
    """The full-space bootstrap filter: proj_pf_step with identity bases."""
    red = identity_reduced_model(model, h, q, r)
    return proj_pf_step(e, red, red.reduce_data(y), rng, config)


def _full_oppf(e, model, h, q, r, y, rng, config=None):
    """The full-space optimal-proposal filter: proj_oppf_step with identity bases."""
    red = identity_reduced_model(model, h, q, r)
    return proj_oppf_step(e, red, y, red.reduce_data(y), rng, config)


def _spread_ensemble(model, n, scale, seed=3):
    x0 = model.default_state(RngStream(seed))
    for _ in range(200):
        x0 = model.step(x0)
    gen = RngStream(seed).child(99).generator()
    return ParticleEnsemble.uniform(x0[None, :] + scale * gen.standard_normal(
        (n, model.dimension)))


def _lane(step_rng, l):
    """Counter lane l of a step stream, built apart from the filters' route: a
    new Philox under the stream's key, started at counter [0, 0, l, 0]."""
    key = step_rng.generator().bit_generator.state["state"]["key"]
    counter = np.array([0, 0, l, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=counter, key=key))


class TestBootstrapStep:
    def test_matches_hand_rolled_reference(self):
        # R = 0.5 I keeps the weights spread, so the step does not resample
        model, h, q, r = _l96_setup(r_scale=0.5)
        e = _spread_ensemble(model, 4, 0.05)
        y = h.apply(model.cycle_map(e.particles[0])) + 0.05
        step_rng = RngStream(2).child(5, 1)
        out = _full_pf(e, model, h, q, r, y, step_rng)

        # reference: same proposal draws, direct likelihood arithmetic
        fz = model.cycle_map(e.particles.T).T
        xi = np.stack([_lane(step_rng, l).standard_normal(6) for l in range(4)])
        z_new = fz + np.sqrt(0.1) * xi
        logw = -0.5 * np.sum((y - z_new[:, h.indices]) ** 2, axis=1) / 0.5 \
            + np.log(e.weights)
        w = np.exp(logw - logw.max())
        w = w / w.sum()
        assert ess(w) >= 2.0 and not out.last_resampled  # threshold 0.5 * 4
        np.testing.assert_array_equal(out.particles, z_new)
        np.testing.assert_allclose(out.weights, w, atol=1e-13)

    def test_proposal_noise_is_per_particle_addressed(self):
        # adding a particle must not change the draws of existing ones
        model, h, q, r = _l96_setup()
        e3 = _spread_ensemble(model, 3, 0.05)
        e4 = ParticleEnsemble.uniform(np.vstack([e3.particles, e3.particles[:1]]))
        y = h.apply(model.cycle_map(e3.particles[0]))
        rng = RngStream(4).child(5, 2)
        cfg = FilterConfig(ess_threshold_fraction=1e-9)  # never resample
        out3 = proj_pf_step(ParticleEnsemble.uniform(e3.particles),
                            identity_reduced_model(model, h, q, r),
                            y, rng, cfg)
        out4 = proj_pf_step(ParticleEnsemble.uniform(e4.particles),
                            identity_reduced_model(model, h, q, r),
                            y, rng, cfg)
        np.testing.assert_array_equal(out4.particles[:3], out3.particles)

    def test_identity_wrapper_is_bit_equal(self):
        model, h, q, r = _l96_setup()
        e = _spread_ensemble(model, 5, 0.02)
        y = h.apply(model.cycle_map(e.particles[1]))
        rng = RngStream(9).child(5, 3)
        a = _full_pf(e, model, h, q, r, y, rng)
        red = _explicit_identity(model, h, q, r)
        b = proj_pf_step(ParticleEnsemble(e.particles, e.weights), red,
                         red.reduce_data(y), rng)
        np.testing.assert_array_equal(a.particles, b.particles)
        np.testing.assert_array_equal(a.weights, b.weights)
        assert a.last_resampled == b.last_resampled and a.last_ess == b.last_ess


class TestOptimalProposalStep:
    def test_weights_match_closed_form(self):
        # identity H: w propto exp(-0.5 |y - f(x)|^2 / (q + r))
        model = L96Spec(dimension=5)
        h = ObservationOperator(np.arange(5), 5)
        q = NoiseSpec.scaled_identity(5, 0.1)
        r = NoiseSpec.scaled_identity(5, 0.01)
        e = _spread_ensemble(model, 4, 0.2)
        y = model.cycle_map(e.particles[2]) + 0.05
        cfg = FilterConfig(ess_threshold_fraction=1e-9)
        out = _full_oppf(e, model, h, q, r, y, RngStream(1).child(5, 1), cfg)
        fz = model.cycle_map(e.particles.T).T
        logw = -0.5 * np.sum((y - fz) ** 2, axis=1) / 0.11
        w = np.exp(logw - logw.max())
        np.testing.assert_allclose(out.weights, w / w.sum(), atol=1e-12)

    def test_moves_match_closed_form(self):
        model = L96Spec(dimension=5)
        h = ObservationOperator(np.arange(5), 5)
        qs, rs = 0.1, 0.01
        q = NoiseSpec.scaled_identity(5, qs)
        r = NoiseSpec.scaled_identity(5, rs)
        e = _spread_ensemble(model, 3, 0.2)
        y = model.cycle_map(e.particles[0]) + 0.1
        rng = RngStream(6).child(5, 4)
        cfg = FilterConfig(ess_threshold_fraction=1e-9)
        out = _full_oppf(e, model, h, q, r, y, rng, cfg)
        fz = model.cycle_map(e.particles.T).T
        xi = np.stack([_lane(rng, l).standard_normal(5) for l in range(3)])
        qp = 1.0 / (1.0 / qs + 1.0 / rs)
        expect = fz + (y - fz) * qs / (qs + rs) + np.sqrt(qp) * xi
        np.testing.assert_allclose(out.particles, expect, atol=1e-12)

    def test_weight_uses_pre_update_forecast(self):
        # two particles with equal forecasts get equal weights no matter how
        # the proposal scatters them afterwards
        model = L96Spec(dimension=5)
        h = ObservationOperator(np.arange(5), 5)
        q = NoiseSpec.scaled_identity(5, 0.5)
        r = NoiseSpec.scaled_identity(5, 0.5)
        x = model.default_state()
        e = ParticleEnsemble.uniform(np.vstack([x, x]))
        y = model.cycle_map(x) + 1.0
        out = _full_oppf(e, model, h, q, r, y, RngStream(3).child(5, 7),
                         FilterConfig(ess_threshold_fraction=1e-9))
        np.testing.assert_allclose(out.weights, [0.5, 0.5], atol=1e-14)
        assert not np.array_equal(out.particles[0], out.particles[1])

    def test_identity_wrapper_is_bit_equal(self):
        model, h, q, r = _l96_setup()
        e = _spread_ensemble(model, 5, 0.05)
        y = h.apply(model.cycle_map(e.particles[0])) + 0.02
        rng = RngStream(12).child(5, 9)
        a = _full_oppf(e, model, h, q, r, y, rng)
        red = _explicit_identity(model, h, q, r)
        b = proj_oppf_step(ParticleEnsemble(e.particles, e.weights), red, y,
                           red.reduce_data(y), rng)
        np.testing.assert_array_equal(a.particles, b.particles)
        np.testing.assert_array_equal(a.weights, b.weights)


class TestFullSpaceWithoutDenseMatrices:
    """identity_reduced_model at the shallow-water shape: M = 3,072 states, every
    100th observed. Its optimal proposal keeps a diagonal factor and Z^q skips
    q I; the explicit-identity route keeps the dense algebra and is the oracle.

    Bit equality with the oracle assumes a BLAS that inverts the diagonal
    Cholesky factor to the correctly rounded reciprocals and adds products with
    exact zeros exactly, as OpenBLAS (numpy's wheel BLAS) does; the failure
    messages name the BLAS numpy loaded."""

    def test_swe_shape_matches_dense_route_bit_for_bit(self, numpy_blas):
        model = SWESpec(nx=64, ny=16)
        m = model.dimension
        h = ObservationOperator(np.arange(0, m, 100), m)
        q = NoiseSpec.scaled_identity(m, 0.1)
        r = NoiseSpec.scaled_identity(h.data_dim, 0.01)
        diagonal = identity_reduced_model(model, h, q, r)
        dense = _explicit_identity(model, h, q, r)
        rng = RngStream(31)
        x = model.default_jet_state(jet_speed=5.0, jet_width=80000.0,
                                    perturb_amplitude=0.5)
        ens_d = ens_o = initialize_ensemble(x, q, 5, rng.child(0))
        cfg = FilterConfig(ess_threshold_fraction=1.0)  # resample every step
        resampled = []
        for t in range(1, 4):
            x = model.cycle_map(x)
            y = observe(x, h, r, rng.child(1, t))
            ens_d = proj_oppf_step(ens_d, diagonal, y, diagonal.reduce_data(y),
                                   rng.child(2, t), cfg)
            ens_o = proj_oppf_step(ens_o, dense, y, dense.reduce_data(y),
                                   rng.child(2, t), cfg)
            blas = f"step {t}, numpy BLAS {numpy_blas}"
            np.testing.assert_array_equal(ens_d.particles, ens_o.particles, err_msg=blas)
            np.testing.assert_array_equal(ens_d.weights, ens_o.weights, err_msg=blas)
            assert ens_d.last_ess == ens_o.last_ess, blas
            resampled.append(ens_d.last_resampled)
        assert all(resampled)
        zq = diagonal.zq_matrix()
        np.testing.assert_array_equal(zq, dense.zq_matrix())
        h_q = dense.h_q
        np.testing.assert_array_equal(zq, h_q @ (q.cov_matrix() @ h_q.T) + r.cov_matrix())

    def test_one_particle_matches_dense_route_bit_for_bit(self, numpy_blas):
        # one particle makes each of the dense route's products a single row;
        # they still add only exact zeros to the diagonal route's products
        model = L96Spec(dimension=40)
        h = ObservationOperator(np.arange(0, 40, 4), 40)
        q = NoiseSpec.scaled_identity(40, 0.1)
        r = NoiseSpec.scaled_identity(h.data_dim, 0.01)
        diagonal = identity_reduced_model(model, h, q, r)
        dense = _explicit_identity(model, h, q, r)
        rng = RngStream(5)
        x = model.default_state(rng.child(0))
        ens_d = ens_o = initialize_ensemble(x, q, 1, rng.child(1))
        for t in range(1, 4):
            x = model.cycle_map(x)
            y = observe(x, h, r, rng.child(2, t))
            ens_d = proj_oppf_step(ens_d, diagonal, y, diagonal.reduce_data(y),
                                   rng.child(3, t))
            ens_o = proj_oppf_step(ens_o, dense, y, dense.reduce_data(y), rng.child(3, t))
            blas = f"step {t}, numpy BLAS {numpy_blas}"
            np.testing.assert_array_equal(ens_d.particles, ens_o.particles, err_msg=blas)
            np.testing.assert_array_equal(ens_d.weights, ens_o.weights, err_msg=blas)

    def test_holds_no_state_sized_matrix(self):
        m = 3072
        model = L96Spec(dimension=m)
        h = ObservationOperator(np.arange(0, m, 100), m)
        q = NoiseSpec.scaled_identity(m, 0.1)
        r = NoiseSpec.scaled_identity(h.data_dim, 0.01)
        x = model.default_state(RngStream(1))
        ens = initialize_ensemble(x, q, 5, RngStream(2))
        y = h.apply(model.cycle_map(x))
        tracemalloc.start()
        try:
            red = identity_reduced_model(model, h, q, r)
            proj_oppf_step(ens, red, y, red.reduce_data(y), RngStream(3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one 3,072 x 3,072 float64 matrix alone is 72 MiB
        assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"


class TestResampling:
    def _collapsing_step(self, threshold=0.5):
        # one particle sits on the truth, the rest far away: weights collapse
        model = L96Spec(dimension=5)
        h = ObservationOperator(np.arange(5), 5)
        q = NoiseSpec.scaled_identity(5, 0.01)
        r = NoiseSpec.scaled_identity(5, 0.0001)
        x = model.default_state(RngStream(2))
        for _ in range(200):
            x = model.step(x)
        particles = np.vstack([x, x + 3.0, x - 3.0, x + 5.0])
        e = ParticleEnsemble.uniform(particles)
        y = model.cycle_map(x)
        cfg = FilterConfig(ess_threshold_fraction=threshold, resample_omega=1e-2)
        rng = RngStream(40).child(5, 11)
        red = identity_reduced_model(model, h, q, r)
        return proj_oppf_step(e, red, y, y.copy(), rng, cfg), rng, red, cfg

    def test_resample_resets_weights_and_flags(self):
        out, rng, red, cfg = self._collapsing_step()
        assert out.last_resampled
        assert out.last_ess < 2.0
        np.testing.assert_array_equal(out.weights, np.full(4, 0.25))

    def test_no_resample_above_threshold(self):
        out, *_ = self._collapsing_step(threshold=1e-9)
        assert not out.last_resampled
        assert out.weights.max() > 0.99  # collapsed but kept

    def test_resample_rng_replay(self):
        # resample consumes lane L: one uniform, then an (L, M) jitter block
        out, rng, red, cfg = self._collapsing_step()
        no_resample, *_ = self._collapsing_step(threshold=1e-9)
        w = no_resample.weights
        gen = _lane(rng, 4)
        ancestors = systematic_resample(w, gen)
        jitter = red.jitter_noise(gen, 4, cfg.resample_omega, cfg.resample_alpha)
        np.testing.assert_array_equal(out.particles,
                                      no_resample.particles[ancestors] + jitter)


class TestCounterLanes:
    """A filter step builds its stream's generator once: particle l draws from
    counter lane l of its Philox, an eventual resample from lane L."""

    def test_lane_zero_is_the_stream_generator(self):
        rng = RngStream(11).child(5, 3)
        lane0, fresh = _lanes(rng)(0).bit_generator, rng.generator().bit_generator
        a, b = lane0.state, fresh.state
        np.testing.assert_array_equal(a["state"]["counter"], b["state"]["counter"])
        np.testing.assert_array_equal(a["state"]["key"], b["state"]["key"])
        assert (a["buffer_pos"], a["has_uint32"]) == (b["buffer_pos"], b["has_uint32"])
        np.testing.assert_array_equal(lane0.random_raw(9), fresh.random_raw(9))

    def test_lanes_are_pairwise_different_and_replayable(self):
        rng = RngStream(11).child(5, 3)
        lane = _lanes(rng)
        n = 20
        first = [tuple(lane(l).bit_generator.random_raw(4)) for l in range(n + 1)]
        assert len(set(first)) == n + 1
        # repositioning after other lanes' draws restarts the lane
        for l in (n, 0, 7):
            np.testing.assert_array_equal(lane(l).standard_normal(9),
                                          _lane(rng, l).standard_normal(9))

    @pytest.mark.parametrize("step", [_full_oppf, _full_pf], ids=["oppf", "pf"])
    def test_one_generator_per_step(self, monkeypatch, step):
        model, h, q, r = _l96_setup(m=20, every=2)
        e = _spread_ensemble(model, 20, 0.05)
        y = h.apply(model.cycle_map(e.particles[0]))
        rng = RngStream(8).child(5, 2)
        built = []
        generator = RngStream.generator

        def counted(stream):
            built.append(stream.key)
            return generator(stream)

        monkeypatch.setattr(RngStream, "generator", counted)
        out = step(e, model, h, q, r, y, rng, FilterConfig(ess_threshold_fraction=1.0))
        assert out.last_resampled
        assert built == [rng.key]

    def test_lane_draws_are_pinned(self):
        # the same sample sequence across runs and platforms, numpy 1.24 to 2.x:
        # lane 2 of trial 0's step-1 stream, positioned through Philox.state
        gen = _lanes(RngStream(0).child(5, 1))(2)
        state = gen.bit_generator.state
        np.testing.assert_array_equal(state["state"]["counter"], [0, 0, 2, 0])
        assert state["buffer_pos"] == 4
        np.testing.assert_array_equal(
            gen.standard_normal(3),
            [-0.4140104958926921, 1.568684214286947, 0.45096681979596104])


class TestProjectedResampleNoise:
    """ReducedModel.jitter_noise, the jitter every resampling step adds."""

    def test_identity_bases_are_scaled_white_noise(self):
        red = identity_reduced_model(*_l96_setup(m=4, every=1))
        rows = red.jitter_noise(RngStream(3).generator(), 5, omega=0.04, alpha=0.7)
        xi = 0.2 * RngStream(3).generator().standard_normal((5, 4))
        np.testing.assert_allclose(rows, xi, atol=1e-15)

    def test_alpha_interpolates_toward_projection(self):
        rng = np.random.default_rng(2)
        u, _ = np.linalg.qr(rng.standard_normal((6, 3)))
        v, _ = np.linalg.qr(rng.standard_normal((6, 2)))
        alpha, omega = 0.8, 0.09
        red = build_reduced_model(*_l96_setup(every=1), u=ReductionBasis(u, kind="pod"),
                                  v=ReductionBasis(v, kind="pod"), kind="model")
        rows = red.jitter_noise(RngStream(5).generator(), 3, omega, alpha)
        xi = 0.3 * RngStream(5).generator().standard_normal((3, 6))
        smoothed = alpha * (xi @ v) @ v.T + (1 - alpha) * xi
        np.testing.assert_allclose(rows, smoothed @ u, atol=1e-14)

    def test_zero_omega_is_silent(self):
        red = identity_reduced_model(*_l96_setup(m=4, every=1))
        out = red.jitter_noise(RngStream(0).generator(), 2, omega=0.0, alpha=0.5)
        np.testing.assert_array_equal(out, np.zeros((2, 4)))

    def test_validation(self):
        # the data basis is checked when the reduced model is built, alpha and
        # omega when the filter configuration is
        model, h, q, r = _l96_setup(m=4, every=1)
        with pytest.raises(ReductionError):
            build_reduced_model(model, h, q, r, u=identity_basis(4), v=identity_basis(5))
        with pytest.raises(ValueError):
            FilterConfig(resample_alpha=1.5)
        with pytest.raises(ValueError):
            FilterConfig(resample_omega=-1.0)


class TestFilterConfig:
    def test_defaults(self):
        cfg = FilterConfig()
        assert cfg.ess_threshold_fraction == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            FilterConfig(ess_threshold_fraction=0.0)
        with pytest.raises(ValueError):
            FilterConfig(resample_alpha=-0.1)
        with pytest.raises(ValueError):
            FilterConfig(resample_omega=-1.0)
