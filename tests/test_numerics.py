"""Numerics layer: named rng streams, factorizations, noise specs.

Hand oracles:
- qr_positive(diag(2, -3)) = (diag(1, -1), diag(2, 3))
- quad of v=(1,0) under cov [[2,1],[1,2]] is 2/3 (inverse is (1/3)[[2,-1],[-1,2]])
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from projda.errors import NumericsError, RankDeficiencyError
from projda.numerics import (
    NoiseSpec,
    RngStream,
    _KeyedStream,
    _TimedStreams,
    _inverse_cholesky,
    _philox_keys,
    qr_positive,
)


class TestRngStream:
    def test_generator_replays_from_start(self):
        s = RngStream(42)
        a = s.generator().standard_normal(5)
        b = s.generator().standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_child_is_deterministic(self):
        a = RngStream(42).child(1, 2).generator().standard_normal(3)
        b = RngStream(42).child(1, 2).generator().standard_normal(3)
        np.testing.assert_array_equal(a, b)

    def test_children_are_distinct(self):
        s = RngStream(42)
        a = s.child(0).generator().standard_normal(8)
        b = s.child(1).generator().standard_normal(8)
        assert not np.array_equal(a, b)

    def test_child_composes(self):
        assert RngStream(7).child(1).child(2) == RngStream(7).child(1, 2)
        assert hash(RngStream(7, (1,))) == hash(RngStream(7).child(1))

    def test_rejects_bad_ids(self):
        with pytest.raises(ValueError):
            RngStream(-1)
        with pytest.raises(ValueError):
            RngStream(0).child(-3)
        with pytest.raises(ValueError):
            RngStream(0).child(2**32)


class TestFactorizations:
    def test_qr_positive_hand_oracle(self):
        # diag(2, -3): second column flips sign to keep the pivot positive
        q, t = qr_positive(np.diag([2.0, -3.0]))
        np.testing.assert_allclose(q, np.diag([1.0, -1.0]), atol=1e-14)
        np.testing.assert_allclose(t, np.diag([2.0, 3.0]), atol=1e-14)

    def test_qr_positive_reconstructs(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((9, 4))
        q, t = qr_positive(a)
        np.testing.assert_allclose(q @ t, a, atol=1e-12)
        np.testing.assert_allclose(q.T @ q, np.eye(4), atol=1e-12)
        assert np.all(np.diag(t) > 0)
        assert np.allclose(t, np.triu(t))

    def test_qr_positive_rank_deficient(self):
        a = np.ones((4, 2))  # identical columns
        with pytest.raises(RankDeficiencyError):
            qr_positive(a)

    def test_qr_positive_wide_rejected(self):
        with pytest.raises(RankDeficiencyError):
            qr_positive(np.ones((2, 4)))

    def test_qr_positive_names_the_dependent_column(self):
        a = np.random.default_rng(4).standard_normal((8, 5))
        a[:, 3] = a[:, 0] + a[:, 2]
        with pytest.raises(RankDeficiencyError, match="column 3 is numerically dependent"):
            qr_positive(a)

    def test_qr_positive_rejects_nan(self):
        a = np.random.default_rng(5).standard_normal((6, 3))
        a[2, 1] = np.nan
        with pytest.raises(NumericsError, match="qr input contains non-finite entries"):
            qr_positive(a)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=10**6))
def test_qr_positive_contract(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n + 3, n))
    q, t = qr_positive(a)
    assert q.shape == (n + 3, n) and t.shape == (n, n)
    np.testing.assert_allclose(q @ t, a, atol=1e-10 * max(1.0, np.linalg.norm(a)))
    np.testing.assert_allclose(q.T @ q, np.eye(n), atol=1e-10)
    assert np.all(np.diag(t) > 0)


class TestNoiseSpec:
    def test_scalar_forms(self):
        q = NoiseSpec.scaled_identity(3, 0.25)
        assert q.is_scalar and not q.is_zero
        np.testing.assert_allclose(q.cov_matrix(), 0.25 * np.eye(3))
        v = np.array([2.0, 0.0, -2.0])
        np.testing.assert_allclose(q.solve(v), v / 0.25)
        np.testing.assert_allclose(q.quad(v), 8.0 / 0.25)
        np.testing.assert_allclose(q.color(v), 0.5 * v)

    def test_dense_hand_oracle(self):
        cov = np.array([[2.0, 1.0], [1.0, 2.0]])
        q = NoiseSpec.dense(cov)
        v = np.array([1.0, 0.0])
        np.testing.assert_allclose(q.quad(v), 2.0 / 3.0, atol=1e-14)
        np.testing.assert_allclose(q.solve(v), [2.0 / 3.0, -1.0 / 3.0], atol=1e-14)
        # color maps unit white noise to a factor with C C^T = cov
        c = np.stack([q.color(np.array([1.0, 0.0])), q.color(np.array([0.0, 1.0]))]).T
        np.testing.assert_allclose(c @ c.T, cov, atol=1e-14)

    def test_quad_batched_rows(self):
        q = NoiseSpec.dense(np.array([[2.0, 1.0], [1.0, 2.0]]))
        rows = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        expect = [2.0 / 3.0, 2.0 / 3.0, np.array([1, 1]) @ q.solve([1.0, 1.0])]
        np.testing.assert_allclose(q.quad(rows), expect, atol=1e-14)

    def test_zero_noise_degenerate(self):
        q = NoiseSpec.scaled_identity(2, 0.0)
        assert q.is_zero
        np.testing.assert_array_equal(q.color(np.ones(2)), 0.0)
        assert q.quad(np.zeros(2)) == 0.0
        assert q.quad(np.array([1e-150, 0.0])) == np.inf
        with pytest.raises(NumericsError):
            q.solve(np.ones(2))

    def test_zero_noise_sample_draws_nothing(self):
        # the generator must not advance for a degenerate term
        q = NoiseSpec.scaled_identity(3, 0.0)
        gen = RngStream(9).generator()
        np.testing.assert_array_equal(q.sample(gen), np.zeros(3))
        np.testing.assert_array_equal(
            gen.standard_normal(2), RngStream(9).generator().standard_normal(2)
        )

    def test_sample_matches_colored_draw(self):
        q = NoiseSpec.dense(np.array([[2.0, 1.0], [1.0, 2.0]]))
        draw = q.sample(RngStream(4), size=6)
        xi = RngStream(4).generator().standard_normal((6, 2))
        np.testing.assert_array_equal(draw, q.color(xi))

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseSpec.scaled_identity(2, -0.1)
        with pytest.raises(ValueError):
            NoiseSpec.dense(np.array([[1.0, 0.5], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            NoiseSpec.dense(np.array([[np.inf, 0.0], [0.0, 1.0]]))
        with pytest.raises(NumericsError):
            NoiseSpec.dense(np.array([[1.0, 2.0], [2.0, 1.0]]))._factors()

    @pytest.mark.parametrize("low", [0.0, 3.0, 2.0 ** 20])
    def test_symmetry_tolerance_edge(self, low):
        # an off-diagonal pair may differ by 1e-12 + 1e-10 |lower|, no more
        # (np.allclose's rule, with the transpose as the reference)
        bound = 1e-12 + 1e-10 * low
        high = low + bound
        while high - low > bound:
            high = np.nextafter(high, low)
        NoiseSpec.dense(np.array([[10.0, high], [low, 10.0]]))
        with pytest.raises(ValueError, match="must be symmetric"):
            NoiseSpec.dense(np.array([[10.0, np.nextafter(high, np.inf)], [low, 10.0]]))


class TestTypedNumericsErrors:
    """Non-finite or non-SPD input is a NumericsError, so a sweep fails only
    the trial it happens in."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("op", ["quad", "solve"])
    def test_dense_noise_rejects_non_finite_input(self, op, bad):
        q = NoiseSpec.dense(np.array([[2.0, 1.0], [1.0, 2.0]]))
        v = np.array([[1.0, 0.0], [bad, 1.0]])
        with pytest.raises(NumericsError, match="non-finite"):
            getattr(q, op)(v)

    @pytest.mark.parametrize("matrix", [
        [[np.nan, 0.0], [0.0, 1.0]],
        [[1.0, 0.0], [0.0, np.inf]],
        [[1.0, 2.0], [2.0, 1.0]],  # indefinite
        [[0.0, 0.0], [0.0, 1.0]],  # singular
    ])
    def test_factor_failure_carries_the_callers_message(self, matrix):
        with pytest.raises(NumericsError, match=r"^weight matrix Z\^q is singular: "):
            _inverse_cholesky(np.array(matrix), "weight matrix Z^q is singular")

    def test_non_spd_noise_names_the_covariance(self):
        q = NoiseSpec.dense(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(NumericsError, match="^noise covariance is not SPD: "):
            q.quad(np.ones(2))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=8),
    st.floats(min_value=1e-6, max_value=1e6),
)
def test_scalar_quad_is_scaled_norm(vals, scale):
    v = np.asarray(vals)
    q = NoiseSpec.scaled_identity(v.size, scale)
    np.testing.assert_allclose(q.quad(v), float(v @ v) / scale, rtol=1e-12)


_UINT32 = st.integers(min_value=0, max_value=2**32 - 1)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(min_value=0, max_value=2**130),
    st.lists(_UINT32, max_size=3).map(tuple),
    st.lists(_UINT32, min_size=1, max_size=5),
)
def test_bulk_philox_keys_are_seed_sequence_keys(seed, prefix, ts):
    keys = _philox_keys(seed, prefix, np.array(ts, dtype=np.uint32))
    assert keys.shape == (len(ts), 2) and keys.dtype == np.uint64
    gen = np.random.Generator(np.random.Philox(0))
    for t, key in zip(ts, keys):
        stream = RngStream(seed, prefix + (t,))
        np.testing.assert_array_equal(key, np.random.SeedSequence(
            seed, spawn_key=prefix + (t,)).generate_state(2, np.uint64))
        # a kept generator re-keyed draws as the stream's own does, and
        # goes on doing so after another stream used it
        keyed = _KeyedStream(seed, prefix + (t,), key, gen)
        expected = stream.generator()
        np.testing.assert_array_equal(keyed.generator().standard_normal(3),
                                      expected.standard_normal(3))
        np.testing.assert_array_equal(keyed.generator().random(2),
                                      stream.generator().random(2))


def test_timed_streams_cross_key_blocks():
    # the keys of a trial's streams come _KEY_BLOCK at a time; every stream
    # of every block draws as RngStream's own generator
    parent = RngStream(2**70 + 11).child(3, 5)
    gen = np.random.Generator(np.random.Philox(0))
    streams = _TimedStreams(parent, 600, gen)
    for t in (1, 2, 256, 257, 512, 513, 600):
        got = streams[t].generator().standard_normal(4)
        np.testing.assert_array_equal(got, parent.child(t).generator().standard_normal(4))
        assert streams[t] == parent.child(t)
    with pytest.raises(ValueError, match="uint32"):
        _TimedStreams(parent, 2**32, gen)
