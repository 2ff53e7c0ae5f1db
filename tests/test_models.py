"""Dynamical models and observation operators.

Hand oracles:
- Lorenz-96 rhs at u=(1,2,3,4), F=0 is (-5, -3, 3, -7): for M=4 the cyclic
  rule (u_{i+1} - u_{i-2}) u_{i-1} - u_i gives (2-3)*4-1, (3-4)*1-2,
  (4-1)*2-3, (1-2)*3-4.
- One RK4 step of x' = -x equals 1 - h + h^2/2 - h^3/6 + h^4/24 exactly.
- The Lorenz-96 step is checked bit for bit against `_reference_step_rk4` of
  `_reference_l96_rhs`, the allocating RK4 step the step plan replaced, kept
  here as it was.
- The shallow-water step is checked bit for bit against `_reference_step`, a
  plain per-column implementation of the same scheme: one field at a time,
  each with its own ghost-padded copy, in the same float operation order.
"""

import re
import tracemalloc
import warnings

import numpy as np
import pytest

from projda.errors import BlowupError
from projda.models import L96Spec, ObservationOperator, SWESpec, observe
from projda.models import lorenz96, shallow_water
from projda.experiments import default_config, training_trajectory
from projda.numerics import TRUTH_IC, NoiseSpec, RngStream


# -- Lorenz-96 reference: the allocating RK4 step --------------------------------

_NEIGHBOURS: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _neighbours(m: int):
    """Cyclic indices (i+1, i-1, i-2) mod m, built once per dimension."""
    idx = _NEIGHBOURS.get(m)
    if idx is None:
        i = np.arange(m)
        idx = _NEIGHBOURS[m] = ((i + 1) % m, (i - 1) % m, (i - 2) % m)
    return idx


def _reference_l96_rhs(u: np.ndarray, forcing: float) -> np.ndarray:
    """du_i/dt = (u_{i+1} - u_{i-2}) u_{i-1} - u_i + F with cyclic indices.

    Accepts a single state of shape (M,) or a batch of column states (M, k).
    The result keeps the memory order of u (a gather alone returns C order),
    because later matrix products round differently on a different layout.
    """
    u = np.asarray(u, dtype=float)
    if u.shape[0] < 4:
        raise ValueError("Lorenz-96 needs dimension >= 4")
    ip1, im1, im2 = _neighbours(u.shape[0])
    out = np.empty_like(u)
    np.subtract(u.take(ip1, axis=0), u.take(im2, axis=0), out=out)
    out *= u.take(im1, axis=0)
    out -= u
    out += forcing
    return out


def _reference_step_rk4(rhs, state: np.ndarray, dt: float) -> np.ndarray:
    """One classical 4th-order Runge-Kutta step of x' = rhs(x)."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    k1 = rhs(state)
    k2 = rhs(state + 0.5 * dt * k1)
    k3 = rhs(state + 0.5 * dt * k2)
    k4 = rhs(state + dt * k3)
    out = state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.isfinite(out).all():
        raise BlowupError("RK4 step produced non-finite values")
    return out


def _reference_l96_step(spec: L96Spec, state: np.ndarray) -> np.ndarray:
    return _reference_step_rk4(lambda u: _reference_l96_rhs(u, spec.forcing),
                               np.asarray(state, dtype=float), spec.dt)


# Every layout a step plan is keyed or laid out by: one state, C- and F-ordered
# blocks, a single column (both orders at once), and views that are not
# contiguous, whose result takes the order np.empty_like gives them.
_L96_INPUTS = {
    "single": lambda g: 3.0 * g.standard_normal(40) + 2.0,
    "c_block": lambda g: g.standard_normal((40, 21)),
    "f_block": lambda g: g.standard_normal((21, 40)).T,
    "one_column": lambda g: g.standard_normal((40, 1)),
    "column_view": lambda g: g.standard_normal((40, 30))[:, ::3],
    "f_column_view": lambda g: g.standard_normal((30, 40)).T[:, ::3],
    "row_view": lambda g: g.standard_normal((80, 6))[::2],
}


def _plan_buffers() -> list:
    """Every array the Lorenz-96 step plans hold, alone or in a list."""
    held = [a for plan in lorenz96._PLANS.values() for value in vars(plan).values()
            for a in (value if isinstance(value, list) else [value])]
    return [a for a in held if isinstance(a, np.ndarray)]


def _same_layout(a: np.ndarray, b: np.ndarray) -> bool:
    return (a.flags.c_contiguous, a.flags.f_contiguous) == (
        b.flags.c_contiguous, b.flags.f_contiguous)


# -- shallow-water reference: one column at a time -----------------------------

def _fields(spec: SWESpec, state: np.ndarray):
    """Flat (M,) state -> (u, v, h) fields of shape (ny, nx)."""
    return tuple(state.reshape(3, spec.ny, spec.nx))


def _reference_step(spec: SWESpec, state: np.ndarray) -> np.ndarray:
    """One Lax-Wendroff step of a flat (M,) state or of each column of (M, k)."""
    if state.ndim == 2:
        return np.stack([_reference_step(spec, state[:, j])
                         for j in range(state.shape[1])], axis=1)
    u, v, h = _fields(spec, state)
    g = spec.gravity
    lx = spec.dt / spec.dx
    ly = spec.dt / spec.dy

    hp = _ref_pad(h, even=True)
    pp = _ref_pad(h * u, even=True)
    qp = _ref_pad(h * v, even=False)

    f1, f2, f3 = _ref_flux_x(hp, pp, qp, g)
    g1, g2, g3 = _ref_flux_y(hp, pp, qp, g)

    hx = 0.5 * (hp[1:-1, 1:] + hp[1:-1, :-1]) - 0.5 * lx * (f1[1:-1, 1:] - f1[1:-1, :-1])
    px = 0.5 * (pp[1:-1, 1:] + pp[1:-1, :-1]) - 0.5 * lx * (f2[1:-1, 1:] - f2[1:-1, :-1])
    qx = 0.5 * (qp[1:-1, 1:] + qp[1:-1, :-1]) - 0.5 * lx * (f3[1:-1, 1:] - f3[1:-1, :-1])

    hy = 0.5 * (hp[1:, 1:-1] + hp[:-1, 1:-1]) - 0.5 * ly * (g1[1:, 1:-1] - g1[:-1, 1:-1])
    py = 0.5 * (pp[1:, 1:-1] + pp[:-1, 1:-1]) - 0.5 * ly * (g2[1:, 1:-1] - g2[:-1, 1:-1])
    qy = 0.5 * (qp[1:, 1:-1] + qp[:-1, 1:-1]) - 0.5 * ly * (g3[1:, 1:-1] - g3[:-1, 1:-1])

    fx1, fx2, fx3 = _ref_flux_x(hx, px, qx, g)
    gy1, gy2, gy3 = _ref_flux_y(hy, py, qy, g)

    h_new = h - lx * (fx1[:, 1:] - fx1[:, :-1]) - ly * (gy1[1:, :] - gy1[:-1, :])
    p_new = (h * u) - lx * (fx2[:, 1:] - fx2[:, :-1]) - ly * (gy2[1:, :] - gy2[:-1, :])
    q_new = (h * v) - lx * (fx3[:, 1:] - fx3[:, :-1]) - ly * (gy3[1:, :] - gy3[:-1, :])

    u_new = p_new / h_new
    v_new = q_new / h_new

    ang = spec.coriolis * spec.dt
    c, s = np.cos(ang), np.sin(ang)
    u_rot = c * u_new + s * v_new
    v_rot = -s * u_new + c * v_new
    decay = np.exp(-spec.friction * spec.dt)
    u_new = decay * u_rot + spec.dt * spec.viscosity * _ref_laplacian(spec, u_rot, even=True)
    v_new = decay * v_rot + spec.dt * spec.viscosity * _ref_laplacian(spec, v_rot, even=False)
    return spec.pack(u_new, v_new, h_new)


def _ref_pad(a, even):
    a = np.concatenate([a[:, -1:], a, a[:, :1]], axis=1)
    sign = 1.0 if even else -1.0
    return np.concatenate([sign * a[:1, :], a, sign * a[-1:, :]], axis=0)


def _ref_flux_x(h, p, q, g):
    u = p / h
    return p, p * u + 0.5 * g * h * h, q * u


def _ref_flux_y(h, p, q, g):
    v = q / h
    return q, p * v, q * v + 0.5 * g * h * h


def _ref_laplacian(spec, a, even):
    ap = _ref_pad(a, even=even)
    return (
        (ap[1:-1, 2:] - 2.0 * ap[1:-1, 1:-1] + ap[1:-1, :-2]) / spec.dx**2
        + (ap[2:, 1:-1] - 2.0 * ap[1:-1, 1:-1] + ap[:-2, 1:-1]) / spec.dy**2
    )


def _jet_block(spec: SWESpec, k: int) -> np.ndarray:
    """k perturbed copies of the jet as the F-ordered (M, k) block that
    ReducedModel.forecast passes: the transpose of C-ordered (k, M) rows."""
    rows = spec.default_jet_state() + 0.01 * np.random.default_rng(7).standard_normal(
        (k, spec.dimension))
    return rows.T


def _interleaved_streams():
    """Jet states of every kind of step plan, to be stepped in turn: 64x16 as
    one state and as a C-ordered block of five, 8x4 as a block of two, and
    64x16 as an F-ordered block of five, which shares the plan of the C one.
    Each entry is (spec, state, whether each step's input is F-ordered)."""
    big, small = SWESpec(), SWESpec(nx=8, ny=4)
    return [
        (big, big.default_jet_state(), False),
        (big, np.ascontiguousarray(_jet_block(big, 5)), False),
        (small, np.ascontiguousarray(_jet_block(small, 2)), False),
        (big, _jet_block(big, 5) + 0.5, True),
    ]


def _step_interleaved(streams):
    """Step every stream once; the new streams and the arrays the steps returned."""
    stepped = [(spec, spec.step(x), fortran) for spec, x, fortran in streams]
    returned = [y for _, y, _ in stepped]
    return [(spec, np.asfortranarray(y) if fortran else y, fortran)
            for spec, y, fortran in stepped], returned


class TestLorenz96:
    def test_rhs_hand_oracle(self):
        got = _reference_l96_rhs(np.array([1.0, 2.0, 3.0, 4.0]), forcing=0.0)
        np.testing.assert_array_equal(got, [-5.0, -3.0, 3.0, -7.0])

    def test_rhs_forcing_shifts(self):
        u = np.array([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(_reference_l96_rhs(u, 8.0),
                                      _reference_l96_rhs(u, 0.0) + 8.0)

    def test_rhs_rest_state_is_fixed_point(self):
        u = np.full(7, 5.0)
        np.testing.assert_array_equal(_reference_l96_rhs(u, 5.0), np.zeros(7))

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
        got = _reference_l96_rhs(u, 8.0)
        np.testing.assert_array_equal(got, expect)
        # the layout matters: a matrix product of the result rounds differently
        # on C- and F-ordered operands
        assert got.flags.c_contiguous == u.flags.c_contiguous
        assert got.flags.f_contiguous == u.flags.f_contiguous

    def test_rk4_linear_decay_exact_polynomial(self):
        h = 0.01
        got = _reference_step_rk4(lambda x: -x, np.array([1.0]), h)
        expect = 1.0 - h + h**2 / 2 - h**3 / 6 + h**4 / 24
        np.testing.assert_allclose(got, [expect], rtol=0, atol=0)
        np.testing.assert_allclose(got, [np.exp(-h)], atol=1e-10)

    @pytest.mark.parametrize("name", sorted(_L96_INPUTS))
    def test_step_matches_reference_bit_for_bit(self, name):
        spec = L96Spec(forcing=8.0)
        x = _L96_INPUTS[name](np.random.default_rng(11))
        got, expect = spec.step(x), _reference_l96_step(spec, x)
        assert got.shape == expect.shape and _same_layout(got, expect)
        assert np.array_equal(got, expect)

    @pytest.mark.parametrize("name", ["single", "c_block", "f_block", "one_column",
                                      "column_view"])
    def test_walk_matches_reference_bit_for_bit(self, name):
        spec = L96Spec(forcing=8.0)
        x = expected = _L96_INPUTS[name](np.random.default_rng(13))
        for _ in range(500):
            x, expected = spec.step(x), _reference_l96_step(spec, expected)
        assert _same_layout(x, expected) and np.array_equal(x, expected)

    def test_interleaved_forcings_share_a_plan_exactly(self):
        # the plan is keyed by shape, not by spec: forcing and dt come with
        # each call, so two specs of one shape stepped in turn stay exact
        specs = [L96Spec(forcing=8.0), L96Spec(forcing=3.0, dt=0.02)]
        block = np.random.default_rng(17).standard_normal((40, 4))
        xs = [block, block.copy()]
        expected = [block, block.copy()]
        for _ in range(200):
            xs = [spec.step(x) for spec, x in zip(specs, xs)]
            expected = [_reference_l96_step(spec, x) for spec, x in zip(specs, expected)]
        for x, ref in zip(xs, expected):
            assert np.array_equal(x, ref)
        assert not np.array_equal(xs[0], xs[1])

    def test_returned_states_are_fresh_arrays(self):
        # _spin_up keeps the state its last step returns by reference, and
        # trials keep their mapped states, so no step may hand back a plan
        # buffer or write into an array it returned earlier
        spec = L96Spec()
        for name, make in _L96_INPUTS.items():
            x = make(np.random.default_rng(19))
            kept = []
            for _ in range(4):
                x = spec.step(x)
                kept.append((x, x.copy()))
            buffers = _plan_buffers()
            for i, (y, copy) in enumerate(kept):
                assert np.array_equal(y, copy), name
                assert not any(np.shares_memory(y, b) for b in buffers), name
                assert not any(np.shares_memory(y, z) for z, _ in kept[i + 1:]), name

    def test_step_raises_blowup_on_non_finite_result(self):
        spec = L96Spec()
        x = np.full((40, 3), 8.0)
        x[5, 1] = 1e200
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(BlowupError):
            spec.step(x)

    def test_a_diverging_step_raises_blowup_without_warnings(self):
        # the step's own finiteness check reports the fault; numpy's overflow
        # warnings on the way there would only repeat it on stderr
        spec = L96Spec()
        x = spec.default_state() * 1e200
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(BlowupError):
                spec.step(x)
        assert caught == []

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
        u, v, h = _fields(spec, state)
        assert u.shape == (4, 8)
        np.testing.assert_array_equal(spec.pack(u, v, h), state)

    def test_mass_is_conserved_exactly(self):
        spec = SWESpec(nx=16, ny=8)
        x = spec.default_jet_state()
        mass0 = _fields(spec, x)[2].sum()
        for _ in range(50):
            x = spec.step(x)
        assert _fields(spec, x)[2].sum() == pytest.approx(mass0, rel=1e-13)

    def test_jet_state_is_near_geostrophic_balance(self):
        # f u ~ -g dh/dy along the jet core; the discrete residual should be
        # small relative to the Coriolis term itself
        spec = SWESpec()
        u, v, h = _fields(spec, spec.default_jet_state(perturb_amplitude=0.0))
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

    @pytest.mark.parametrize("nx, ny", [(64, 16), (8, 4)])
    def test_step_matches_reference_bit_for_bit(self, nx, ny):
        spec = SWESpec(nx=nx, ny=ny)
        x = expected = spec.default_jet_state()
        for _ in range(60):
            x = spec.step(x)
            expected = _reference_step(spec, expected)
            assert x.flags.c_contiguous
            assert np.array_equal(x, expected)

    @pytest.mark.parametrize("nx, ny", [(64, 16), (8, 4)])
    def test_batched_step_matches_reference_bit_for_bit(self, nx, ny):
        # the first step takes the F-ordered block, later ones the C-ordered
        # (M, k) blocks the step returns, as np.stack(columns, axis=1) did
        spec = SWESpec(nx=nx, ny=ny)
        x = expected = _jet_block(spec, 5)
        assert x.flags.f_contiguous and not x.flags.c_contiguous
        for _ in range(60):
            x = spec.step(x)
            expected = _reference_step(spec, expected)
            assert x.shape == expected.shape and x.flags.c_contiguous
            assert np.array_equal(x, expected)

    def test_interleaved_plans_match_reference_and_keep_returned_arrays(self):
        # each grid and column count has its own step plan, reused by every
        # later step of that shape; a step of one shape between two of another
        # must leave neither the results nor earlier returned arrays changed
        streams = _interleaved_streams()
        expected = [x for _, x, _ in streams]
        kept = []
        for _ in range(20):
            streams, returned = _step_interleaved(streams)
            expected = [_reference_step(spec, x)
                        for (spec, _, _), x in zip(streams, expected)]
            for y, ref in zip(returned, expected):
                assert y.flags.c_contiguous and np.array_equal(y, ref)
            kept += [(y, y.copy()) for y in returned]
        assert all(np.array_equal(y, copy) for y, copy in kept)

    def test_jet_steps_raise_no_floating_point_warnings(self):
        # the seams of the padded buffer are computed too, and a plan's
        # buffers hold the last step of their shape; none of them may divide
        # by zero or overflow
        streams = _interleaved_streams()
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(60):
                streams, _ = _step_interleaved(streams)

    @pytest.mark.parametrize("k", [1, 5])
    def test_step_allocates_little_beyond_its_result(self, k):
        spec = SWESpec()
        x = spec.default_jet_state() if k == 1 else _jet_block(spec, k)
        spec.step(x)  # builds the plan of this shape
        tracemalloc.start()
        try:
            y = spec.step(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * y.nbytes, f"peak {peak / 1024:.0f} KiB"

    def test_batched_check_is_per_column(self):
        spec = SWESpec(nx=8, ny=4)
        assert (250.0 + np.sqrt(spec.gravity * 9000.0)) * spec.dt / spec.dx >= 1.0
        block = _fast_deep_pair(spec)
        assert np.array_equal(spec.step(block), _reference_step(spec, block))

    def test_batched_cfl_violation_names_its_column(self):
        spec = SWESpec(nx=8, ny=4)
        x = spec.default_jet_state()
        fast = spec.pack(np.full((4, 8), 300.0), np.zeros((4, 8)),
                         np.full((4, 8), spec.depth))
        with pytest.raises(BlowupError, match=r"runtime CFL violation.*\(column 2\)$"):
            spec.step(np.stack([x, x, fast, x], axis=1))

    def test_batched_nonpositive_depth_names_its_column(self):
        spec = SWESpec(nx=8, ny=4)
        x = spec.default_jet_state()
        dry = x.copy()
        dry[-5] = 0.0
        with pytest.raises(BlowupError, match=r"non-positive or non-finite \(column 1\)$"):
            spec.step(np.stack([x, dry], axis=1))
        with pytest.raises(BlowupError, match=r"non-positive or non-finite$"):
            spec.step(dry)

    def test_depth_lost_in_the_step_names_its_column(self):
        # a one-metre cell drained from both sides passes the check before
        # the step and fails the one after it
        spec = SWESpec(nx=8, ny=4)
        drained = _drained(spec, 1.0)
        x = spec.default_jet_state()
        with pytest.raises(BlowupError, match=r"depth became .*\(column 2\)$"):
            spec.step(np.stack([x, x, drained], axis=1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", [0, 1], ids=["u", "v"])
    def test_non_finite_velocity_is_rejected_before_the_step(self, field, bad):
        # NaN compares false with the CFL bound, so that check alone let it in
        spec = SWESpec(nx=8, ny=4)
        x = spec.default_jet_state()
        x[field * spec.nx * spec.ny + 3] = bad
        with pytest.raises(BlowupError, match=r"^shallow-water velocities are non-finite$"):
            spec.step(x)
        with pytest.raises(BlowupError, match=r"velocities are non-finite \(column 1\)$"):
            spec.step(np.stack([spec.default_jet_state(), x], axis=1))

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
        u, v, h = _fields(spec, x)
        assert np.all(h > 0) and np.all(np.abs(u) < 60)


# -- step(state, n): n steps in one call -----------------------------------------

_MODELS = ["l96", "swe"]
_LAYOUTS = ["single", "c_block", "f_block"]


def _model_inputs(model: str) -> tuple:
    """A spec of the model and states to step: one state, a C-ordered and an
    F-ordered block."""
    if model == "l96":
        g = np.random.default_rng(23)
        return L96Spec(forcing=8.0), {name: _L96_INPUTS[name](g) for name in _LAYOUTS}
    spec = SWESpec()
    return spec, {"single": spec.default_jet_state(),
                  "c_block": np.ascontiguousarray(_jet_block(spec, 5)),
                  "f_block": _jet_block(spec, 5)}


def _single_steps(spec, x, n: int) -> np.ndarray:
    """n calls of one step from x, which step(x, n) must equal."""
    for _ in range(n):
        x = spec.step(x)
    return x


def _returned_layout(spec, x, y) -> bool:
    """Whether y has the memory order a step of x returns: x's own for
    Lorenz-96, C order for the shallow-water model."""
    return _same_layout(x, y) if spec.keeps_order else y.flags.c_contiguous


def _l96_streams() -> list:
    """Lorenz-96 states of every kind of step plan, to be stepped in turn: one
    state, a C-ordered block, a smaller model with other constants, and an
    F-ordered block that shares the plan of the C one."""
    g = np.random.default_rng(29)
    big, small = L96Spec(forcing=8.0), L96Spec(dimension=9, forcing=3.0, dt=0.02)
    return [(big, 3.0 * g.standard_normal(40)), (big, g.standard_normal((40, 4))),
            (small, g.standard_normal((9, 3))), (big, g.standard_normal((4, 40)).T)]


def _swe_plan_buffers() -> list:
    """Every array the shallow-water step plans hold: alone, in a tuple or in
    a ghost gather."""
    held = []
    for plan in shallow_water._PLANS.values():
        for value in vars(plan).values():
            if isinstance(value, shallow_water._Ghosts):
                held += vars(value).values()
            elif isinstance(value, tuple):
                held += value
            else:
                held.append(value)
    return [a for a in held if isinstance(a, np.ndarray)]


class TestStepCount:
    """step(x, n) runs n steps in one call: the bits, the memory order and the
    errors of n calls of one step, in one fresh array."""

    @pytest.mark.parametrize("layout", _LAYOUTS)
    @pytest.mark.parametrize("model", _MODELS)
    def test_equals_single_steps_bit_for_bit(self, model, layout):
        spec, inputs = _model_inputs(model)
        x = inputs[layout]
        for n in (1, 2, 7, 60):
            got, expect = spec.step(x, n), _single_steps(spec, x, n)
            assert got.shape == expect.shape and np.array_equal(got, expect)
            assert _same_layout(got, expect) and _returned_layout(spec, x, got)

    @pytest.mark.parametrize("model", _MODELS)
    def test_interleaved_plans_equal_single_steps(self, model):
        # calls of other shapes between two calls of one shape reuse every
        # plan; neither the walks nor the arrays returned earlier may change
        if model == "l96":
            streams = _l96_streams()
        else:
            streams = [(spec, x) for spec, x, _ in _interleaved_streams()]
        counts = (3, 1, 5, 2)
        xs, kept = [x for _, x in streams], []
        for n in counts:
            xs = [spec.step(x, n) for (spec, _), x in zip(streams, xs)]
            kept += [(y, y.copy()) for y in xs]
        for (spec, x0), y in zip(streams, xs):
            expect = _single_steps(spec, x0, sum(counts))
            assert np.array_equal(y, expect) and _same_layout(y, expect)
        assert all(np.array_equal(y, copy) for y, copy in kept)

    @pytest.mark.parametrize("model", _MODELS)
    def test_results_share_no_memory(self, model):
        # _spin_up and the trials keep the states steps return by reference
        spec, inputs = _model_inputs(model)
        for name, x in inputs.items():
            kept = []
            for n in (3, 1, 4):
                x = spec.step(x, n)
                kept.append((x, x.copy()))
            buffers = _plan_buffers() if model == "l96" else _swe_plan_buffers()
            for i, (y, copy) in enumerate(kept):
                assert np.array_equal(y, copy), name
                assert not any(np.shares_memory(y, b) for b in buffers), name
                assert not any(np.shares_memory(y, z) for z, _ in kept[i + 1:]), name

    def test_swe_walks_raise_no_floating_point_warnings(self):
        streams = _interleaved_streams()
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            for n in (7, 1, 30):
                streams = [(spec, spec.step(x, n), f) for spec, x, f in streams]

    @pytest.mark.parametrize("model, k", [("swe", 1), ("swe", 5), ("l96", 21)])
    def test_a_cycle_allocates_little_beyond_its_result(self, model, k):
        # the bound of a single step (TestShallowWater) holds for 60 steps
        spec, inputs = _model_inputs(model)
        x = inputs["single" if k == 1 else "f_block"]
        spec.step(x, 60)  # builds the plan of this shape
        tracemalloc.start()
        try:
            y = spec.step(x, 60)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * y.nbytes, f"peak {peak / 1024:.0f} KiB"

    @pytest.mark.parametrize("model", _MODELS)
    @pytest.mark.parametrize("n", [0, -1])
    def test_a_count_below_one_is_rejected(self, model, n):
        spec, inputs = _model_inputs(model)
        with pytest.raises(ValueError, match="step count must be >= 1"):
            spec.step(inputs["single"], n)

    @pytest.mark.parametrize("model", _MODELS)
    def test_cycle_map_is_one_call_of_step(self, monkeypatch, model):
        # a tracer wraps the attribute step, so a cycle must go through it
        spec, inputs = _model_inputs(model)
        step, counts = type(spec).step, []

        def counted(self, state, n=1):
            counts.append(n)
            return step(self, state, n)

        monkeypatch.setattr(type(spec), "step", counted)
        y = spec.cycle_map(inputs["c_block"])
        assert counts == [spec.steps_per_observation]
        assert np.array_equal(y, _single_steps(spec, inputs["c_block"],
                                               spec.steps_per_observation))


# -- failing walks: the error of the failing single step ------------------------

def _checkerboard(spec: SWESpec, amplitude: float) -> np.ndarray:
    """Rest depth under velocities of the amplitude that alternate in sign
    from cell to cell, the mode an explicit viscosity amplifies most."""
    i, j = np.indices((spec.ny, spec.nx))
    flow = amplitude * (-1.0) ** (i + j)
    return spec.pack(flow, flow, np.full((spec.ny, spec.nx), spec.depth))


def _drained(spec: SWESpec, depth: float) -> np.ndarray:
    """One cell of the depth on an 8x4 grid, drained from both sides."""
    h = np.full((4, 8), spec.depth)
    h[1, 3] = depth
    u = np.zeros((4, 8))
    u[:, 4:] = 100.0
    u[:, :3] = -100.0
    return spec.pack(u, np.zeros((4, 8)), h)


def _fast_deep_pair(spec: SWESpec) -> np.ndarray:
    """The fastest flow in column 0 and the deepest layer in column 1: each
    is stable alone, but the fastest flow over the deepest layer is not."""
    zero = np.zeros((4, 8))
    fast = spec.pack(np.full((4, 8), 250.0), zero, np.full((4, 8), spec.depth))
    deep = spec.pack(zero, zero, np.full((4, 8), 9000.0))
    return np.stack([fast, deep], axis=1)


def _nan_velocity(spec: SWESpec) -> np.ndarray:
    jet = spec.default_jet_state()
    bad = jet.copy()
    bad[3] = np.nan
    return np.stack([jet, bad], axis=1)


def _l96_spike(spec: L96Spec) -> np.ndarray:
    x = np.full(spec.dimension, spec.forcing)
    x[5] = 1e5
    return x


_SMALL = SWESpec(nx=8, ny=4)
# a one-metre grid with a viscosity far past the explicit scheme's bound: the
# checkerboard flow grows by about a factor 8 dt nu / dx^2 each step
_FINE = dict(nx=8, ny=4, dx=1.0, dy=1.0, dt=0.01)

# name -> (spec, state, the step at which single steps fail or None, message)
_WALKS = {
    "cfl-on-input": (_SMALL, lambda s: s.pack(*np.full((2, 4, 8), 300.0),
                                              np.full((4, 8), s.depth)),
                     0, r"^runtime CFL violation: .* >= 1$"),
    "cfl-at-step-4": (SWESpec(**_FINE, viscosity=80.0), lambda s: _checkerboard(s, 1.0),
                      4, r"^runtime CFL violation: .* = 1\.068 >= 1$"),
    "depth-lost-at-step-3": (
        _SMALL, lambda s: np.stack([s.default_jet_state()] * 2 + [_drained(s, 120.0)], axis=1),
        3, r"^shallow-water layer depth became non-positive or non-finite \(column 2\)$"),
    "non-finite-at-step-1": (SWESpec(**_FINE, viscosity=1.25e308),
                             lambda s: _checkerboard(s, 4e-306),
                             1, r"^shallow-water step produced non-finite values$"),
    "nan-velocity-on-input": (_SMALL, _nan_velocity, 0,
                              r"^shallow-water velocities are non-finite \(column 1\)$"),
    "fast-deep-pair": (_SMALL, _fast_deep_pair, None, None),
    "l96-at-step-2": (L96Spec(), _l96_spike, 2, r"^RK4 step produced non-finite values$"),
}


def _outcome(fn):
    """fn()'s result, or the type and the message of the BlowupError it raises."""
    with np.errstate(all="ignore"):
        try:
            return fn()
        except BlowupError as exc:
            return type(exc), str(exc)


def _failing_step(spec, x, n: int):
    """The index of the first of n single steps from x that raises, or None."""
    with np.errstate(all="ignore"):
        for i in range(n):
            try:
                x = spec.step(x)
            except BlowupError:
                return i
    return None


@pytest.mark.parametrize("case", list(_WALKS))
def test_a_walk_fails_as_its_single_steps_do(case):
    spec, make, failing, message = _WALKS[case]
    x, n = make(spec), 8
    assert _failing_step(spec, x, n) == failing
    got = _outcome(lambda: spec.step(x, n))
    expect = _outcome(lambda: _single_steps(spec, x, n))
    if failing is None:
        assert np.array_equal(got, expect)
        return
    assert got == expect
    assert re.search(message, got[1]), got[1]
    if failing:
        # the steps before the failing one pass
        assert np.array_equal(spec.step(x, failing), _single_steps(spec, x, failing))


def test_fast_deep_pair_fails_only_the_all_column_check_at_every_step():
    # so each step of the walk takes the per-column fallback
    x, n = _fast_deep_pair(_SMALL), _SMALL.nx * _SMALL.ny
    for _ in range(8):
        u, h = x[:n], x[2 * n:]
        cfl = (np.abs(u).max() + np.sqrt(_SMALL.gravity * h.max())) * _SMALL.dt / _SMALL.dx
        assert cfl >= 1.0
        x = _SMALL.step(x)


def _dense(h: ObservationOperator) -> np.ndarray:
    """H as a dense 0/1 matrix."""
    out = np.zeros((h.data_dim, h.state_dim))
    out[np.arange(h.data_dim), h.indices] = 1.0
    return out


class TestObservation:
    def test_every_kth_indices(self):
        h = ObservationOperator(np.arange(0, 10, 3), 10)
        np.testing.assert_array_equal(h.indices, [0, 3, 6, 9])
        assert h.data_dim == 4

    def test_apply_matches_matrix(self):
        h = ObservationOperator(np.arange(1, 6, 2), 6)
        x = np.arange(6.0)
        np.testing.assert_array_equal(h.apply(x), [1.0, 3.0, 5.0])
        np.testing.assert_array_equal(_dense(h) @ x, h.apply(x))

    def test_pinv_is_transpose_for_row_subsampling(self):
        # the reduced-model assembly relies on H^+ = H^T
        dense = _dense(ObservationOperator(np.arange(0, 7, 2), 7))
        np.testing.assert_allclose(np.linalg.pinv(dense), dense.T, atol=1e-15)
        np.testing.assert_array_equal(dense @ dense.T, np.eye(dense.shape[0]))

    def test_identity_operator(self):
        h = ObservationOperator(np.arange(5), 5)
        assert h.data_dim == 5
        x = np.arange(5.0)
        np.testing.assert_array_equal(h.apply(x), x)

    def test_apply_batched_rows(self):
        h = ObservationOperator(np.arange(0, 6, 3), 6)
        rows = np.arange(12.0).reshape(2, 6)
        np.testing.assert_array_equal(h.apply(rows), rows[:, [0, 3]])

    def test_validation(self):
        with pytest.raises(ValueError):
            ObservationOperator([0, 0], 4)  # duplicate indices
        with pytest.raises(ValueError):
            ObservationOperator([5], 4)  # out of range

    def test_observe_is_truth_plus_noise(self):
        h = ObservationOperator(np.arange(0, 8, 2), 8)
        r = NoiseSpec.scaled_identity(h.data_dim, 0.01)
        x = np.arange(8.0)
        rng = RngStream(3)
        y = observe(x, h, r, rng)
        noise = r.sample(RngStream(3).generator())
        np.testing.assert_array_equal(y, h.apply(x) + noise)


class TestSimulate:
    def test_deterministic_trajectory_shape_and_stride(self):
        # burn_in steps, then every training_stride-th state
        cfg = default_config("l96", dimension=5, burn_in=7, training_steps=10,
                             training_stride=2, base_seed=3)
        states, meta = training_trajectory(cfg, 1)
        spec = cfg.build_model()
        x = spec.default_state(RngStream(3).child(1, TRUTH_IC))
        for _ in range(7):
            x = spec.step(x)
        expect = [x]
        for s in range(1, 11):
            x = spec.step(x)
            if s % 2 == 0:
                expect.append(x)
        assert states.shape == (6, 5) and meta["n_steps"] == 5
        np.testing.assert_array_equal(states, np.asarray(expect))
