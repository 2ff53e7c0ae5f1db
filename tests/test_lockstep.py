"""Lockstep trials: the (point, trial) tasks of a chunk advance together, one
model.cycle_map per model and cycle.

The reference is the per-trial loop run_trial ran before lockstep, kept
below; every record of a lockstep group must equal it bit for bit. A failure
in one trial of a group must leave its siblings as they are when run alone.
"""

import concurrent.futures
import csv
import functools
import logging
import multiprocessing
import os
import re
import sys

import numpy as np
import pytest

import projda.experiments.trial as trial_module
from projda.cli import dispatch
from projda.errors import BlowupError, ProjdaError
from projda.experiments import (
    MetricsRecord,
    default_config,
    replace,
    rmse,
    rmse_projected,
    run_sweep,
    run_trial,
    sweep,
    training_trajectory,
)
from projda.experiments.config import ExperimentConfig, _snapshots_needed
from projda.experiments.trial import (
    TrialMemo,
    _file_inputs,
    _initial_state,
    _map_together,
    _spin_up,
)
from projda.filters import initialize_ensemble, proj_oppf_step, proj_pf_step
from projda.models import L96Spec, SWESpec, observe, save_snapshots
from projda.numerics import (
    FILTER_INIT,
    FILTER_STEP,
    OBS_NOISE,
    TRAINING,
    TRUTH_NOISE,
    NoiseSpec,
    RngStream,
    qr_positive,
)
from projda.reduction import (
    ReductionBasis,
    aus_step,
    build_reduced_model,
    dmd,
    dmd_basis,
    identity_reduced_model,
    pod_basis,
    save_basis,
)
from projda.reduction.aus import tangent_block
from projda.reduction.reduced_model import conjugate_noise

logger = logging.getLogger("projda.experiments")


def _reference_walk(config) -> tuple:
    """_reference_spin_up's arguments after x0 for a trial, as the walk of
    run_trial before the basis spin-up walked its own cycles: burn-in,
    training steps, the snapshot stride (None when the trial trains on no
    in-trial snapshots) and the basis spin-up window in observation cycles
    (0 when it needs none)."""
    record_snaps = _snapshots_needed(config) > 0 and not config.snapshot_file
    record_anchors = config.reduction_kind == "aus" and not config.uses_identity_reduction
    return (config.burn_in, config.training_steps,
            config.training_stride if record_snaps else None,
            config.aus_spinup if record_anchors else 0)


def _reference_spin_up(model, x0, burn_in, training_steps, stride, anchor_cycles):
    """_spin_up as it walked before it took one model.step call from each
    recorded state to the next: one call per step."""
    spo = model.steps_per_observation
    total = burn_in + training_steps
    window = anchor_cycles * spo
    snaps, anchors = [], []
    x = np.asarray(x0, dtype=float)
    for s in range(total + 1):
        if stride and s >= burn_in and (s - burn_in) % stride == 0:
            snaps.append(x)
        if s < total and total - s <= window and (total - s) % spo == 0:
            anchors.append(x)
        if s < total:
            x = model.step(x)
    return x, np.asarray(snaps) if snaps else None, np.asarray(anchors) if anchors else None


def _reference_trial(config, trial_index: int) -> MetricsRecord:
    """The body of run_trial before lockstep, verbatim but for three marked
    adaptations: the spin-up is _reference_spin_up above, a walk of single
    steps that records the basis spin-up anchors, without a memo of shared
    walks, the driver's incoming basis is named u (the parent's
    initial_basis), and the driver is ReductionDriver below, the class
    run_trial used before lockstep folded it into its trials.
    ReductionDriver.advance(ensemble) without a mapped block and the filter
    steps without fz map their states themselves, as the parent's did."""
    rng = RngStream(config.base_seed).child(trial_index)
    model = config.build_model()
    h = config.build_observation(model)
    q = NoiseSpec.scaled_identity(model.dimension, config.q_scale)
    r = NoiseSpec.scaled_identity(h.data_dim, config.r_scale)
    fcfg = config.filter_config()

    record = MetricsRecord(trial=trial_index)
    rmses, projs, esses, flags = [], [], [], []
    try:
        x_init = _initial_state(config, model, rng)
        x_start, snapshots, anchors = _reference_spin_up(  # adapted
            model, x_init, *_reference_walk(config))
        driver = ReductionDriver(config, model, h, q, r, snapshots, anchors, rng)  # adapted

        z0 = driver.u.reduce(x_start)  # adapted
        q0 = conjugate_noise(q, driver.u)  # adapted
        ensemble = initialize_ensemble(z0, q0, config.n_particles,
                                       rng.child(FILTER_INIT))

        optimal = config.uses_optimal_proposal
        x_truth = x_start
        for t in range(1, config.n_observations + 1):
            x_truth = model.cycle_map(x_truth)
            if config.truth_noise:
                x_truth = x_truth + q.sample(rng.child(TRUTH_NOISE, t))
            y = observe(x_truth, h, r, rng.child(OBS_NOISE, t))

            reduced = driver.advance(ensemble)
            y_hat = reduced.reduce_data(y)
            step_rng = rng.child(FILTER_STEP, t)
            if optimal:
                ensemble = proj_oppf_step(ensemble, reduced, y, y_hat, step_rng, fcfg)
            else:
                ensemble = proj_pf_step(ensemble, reduced, y_hat, step_rng, fcfg)

            z_mean = ensemble.mean()
            x_est = reduced.basis_out.reconstruct(z_mean)
            rmses.append(rmse(x_est, x_truth))
            projs.append(rmse_projected(z_mean, reduced.basis_out, x_truth))
            esses.append(ensemble.last_ess)
            flags.append(ensemble.last_resampled)
    except ProjdaError as exc:
        record.failed = True
        record.failure = f"{type(exc).__name__}: {exc}"
        logger.warning("trial %d failed after %d observations: %s",
                       trial_index, len(rmses), record.failure)

    record.rmse = np.asarray(rmses, dtype=float)
    record.rmse_proj = np.asarray(projs, dtype=float)
    record.ess = np.asarray(esses, dtype=float)
    record.resampled = np.asarray(flags, dtype=bool)
    if not record.failed:
        logger.info("trial %d: mean rmse %.4g, resampled %.1f%%",
                    trial_index, record.mean_rmse, 100 * record.resample_fraction)
    return record


# The reference's driver: the class run_trial used before lockstep folded it
# into its trials, verbatim.
class ReductionDriver:
    """Owns the reduction bases of one trial and rolls them forward in time.

    POD and DMD bases are fixed; the unstable-subspace basis is re-derived
    every cycle by propagating tangent directions from the current analysis
    mean, so advance() must run before each filter step. u is the incoming
    basis of the upcoming cycle. The config's snapshot_file and basis_file,
    where it uses them, take the place of the in-trial snapshots and of the
    trained basis; memo, when given, is shared with other trials."""

    def __init__(self, config: ExperimentConfig, model, h, q, r,
                 snapshots, anchors, rng: RngStream, memo: TrialMemo | None = None):
        memo = TrialMemo() if memo is None else memo
        self.config = config
        self.model = model
        self.h, self.q, self.r = h, q, r
        self.time_dependent = False

        if config.uses_identity_reduction:
            self.reduced = identity_reduced_model(model, h, q, r)
            self.u = self.reduced.basis_in
            return

        file_snapshots, u_file = _file_inputs(config, model.dimension, memo.files)
        if file_snapshots is not None:
            snapshots = file_snapshots
        kind = config.reduction_kind
        if u_file is not None:
            u = u_file.leading(config.r_p)
        elif kind == "pod":
            u = pod_basis(snapshots.T, config.r_p)
        elif kind == "dmd":
            result = dmd(snapshots.T, rank=config.dmd_rank or None,
                         dt=model.dt * config.training_stride)
            u = dmd_basis(result, config.r_p)
        else:
            u = self._spin_up_aus(anchors, rng)
            self.time_dependent = True

        if config.data_reduction == "model":
            v = u.leading(config.r_d)
        else:
            v = pod_basis(h.apply(snapshots).T, config.r_d)
        self.u = u
        if self.time_dependent:
            self.reduced = None
        else:
            self.reduced = build_reduced_model(model, h, q, r, u, v,
                                               kind=config.data_reduction)

    def _spin_up_aus(self, anchors, rng: RngStream) -> ReductionBasis:
        gen = rng.child(TRAINING).generator()
        seed_mat = gen.standard_normal((self.model.dimension, self.config.r_p))
        q_mat, _ = qr_positive(seed_mat)
        u = ReductionBasis(q_mat, kind="aus", validate=False)
        for anchor in anchors:
            u, _ = aus_step(self.model, anchor, u, eps=self.config.aus_eps)
        return u

    def _anchor(self, ensemble) -> np.ndarray:
        return self.u.reconstruct(ensemble.mean())

    def tangent_block(self, ensemble):
        """The states advance maps for the upcoming cycle: the tangent block
        at the ensemble's mean, None for a fixed basis."""
        if not self.time_dependent:
            return None
        return tangent_block(self._anchor(ensemble), self.u.columns, self.config.aus_eps)

    def advance(self, ensemble, mapped=None):
        """Prepare the reduced model of the upcoming cycle: a time-dependent
        basis steps from the current u to the next, which becomes u. mapped,
        when given, is model.cycle_map of tangent_block(ensemble), already
        taken."""
        if not self.time_dependent:
            return self.reduced
        u_next, _ = aus_step(self.model, self._anchor(ensemble), self.u,
                             eps=self.config.aus_eps, mapped=mapped)
        self.reduced = build_reduced_model(
            self.model, self.h, self.q, self.r,
            u=self.u, u_out=u_next, v=u_next.leading(self.config.r_d),
            kind="model",
        )
        self.u = u_next
        return self.reduced


def assert_same_record(a: MetricsRecord, b: MetricsRecord):
    assert (a.trial, a.failed, a.failure) == (b.trial, b.failed, b.failure)
    for name in ("rmse", "rmse_proj", "ess", "resampled"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name


def _config(model: str, reduction: str, proposal: str, **overrides):
    """A small config of the model with the reduction and the proposal (pf or
    oppf; projected unless the reduction is the identity)."""
    kind = proposal if reduction == "identity" else "proj" + proposal
    extra = dict(reduction_kind=reduction, filter_kind=kind, trials=2, base_seed=31)
    if model == "l96":
        # at this size the filter's products round differently when a mapped
        # block comes back in another memory order
        base = dict(dimension=40, forcing=8.0, n_particles=10, n_observations=5,
                    burn_in=100, training_steps=200, training_stride=5, r_p=10, r_d=2)
    else:
        base = dict(nx=8, ny=4, n_particles=3, n_observations=3, burn_in=60,
                    training_steps=120, training_stride=10, r_p=4, r_d=2)
    if reduction == "aus":
        extra.update(data_reduction="model", aus_spinup=2)
        if model == "swe":
            # a layer's mean depth lies in no few tracked directions, so a
            # lower rank empties it at the first cycle
            extra.update(r_p=96)
    return default_config(model, **{**base, **extra, **overrides})


def _lockstep_records(config, jobs: int = 1) -> dict:
    """(point, trial) -> record of the config's sweep, each trial's points in
    one chunk, as run_sweep hands them out."""
    points = sweep.sweep_points(config)
    workers, blas_threads = sweep._pool_shape(jobs, len(points) * config.trials)
    chunks = [[(p, t, points[p]) for p in range(len(points))]
              for t in range(config.trials)]
    return sweep._execute(chunks, workers, blas_threads)


def _forked_pool(monkeypatch):
    """Pool workers forked from this process, so that they see its patches."""
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", functools.partial(
        concurrent.futures.ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")))


@pytest.mark.parametrize("truth_noise", [True, False], ids=["noise", "no-noise"])
@pytest.mark.parametrize("proposal", ["pf", "oppf"])
@pytest.mark.parametrize("reduction", ["identity", "pod", "dmd", "aus"])
@pytest.mark.parametrize("model", ["l96", "swe"])
def test_records_equal_the_per_trial_loop(model, reduction, proposal, truth_noise):
    config = _config(model, reduction, proposal, truth_noise=truth_noise,
                     sweep_q_scale=(0.1, 0.2))
    points = sweep.sweep_points(config)
    grouped = _lockstep_records(config)
    for (p, t), record in grouped.items():
        reference = _reference_trial(points[p], t)
        assert_same_record(record, reference)
        assert_same_record(run_trial(points[p], t), reference)  # a group of one
    assert len(grouped) == 2 * config.trials


@pytest.mark.parametrize("burn_in, training_steps, stride", [
    (0, 0, None), (0, 0, 1), (7, 0, None), (0, 12, 3), (5, 20, 4), (5, 21, 4),
    (13, 40, 7), (0, 20, 1), (3, 17, None),
])
def test_spin_up_equals_the_walk_of_single_steps(monkeypatch, burn_in, training_steps,
                                                 stride):
    # snapshots start the walk or end it, or stop short of its end
    model = L96Spec(dimension=8, steps_per_observation=5)
    x0 = model.default_state()
    walk = (burn_in, training_steps, stride)
    expect = _reference_spin_up(model, x0, *walk, 0)[:2]
    counts = []
    step = L96Spec.step

    def counted(self, state, n=1):
        counts.append(n)
        return step(self, state, n)

    monkeypatch.setattr(L96Spec, "step", counted)
    got = _spin_up(model, x0, *walk)
    assert len(got) == 2
    for a, b in zip(got, expect):
        assert (a is None) == (b is None)
        assert a is None or (np.array_equal(a, b) and not a.flags.writeable)
    # one call from each recorded state to the next, and on to the end
    recorded = {0, burn_in + training_steps}
    if stride:
        recorded |= set(range(burn_in, burn_in + training_steps + 1, stride))
    marks = sorted(recorded)
    assert counts == [b - a for a, b in zip(marks, marks[1:]) if b > a]


@pytest.mark.parametrize("model, reduction", [
    ("l96", "pod"),  # records the training snapshots
    ("l96", "aus"),  # stops aus_spinup cycles short and records none
    ("swe", "pod"),
], ids=["l96-snapshots", "l96-aus", "swe"])
def test_a_batched_walk_equals_the_lone_walks_of_its_columns(model, reduction):
    config = _config(model, reduction, "oppf")
    spec = config.build_model()
    if model == "l96":
        starts = [_initial_state(config, spec, RngStream(config.base_seed).child(t))
                  for t in range(3)]
    else:
        starts = [spec.default_jet_state(jet_speed=speed) for speed in (5.0, 4.0)]
    walk = trial_module._walk(config, spec)
    assert (walk[2] is None) == (reduction == "aus")
    batched = _spin_up(spec, np.stack(starts, axis=1), *walk)
    assert len(batched) == len(starts)
    for start, pair in zip(starts, batched):
        lone = _spin_up(spec, start, *walk)
        for got, expect in zip(pair, lone):
            assert (got is None) == (expect is None)
            if expect is not None:
                assert got.shape == expect.shape and got.tobytes() == expect.tobytes()
                assert got.flags.c_contiguous and not got.flags.writeable


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_walk_that_blows_up_fails_its_trial_alone(monkeypatch, jobs):
    # trial 1 starts 1e200 times too far out; the batched walk of the three
    # trials' start states cannot be walked, so each trial walks alone
    config = _config("l96", "pod", "oppf", trials=3, sweep_r_p=(3, 4))
    points = sweep.sweep_points(config)
    initial, walk = trial_module._initial_state, trial_module._spin_up

    def blowing_up(config, model, rng):
        x0 = initial(config, model, rng)
        return x0 * 1e200 if rng.key == (1,) else x0

    failed_blocks = []

    def walked(model, x0, *args):
        try:
            return walk(model, x0, *args)
        except BlowupError:
            failed_blocks.append(np.ndim(x0) == 2 and x0.shape[1])
            raise

    monkeypatch.setattr(trial_module, "_initial_state", blowing_up)
    monkeypatch.setattr(trial_module, "_spin_up", walked)
    _forked_pool(monkeypatch)
    model = config.build_model()
    bad = blowing_up(points[0], model, RngStream(config.base_seed).child(1))
    with pytest.raises(BlowupError) as lone:
        walk(model, bad, *trial_module._walk(points[0], model))
    records = sweep._run_points(points, config.trials, jobs)
    assert failed_blocks[0] == config.trials
    for point, point_records in zip(points, records):
        for t, record in enumerate(point_records):
            assert_same_record(record, run_trial(point, t))
            if t == 1:
                assert record.failure == f"BlowupError: {lone.value}"
                assert record.n_observations == 0
            else:
                assert not record.failed, record.failure
                assert_same_record(record, _reference_trial(point, t))


def test_points_on_different_models_share_a_chunk():
    config = _config("l96", "pod", "oppf", sweep_forcing=(3.0, 8.0), sweep_r_p=(3, 4))
    points = sweep.sweep_points(config)
    assert len({cfg.build_model() for cfg in points}) == 2
    for (p, t), record in _lockstep_records(config).items():
        assert_same_record(record, _reference_trial(points[p], t))


@pytest.mark.parametrize("model, x", [
    (L96Spec(dimension=40), L96Spec(dimension=40).default_state()),
    (SWESpec(nx=8, ny=4), SWESpec(nx=8, ny=4).default_jet_state()),
], ids=["l96", "swe"])
def test_mapped_blocks_come_back_in_their_own_calls_order(model, x):
    gen = np.random.default_rng(0)
    truth = x + 0.01 * gen.standard_normal(x.size)
    tangent = np.ascontiguousarray(x[:, None] + 0.01 * gen.standard_normal((x.size, 3)))
    particles = (x[None, :] + 0.01 * gen.standard_normal((4, x.size))).T  # F order
    blocks = [truth, tangent, particles]
    for own, mapped in zip(map(model.cycle_map, blocks), _map_together(model, blocks)):
        assert mapped.shape == own.shape and np.array_equal(mapped, own)
        assert mapped.flags.c_contiguous == own.flags.c_contiguous
        assert mapped.flags.f_contiguous == own.flags.f_contiguous


# ---------------------------------------------------------------------------
# Failure boundary
# ---------------------------------------------------------------------------

_FAILING_RANK = 3
_FAILING_CYCLE = 2


def _blow_up_particle(monkeypatch):
    """Trials at r_p = 3 put a non-finite state into their first particle
    before cycle 2, so that its column cannot be mapped."""
    begin = trial_module._Trial.begin_cycle

    def begin_cycle(self):
        if self.config.r_p == _FAILING_RANK and self.t + 1 == _FAILING_CYCLE:
            self.ensemble.particles[0] = np.nan
        return begin(self)

    monkeypatch.setattr(trial_module._Trial, "begin_cycle", begin_cycle)


def _raise_in_cycle(monkeypatch):
    """Trials at r_p = 3 raise a RuntimeError, a plain bug, in cycle 2."""
    finish = trial_module._Trial.finish_cycle

    def finish_cycle(self, mapped=None):
        if self.config.r_p == _FAILING_RANK and self.t == _FAILING_CYCLE:
            raise RuntimeError("injected")
        return finish(self, mapped)

    monkeypatch.setattr(trial_module._Trial, "finish_cycle", finish_cycle)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("model, reduction", [
    ("l96", "pod"), ("swe", "pod"), ("l96", "aus"),
], ids=["l96", "swe", "l96-aus"])
@pytest.mark.parametrize("inject, failure", [
    (_blow_up_particle, "BlowupError: "),
    (_raise_in_cycle, f"RuntimeError: injected (at observation {_FAILING_CYCLE})"),
], ids=["non-finite-column", "runtime-error"])
def test_a_failing_trial_leaves_its_siblings_as_they_run_alone(
        monkeypatch, inject, failure, model, reduction, jobs):
    # a failing group maps each trial's blocks on their own: the truth and the
    # particles, and the tangent block of the unstable-subspace basis
    inject(monkeypatch)
    _forked_pool(monkeypatch)
    config = _config(model, reduction, "oppf", sweep_r_p=(2, 3, 4))
    points = sweep.sweep_points(config)
    grouped = _lockstep_records(config, jobs)
    for (p, t), record in grouped.items():
        assert_same_record(record, run_trial(points[p], t))
        if points[p].r_p == _FAILING_RANK:
            assert record.failed and record.failure.startswith(failure)
            assert record.n_observations == _FAILING_CYCLE - 1
        else:
            assert not record.failed, record.failure
            assert_same_record(record, _reference_trial(points[p], t))
    if inject is _blow_up_particle and model == "swe":
        # the column is the particle's own, not its place in the group's call
        assert grouped[(1, 0)].failure.endswith("(column 0)")


def test_a_failed_set_up_names_it(monkeypatch):
    monkeypatch.setattr(trial_module, "_initial_state", _raise_runtime_error)
    record = run_trial(_config("l96", "pod", "oppf"), 0)
    assert record.failure == "RuntimeError: injected (in set-up)"
    assert record.n_observations == 0


def _raise_runtime_error(*args, **kwargs):
    raise RuntimeError("injected")


@pytest.mark.parametrize("interrupt", [KeyboardInterrupt, SystemExit])
def test_interrupts_pass_through(monkeypatch, interrupt):
    def finish_cycle(self, mapped=None):
        raise interrupt()

    monkeypatch.setattr(trial_module._Trial, "finish_cycle", finish_cycle)
    with pytest.raises(interrupt):
        run_sweep(_config("l96", "pod", "oppf", sweep_r_p=(3, 4)))


# ---------------------------------------------------------------------------
# What the benchmark's tracer counts, and what a process reads
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("proposal", ["pf", "oppf"])
def test_one_run_trial_per_task_and_one_filter_step_per_cycle(monkeypatch, proposal):
    """perfbench's tracer counts trials as calls of sweep.run_trial and cycles
    as calls of the filter steps looked up in trial.py."""
    calls = {"trial": 0, "step": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(sweep, "run_trial", counted("trial", sweep.run_trial))
    for step in ("proj_pf_step", "proj_oppf_step"):
        monkeypatch.setattr(trial_module, step,
                            counted("step", getattr(trial_module, step)))
    config = _config("l96", "pod", proposal, sweep_r_p=(2, 3, 4))
    rows = run_sweep(config, jobs=1)
    assert [row.failed_trials for row in rows] == [0, 0, 0]
    assert calls == {"trial": 3 * config.trials,
                     "step": 3 * config.trials * config.n_observations}


# the barrier of test_the_caller_is_one_of_the_workers; pool workers forked
# while it is set inherit it
_barrier = None


def _report_pid(chunk, memo=None):
    _barrier.wait(timeout=60)
    return [(p, t, os.getpid()) for p, t, _ in chunk]


@pytest.mark.parametrize("jobs", [2, 3])
def test_the_caller_is_one_of_the_workers(monkeypatch, jobs):
    # one chunk per process, each held until every process holds one: the
    # barrier breaks unless the caller runs a chunk alongside jobs - 1 workers
    monkeypatch.setattr(sys.modules[__name__], "_barrier",
                        multiprocessing.get_context("fork").Barrier(jobs))
    monkeypatch.setattr(sweep, "_run_chunk", _report_pid)
    _forked_pool(monkeypatch)
    chunks = [[(0, t, None)] for t in range(jobs)]
    pids = set(sweep._execute(chunks, jobs, None).values())
    assert len(pids) == jobs and os.getpid() in pids


@pytest.mark.parametrize("jobs", [1, 2])
def test_each_process_reads_each_input_file_once(monkeypatch, tmp_path, jobs):
    base = _config("l96", "pod", "oppf")
    states, meta = training_trajectory(base)
    snapshots, basis = str(tmp_path / "truth.bin"), str(tmp_path / "basis.bin")
    save_snapshots(snapshots, states, meta)
    save_basis(basis, pod_basis(states.T, 5))
    # the data basis comes from the snapshots, the state basis from its file
    config = replace(base, data_reduction="data", snapshot_file=snapshots,
                     basis_file=basis, sweep_r_p=(2, 3, 4, 5))

    log = tmp_path / "reads.txt"

    def logged(load):
        def wrapper(path):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {path}\n")
            return load(path)
        return wrapper

    monkeypatch.setattr(trial_module, "load_snapshots", logged(trial_module.load_snapshots))
    monkeypatch.setattr(trial_module, "load_basis", logged(trial_module.load_basis))
    _forked_pool(monkeypatch)
    rows = run_sweep(config, jobs=jobs)
    assert [row.failed_trials for row in rows] == [0] * 4
    # the caller's check before any trial reads both, and pool workers start
    # from what it read
    assert sorted(log.read_text().splitlines()) == sorted(
        [f"{os.getpid()} {snapshots}", f"{os.getpid()} {basis}"])


# 4 trials of a small model: at --jobs 2 the caller runs trials 0 and 2 and
# the pool 1 and 3; at --jobs 3 the caller runs 0 and 3, the pool 1 and 2
_DYING_INI = """
[model]
kind = l96
dimension = 8

[reduction]
kind = pod
r_p = 4
r_d = 2
training_steps = 40

[filter]
kind = projoppf
n_particles = 4

[experiment]
n_observations = 6
trials = 4
burn_in = 50
"""


def _trial_rows(path) -> dict:
    """trial -> the rows of the trial CSV at path."""
    rows: dict = {}
    with open(path, newline="") as fh:
        for row in list(csv.reader(fh))[1:]:
            rows.setdefault(int(row[0]), []).append(row)
    return rows


@pytest.mark.parametrize("jobs", [2, 3])
def test_a_pool_worker_that_dies_fails_its_trials_not_the_run(monkeypatch, tmp_path,
                                                               caplog, jobs):
    ini, serial, out = (str(tmp_path / name) for name in ("dying.ini", "serial.csv", "out.csv"))
    with open(ini, "w") as fh:
        fh.write(_DYING_INI)
    assert dispatch(["assimilate", "--config", ini, "--out", serial]) == 0
    caller, finish_cycle = os.getpid(), trial_module._Trial.finish_cycle

    def dies_in_a_pool_worker(self, mapped):
        # as the system ends a process it kills for memory: at once, with
        # nothing sent back
        if self.trial_index == 1 and self.t == 3 and os.getpid() != caller:
            os._exit(9)
        return finish_cycle(self, mapped)

    monkeypatch.setattr(trial_module._Trial, "finish_cycle", dies_in_a_pool_worker)
    _forked_pool(monkeypatch)
    # some trial completed, so the run exits 0
    assert dispatch(["assimilate", "--config", ini, "--out", out, "--jobs", str(jobs)]) == 0
    got, expected = _trial_rows(out), _trial_rows(serial)
    assert 1 not in got and {0, jobs} <= set(got)
    for trial, rows in got.items():
        assert rows == expected[trial]
    failures = [r.getMessage() for r in caplog.records if "BrokenProcessPool" in r.getMessage()]
    assert len(failures) == 1 and re.search(
        r"BrokenProcessPool: pool worker pid \d+ \(exit code 9\) ended before this trial "
        r"finished$", failures[0]), failures
