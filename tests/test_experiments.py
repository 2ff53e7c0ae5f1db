"""Experiment layer: configuration, trials, sweeps, metrics.

The bitwise checks here pin the reproducibility contract: a trial is a pure
function of (config, trial_index), a sweep is a pure function of the config,
and neither depends on worker count or on whether snapshots come from a file
or are regenerated.
"""

import concurrent.futures
import dataclasses
import functools
import itertools
import multiprocessing
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import projda.experiments.trial as trial_module
from projda.errors import ConfigError, ReductionError
from projda.experiments import (
    ExperimentConfig,
    MetricsRecord,
    default_config,
    load_config,
    replace,
    rmse,
    rmse_projected,
    run_point,
    run_sweep,
    run_trial,
    summarize,
    sweep,
    sweep_points,
    training_trajectory,
    write_summary_csv,
    write_trial_csv,
)
from projda.models import L96Spec, save_snapshots
from projda.experiments.config import _TABLE
from projda.reduction import ReductionBasis, pod_basis, save_basis

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _blas_threads():
    return [get() for get in sweep._openblas_entry_points("get")]


def _require_openblas():
    """Skip where no library with openblas in its name is mapped into this
    process; where one is, its thread-count entry points must be found."""
    try:
        lines = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        pytest.skip("/proc/self/maps is unreadable")
    paths = [f[5] for f in (line.split(maxsplit=5) for line in lines) if len(f) == 6]
    if not any("openblas" in os.path.basename(path) for path in paths):
        pytest.skip("no OpenBLAS loaded")
    assert sweep._openblas_entry_points("get"), (
        "an OpenBLAS is mapped, but none of its thread-count entry points was found")


def _report_blas_threads(chunk, memo=None):
    return [(p, t, _blas_threads()) for p, t, _ in chunk]


def _worker_blas_threads(monkeypatch, jobs):
    """Thread counts each OpenBLAS reports inside the sweep executor's workers,
    the calling process among them."""
    monkeypatch.setattr(sweep, "_run_chunk", _report_blas_threads)
    chunks = [[(0, t, None)] for t in range(4 * jobs)]
    results = sweep._execute(chunks, *sweep._pool_shape(jobs, len(chunks)))
    return {n for counts in results.values() for n in counts}


def _report_threads(chunk, memo=None):
    return [(p, t, (os.getpid(), len(os.listdir("/proc/self/task")))) for p, t, _ in chunk]


def _walked_columns(x0) -> list:
    """The start states of a walk: x0 itself, or each column of a block."""
    return list(x0.T) if x0.ndim == 2 else [x0]


def _count_spin_ups(monkeypatch):
    """The start state and the inputs of every column of every deterministic
    walk run in this process; a block of k columns counts k walks."""
    walks = []
    original = trial_module._spin_up

    def counted(model, x0, *walk):
        walks.extend((start.tobytes(),) + walk for start in _walked_columns(x0))
        return original(model, x0, *walk)

    monkeypatch.setattr(trial_module, "_spin_up", counted)
    return walks


# A 2-job sweep of the tiny config at argv[2] points (sweep_r_p) and argv[3]
# trials in a forked pool. It logs, to the file argv[1], each walked column
# ("<pid> walk <start state>") and each trial's start ("<pid> trial <whether
# numpy.random is loaded>"), and prints the calling process's pid.
_POOL_WALKS = """
import concurrent.futures, functools, multiprocessing, os, sys
import projda.experiments.trial as trial_module
from projda.experiments import default_config, run_sweep, sweep

log, points, trials = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
walk, run = trial_module._spin_up, sweep.run_trial

def note(line):
    with open(log, "a") as fh:
        fh.write(f"{os.getpid()} {line}\\n")

def logged_walk(model, x0, *args):
    for start in (x0.T if x0.ndim == 2 else [x0]):
        note("walk " + start.tobytes().hex())
    return walk(model, x0, *args)

def logged_trial(config, trial_index, memo=None):
    note(f"trial {'numpy.random' in sys.modules}")
    return run(config, trial_index, memo)

trial_module._spin_up = logged_walk
sweep.run_trial = logged_trial
concurrent.futures.ProcessPoolExecutor = functools.partial(
    concurrent.futures.ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork"))
cfg = default_config("l96", dimension=8, n_particles=4, n_observations=6, trials=trials,
                     burn_in=50, training_steps=40, training_stride=5, r_p=4, r_d=2,
                     base_seed=777, filter_kind="projoppf", reduction_kind="pod",
                     sweep_r_p=tuple(range(2, 2 + points)))
run_sweep(cfg, jobs=2)
print(os.getpid())
"""


def _run_python(code: str, *argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH", "")) if p)
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                          text=True, timeout=120)


def _assert_walked_once_by_the_caller(tmp_path, points: int, trials: int):
    """Run _POOL_WALKS in a fresh interpreter, where nothing has imported
    numpy.random before the sweep. Each start state must be walked once, all
    in the calling process, and each pool worker must find numpy.random
    loaded at its first trial. The patched walker reaches the workers only if
    they are forked (forkserver and spawn workers import the module afresh),
    so the pool is asked for fork rather than the platform's default."""
    log = tmp_path / "log.txt"
    out = _run_python(_POOL_WALKS, str(log), str(points), str(trials))
    assert out.returncode == 0, out.stderr
    caller = out.stdout.strip()
    lines = [line.split() for line in log.read_text().splitlines()]
    walks = [(pid, start) for pid, what, start in lines if what == "walk"]
    assert {pid for pid, _ in walks} == {caller}
    assert len(walks) == len({start for _, start in walks}) == trials
    first = {}
    for pid, what, loaded in lines:
        if what == "trial" and pid != caller:
            first.setdefault(pid, loaded)
    assert first and set(first.values()) == {"True"}


def _no_convergence(*args, **kwargs):
    raise np.linalg.LinAlgError("SVD did not converge")


def _tiny(**overrides):
    base = dict(dimension=8, forcing=8.0, n_particles=4, n_observations=6,
                trials=2, burn_in=50, training_steps=40, training_stride=5,
                r_p=4, r_d=2, base_seed=777)
    base.update(overrides)
    return default_config("l96", **base)


class TestConfig:
    def test_per_model_defaults(self):
        assert default_config("l96").dt == 0.01
        swe = default_config("swe")
        assert swe.dt == 60.0 and swe.steps_per_observation == 60
        assert swe.resample_omega == 1e-4

    def test_unknown_model_kind(self):
        with pytest.raises(ConfigError):
            default_config("lorenz63")

    def test_l96_rejects_swe_scenarios(self):
        with pytest.raises(ConfigError):
            _tiny(scenario="uv")

    def test_optimal_proposal_needs_process_noise(self):
        with pytest.raises(ConfigError):
            _tiny(filter_kind="oppf", q_scale=0.0)

    def test_model_reduction_needs_rd_within_rp(self):
        with pytest.raises(ConfigError):
            _tiny(filter_kind="projoppf", reduction_kind="pod", r_p=4, r_d=6)

    def test_pod_needs_enough_snapshots(self):
        with pytest.raises(ConfigError):
            _tiny(filter_kind="projoppf", reduction_kind="pod",
                  training_steps=10, training_stride=5)  # 3 snapshots < r_p=4

    def test_a_snapshot_file_lifts_the_training_window_bound(self):
        # the trial trains on the file, whose length _file_inputs checks
        default_config("l96", reduction_kind="pod", filter_kind="projoppf", r_p=20,
                       r_d=5, snapshot_file="x.bin", training_steps=10, training_stride=5)

    def test_data_based_data_basis_needs_rd_snapshots(self):
        # the state basis comes from a file; the 3 in-trial snapshots train
        # the data basis alone
        short = dict(filter_kind="projoppf", reduction_kind="pod", basis_file="b.bin",
                     data_reduction="data", training_steps=10, training_stride=5)
        _tiny(r_d=3, **short)
        with pytest.raises(ConfigError, match="only 3 snapshots, need 4"):
            _tiny(r_d=4, **short)

    def test_sweep_axes_are_model_specific(self):
        with pytest.raises(ConfigError):
            _tiny(sweep_scenario=("all",))
        with pytest.raises(ConfigError):
            default_config("swe", sweep_forcing=(3.0,))

    @pytest.mark.parametrize("key, over", [
        ("[noise] q_scale", dict(q_scale=float("nan"))),
        ("[model] forcing", dict(forcing=float("inf"))),
        ("[model] dt", dict(dt=float("nan"))),
        ("[filter] resample_omega", dict(resample_omega=float("inf"))),
        ("[experiment] sweep_q_scale", dict(sweep_q_scale=(0.1, float("nan")))),
        ("[experiment] sweep_forcing", dict(sweep_forcing=(4, float("-inf")))),
        # a base value a sweep never runs is checked all the same
        ("[noise] q_scale", dict(q_scale=float("nan"), sweep_q_scale=(0.1, 0.2))),
    ], ids=["q_scale", "forcing", "dt", "resample_omega", "sweep_q_scale",
            "sweep_forcing", "swept_base"])
    def test_non_finite_floats_are_rejected_naming_their_key(self, key, over):
        # NaN passes every range comparison, and these used to fail every trial
        with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: must be finite"):
            default_config("l96", **over)

    def test_replace_revalidates(self):
        cfg = _tiny()
        with pytest.raises(ConfigError):
            replace(cfg, r_scale=-1.0)

    def test_non_filter_kind_is_rejected_naming_oppf(self):
        # "non" was another name for the full-space optimal-proposal filter
        with pytest.raises(ConfigError, match="oppf"):
            _tiny(filter_kind="non")

    def test_identity_reduction_allowed_for_projected_filters(self):
        cfg = _tiny(filter_kind="projoppf", reduction_kind="identity")
        assert cfg.uses_identity_reduction

    def test_observation_blocks_for_swe(self):
        cfg = default_config("swe", nx=8, ny=4, scenario="h", obs_fraction=1.0,
                             filter_kind="oppf", n_particles=2,
                             n_observations=1, trials=1)
        h = cfg.build_observation(cfg.build_model())
        n = 8 * 4
        np.testing.assert_array_equal(h.indices, np.arange(2 * n, 3 * n))

    def test_observation_fraction_strides(self):
        cfg = _tiny(obs_fraction=0.25)
        h = cfg.build_observation(cfg.build_model())
        np.testing.assert_array_equal(h.indices, [0, 4])


class TestLoadConfig:
    def test_round_trip_with_defaults(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(
            "[model]\nkind = l96\ndimension = 8\n"
            "[filter]\nkind = oppf\nn_particles = 4\n"
            "[experiment]\nn_observations = 6\ntrials = 2\nburn_in = 50\n"
        )
        cfg = load_config(str(path))
        assert cfg.dimension == 8 and cfg.dt == 0.01 and cfg.filter_kind == "oppf"

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[model]\nkind = l96\nflux_capacitor = 1\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_bad_value_names_section_and_key(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[model]\nkind = l96\ndimension = many\n")
        with pytest.raises(ConfigError, match="dimension"):
            load_config(str(path))

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/exp.ini")

    def test_sweep_list_parsing(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(
            "[model]\nkind = l96\ndimension = 8\n"
            "[reduction]\nkind = pod\nr_p = 4\nr_d = 2\n"
            "training_steps = 40\ntraining_stride = 5\n"
            "[filter]\nkind = projoppf\nn_particles = 4\n"
            "[experiment]\nsweep_r_p = 4, 6\nburn_in = 50\n"
        )
        assert load_config(str(path)).sweep_r_p == (4, 6)

    def test_sweep_scenario_is_lowercased(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[model]\nkind = swe\n[experiment]\nsweep_scenario = UV, h\n")
        assert load_config(str(path)).sweep_scenario == ("uv", "h")

    def test_percent_in_value_loads_literally(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[model]\nkind = l96\n[reduction]\nsnapshot_file = run%1.bin\n")
        assert load_config(str(path)).snapshot_file == "run%1.bin"

    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data_reduction=st.sampled_from(["model", "data"]),
           training_steps=st.sampled_from([10, 20, 40]),
           r_p=st.integers(-1, 10), r_d=st.integers(-1, 10),
           sweep_r_p=st.lists(st.integers(-1, 10), max_size=3),
           sweep_r_d=st.lists(st.integers(-1, 10), max_size=3))
    def test_rank_sweep_loads_iff_every_point_meets_the_rank_rules(
            self, tmp_path, data_reduction, training_steps, r_p, r_d, sweep_r_p, sweep_r_d):
        # 8 states, all observed; the trial's own walk trains a POD state basis
        path = tmp_path / "exp.ini"
        path.write_text(
            "[model]\nkind = l96\ndimension = 8\n"
            f"[reduction]\nkind = pod\nr_p = {r_p}\nr_d = {r_d}\n"
            f"data_reduction = {data_reduction}\ntraining_steps = {training_steps}\n"
            "training_stride = 5\n"
            "[filter]\nkind = projoppf\nn_particles = 4\n"
            "[experiment]\nburn_in = 50\n"
            f"sweep_r_p = {', '.join(map(str, sweep_r_p))}\n"
            f"sweep_r_d = {', '.join(map(str, sweep_r_d))}\n")
        snapshots = training_steps // 5 + 1

        def meets_rules(r_p, r_d):
            # README "Configuration", the projected filters' rank rules
            return (1 <= r_p <= 8 and r_d >= 1
                    and r_d <= (r_p if data_reduction == "model" else 8)
                    and snapshots >= max(r_p, 3)
                    and (data_reduction == "model" or snapshots >= r_d))

        valid = all(itertools.starmap(meets_rules, itertools.product(
            sweep_r_p or [r_p], sweep_r_d or [r_d])))
        if valid:
            load_config(str(path))
        else:
            with pytest.raises(ConfigError, match=r"^\[reduction\] "):
                load_config(str(path))

    def test_table_sets_every_field_from_one_key(self):
        keys = [name for section in _TABLE.values() for name in section.values()]
        assert sorted(keys) == sorted(f.name for f in dataclasses.fields(ExperimentConfig))

    @pytest.mark.parametrize("model_kind", ["swe", "l96"])
    def test_written_config_loads_back_equal(self, tmp_path, model_kind):
        # every field but sweep_forcing differs from its default in the swe
        # config; sweep_forcing applies to l96 only
        swe = default_config(
            "swe", dimension=12, forcing=3.0, dt=30.0, steps_per_observation=10,
            nx=8, ny=4, dx=1e4, dy=1.5e4, gravity=9.8, coriolis=2e-4, friction=2e-6,
            viscosity=2e3, depth=100.0, jet_speed=3.0, jet_width=5e4,
            perturb_amplitude=0.25, scenario="uv", obs_fraction=0.5, q_scale=0.2,
            r_scale=0.05, reduction_kind="dmd", r_p=6, r_d=3, data_reduction="data",
            training_steps=300, training_stride=30, snapshot_file="truth.bin",
            basis_file="basis.bin", dmd_rank=4, aus_eps=1e-5, aus_spinup=50,
            filter_kind="projpf", n_particles=7, ess_threshold=0.4, resample_alpha=0.95,
            resample_omega=1e-3, n_observations=12, burn_in=60, trials=3, base_seed=9,
            truth_noise=False, sweep_r_p=(4, 6), sweep_r_d=(2, 3),
            sweep_q_scale=(0.1, 0.2), sweep_scenario=("uv", "h"), lyapunov_steps=500,
            lyapunov_exponents=5, lyapunov_eps=1e-7, lyapunov_qr_interval=5)
        default = ExperimentConfig()
        assert [f.name for f in dataclasses.fields(swe)
                if getattr(swe, f.name) == getattr(default, f.name)] == ["sweep_forcing"]
        cfg = swe if model_kind == "swe" else _tiny(sweep_forcing=(3.0, 8.0))
        lines = []
        for section, keys in _TABLE.items():
            lines.append(f"[{section}]")
            for key, name in keys.items():
                value = getattr(cfg, name)
                if isinstance(value, tuple):
                    value = ", ".join(map(str, value))
                lines.append(f"{key} = {value}")
        path = tmp_path / "exp.ini"
        path.write_text("\n".join(lines) + "\n")
        assert load_config(str(path)) == cfg

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.ini")), ids=lambda p: p.name)
    def test_shipped_configs_load(self, path):
        assert load_config(str(path)).model_kind == path.name.split("_")[0]


class TestMetrics:
    def test_rmse_hand_oracle(self):
        assert rmse(np.ones(4), np.zeros(4)) == pytest.approx(1.0, abs=1e-15)
        assert rmse(np.array([3.0, 4.0]), np.zeros(2)) == pytest.approx(
            np.sqrt(12.5), abs=1e-12)

    def test_rmse_projected_hand_oracle(self):
        # U = e1 in R^2: truth (3, 4) reduces to (3,); estimate (1,) errs by 2
        basis = ReductionBasis(np.array([[1.0], [0.0]]), kind="pod")
        got = rmse_projected(np.array([1.0]), basis, np.array([3.0, 4.0]))
        assert got == pytest.approx(2.0, abs=1e-14)

    def test_rmse_shape_mismatch(self):
        with pytest.raises(ValueError):
            rmse(np.ones(3), np.ones(4))

    def test_record_properties(self):
        rec = MetricsRecord(trial=0, rmse=np.array([1.0, 3.0]),
                            rmse_proj=np.array([0.5, 0.5]),
                            ess=np.array([2.0, 4.0]),
                            resampled=np.array([True, False]))
        assert rec.mean_rmse == pytest.approx(2.0)
        assert rec.resample_fraction == pytest.approx(0.5)
        assert rec.n_observations == 2

    def test_empty_record_is_nan(self):
        rec = MetricsRecord(trial=0, rmse=np.zeros(0), rmse_proj=np.zeros(0),
                            ess=np.zeros(0), resampled=np.zeros(0, dtype=bool),
                            failed=True, failure="boom")
        assert np.isnan(rec.mean_rmse)


class TestRunTrial:
    def test_trial_is_reproducible(self):
        cfg = _tiny(filter_kind="oppf")
        a = run_trial(cfg, 0)
        b = run_trial(cfg, 0)
        np.testing.assert_array_equal(a.rmse, b.rmse)
        np.testing.assert_array_equal(a.ess, b.ess)
        c = run_trial(cfg, 1)
        assert not np.array_equal(a.rmse, c.rmse)

    def test_prefix_property(self):
        # extending the window leaves the shared prefix bitwise intact
        cfg5 = _tiny(filter_kind="oppf", n_observations=5)
        cfg9 = replace(cfg5, n_observations=9)
        a = run_trial(cfg5, 0)
        b = run_trial(cfg9, 0)
        np.testing.assert_array_equal(b.rmse[:5], a.rmse)
        np.testing.assert_array_equal(b.ess[:5], a.ess)
        np.testing.assert_array_equal(b.resampled[:5], a.resampled)

    def test_identity_projection_equals_unprojected(self):
        full = run_trial(_tiny(filter_kind="oppf"), 0)
        proj = run_trial(_tiny(filter_kind="projoppf", reduction_kind="identity"), 0)
        np.testing.assert_array_equal(full.rmse, proj.rmse)
        np.testing.assert_array_equal(full.ess, proj.ess)
        np.testing.assert_array_equal(full.resampled, proj.resampled)

    def test_all_filter_reduction_combinations_run(self):
        combos = [("pf", "identity"), ("oppf", "identity"),
                  ("projpf", "pod"), ("projoppf", "pod"), ("projoppf", "dmd"),
                  ("projoppf", "aus")]
        for fk, rk in combos:
            over = {}
            if rk == "aus":
                over = dict(data_reduction="model", aus_spinup=8,
                            burn_in=50, training_steps=40)
            rec = run_trial(_tiny(filter_kind=fk, reduction_kind=rk, **over), 0)
            assert not rec.failed, (fk, rk, rec.failure)
            assert rec.n_observations == 6

    def test_snapshot_file_equals_in_trial_training(self, tmp_path):
        cfg = _tiny(filter_kind="projoppf", reduction_kind="pod")
        states, meta = training_trajectory(cfg, 0)
        assert states.shape[0] == cfg.n_training_snapshots
        path = str(tmp_path / "truth.bin")
        save_snapshots(path, states, meta)
        from_file = run_trial(replace(cfg, snapshot_file=path), 0)
        regenerated = run_trial(cfg, 0)
        np.testing.assert_array_equal(from_file.rmse, regenerated.rmse)
        np.testing.assert_array_equal(from_file.ess, regenerated.ess)

    def test_basis_file_is_honored(self, tmp_path):
        cfg = _tiny(filter_kind="projoppf", reduction_kind="pod")
        states, _ = training_trajectory(cfg, 0)
        path = str(tmp_path / "basis.bin")
        save_basis(path, pod_basis(states.T, 4))
        rec = run_trial(replace(cfg, basis_file=path), 0)
        assert not rec.failed
        np.testing.assert_array_equal(rec.rmse, run_trial(cfg, 0).rmse)

    def test_runtime_reduction_failure_is_reported(self, tmp_path):
        # canonical basis misses observed components: R^q is singular
        path = str(tmp_path / "bad.bin")
        save_basis(path, ReductionBasis(np.eye(8)[:, :4], kind="pod"))
        cfg = _tiny(filter_kind="projoppf", reduction_kind="pod",
                    obs_fraction=0.5, basis_file=path)
        rec = run_trial(cfg, 0)
        assert rec.failed
        assert "singular" in rec.failure
        assert rec.n_observations == 0

    @pytest.mark.parametrize("key", ["snapshot_file", "basis_file"])
    def test_missing_input_file_fails_the_trial(self, tmp_path, key):
        # run_point and run_sweep check the files before any trial; a trial run
        # on its own still turns the error into a failed record
        cfg = _tiny(filter_kind="projoppf", reduction_kind="pod",
                    **{key: str(tmp_path / "nope.bin")})
        rec = run_trial(cfg, 0)
        assert rec.failed and "nope.bin" in rec.failure
        assert rec.n_observations == 0

    def test_truth_noise_toggle_changes_truth(self):
        on = run_trial(_tiny(filter_kind="oppf"), 0)
        off = run_trial(_tiny(filter_kind="oppf", truth_noise=False), 0)
        assert not np.array_equal(on.rmse, off.rmse)


class TestSweep:
    def test_points_cover_axes_in_document_order(self):
        cfg = _tiny(filter_kind="projoppf", reduction_kind="pod",
                    sweep_r_p=(4, 6), sweep_r_d=(1, 2))
        pts = sweep_points(cfg)
        assert [(p.r_p, p.r_d) for p in pts] == [(4, 1), (4, 2), (6, 1), (6, 2)]
        assert all(p.sweep_r_p == () for p in pts)

    def test_forcing_axis(self):
        cfg = _tiny(filter_kind="oppf", sweep_forcing=(3.0, 8.0))
        assert [p.forcing for p in sweep_points(cfg)] == [3.0, 8.0]

    def test_parallel_matches_serial(self):
        # r_p, r_d and n_particles >= 8 put both sides of the filter's dense
        # products where OpenBLAS threads them: the serial run keeps the
        # library's threads, each of the two workers gets its share; with
        # three jobs the caller runs alongside a pool of two
        cfg = _tiny(filter_kind="projoppf", reduction_kind="pod", dimension=20,
                    n_particles=10, training_steps=100, r_p=8, r_d=8,
                    trials=3, sweep_r_p=(8, 10))
        serial = run_sweep(cfg, jobs=1)
        assert len(serial) == 2
        # SummaryRow is frozen, so == compares every aggregate exactly
        assert run_sweep(cfg, jobs=2) == serial
        assert run_sweep(cfg, jobs=3) == serial

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_unconverged_svd_fails_trials_not_the_sweep(self, monkeypatch, jobs):
        # the patch reaches pool workers only if they are forked
        monkeypatch.setattr(np.linalg, "svd", _no_convergence)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", functools.partial(
            concurrent.futures.ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")))
        cfg = _tiny(filter_kind="projoppf", reduction_kind="pod", sweep_r_p=(3, 4))
        rows = run_sweep(cfg, jobs=jobs)
        assert [row.failed_trials for row in rows] == [cfg.trials, cfg.trials]
        assert run_trial(cfg, 0).failure == (
            "NumericsError: np.linalg.svd of a 8x9 matrix failed: SVD did not converge")

    def test_workers_get_their_share_of_blas_threads(self, monkeypatch):
        _require_openblas()
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        jobs = cpus = sweep._usable_cpus()
        assert _worker_blas_threads(monkeypatch, jobs) == {cpus // jobs}

    def test_caller_gets_its_blas_threads_back(self, monkeypatch):
        _require_openblas()
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        own = _blas_threads()
        # more threads than any worker's share, so that the cap shows
        sweep._set_blas_threads(itertools.repeat(sweep._usable_cpus() + 1))
        try:
            before = _blas_threads()
            run_sweep(_tiny(filter_kind="oppf", trials=2), jobs=2)
            assert _blas_threads() == before
        finally:
            sweep._set_blas_threads(own)

    def test_forked_workers_start_no_blas_thread(self, monkeypatch):
        # the cap is set before the pool forks: setting it again in a forked
        # worker would start an OpenBLAS thread, which spins
        _require_openblas()
        if not os.path.isdir("/proc/self/task"):
            pytest.skip("/proc/self/task is missing")
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setattr(sweep, "_run_chunk", _report_threads)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", functools.partial(
            concurrent.futures.ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")))
        chunks = [[(0, t, None)] for t in range(4)]
        results = sweep._execute(chunks, *sweep._pool_shape(2, len(chunks)))
        in_pool = {results[(0, t)] for t in (1, 3)}
        assert {pid for pid, _ in in_pool} != {os.getpid()}
        assert {threads for _, threads in in_pool} == {1}

    def test_workers_keep_user_blas_threads(self, monkeypatch):
        _require_openblas()
        # the library read the variable when it loaded; the pool must not
        # override what it chose
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        own = set(_blas_threads())
        assert _worker_blas_threads(monkeypatch, sweep._usable_cpus()) == own

    def test_summarize_aggregates_trial_means(self):
        cfg = _tiny(filter_kind="oppf", trials=2)
        recs = run_point(cfg)
        row = summarize(cfg, recs)
        per_trial = [r.mean_rmse for r in recs]
        assert row.mean_rmse == pytest.approx(np.mean(per_trial))
        assert row.std_rmse == pytest.approx(np.std(per_trial))
        assert row.failed_trials == 0
        assert row.resamp_pct == pytest.approx(
            100.0 * np.mean([r.resample_fraction for r in recs]))

    def test_summarize_with_all_failed(self):
        cfg = _tiny(filter_kind="oppf")
        recs = [MetricsRecord(trial=t, rmse=np.zeros(0), rmse_proj=np.zeros(0),
                              ess=np.zeros(0), resampled=np.zeros(0, dtype=bool),
                              failed=True, failure="x") for t in range(2)]
        row = summarize(cfg, recs)
        assert row.failed_trials == 2
        assert np.isnan(row.mean_rmse)


class TestSpinUpSharing:
    def test_walk_of_no_steps_leaves_the_start_state_writeable(self):
        x0 = np.arange(8.0)
        x, _ = trial_module._spin_up(L96Spec(dimension=8), x0, 0, 0)
        assert x0.flags.writeable and not x.flags.writeable
        np.testing.assert_array_equal(x, np.arange(8.0))

    def test_sweep_walks_each_trial_once(self, monkeypatch, tmp_path):
        cfg = _tiny(filter_kind="projoppf", reduction_kind="pod", sweep_r_p=(2, 3, 4))
        walks = _count_spin_ups(monkeypatch)
        serial = run_sweep(cfg, jobs=1)
        # 3 points x 2 trials share 2 truths, so each is walked once
        assert len(walks) == len(set(walks)) == 2
        paths = [str(tmp_path / "serial.csv"), str(tmp_path / "parallel.csv")]
        write_summary_csv(paths[0], serial, cfg.model_kind)
        write_summary_csv(paths[1], run_sweep(cfg, jobs=2), cfg.model_kind)
        assert Path(paths[0]).read_bytes() == Path(paths[1]).read_bytes()

    def test_pool_workers_walk_each_trial_once(self, tmp_path):
        """4 trials share evenly between 2 processes and go out whole. Every
        walk runs in the calling process before the pool starts, so the pool
        worker walks nothing and finds numpy.random, which the start states
        load, already imported."""
        _assert_walked_once_by_the_caller(tmp_path, points=3, trials=4)

    def test_a_trial_split_between_processes_is_walked_once(self, tmp_path):
        # trial 4 is split between the 2 processes, each of which used to walk it
        _assert_walked_once_by_the_caller(tmp_path, points=4, trials=5)

    @pytest.mark.parametrize("points, trials, workers, expected", [
        (3, 4, 2, [[0, 1, 2]] * 4),
        # the fifth trial is split so that both workers get half of it
        (4, 5, 2, [[0, 1, 2, 3]] * 4 + [[0, 2], [1, 3]]),
        (4, 1, 2, [[0, 2], [1, 3]]),
        (2, 1, 3, [[0], [1]]),
        (3, 5, 1, [[0, 1, 2]] * 5),
    ])
    def test_pool_chunks_hold_whole_trials_while_they_share_evenly(
            self, points, trials, workers, expected):
        chunks = sweep._trial_chunks(points, trials, workers)
        assert [[p for p, _ in chunk] for chunk in chunks] == expected
        assert all(len({t for _, t in chunk}) == 1 for chunk in chunks)
        pairs = sorted(pair for chunk in chunks for pair in chunk)
        assert pairs == [(p, t) for p in range(points) for t in range(trials)]

    def test_every_spin_up_input_is_in_the_key(self, monkeypatch):
        cfg = _tiny(filter_kind="projoppf", reduction_kind="pod")
        variants = [cfg, replace(cfg, dt=0.02), replace(cfg, burn_in=60),
                    replace(cfg, training_steps=50), replace(cfg, training_stride=4),
                    replace(cfg, reduction_kind="aus", data_reduction="model", aus_spinup=8)]
        # each variant again at another rank, as a sweep point of the same truth
        repeats = [replace(c, r_p=3) for c in variants]
        walks = _count_spin_ups(monkeypatch)
        spin_ups = {}
        trial_module._walk_ahead([(c, 0) for c in variants + repeats] + [(cfg, 1)], spin_ups)
        own = [spin_ups[c, 0] for c in variants] + [spin_ups[cfg, 1]]
        # every variant, and trial 1's other start state, walks on its own
        assert len(walks) == len({id(w) for w in own}) == len(variants) + 1
        for c, repeat in zip(variants, repeats):
            assert spin_ups[repeat, 0] is spin_ups[c, 0]
        assert len(spin_ups) == 2 * len(variants) + 1

    def test_direct_trials_keep_no_state(self, monkeypatch):
        cfg = _tiny(filter_kind="projoppf", reduction_kind="pod")
        walks = _count_spin_ups(monkeypatch)
        run_trial(cfg, 0)
        run_trial(cfg, 0)
        assert len(walks) == 2

    @pytest.mark.parametrize("over, recorded", [
        (dict(reduction_kind="pod"), (9, 8)),  # training snapshots
        # the walk stops 8 cycles short and records nothing; the basis
        # spin-up walks the rest
        (dict(reduction_kind="aus", data_reduction="model", aus_spinup=8), None),
    ])
    def test_shared_arrays_are_read_only(self, over, recorded):
        cfg = _tiny(filter_kind="projoppf", **over)
        tasks = [(cfg, 0), (replace(cfg, r_p=3), 0)]
        spin_ups = {}
        trial_module._walk_ahead(tasks, spin_ups)
        walked = spin_ups[tasks[0]]
        assert spin_ups[tasks[1]] is walked
        x_start, kept = walked
        assert (kept is None) == (recorded is None)
        for arr in [x_start] + ([kept] if recorded else []):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0
        if recorded:
            assert kept.shape == recorded


class TestCsvWriters:
    def test_trial_csv_layout(self, tmp_path):
        rec = MetricsRecord(trial=3, rmse=np.array([1.5, 2.5]),
                            rmse_proj=np.array([0.5, 1.0]),
                            ess=np.array([2.0, 3.0]),
                            resampled=np.array([True, False]))
        path = tmp_path / "m.csv"
        write_trial_csv(str(path), [rec], cycle_dt=0.05)
        lines = path.read_text().splitlines()
        assert lines[0] == "trial,obs_index,time,rmse,rmse_proj,ess,resampled"
        assert lines[1] == "3,1,0.05,1.5,0.5,2,1"
        assert lines[2] == "3,2,0.1,2.5,1,3,0"

    def test_summary_csv_l96_header(self, tmp_path):
        cfg = _tiny(filter_kind="oppf", trials=1, n_observations=3)
        rows = [summarize(cfg, run_point(cfg))]
        path = tmp_path / "s.csv"
        write_summary_csv(str(path), rows, cfg.model_kind)
        header = path.read_text().splitlines()[0]
        assert header == "r_p,r_d,F,Q_scale,mean_rmse,std_rmse,mean_rmse_proj,resamp_pct,failed_trials"

    def test_summary_csv_swe_header(self, tmp_path):
        cfg = default_config("swe", nx=8, ny=4, filter_kind="oppf",
                             n_particles=2, n_observations=1, trials=1,
                             burn_in=5, training_steps=5, q_scale=0.1)
        rows = [summarize(cfg, run_point(cfg))]
        path = tmp_path / "s.csv"
        write_summary_csv(str(path), rows, cfg.model_kind)
        header = path.read_text().splitlines()[0]
        assert header.split(",")[2] == "scenario"

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = _tiny(filter_kind="projoppf", reduction_kind="pod", trials=2)
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        write_trial_csv(p1, run_point(cfg), cycle_dt=cfg.dt * cfg.steps_per_observation)
        write_trial_csv(p2, run_point(cfg), cycle_dt=cfg.dt * cfg.steps_per_observation)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()
