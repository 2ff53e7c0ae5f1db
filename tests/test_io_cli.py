"""Snapshot file format and the command-line pipeline.

dispatch() is exercised in process so exit codes and file outputs can be
checked directly. The pipeline contract under test: truth -> reduce ->
assimilate through files produces byte-identical metrics to a single in-trial
run that regenerates everything from the same config.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from projda.cli import dispatch
from projda.errors import ReductionError
from projda.experiments import load_config, run_point, sweep, training_trajectory
from projda.experiments.sweep import write_trial_csv
from projda.models import load_snapshots, save_snapshots
from projda.reduction import ReductionBasis, load_basis, save_basis


class TestSnapshotFiles:
    def test_roundtrip(self, tmp_path):
        states = np.arange(12.0).reshape(4, 3)
        meta = {"model": "l96", "dt": 0.05, "seed": 9, "noise_on": True}
        path = str(tmp_path / "snaps.bin")
        save_snapshots(path, states, meta)
        loaded, sidecar = load_snapshots(path)
        np.testing.assert_array_equal(loaded, states)
        assert sidecar["model"] == "l96"
        assert sidecar["M"] == 3
        assert sidecar["n_steps"] == 3
        assert sidecar["dt"] == 0.05
        assert sidecar["seed"] == 9
        assert sidecar["noise_on"] is True

    def test_raw_layout_is_row_major_float64(self, tmp_path):
        states = np.array([[1.0, 2.0], [3.0, 4.0]])
        path = str(tmp_path / "snaps.bin")
        save_snapshots(path, states, {"model": "l96", "dt": 1.0})
        raw = Path(path).read_bytes()
        assert raw == states.astype("<f8").tobytes(order="C")
        sidecar = json.loads(Path(path + ".json").read_text())
        assert set(sidecar) == {"model", "M", "n_steps", "dt", "seed", "noise_on"}

    def test_size_mismatch_rejected(self, tmp_path):
        states = np.ones((4, 3))
        path = str(tmp_path / "snaps.bin")
        save_snapshots(path, states, {"model": "l96", "dt": 1.0})
        with open(path, "ab") as fh:
            fh.write(np.zeros(1).tobytes())
        with pytest.raises(ReductionError, match="multiple of M"):
            load_snapshots(path)


def _save_snapshot_file(path):
    save_snapshots(path, np.ones((4, 3)), {"model": "l96", "dt": 1.0})


def _save_basis_file(path):
    save_basis(path, ReductionBasis(np.eye(4)[:, :2], kind="pod"))


def _truncate(path):
    data = Path(path).read_bytes()
    Path(path).write_bytes(data[:8 * 5])


def _truncated_basis(path):
    save_basis(path, ReductionBasis(np.eye(8)[:, :6], kind="pod"))
    _truncate(path)


def _three_column_basis(path):
    # fewer than the r_p = 4 of the assimilate run and of a sweep's second point
    save_basis(path, ReductionBasis(np.eye(8)[:, :3], kind="pod"))


def _drop_m(path):
    sidecar = json.loads(Path(path + ".json").read_text())
    del sidecar["M"]
    Path(path + ".json").write_text(json.dumps(sidecar))


def _poison(path):
    values = np.fromfile(path, dtype="<f8")
    values[1] = np.nan
    values.tofile(path)


def _remove_data(path):
    os.remove(path)


def _remove_sidecar(path):
    os.remove(path + ".json")


class TestMalformedFiles:
    @pytest.mark.parametrize("save, load", [(_save_snapshot_file, load_snapshots),
                                            (_save_basis_file, load_basis)])
    @pytest.mark.parametrize("spoil, message", [(_truncate, "holds 5 values"),
                                                (_drop_m, "'M' as a positive integer"),
                                                (_poison, "non-finite"),
                                                (_remove_data, "file .* cannot be read"),
                                                (_remove_sidecar, "sidecar .* cannot be read")])
    def test_loader_names_the_file(self, tmp_path, save, load, spoil, message):
        path = str(tmp_path / "data.bin")
        save(path)
        spoil(path)
        with pytest.raises(ReductionError, match=message) as info:
            load(path)
        assert path in str(info.value)

    def test_identity_kind_is_rejected(self, tmp_path):
        # an identity basis ignores its columns, so an 8 x 4 file would map
        # states through unreduced
        path = str(tmp_path / "id.bin")
        save_basis(path, ReductionBasis(np.eye(8)[:, :4], kind="identity", validate=False))
        with pytest.raises(ReductionError, match="'kind' pod, dmd or aus"):
            load_basis(path)

    def test_reduce_on_bad_snapshots_exits_2_with_one_line(self, tmp_path, capsys):
        self._reduce_exits_2_with_one_line(tmp_path, capsys, _truncate, "error: snapshot file")

    @pytest.mark.parametrize("spoil, start", [(_remove_data, "error: snapshot file"),
                                              (_remove_sidecar, "error: snapshot sidecar")])
    def test_reduce_on_missing_snapshots_exits_2_with_one_line(self, tmp_path, capsys,
                                                               spoil, start):
        self._reduce_exits_2_with_one_line(tmp_path, capsys, spoil, start)

    def test_reduce_on_unconverged_svd_exits_2_with_one_line(self, tmp_path, capsys,
                                                             monkeypatch):
        def spoil(path):
            monkeypatch.setattr(np.linalg, "svd", _no_convergence)

        self._reduce_exits_2_with_one_line(tmp_path, capsys, spoil,
                                           "error: np.linalg.svd of a 8x9 matrix failed")

    @staticmethod
    def _reduce_exits_2_with_one_line(tmp_path, capsys, spoil, start):
        snap = str(tmp_path / "truth.bin")
        ini = _write_ini(tmp_path, reduction_extra=f"snapshot_file = {snap}\n")
        assert dispatch(["truth", "--config", ini, "--out", snap]) == 0
        spoil(snap)
        capsys.readouterr()
        assert dispatch(["reduce", "--config", ini,
                         "--out", str(tmp_path / "b.bin")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(start)

    @pytest.mark.parametrize("argv", [["assimilate"], ["sweep"], ["sweep", "--jobs", "2"]],
                             ids=["assimilate", "sweep", "sweep-jobs2"])
    @pytest.mark.parametrize("make, start", [
        (lambda path: None, "error: basis sidecar"),
        (_truncated_basis, "error: basis file"),
        (_three_column_basis, "error: basis file"),
    ], ids=["missing", "truncated", "too-few-columns"])
    def test_bad_basis_file_exits_2_before_any_trial(self, tmp_path, capsys, monkeypatch,
                                                     argv, make, start):
        basis = str(tmp_path / "basis.bin")
        make(basis)
        ini = _write_ini(tmp_path, reduction_extra=f"basis_file = {basis}\n",
                         experiment_extra="sweep_r_p = 2, 4\n")
        monkeypatch.setattr(sweep, "_execute", _no_trials)
        assert dispatch(argv + ["--config", ini, "--out", str(tmp_path / "out.csv")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(start), err
        assert "basis.bin" in err[0]


    @pytest.mark.parametrize("argv", [["assimilate"], ["sweep"], ["sweep", "--jobs", "2"]],
                             ids=["assimilate", "sweep", "sweep-jobs2"])
    @pytest.mark.parametrize("rows, extra", [
        (3, ""),  # the file trains the state basis, of rank r_p = 4 at the second point
        (1, "data_reduction = data\nbasis_file = {basis}\n"),  # the data basis, r_d = 2
    ], ids=["state-basis", "data-basis"])
    def test_short_snapshot_file_exits_2_before_any_trial(self, tmp_path, capsys,
                                                          monkeypatch, argv, rows, extra):
        snapshots, basis = str(tmp_path / "truth.bin"), str(tmp_path / "basis.bin")
        save_snapshots(snapshots, np.ones((rows, 8)), {"model": "l96", "dt": 0.05})
        save_basis(basis, ReductionBasis(np.eye(8)[:, :4], kind="pod"))
        extra = f"snapshot_file = {snapshots}\n" + extra.format(basis=basis)
        ini = _write_ini(tmp_path, reduction_extra=extra, experiment_extra="sweep_r_p = 2, 4\n")
        monkeypatch.setattr(sweep, "_execute", _no_trials)
        assert dispatch(argv + ["--config", ini, "--out", str(tmp_path / "out.csv")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: snapshot file"), err
        assert "truth.bin" in err[0]


def _no_convergence(*args, **kwargs):
    raise np.linalg.LinAlgError("SVD did not converge")


def _no_trials(*args, **kwargs):
    raise AssertionError("a trial ran before the input files were checked")


def _write_ini(tmp_path, name="exp.ini", trials=2, reduction_extra="",
               experiment_extra=""):
    path = tmp_path / name
    path.write_text(
        "[model]\nkind = l96\ndimension = 8\n"
        "[reduction]\nkind = pod\nr_p = 4\nr_d = 2\n"
        "training_steps = 40\ntraining_stride = 5\n" + reduction_extra +
        "[filter]\nkind = projoppf\nn_particles = 4\n"
        f"[experiment]\nn_observations = 6\ntrials = {trials}\nburn_in = 50\n"
        "base_seed = 777\n" + experiment_extra
    )
    return str(path)


class TestCliTruth:
    def test_writes_training_trajectory(self, tmp_path, capsys):
        ini = _write_ini(tmp_path)
        out = str(tmp_path / "truth.bin")
        assert dispatch(["truth", "--config", ini, "--out", out]) == 0
        assert "wrote 9 snapshots of dimension 8" in capsys.readouterr().out
        states, sidecar = load_snapshots(out)
        expected, meta = training_trajectory(load_config(ini), 0)
        np.testing.assert_array_equal(states, expected)
        assert sidecar["dt"] == meta["dt"]
        assert sidecar["noise_on"] is False

    def test_seed_override_changes_output(self, tmp_path, capsys):
        ini = _write_ini(tmp_path)
        a, b = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
        dispatch(["truth", "--config", ini, "--out", a, "--seed", "1"])
        dispatch(["truth", "--config", ini, "--out", b, "--seed", "2"])
        assert Path(a).read_bytes() != Path(b).read_bytes()


class TestCliReduce:
    def _with_truth(self, tmp_path):
        snap = str(tmp_path / "truth.bin")
        ini = _write_ini(tmp_path, reduction_extra=f"snapshot_file = {snap}\n")
        dispatch(["truth", "--config", ini, "--out", snap])
        return ini

    def test_builds_pod_basis(self, tmp_path, capsys):
        ini = self._with_truth(tmp_path)
        out = str(tmp_path / "basis.bin")
        assert dispatch(["reduce", "--config", ini, "--out", out]) == 0
        assert "8x4 pod basis" in capsys.readouterr().out
        basis = load_basis(out)
        assert basis.kind == "pod" and basis.rank == 4 and basis.state_dim == 8
        gram = basis.columns.T @ basis.columns
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-12)
        sidecar = json.loads(Path(out + ".json").read_text())
        assert sidecar["source_snapshot_file"].endswith("truth.bin")
        assert sidecar["parameters"] == {"rank": 4}

    def test_kind_and_rank_overrides(self, tmp_path, capsys):
        ini = self._with_truth(tmp_path)
        out = str(tmp_path / "basis.bin")
        assert dispatch(["reduce", "--config", ini, "--out", out,
                         "--kind", "dmd", "--r", "3"]) == 0
        capsys.readouterr()
        basis = load_basis(out)
        assert basis.kind == "dmd"
        # conjugate pairs may round the requested rank up by one
        assert basis.rank in (3, 4)

    def test_aus_is_not_precomputable(self, tmp_path, capsys):
        ini = self._with_truth(tmp_path)
        code = dispatch(["reduce", "--config", ini,
                         "--out", str(tmp_path / "b.bin"), "--kind", "aus"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_missing_snapshot_file(self, tmp_path, capsys):
        snap = str(tmp_path / "nope.bin")
        ini = _write_ini(tmp_path, reduction_extra=f"snapshot_file = {snap}\n")
        assert dispatch(["reduce", "--config", ini,
                         "--out", str(tmp_path / "b.bin")]) == 2
        assert "error" in capsys.readouterr().err


class TestCliAssimilate:
    def test_metrics_csv_matches_library_run(self, tmp_path, capsys):
        ini = _write_ini(tmp_path)
        out = str(tmp_path / "metrics.csv")
        assert dispatch(["assimilate", "--config", ini, "--out", out]) == 0
        assert "2 trials" in capsys.readouterr().out
        cfg = load_config(ini)
        mine = str(tmp_path / "mine.csv")
        write_trial_csv(mine, run_point(cfg), cfg.build_model().cycle_dt)
        assert Path(out).read_bytes() == Path(mine).read_bytes()

    def test_pipeline_files_equal_in_trial_run(self, tmp_path, capsys):
        # truth -> reduce -> assimilate through files, against one self-
        # contained run that regenerates the training data and basis itself.
        # One trial: the staged basis comes from trial 0's training segment,
        # so only trial 0 retrains on exactly that data in the direct run.
        snap = str(tmp_path / "truth.bin")
        basis = str(tmp_path / "basis.bin")
        staged = _write_ini(tmp_path, name="staged.ini", trials=1,
                            reduction_extra=f"snapshot_file = {snap}\n"
                                            f"basis_file = {basis}\n")
        direct = _write_ini(tmp_path, name="direct.ini", trials=1)
        assert dispatch(["truth", "--config", staged, "--out", snap]) == 0
        assert dispatch(["reduce", "--config", staged, "--out", basis]) == 0
        m_staged = str(tmp_path / "staged.csv")
        m_direct = str(tmp_path / "direct.csv")
        assert dispatch(["assimilate", "--config", staged, "--out", m_staged]) == 0
        assert dispatch(["assimilate", "--config", direct, "--out", m_direct]) == 0
        capsys.readouterr()
        assert Path(m_staged).read_bytes() == Path(m_direct).read_bytes()

    def test_seed_override_is_deterministic(self, tmp_path, capsys):
        ini = _write_ini(tmp_path)
        a, b, c = (str(tmp_path / n) for n in ("a.csv", "b.csv", "c.csv"))
        dispatch(["assimilate", "--config", ini, "--out", a, "--seed", "5"])
        dispatch(["assimilate", "--config", ini, "--out", b, "--seed", "5"])
        dispatch(["assimilate", "--config", ini, "--out", c, "--seed", "6"])
        capsys.readouterr()
        assert Path(a).read_bytes() == Path(b).read_bytes()
        assert Path(a).read_bytes() != Path(c).read_bytes()

    def test_rank_overrides_change_results(self, tmp_path, capsys):
        ini = _write_ini(tmp_path)
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        dispatch(["assimilate", "--config", ini, "--out", a])
        dispatch(["assimilate", "--config", ini, "--out", b,
                  "--r", "6", "--rd", "3"])
        capsys.readouterr()
        assert Path(a).read_bytes() != Path(b).read_bytes()


class TestCliSweep:
    def test_summary_rows_and_worker_independence(self, tmp_path, capsys):
        ini = _write_ini(tmp_path, experiment_extra="sweep_r_p = 4, 6\n")
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert dispatch(["sweep", "--config", ini, "--out", a]) == 0
        assert dispatch(["sweep", "--config", ini, "--out", b, "--jobs", "2"]) == 0
        assert "2 summary rows" in capsys.readouterr().out
        lines = Path(a).read_text().splitlines()
        assert len(lines) == 3
        assert [row.split(",")[0] for row in lines[1:]] == ["4", "6"]
        assert Path(a).read_bytes() == Path(b).read_bytes()

    @pytest.mark.parametrize("reduction_extra, experiment_extra, rank", [
        ("", "sweep_r_p = 4, 6\n", ["--r", "9"]),
        ("data_reduction = data\n", "sweep_r_d = 2, 3\n", ["--rd", "9"]),
    ], ids=["r_p", "r_d"])
    def test_swept_rank_ignores_an_out_of_range_base_value(
            self, tmp_path, capsys, reduction_extra, experiment_extra, rank):
        # the base rank exceeds the 8 states (or 8 observed components), but a
        # sweep runs only its own values
        ini = _write_ini(tmp_path, trials=1, reduction_extra=reduction_extra,
                         experiment_extra=experiment_extra)
        out = str(tmp_path / "summary.csv")
        assert dispatch(["sweep", "--config", ini, "--out", out] + rank) == 0
        capsys.readouterr()
        rows = Path(out).read_text().splitlines()[1:]
        assert [row.split(",")[-1] for row in rows] == ["0", "0"]


class TestCliLyapunov:
    def test_spectrum_and_csv(self, tmp_path, capsys):
        ini = _write_ini(tmp_path, experiment_extra="lyapunov_steps = 2000\n")
        out = str(tmp_path / "spectrum.csv")
        assert dispatch(["lyapunov", "--config", ini, "--out", out]) == 0
        printed = capsys.readouterr().out
        assert "lambda_1" in printed and "kaplan_yorke" in printed
        lines = Path(out).read_text().splitlines()
        assert lines[0] == "index,exponent"
        assert len(lines) == 10  # header, 8 exponents, dimension row
        assert lines[-1].startswith("kaplan_yorke,")
        # exponents are sorted descending in the CSV as well
        values = [float(row.split(",")[1]) for row in lines[1:9]]
        assert values == sorted(values, reverse=True)


class TestCliErrors:
    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert dispatch(["assimilate", "--config",
                         str(tmp_path / "nope.ini")]) == 2
        assert "error" in capsys.readouterr().err

    def test_config_error_exits_2(self, tmp_path, capsys):
        ini = tmp_path / "bad.ini"
        ini.write_text("[model]\nkind = l96\ndimension = banana\n")
        assert dispatch(["assimilate", "--config", str(ini)]) == 2
        assert "dimension" in capsys.readouterr().err

    @pytest.mark.parametrize("key, reduction_extra, experiment_extra, argv", [
        ("[reduction] aus_eps", "aus_eps = 0\naus_spinup = 8\n", "",
         ["assimilate", "--kind", "aus"]),
        ("[reduction] aus_spinup", "aus_spinup = 0\n", "", ["assimilate", "--kind", "aus"]),
        ("[reduction] dmd_rank", "dmd_rank = -2\n", "", ["assimilate", "--kind", "dmd"]),
        ("[experiment] lyapunov_qr_interval", "", "lyapunov_qr_interval = 0\n",
         ["lyapunov"]),
        ("[experiment] lyapunov_eps", "", "lyapunov_eps = 0\n", ["lyapunov"]),
        # ranks above the state (8) or observed (8) dimension used to pass the
        # loader and then fail every trial
        ("[reduction] r_p", "", "", ["assimilate", "--r", "9"]),
        ("[reduction] r_p", "", "sweep_r_p = 4, 9\n", ["sweep"]),
        ("[reduction] r_d", "data_reduction = data\n", "", ["assimilate", "--rd", "9"]),
        ("[reduction] r_d", "data_reduction = data\n", "sweep_r_d = 2, 9\n", ["sweep"]),
    ], ids=["aus_eps", "aus_spinup", "dmd_rank", "lyapunov_qr_interval", "lyapunov_eps",
            "r_p_assimilate", "r_p_sweep", "r_d_assimilate", "r_d_sweep"])
    def test_out_of_range_key_exits_2_with_one_line(self, tmp_path, capsys, key,
                                                    reduction_extra, experiment_extra,
                                                    argv):
        ini = _write_ini(tmp_path, reduction_extra=reduction_extra,
                         experiment_extra="lyapunov_steps = 20\n" + experiment_extra)
        out = str(tmp_path / "out.csv")
        assert dispatch(argv + ["--config", ini, "--out", out]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {key}: "), lines

    def test_percent_in_value_reaches_the_missing_file(self, tmp_path, capsys,
                                                       monkeypatch):
        # '%' is literal, so the commands fail on the missing file itself
        monkeypatch.chdir(tmp_path)
        ini = _write_ini(tmp_path, reduction_extra="snapshot_file = run%1.bin\n")
        assert dispatch(["reduce", "--config", ini]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: snapshot"), lines
        assert "run%1.bin" in lines[0]
        assert dispatch(["assimilate", "--config", ini]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: snapshot"), lines
        assert "run%1.bin" in lines[0]

    @pytest.mark.parametrize("command", ["assimilate", "sweep"])
    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_2_with_one_line(self, tmp_path, capsys, monkeypatch,
                                                  command, jobs):
        # these used to run serially and exit 0
        ini = _write_ini(tmp_path, experiment_extra="sweep_r_p = 2, 4\n")
        monkeypatch.setattr(sweep, "_execute", _no_trials)
        assert dispatch([command, "--config", ini, "--jobs", jobs,
                         "--out", str(tmp_path / "out.csv")]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"error: jobs (worker processes) must be >= 1, got {jobs}"]

    def test_unknown_flag_exits_2(self, tmp_path, capsys):
        ini = _write_ini(tmp_path)
        assert dispatch(["assimilate", "--config", ini, "--bogus"]) == 2
        capsys.readouterr()

    def test_help_exits_0(self, capsys):
        assert dispatch(["--help"]) == 0
        assert "truth" in capsys.readouterr().out

    def test_log_env_fallback(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PROJDA_LOG", "not-a-level")
        assert dispatch(["--help"]) == 0
        capsys.readouterr()


def test_console_script_is_wired():
    proc = subprocess.run([sys.executable, "-m", "projda.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "assimilate" in proc.stdout
