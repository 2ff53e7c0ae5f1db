"""Tests of the benchmark itself, on workloads shrunk to a tiny size.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = dict(
    experiment={"n_observations": 2, "trials": 1, "burn_in": 60},
    reduction={"training_steps": 1200, "aus_spinup": 10},
)


def tiny(name):
    """The named workload at a tiny size, under a name with no reference."""
    return dataclasses.replace(WORKLOADS[name].resized(**TINY), name=f"tiny_{name}")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(name, tmp_path):
    workload = tiny(name)
    inis = bench.write_inis(workload, 7, tmp_path)
    argv = [bench.cli_argv(call, inis[call.label], tmp_path / f"{call.label}.csv", 1)
            for call in workload.calls]
    runs = []
    for _ in range(2):
        status, traced = tracer.run_traced(argv)
        assert status == 0
        runs.append(tracer.layer_metrics(traced.spans()))
    counts = [{k: m[k] for k in tracer.COUNT_METRICS} for m in runs]
    assert counts[0] == counts[1]
    assert counts[0]["filter.cycles"] == workload.cycles
    assert counts[0]["trial.trials"] == workload.trials
    assert counts[0]["l96.state_steps"] + counts[0]["swe.state_steps"] > 0


def test_layer_metrics_derive_self_time_and_spin_up():
    spans = {
        "name": ["trial", "l96.step", "l96.cycle_map", "l96.step", "filter.step",
                 "filter.forecast", "l96.cycle_map", "l96.step"],
        "start": [0.0, 0.0, 1.0, 1.0, 3.0, 3.0, 3.5, 3.5],
        "end": [10.0, 1.0, 3.0, 2.0, 6.0, 5.0, 4.5, 4.0],
        "parent": [-1, 0, 0, 2, 0, 4, 5, 6],
        "columns": [0, 1, 0, 1, 0, 0, 0, 4],
    }
    m = tracer.layer_metrics(spans)
    assert m["trial.trials"] == 1
    assert m["trial.driver_self_s"] == pytest.approx(10.0 - 1.0 - 2.0 - 3.0)
    assert m["trial.spinup_s"] == pytest.approx(1.0)  # the step outside any cycle_map
    assert m["trial.spinup_steps_per_trial"] == 1
    assert m["trial.truth_s"] == pytest.approx(2.0)
    assert m["l96.state_steps"] == 6
    assert m["model.step_single_us"] == pytest.approx(1e6)
    assert m["model.step_batch_us_per_col"] == pytest.approx(0.5e6 / 4)
    assert m["filter.cycles"] == 1
    assert m["filter.forecast_s"] == pytest.approx(2.0)
    assert m["reduced.forecast_self_s"] == pytest.approx(1.0)
    assert m["filter.step_self_s"] == pytest.approx(1.0)


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_is_printed_with_its_unit(name, trace, capsys):
    result = bench.run_workload(tiny(name), seed=3, seconds=0, trace=trace,
                                **({} if trace else dict(min_repeats=1)))
    out = capsys.readouterr().out
    assert result["correct"], out
    assert result["failed"] == 0 and result["attempted"] > 0
    expected = _benchmark_json()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    for metric in expected:
        assert f"{metric['name']} = " in out
        line = next(ln for ln in out.splitlines() if f" {metric['name']} = " in ln)
        assert line.split(" = ", 1)[1].split()[1] == metric["unit"], line
    assert "failed_frac = 0 ratio" in out
    assert "csv_identical: " in out


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "l96_aus_long", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert "{" not in done.stdout
