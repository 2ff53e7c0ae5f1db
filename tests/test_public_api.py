"""The public API says each thing once and exports no test-only helpers.

The full-space filters are proj_pf_step and proj_oppf_step run with
identity_reduced_model, the resampling jitter is ReducedModel.jitter_noise,
and the experiment driver walks every deterministic trajectory. The names
below were second copies of these or wrappers only tests called;
ReductionDriver was a layer whose one caller, a trial, holds all its state.

numpy is the only runtime dependency: the package imports no scipy, and runs
with scipy made unimportable. The README's first library example runs as
written.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import projda
from projda import experiments, filters, models, numerics, reduction
from projda.filters import ParticleEnsemble
from projda.models import L96Spec, ObservationOperator, simulate
from projda.reduction import ReducedModel, ReductionBasis, identity_basis, reduced_model

REMOVED = [
    "svd", "eig_general", "pseudoinverse", "sample_gaussian",
    "matrix", "pinv_matrix", "project",
    "standard_pf_step", "oppf_step", "projected_resample_noise",
    "smoothed_noise_rows", "simulate_truth", "run_deterministic",
    "step_rk4", "ReductionDriver",
]
SRC = Path(__file__).resolve().parents[1] / "src"
OWNERS = [projda, models, simulate, numerics, filters, reduction, reduced_model,
          experiments, ObservationOperator, ReductionBasis, ReducedModel,
          ParticleEnsemble]
# Names gone from one owner that keeps its other members: is_identity stays on
# ReductionBasis, time_dependent was an attribute of every built basis, and
# L96Spec.rhs served only step_rk4 (l96_rhs stays).
REMOVED_MEMBERS = [
    (L96Spec, "rhs"),
    (ObservationOperator, "every_kth"),
    (ObservationOperator, "identity"),
    (ObservationOperator, "is_identity"),
    (ReducedModel, "is_identity"),
    (ReducedModel, "data_reduced_dim"),
    (ParticleEnsemble, "dim"),
    (ReductionBasis(np.eye(3)[:, :2], kind="aus"), "time_dependent"),
    (identity_basis(3), "time_dependent"),
]


@pytest.mark.parametrize("name", REMOVED)
def test_removed_helper_stays_gone(name):
    assert [owner.__name__ for owner in OWNERS if hasattr(owner, name)] == []


@pytest.mark.parametrize("owner, name", REMOVED_MEMBERS, ids=[
    f"{getattr(owner, '__name__', type(owner).__name__)}.{name}"
    for owner, name in REMOVED_MEMBERS])
def test_removed_member_stays_gone(owner, name):
    assert not hasattr(owner, name)


def _run_python(code: str, cwd=None) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, cwd=cwd)


def test_readme_library_example_runs(tmp_path):
    readme = (SRC.parent / "README.md").read_text()
    section = readme.split("\n## Library use\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    out = _run_python(code, cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    assert (tmp_path / "metrics.csv").read_text().startswith("trial,obs_index,")


def test_cli_import_loads_no_scipy():
    out = _run_python("import sys, projda.cli; "
                      "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_cli_import_defers_numpy_random():
    # numpy 2 loads numpy.random on first use, and it adds about 6 MiB resident;
    # loaded at import time, before the spin-up's temporaries, it raises a run's
    # peak RSS by as much. numpy 1.x loads it with numpy itself.
    out = _run_python("import sys, numpy\n"
                      "before = {m for m in sys.modules if m.startswith('numpy.random')}\n"
                      "import projda.cli\n"
                      "print(sorted(m for m in sys.modules\n"
                      "             if m.startswith('numpy.random') and m not in before))\n")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_model_based_projoppf_runs_without_scipy():
    # a POD state basis and a model-based data reduction take the dense R^q,
    # weighting and proposal routes
    out = _run_python(
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from projda.experiments import default_config, run_trial\n"
        "cfg = default_config('l96', dimension=12, n_particles=5, n_observations=4,\n"
        "                     trials=1, filter_kind='projoppf', reduction_kind='pod',\n"
        "                     r_p=6, r_d=3, data_reduction='model', base_seed=1)\n"
        "rec = run_trial(cfg, 0)\n"
        "assert not rec.failed, rec.failure\n"
        "print(len(rec.rmse))\n")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "4"
