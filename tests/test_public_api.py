"""The public API says each thing once and exports no test-only helpers.

The full-space filters are proj_pf_step and proj_oppf_step run with
identity_reduced_model, the resampling jitter is ReducedModel.jitter_noise,
and the experiment driver walks every deterministic trajectory. The names
below were second copies of these or wrappers only tests called.
"""

import pytest

import projda
from projda import filters, models, numerics, reduction
from projda.models import ObservationOperator, simulate
from projda.reduction import ReductionBasis, reduced_model

REMOVED = [
    "svd", "eig_general", "pseudoinverse", "sample_gaussian",
    "matrix", "pinv_matrix", "project",
    "standard_pf_step", "oppf_step", "projected_resample_noise",
    "smoothed_noise_rows", "simulate_truth", "run_deterministic",
]
OWNERS = [projda, models, simulate, numerics, filters, reduction, reduced_model,
          ObservationOperator, ReductionBasis]


@pytest.mark.parametrize("name", REMOVED)
def test_removed_helper_stays_gone(name):
    assert [owner.__name__ for owner in OWNERS if hasattr(owner, name)] == []
