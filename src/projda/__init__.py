"""Reduced-order data assimilation: projected particle filters with
POD, DMD, and unstable-subspace reduction backends, plus twin-experiment
drivers for a cyclic advection model and a rotating shallow-water channel."""

from .errors import (
    BlowupError,
    ConfigError,
    DegenerateWeightsError,
    NumericsError,
    ProjdaError,
    RankDeficiencyError,
    ReductionError,
    WeightCollapseError,
)
from .filters import (
    FilterConfig,
    ParticleEnsemble,
    ess,
    initialize_ensemble,
    proj_oppf_step,
    proj_pf_step,
    systematic_resample,
)
from .models import (
    L96Spec,
    ObservationOperator,
    SWESpec,
    load_snapshots,
    observe,
    save_snapshots,
)
from .numerics import NoiseSpec, RngStream
from .reduction import (
    DmdResult,
    ReducedModel,
    ReductionBasis,
    aus_step,
    build_reduced_model,
    dmd,
    dmd_basis,
    identity_basis,
    identity_reduced_model,
    kaplan_yorke,
    load_basis,
    lyapunov_spectrum,
    pod_basis,
    save_basis,
)

__version__ = "0.1.0"
