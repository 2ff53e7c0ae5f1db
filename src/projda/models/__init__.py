from ..numerics import NoiseSpec
from .lorenz96 import L96Spec, l96_rhs, step_rk4
from .observation import ObservationOperator, observe
from .shallow_water import SWESpec
from .simulate import load_snapshots, run_deterministic, save_snapshots, simulate_truth

__all__ = [
    "L96Spec",
    "NoiseSpec",
    "ObservationOperator",
    "SWESpec",
    "l96_rhs",
    "load_snapshots",
    "observe",
    "run_deterministic",
    "save_snapshots",
    "simulate_truth",
    "step_rk4",
]
