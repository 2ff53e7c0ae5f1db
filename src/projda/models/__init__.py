from ..numerics import NoiseSpec
from .lorenz96 import L96Spec, l96_rhs
from .observation import ObservationOperator, observe
from .shallow_water import SWESpec
from .simulate import load_snapshots, save_snapshots

__all__ = [
    "L96Spec",
    "NoiseSpec",
    "ObservationOperator",
    "SWESpec",
    "l96_rhs",
    "load_snapshots",
    "observe",
    "save_snapshots",
]
