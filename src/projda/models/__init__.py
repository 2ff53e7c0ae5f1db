from .lorenz96 import L96Spec
from .observation import ObservationOperator, observe
from .shallow_water import SWESpec
from .simulate import load_snapshots, save_snapshots

__all__ = [
    "L96Spec",
    "ObservationOperator",
    "SWESpec",
    "load_snapshots",
    "observe",
    "save_snapshots",
]
