"""Truth simulation and snapshot file storage.

Snapshot files hold raw little-endian float64 values, one state per record,
with a JSON sidecar (same path + ".json") recording
{model, M, n_steps, dt, seed, noise_on}. Basis files share the layout.
"""

from __future__ import annotations

import json

import numpy as np

from ..errors import ReductionError
from ..numerics import NoiseSpec, RngStream


def simulate_truth(model, x0, n_steps: int, q: NoiseSpec | None, rng, noise_on: bool = True):
    """Run the stochastic model for n_steps observation cycles.

    Each cycle applies the deterministic cycle map and, when noise_on, adds one
    N(0, Q) draw. Returns an (n_steps + 1, M) array whose first row is x0.
    Cycle t consumes substream rng.child(t), so trajectories are reproducible
    and extendable.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (model.dimension,):
        raise ValueError(f"x0 has shape {x0.shape}, model dimension is {model.dimension}")
    if noise_on and (q is None or q.dim != model.dimension):
        raise ValueError("noise_on requires Q with the model dimension")
    out = np.empty((n_steps + 1, model.dimension))
    out[0] = x0
    x = x0
    for t in range(1, n_steps + 1):
        x = model.cycle_map(x)
        if noise_on and not q.is_zero:
            x = x + q.sample(rng.child(t - 1).generator())
        out[t] = x
    return out


def run_deterministic(model, x0, n_internal_steps: int, stride: int = 1):
    """Noise-free trajectory at internal-step resolution, subsampled by stride.

    Returns (n_internal_steps // stride + 1, M); row 0 is x0. Used to produce
    training snapshots for basis construction.
    """
    x0 = np.asarray(x0, dtype=float)
    n_records = n_internal_steps // stride + 1
    out = np.empty((n_records, model.dimension))
    out[0] = x0
    x = x0
    rec = 1
    for step in range(1, n_internal_steps + 1):
        x = model.step(x)
        if step % stride == 0 and rec < n_records:
            out[rec] = x
            rec += 1
    return out[:rec]


def save_snapshots(path: str, states: np.ndarray, meta: dict):
    """Write states row-by-row as little-endian float64 plus a JSON sidecar."""
    states = np.ascontiguousarray(states, dtype="<f8")
    states.tofile(path)
    sidecar = {
        "model": meta["model"],
        "M": int(states.shape[1]),
        "n_steps": int(states.shape[0] - 1),
        "dt": float(meta["dt"]),
        "seed": meta.get("seed"),
        "noise_on": bool(meta.get("noise_on", False)),
    }
    with open(path + ".json", "w") as fh:
        json.dump(sidecar, fh, indent=2)
        fh.write("\n")


def read_raw_file(path: str, what: str, dims: tuple[str, ...]):
    """Values and sidecar of a raw float64 file whose sidecar gives each key in
    dims as a positive integer. Raises ReductionError naming the file when the
    sidecar is malformed or a value is not finite; callers check the count."""
    try:
        with open(path + ".json") as fh:
            sidecar = json.load(fh)
    except ValueError as exc:
        raise ReductionError(f"{what} sidecar {path}.json is not valid JSON: {exc}") from None
    if not isinstance(sidecar, dict):
        raise ReductionError(f"{what} sidecar {path}.json is not a JSON object")
    for key in dims:
        value = sidecar.get(key)
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ReductionError(
                f"{what} sidecar {path}.json needs {key!r} as a positive integer, "
                f"found {value!r}"
            )
    raw = np.fromfile(path, dtype="<f8")
    if not np.all(np.isfinite(raw)):
        raise ReductionError(f"{what} file {path} holds non-finite values")
    return raw, sidecar


def load_snapshots(path: str):
    """Read a snapshot file; returns (states, sidecar dict)."""
    raw, sidecar = read_raw_file(path, "snapshot", ("M",))
    m = sidecar["M"]
    if raw.size == 0 or raw.size % m != 0:
        raise ReductionError(
            f"snapshot file {path} holds {raw.size} values, "
            f"not a positive multiple of M = {m}"
        )
    return raw.reshape(-1, m), sidecar
