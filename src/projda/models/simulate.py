"""Snapshot file storage.

Snapshot files hold raw little-endian float64 values, one state per record,
with a JSON sidecar (same path + ".json") recording
{model, M, n_steps, dt, seed, noise_on}. Basis files share the layout.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from ..errors import ReductionError


def save_snapshots(path: str, states: np.ndarray, meta: dict):
    """Write states row-by-row as little-endian float64 plus a JSON sidecar."""
    write_raw_file(path, states, {
        "model": meta["model"],
        "M": int(states.shape[1]),
        "n_steps": int(states.shape[0] - 1),
        "dt": float(meta["dt"]),
        "seed": meta.get("seed"),
        "noise_on": bool(meta.get("noise_on", False)),
    })


def write_raw_file(path: str, values: np.ndarray, sidecar: dict):
    """Write values as little-endian float64 in C order, and sidecar as
    indented JSON to path + ".json"."""
    np.ascontiguousarray(values, dtype="<f8").tofile(path)
    with open(path + ".json", "w") as fh:
        json.dump(sidecar, fh, indent=2)
        fh.write("\n")


def read_raw_file(path: str, what: str, dims: tuple[str, ...]):
    """Values and sidecar of a raw float64 file whose sidecar gives each key in
    dims as a positive integer. Raises ReductionError naming the file when
    either file cannot be read, the sidecar is malformed or a value is not
    finite; callers check the count."""
    try:
        with open(path + ".json") as fh:
            sidecar = json.load(fh)
    except OSError as exc:
        raise ReductionError(f"{what} sidecar {path}.json cannot be read: "
                             f"{exc.strerror or exc}") from None
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
    try:
        raw = np.fromfile(path, dtype="<f8")
    except OSError as exc:
        raise ReductionError(f"{what} file {path} cannot be read: {exc.strerror or exc}") from None
    if not np.all(np.isfinite(raw)):
        raise ReductionError(f"{what} file {path} holds non-finite values")
    return raw, sidecar


def load_snapshots(path: str):
    """Read a snapshot file; returns (states, sidecar dict). The sidecar's dt,
    where it has one, is a positive finite float; raises ReductionError
    naming the file when it is not."""
    raw, sidecar = read_raw_file(path, "snapshot", ("M",))
    if "dt" in sidecar:
        dt = sidecar["dt"]
        if (isinstance(dt, bool) or not isinstance(dt, (int, float))
                or not 0 < dt <= sys.float_info.max):
            raise ReductionError(
                f"snapshot sidecar {path}.json needs 'dt' as a positive finite "
                f"number, found {dt!r}"
            )
        sidecar["dt"] = float(dt)
    m = sidecar["M"]
    if raw.size == 0 or raw.size % m != 0:
        raise ReductionError(
            f"snapshot file {path} holds {raw.size} values, "
            f"not a positive multiple of M = {m}"
        )
    return raw.reshape(-1, m), sidecar
