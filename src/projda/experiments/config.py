"""Experiment configuration: one flat dataclass loaded from an INI file.

Sections and keys:

[model]        kind (l96|swe), dimension, forcing, dt, steps_per_observation,
               nx, ny, dx, dy, gravity, coriolis, friction, viscosity, depth,
               jet_speed, jet_width, perturb_amplitude
[observation]  scenario (all|uv|h), fraction
[noise]        q_scale, r_scale
[reduction]    kind (identity|pod|dmd|aus), r_p, r_d, data_reduction
               (model|data), training_steps, training_stride, snapshot_file,
               basis_file, dmd_rank, aus_eps, aus_spinup
[filter]       kind (pf|oppf|projpf|projoppf), n_particles, ess_threshold,
               resample_alpha, resample_omega
[experiment]   n_observations, burn_in, trials, base_seed, truth_noise,
               sweep_r_p, sweep_r_d, sweep_forcing, sweep_q_scale,
               sweep_scenario, lyapunov_steps, lyapunov_exponents,
               lyapunov_eps, lyapunov_qr_interval

Unset keys take model-dependent defaults. Sweep keys are comma-separated
lists; an empty value means the axis is not swept.
"""

from __future__ import annotations

import configparser
import dataclasses
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..filters import FilterConfig
from ..models import L96Spec, ObservationOperator, SWESpec

_MODEL_KINDS = ("l96", "swe")
_FILTER_KINDS = ("pf", "oppf", "projpf", "projoppf")
_REDUCTION_KINDS = ("identity", "pod", "dmd", "aus")
_DATA_REDUCTIONS = ("model", "data")
_SCENARIOS_SWE = ("uv", "all", "h")

# filter kinds that run in the full state space through identity bases
FULL_SPACE_FILTERS = ("pf", "oppf")
# filter kinds that draw from the optimal proposal
OPTIMAL_PROPOSAL_FILTERS = ("oppf", "projoppf")


@dataclass(frozen=True)
class ExperimentConfig:
    # model
    model_kind: str = "l96"
    dimension: int = 40
    forcing: float = 8.0
    dt: float = 0.01
    steps_per_observation: int = 5
    nx: int = 64
    ny: int = 16
    dx: float = 20000.0
    dy: float = 20000.0
    gravity: float = 9.81
    coriolis: float = 1e-4
    friction: float = 1e-6
    viscosity: float = 1e4
    depth: float = 250.0
    jet_speed: float = 5.0
    jet_width: float = 80000.0
    perturb_amplitude: float = 0.5
    # observation
    scenario: str = "all"
    obs_fraction: float = 1.0
    # noise
    q_scale: float = 0.1
    r_scale: float = 0.01
    # reduction
    reduction_kind: str = "identity"
    r_p: int = 20
    r_d: int = 5
    data_reduction: str = "model"
    training_steps: int = 5000
    training_stride: int = 5
    snapshot_file: str = ""
    basis_file: str = ""
    dmd_rank: int = 0
    aus_eps: float = 1e-6
    aus_spinup: int = 100
    # filter
    filter_kind: str = "oppf"
    n_particles: int = 20
    ess_threshold: float = 0.5
    resample_alpha: float = 0.99
    resample_omega: float = 1e-2
    # experiment
    n_observations: int = 1000
    burn_in: int = 1000
    trials: int = 10
    base_seed: int = 1234
    truth_noise: bool = True
    sweep_r_p: tuple = ()
    sweep_r_d: tuple = ()
    sweep_forcing: tuple = ()
    sweep_q_scale: tuple = ()
    sweep_scenario: tuple = ()
    lyapunov_steps: int = 100000
    lyapunov_exponents: int = 34
    lyapunov_eps: float = 1e-6
    lyapunov_qr_interval: int = 10

    # -- derived objects ------------------------------------------------------

    def build_model(self):
        if self.model_kind == "l96":
            return L96Spec(dimension=self.dimension, forcing=self.forcing,
                           dt=self.dt, steps_per_observation=self.steps_per_observation)
        return SWESpec(nx=self.nx, ny=self.ny, dx=self.dx, dy=self.dy,
                       gravity=self.gravity, coriolis=self.coriolis,
                       friction=self.friction, viscosity=self.viscosity,
                       depth=self.depth, dt=self.dt,
                       steps_per_observation=self.steps_per_observation)

    def build_observation(self, model) -> ObservationOperator:
        every = int(round(1.0 / self.obs_fraction))
        m = model.dimension
        if self.model_kind == "l96":
            start, stop = 0, m
        else:
            n = self.nx * self.ny
            start, stop = {"uv": (0, 2 * n), "all": (0, 3 * n), "h": (2 * n, 3 * n)}[self.scenario]
        indices = np.arange(start, stop, every)
        return ObservationOperator(indices, m)

    def filter_config(self) -> FilterConfig:
        return FilterConfig(ess_threshold_fraction=self.ess_threshold,
                            resample_alpha=self.resample_alpha,
                            resample_omega=self.resample_omega)

    @property
    def uses_identity_reduction(self) -> bool:
        return self.filter_kind in FULL_SPACE_FILTERS or self.reduction_kind == "identity"

    @property
    def uses_optimal_proposal(self) -> bool:
        return self.filter_kind in OPTIMAL_PROPOSAL_FILTERS

    @property
    def n_training_snapshots(self) -> int:
        return self.training_steps // self.training_stride + 1

    def validate(self) -> "ExperimentConfig":
        def bad(section, key, msg):
            return ConfigError(f"[{section}] {key}: {msg}")

        if self.model_kind not in _MODEL_KINDS:
            raise bad("model", "kind", f"must be one of {_MODEL_KINDS}")
        if self.filter_kind not in _FILTER_KINDS:
            raise bad("filter", "kind", f"must be one of {_FILTER_KINDS}")
        if self.reduction_kind not in _REDUCTION_KINDS:
            raise bad("reduction", "kind", f"must be one of {_REDUCTION_KINDS}")
        if self.data_reduction not in _DATA_REDUCTIONS:
            raise bad("reduction", "data_reduction", f"must be one of {_DATA_REDUCTIONS}")
        if not 0.0 < self.obs_fraction <= 1.0:
            raise bad("observation", "fraction", "must lie in (0, 1]")
        if self.model_kind == "l96" and self.scenario != "all":
            raise bad("observation", "scenario", "the cyclic model observes one variable; use 'all'")
        if self.model_kind == "swe" and self.scenario not in _SCENARIOS_SWE:
            raise bad("observation", "scenario", f"must be one of {_SCENARIOS_SWE}")
        if self.q_scale < 0 or self.r_scale < 0:
            raise bad("noise", "q_scale/r_scale", "must be nonnegative")
        if self.uses_optimal_proposal and self.q_scale == 0:
            raise bad("noise", "q_scale", "optimal-proposal filters need nonzero model noise")
        if self.r_scale == 0:
            raise bad("noise", "r_scale", "observation noise must be positive")
        if not self.uses_identity_reduction:
            if self.r_p < 1 or self.r_d < 1:
                raise bad("reduction", "r_p/r_d", "must be positive")
            if self.data_reduction == "model" and self.r_d > self.r_p:
                raise bad("reduction", "r_d", "model-based data reduction needs r_d <= r_p")
            if self.reduction_kind == "aus":
                if self.data_reduction != "model":
                    raise bad("reduction", "data_reduction",
                              "time-dependent bases support only the model-based data reduction")
                if not self.aus_eps > 0:
                    raise bad("reduction", "aus_eps", "must be positive")
                if self.aus_spinup < 1:
                    raise bad("reduction", "aus_spinup", "must be positive")
                if self.burn_in + self.training_steps < self.aus_spinup * self.steps_per_observation:
                    raise bad("reduction", "aus_spinup",
                              "burn_in + training_steps is shorter than the spin-up window")
            if self.reduction_kind in ("pod", "dmd") and not self.basis_file:
                if self.n_training_snapshots < max(self.r_p, 3):
                    raise bad("reduction", "training_steps",
                              f"only {self.n_training_snapshots} snapshots for rank {self.r_p}")
        if self.dmd_rank < 0:
            raise bad("reduction", "dmd_rank", "must be >= 0 (0 picks the rank from the data)")
        if self.n_particles < 1:
            raise bad("filter", "n_particles", "must be positive")
        if self.n_observations < 1 or self.trials < 1:
            raise bad("experiment", "n_observations/trials", "must be positive")
        if self.burn_in < 0 or self.training_steps < 0 or self.training_stride < 1:
            raise bad("experiment", "burn_in/training", "burn_in, training_steps >= 0; stride >= 1")
        if self.base_seed < 0:
            raise bad("experiment", "base_seed", "must be nonnegative")
        if self.model_kind == "swe" and self.sweep_forcing:
            raise bad("experiment", "sweep_forcing", "forcing applies to the l96 model only")
        if self.model_kind == "l96" and self.sweep_scenario:
            raise bad("experiment", "sweep_scenario", "scenarios apply to the swe model only")
        if self.lyapunov_exponents < 1 or self.lyapunov_steps < 1:
            raise bad("experiment", "lyapunov_*", "must be positive")
        if self.lyapunov_qr_interval < 1:
            raise bad("experiment", "lyapunov_qr_interval", "must be positive")
        if not self.lyapunov_eps > 0:
            raise bad("experiment", "lyapunov_eps", "must be positive")
        # constructing the component objects surfaces their own errors early
        try:
            model = self.build_model()
            h = self.build_observation(model)
            self.filter_config()
        except (ValueError, ConfigError) as exc:
            raise ConfigError(str(exc)) from exc
        # a swept rank is never run at its base value; each sweep point is
        # checked on its own when sweep_points builds it
        if not self.uses_identity_reduction:
            if self.r_p > model.dimension and not self.sweep_r_p:
                raise bad("reduction", "r_p",
                          f"{self.r_p} exceeds the state dimension {model.dimension}")
            if (self.data_reduction == "data" and self.r_d > h.data_dim
                    and not (self.sweep_r_d or self.sweep_scenario)):
                raise bad("reduction", "r_d",
                          f"data-based reduction needs r_d <= the {h.data_dim} observed "
                          f"components, got {self.r_d}")
        return self


_DEFAULTS_BY_MODEL = {
    "l96": dict(dt=0.01, steps_per_observation=5, burn_in=1000,
                training_steps=5000, training_stride=5, resample_omega=1e-2),
    "swe": dict(dt=60.0, steps_per_observation=60, burn_in=1440,
                training_steps=2880, training_stride=60, resample_omega=1e-4),
}


def default_config(model_kind: str = "l96", **overrides) -> ExperimentConfig:
    """ExperimentConfig with the per-model defaults applied, then overrides.

    Constructing ExperimentConfig directly keeps the dataclass defaults, which
    are tuned for Lorenz-96; this applies the same per-model substitutions that
    load_config does (time step, observation cadence, training window).
    """
    if model_kind not in _MODEL_KINDS:
        raise ConfigError(f"model kind must be one of {_MODEL_KINDS}, got {model_kind!r}")
    fields = dict(_DEFAULTS_BY_MODEL[model_kind])
    fields.update(overrides)
    return ExperimentConfig(model_kind=model_kind, **fields).validate()


class _Reader:
    """configparser access with typed errors naming the section and key."""

    def __init__(self, parser: configparser.ConfigParser):
        self.parser = parser
        self.seen = set()

    def get(self, section, key, default, cast):
        self.seen.add((section, key))
        if not self.parser.has_option(section, key):
            return default
        raw = self.parser.get(section, key).strip()
        try:
            return cast(raw)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}: {exc}") from exc

    def unknown_keys(self):
        for section in self.parser.sections():
            for key in self.parser.options(section):
                if (section, key) not in self.seen:
                    yield section, key


def _to_bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _to_list(cast):
    def convert(raw: str) -> tuple:
        items = [p.strip() for p in raw.split(",") if p.strip()]
        return tuple(cast(p) for p in items)

    return convert


def load_config(path: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc

    r = _Reader(parser)
    kind = r.get("model", "kind", "l96", str).lower()
    if kind not in _MODEL_KINDS:
        raise ConfigError(f"[model] kind: must be one of {_MODEL_KINDS}, got {kind!r}")
    dd = _DEFAULTS_BY_MODEL[kind]

    cfg = ExperimentConfig(
        model_kind=kind,
        dimension=r.get("model", "dimension", 40, int),
        forcing=r.get("model", "forcing", 8.0, float),
        dt=r.get("model", "dt", dd["dt"], float),
        steps_per_observation=r.get("model", "steps_per_observation",
                                    dd["steps_per_observation"], int),
        nx=r.get("model", "nx", 64, int),
        ny=r.get("model", "ny", 16, int),
        dx=r.get("model", "dx", 20000.0, float),
        dy=r.get("model", "dy", 20000.0, float),
        gravity=r.get("model", "gravity", 9.81, float),
        coriolis=r.get("model", "coriolis", 1e-4, float),
        friction=r.get("model", "friction", 1e-6, float),
        viscosity=r.get("model", "viscosity", 1e4, float),
        depth=r.get("model", "depth", 250.0, float),
        jet_speed=r.get("model", "jet_speed", 5.0, float),
        jet_width=r.get("model", "jet_width", 80000.0, float),
        perturb_amplitude=r.get("model", "perturb_amplitude", 0.5, float),
        scenario=r.get("observation", "scenario", "all", str).lower(),
        obs_fraction=r.get("observation", "fraction", 1.0, float),
        q_scale=r.get("noise", "q_scale", 0.1, float),
        r_scale=r.get("noise", "r_scale", 0.01, float),
        reduction_kind=r.get("reduction", "kind", "identity", str).lower(),
        r_p=r.get("reduction", "r_p", 20, int),
        r_d=r.get("reduction", "r_d", 5, int),
        data_reduction=r.get("reduction", "data_reduction", "model", str).lower(),
        training_steps=r.get("reduction", "training_steps", dd["training_steps"], int),
        training_stride=r.get("reduction", "training_stride", dd["training_stride"], int),
        snapshot_file=r.get("reduction", "snapshot_file", "", str),
        basis_file=r.get("reduction", "basis_file", "", str),
        dmd_rank=r.get("reduction", "dmd_rank", 0, int),
        aus_eps=r.get("reduction", "aus_eps", 1e-6, float),
        aus_spinup=r.get("reduction", "aus_spinup", 100, int),
        filter_kind=r.get("filter", "kind", "oppf", str).lower(),
        n_particles=r.get("filter", "n_particles", 20, int),
        ess_threshold=r.get("filter", "ess_threshold", 0.5, float),
        resample_alpha=r.get("filter", "resample_alpha", 0.99, float),
        resample_omega=r.get("filter", "resample_omega", dd["resample_omega"], float),
        n_observations=r.get("experiment", "n_observations", 1000, int),
        burn_in=r.get("experiment", "burn_in", dd["burn_in"], int),
        trials=r.get("experiment", "trials", 10, int),
        base_seed=r.get("experiment", "base_seed", 1234, int),
        truth_noise=r.get("experiment", "truth_noise", True, _to_bool),
        sweep_r_p=r.get("experiment", "sweep_r_p", (), _to_list(int)),
        sweep_r_d=r.get("experiment", "sweep_r_d", (), _to_list(int)),
        sweep_forcing=r.get("experiment", "sweep_forcing", (), _to_list(float)),
        sweep_q_scale=r.get("experiment", "sweep_q_scale", (), _to_list(float)),
        sweep_scenario=r.get("experiment", "sweep_scenario", (), _to_list(str)),
        lyapunov_steps=r.get("experiment", "lyapunov_steps", 100000, int),
        lyapunov_exponents=r.get("experiment", "lyapunov_exponents", 34, int),
        lyapunov_eps=r.get("experiment", "lyapunov_eps", 1e-6, float),
        lyapunov_qr_interval=r.get("experiment", "lyapunov_qr_interval", 10, int),
    )
    unknown = sorted(r.unknown_keys())
    if unknown:
        where = ", ".join(f"[{s}] {k}" for s, k in unknown)
        raise ConfigError(f"unknown config keys: {where}")
    return cfg.validate()


def replace(cfg: ExperimentConfig, **overrides) -> ExperimentConfig:
    """dataclasses.replace plus revalidation."""
    return dataclasses.replace(cfg, **overrides).validate()
