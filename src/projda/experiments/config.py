"""Experiment configuration: one flat dataclass loaded from an INI file.

_TABLE maps each INI section and key to the ExperimentConfig field it sets;
README.md (Configuration) lists the keys with their ranges. Unset keys take
model-dependent defaults. Sweep keys are comma-separated lists; an empty value
means the axis is not swept. A sweep is its points (sweep_points), the
product of the axes in _SWEEP_AXES; a config with a swept axis is valid when
every point is.
"""

from __future__ import annotations

import configparser
import dataclasses
import itertools
import math
import numbers
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
        """self, checked as one point, or, where a sweep axis is set, each of
        its sweep points checked as one point; raises ConfigError naming the
        section and key of the first value out of range."""
        def bad(section, key, msg):
            return ConfigError(f"[{section}] {key}: {msg}")

        # NaN passes every range check below
        for section, key, value in _floats(self):
            if isinstance(value, numbers.Real) and not math.isfinite(value):
                raise bad(section, key, f"must be finite, got {value}")
        if self.model_kind == "swe" and self.sweep_forcing:
            raise bad("experiment", "sweep_forcing", "forcing applies to the l96 model only")
        if self.model_kind == "l96" and self.sweep_scenario:
            raise bad("experiment", "sweep_scenario", "scenarios apply to the swe model only")
        if any(getattr(self, key) for key in _SWEEP_ITEMS):
            sweep_points(self)
            return self
        if self.model_kind not in _MODEL_KINDS:
            raise bad("model", "kind", f"must be one of {_MODEL_KINDS}")
        if self.filter_kind not in _FILTER_KINDS:
            raise bad("filter", "kind", f"must be one of {_FILTER_KINDS}")
        if self.reduction_kind not in _REDUCTION_KINDS:
            raise bad("reduction", "kind", f"must be one of {_REDUCTION_KINDS}")
        if self.data_reduction not in _DATA_REDUCTIONS:
            raise bad("reduction", "data_reduction", f"must be one of {_DATA_REDUCTIONS}")
        if not 0.0 < self.obs_fraction <= 1.0 or math.isinf(1.0 / self.obs_fraction):
            raise bad("observation", "fraction", "must lie in (0, 1], 1/fraction finite")
        if self.model_kind == "l96" and self.scenario != "all":
            raise bad("observation", "scenario", "the cyclic model observes one variable; use 'all'")
        if self.model_kind == "swe" and self.scenario not in _SCENARIOS_SWE:
            raise bad("observation", "scenario", f"must be one of {_SCENARIOS_SWE}")
        if self.q_scale < 0 or self.r_scale < 0:
            raise bad("noise", "q_scale/r_scale", "must be nonnegative")
        if self.uses_optimal_proposal and (self.q_scale == 0 or math.isinf(1.0 / self.q_scale)):
            raise bad("noise", "q_scale", "optimal-proposal filters need nonzero model "
                      "noise, 1/q_scale finite")
        if self.r_scale == 0 or math.isinf(1.0 / self.r_scale):
            raise bad("noise", "r_scale", "observation noise must be positive, 1/r_scale finite")
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
            need = _snapshots_needed(self)
            if not self.snapshot_file and self.n_training_snapshots < need:
                raise bad("reduction", "training_steps",
                          f"only {self.n_training_snapshots} snapshots, need {need}")
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
        if self.lyapunov_exponents < 1 or self.lyapunov_steps < 1:
            raise bad("experiment", "lyapunov_*", "must be positive")
        if self.lyapunov_qr_interval < 1:
            raise bad("experiment", "lyapunov_qr_interval", "must be positive")
        if not self.lyapunov_eps > 0:
            raise bad("experiment", "lyapunov_eps", "must be positive")
        # constructing the component objects surfaces their own range errors
        model = _component("model", self.build_model)
        h = _component("observation", self.build_observation, model)
        _component("filter", self.filter_config)
        if not self.uses_identity_reduction:
            if self.r_p > model.dimension:
                raise bad("reduction", "r_p",
                          f"{self.r_p} exceeds the state dimension {model.dimension}")
            if self.r_d > h.data_dim:
                raise bad("reduction", "r_d",
                          f"needs r_d <= the {h.data_dim} observed components, got {self.r_d}")
        return self


def _floats(config: ExperimentConfig):
    """(section, key, value) of each float field of config and of each item
    of a float sweep list, in _TABLE order; an item names its sweep key."""
    for section, keys in _TABLE.items():
        for key, name in keys.items():
            if type(_DEFAULTS[_SWEEP_ITEMS.get(name, name)]) is float:
                values = getattr(config, name)
                for value in values if name in _SWEEP_ITEMS else (values,):
                    yield section, key, value


def _component(section: str, build, *args):
    """build(*args), a ValueError it raises as a ConfigError naming section."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}") from exc


def _snapshots_needed(config: ExperimentConfig) -> int:
    """The fewest snapshots a trial of config trains its bases on: max(r_p, 3)
    for a POD or DMD state basis not read from a file, r_d for a data-based
    data basis, the larger where it trains both; 0 where it trains on none."""
    if config.uses_identity_reduction:
        return 0
    trains_u = config.reduction_kind in ("pod", "dmd") and not config.basis_file
    return max(max(config.r_p, 3) if trains_u else 0,
               config.r_d if config.data_reduction == "data" else 0)


def _point(config: ExperimentConfig, **values) -> ExperimentConfig:
    """config at one point: values set, the sweep axes cleared, and validated
    as the point it is."""
    return replace(config, **values, **dict.fromkeys(_SWEEP_ITEMS, ()))


def sweep_points(config: ExperimentConfig) -> list[ExperimentConfig]:
    """Every point of the sweep, in the order of _SWEEP_AXES with the first
    axis outermost; an axis left empty stays at its config value."""
    lists = [getattr(config, f"sweep_{name}") or (getattr(config, name),)
             for name in _SWEEP_AXES]
    return [_point(config, **dict(zip(_SWEEP_AXES, values)))
            for values in itertools.product(*lists)]


# The dataclass defaults are the Lorenz-96 ones; the shallow-water model
# replaces these.
_DEFAULTS_BY_MODEL = {
    "l96": {},
    "swe": dict(dt=60.0, steps_per_observation=60, burn_in=1440,
                training_steps=2880, training_stride=60, resample_omega=1e-4),
}


def default_config(model_kind: str = "l96", **overrides) -> ExperimentConfig:
    """ExperimentConfig with the per-model defaults applied, then overrides.

    Constructing ExperimentConfig directly keeps the dataclass defaults, which
    are tuned for Lorenz-96; this applies the shallow-water substitutions (time
    step, observation cadence, training window) that load_config applies too.
    """
    if model_kind not in _MODEL_KINDS:
        raise ConfigError(f"[model] kind: must be one of {_MODEL_KINDS}, got {model_kind!r}")
    fields = dict(_DEFAULTS_BY_MODEL[model_kind])
    fields.update(overrides)
    return ExperimentConfig(model_kind=model_kind, **fields).validate()


def _keys(fields: str, **renamed) -> dict:
    """INI key -> ExperimentConfig field of one section: each of fields under
    its own name, then the keys named otherwise than their field."""
    return {**{name: name for name in fields.split()}, **renamed}


# The sweep axes, outermost first: the field each sweep_<field> list sets,
# whose parser reads the list's items
_SWEEP_AXES = ("scenario", "forcing", "q_scale", "r_p", "r_d")
_SWEEP_ITEMS = {f"sweep_{name}": name for name in _SWEEP_AXES}
# [section] -> {key: field}; every ExperimentConfig field has exactly one key
_TABLE = {
    "model": _keys("dimension forcing dt steps_per_observation nx ny dx dy gravity "
                   "coriolis friction viscosity depth jet_speed jet_width "
                   "perturb_amplitude", kind="model_kind"),
    "observation": _keys("scenario", fraction="obs_fraction"),
    "noise": _keys("q_scale r_scale"),
    "reduction": _keys("r_p r_d data_reduction training_steps training_stride "
                       "snapshot_file basis_file dmd_rank aus_eps aus_spinup",
                       kind="reduction_kind"),
    "filter": _keys("n_particles ess_threshold resample_alpha resample_omega",
                    kind="filter_kind"),
    "experiment": _keys("n_observations burn_in trials base_seed truth_noise "
                        "lyapunov_steps lyapunov_exponents lyapunov_eps "
                        "lyapunov_qr_interval " + " ".join(_SWEEP_ITEMS)),
}
# Choice fields, read case-insensitively
_CHOICES = ("model_kind", "scenario", "reduction_kind", "data_reduction", "filter_kind")
_DEFAULTS = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}


def _parse(name: str, raw: str):
    """The value of field name written as raw; ValueError if it is malformed.
    The type is that of the field's default: bool, int, float or str; a sweep
    list's items are those of its axis. Ranges, finiteness among them, are
    validate's."""
    if name in _SWEEP_ITEMS:
        return tuple(_parse(_SWEEP_ITEMS[name], p.strip()) for p in raw.split(",") if p.strip())
    kind = type(_DEFAULTS[name])
    if kind is bool:
        if raw.lower() not in configparser.ConfigParser.BOOLEAN_STATES:
            raise ValueError(f"not a boolean: {raw!r}")
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    value = kind(raw)
    return value.lower() if name in _CHOICES else value


def load_config(path: str) -> ExperimentConfig:
    # values are literal: a '%' is a character, not an interpolation
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc

    values, unknown = {}, []
    for section in parser.sections():
        for key in parser.options(section):
            name = _TABLE.get(section, {}).get(key)
            if name is None:
                unknown.append((section, key))
                continue
            raw = parser.get(section, key).strip()
            try:
                values[name] = _parse(name, raw)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}: {exc}") from exc
    if unknown:
        where = ", ".join(f"[{s}] {k}" for s, k in sorted(unknown))
        raise ConfigError(f"unknown config keys: {where}")
    return default_config(values.pop("model_kind", "l96"), **values)


def replace(cfg: ExperimentConfig, **overrides) -> ExperimentConfig:
    """dataclasses.replace plus revalidation."""
    return dataclasses.replace(cfg, **overrides).validate()
