"""Experiment configuration: one flat dataclass loaded from an INI file.

_TABLE maps each INI section and key to the ExperimentConfig field it sets,
and is the only place that names them: a range error takes its "[section]
key" from it. _ALLOWED, _AT_LEAST, _ABOVE and _AT_MOST hold each choice list
and plain bound once, and validate checks them with finiteness in one pass
over _TABLE; README.md (Configuration) lists the keys with their ranges. The
model and filter defaults are those of L96Spec, SWESpec and FilterConfig;
unset keys take model-dependent defaults. Sweep keys are comma-separated
lists; an empty value means the axis is not swept. A sweep is its points
(sweep_points), the product of the axes in _SWEEP_AXES; a config with a swept
axis is valid when every point is.
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

# filter kinds that run in the full state space through identity bases
FULL_SPACE_FILTERS = ("pf", "oppf")
# filter kinds that draw from the optimal proposal
OPTIMAL_PROPOSAL_FILTERS = ("oppf", "projoppf")


@dataclass(frozen=True)
class ExperimentConfig:
    # model
    model_kind: str = "l96"
    dimension: int = L96Spec.dimension
    forcing: float = L96Spec.forcing
    dt: float = L96Spec.dt
    steps_per_observation: int = L96Spec.steps_per_observation
    nx: int = SWESpec.nx
    ny: int = SWESpec.ny
    dx: float = SWESpec.dx
    dy: float = SWESpec.dy
    gravity: float = SWESpec.gravity
    coriolis: float = SWESpec.coriolis
    friction: float = SWESpec.friction
    viscosity: float = SWESpec.viscosity
    depth: float = SWESpec.depth
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
    ess_threshold: float = FilterConfig.ess_threshold_fraction
    resample_alpha: float = FilterConfig.resample_alpha
    resample_omega: float = FilterConfig.resample_omega
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
        spec = L96Spec if self.model_kind == "l96" else SWESpec
        return spec(**{f.name: getattr(self, f.name) for f in dataclasses.fields(spec)})

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
        def bad(name, msg):
            section, key = _KEYS[name]
            return ConfigError(f"[{section}] {key}: {msg}")

        sweep = any(getattr(self, key) for key in _SWEEP_ITEMS)
        for name in _KEYS:
            value = getattr(self, name)
            # NaN passes every bound; a sweep item names its sweep key
            for item in value if name in _SWEEP_ITEMS else (value,):
                if isinstance(item, numbers.Real) and not math.isfinite(item):
                    raise bad(name, f"must be finite, got {item}")
            if sweep:
                continue  # each point checks its own ranges
            if name in _ALLOWED and value not in _ALLOWED[name]:
                raise bad(name, f"must be one of {_ALLOWED[name]}, got {value!r}")
            if name in _AT_LEAST and not value >= _AT_LEAST[name]:
                raise bad(name, f"must be >= {_AT_LEAST[name]}, got {value}")
            if name in _ABOVE and not value > _ABOVE[name]:
                raise bad(name, f"must be > {_ABOVE[name]}, got {value}")
            if name in _AT_MOST and not value <= _AT_MOST[name]:
                raise bad(name, f"must be <= {_AT_MOST[name]}, got {value}")
        if self.model_kind == "swe" and self.sweep_forcing:
            raise bad("sweep_forcing", "forcing applies to the l96 model only")
        if self.model_kind == "l96" and self.sweep_scenario:
            raise bad("sweep_scenario", "scenarios apply to the swe model only")
        if sweep:
            sweep_points(self)
            return self
        if self.scenario not in _SCENARIOS[self.model_kind]:
            raise bad("scenario", f"must be one of {_SCENARIOS[self.model_kind]} for the "
                      f"{self.model_kind} model, got {self.scenario!r}")
        if not 0.0 < self.obs_fraction <= 1.0 or math.isinf(1.0 / self.obs_fraction):
            raise bad("obs_fraction", "must lie in (0, 1], 1/fraction finite")
        if self.uses_optimal_proposal and (self.q_scale == 0 or math.isinf(1.0 / self.q_scale)):
            raise bad("q_scale", "optimal-proposal filters need nonzero model noise, "
                      "1/q_scale finite")
        if math.isinf(1.0 / self.r_scale):
            raise bad("r_scale", "1/r_scale must be finite")
        if not self.uses_identity_reduction:
            for name, rank in (("r_p", self.r_p), ("r_d", self.r_d)):
                if rank < 1:
                    raise bad(name, f"must be >= 1 for a projected filter, got {rank}")
            if self.data_reduction == "model" and self.r_d > self.r_p:
                raise bad("r_d", "model-based data reduction needs r_d <= r_p")
            if self.reduction_kind == "aus":
                if self.data_reduction != "model":
                    raise bad("data_reduction",
                              "time-dependent bases support only the model-based data reduction")
                if not self.aus_eps > 0:
                    raise bad("aus_eps", f"must be > 0 for kind = aus, got {self.aus_eps}")
                if self.aus_spinup < 1:
                    raise bad("aus_spinup",
                              f"must be >= 1 for kind = aus, got {self.aus_spinup}")
                if self.burn_in + self.training_steps < self.aus_spinup * self.steps_per_observation:
                    raise bad("aus_spinup",
                              "burn_in + training_steps is shorter than the spin-up window")
            need = _snapshots_needed(self)
            if not self.snapshot_file and self.n_training_snapshots < need:
                raise bad("training_steps",
                          f"only {self.n_training_snapshots} snapshots, need {need}")
        # constructing the component objects surfaces their own range errors
        model = _component("model", self.build_model)
        h = _component("observation", self.build_observation, model)
        _component("filter", self.filter_config)
        if not self.uses_identity_reduction:
            if self.r_p > model.dimension:
                raise bad("r_p", f"{self.r_p} exceeds the state dimension {model.dimension}")
            if self.r_d > h.data_dim:
                raise bad("r_d", f"needs r_d <= the {h.data_dim} observed components, "
                          f"got {self.r_d}")
        return self


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
    "swe": dict(dt=SWESpec.dt, steps_per_observation=SWESpec.steps_per_observation,
                burn_in=1440, training_steps=2880, training_stride=60, resample_omega=1e-4),
}


def default_config(model_kind: str = "l96", **overrides) -> ExperimentConfig:
    """ExperimentConfig with the per-model defaults applied, then overrides.

    Constructing ExperimentConfig directly keeps the dataclass defaults, which
    are tuned for Lorenz-96; this applies the shallow-water substitutions (time
    step, observation cadence, training window) that load_config applies too.
    """
    fields = {**_DEFAULTS_BY_MODEL.get(model_kind, {}), **overrides}
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
# field -> its (section, key), which every range error names
_KEYS = {name: (section, key) for section, keys in _TABLE.items() for key, name in keys.items()}
# The values of each choice field; a model's scenarios depend on the model.
# Choices are read case-insensitively.
_ALLOWED = {
    "model_kind": ("l96", "swe"),
    "reduction_kind": ("identity", "pod", "dmd", "aus"),
    "data_reduction": ("model", "data"),
    "filter_kind": ("pf", "oppf", "projpf", "projoppf"),
}
_SCENARIOS = {"l96": ("all",), "swe": ("uv", "all", "h")}
_CHOICES = (*_ALLOWED, "scenario")
# Plain lower bounds, whatever the rest of the config: field >= bound, field > bound
_AT_LEAST = {"q_scale": 0, "training_steps": 0, "training_stride": 1, "dmd_rank": 0,
             "n_particles": 1, "n_observations": 1, "burn_in": 0, "trials": 1,
             "base_seed": 0, "lyapunov_steps": 1, "lyapunov_exponents": 1,
             "lyapunov_qr_interval": 1}
_ABOVE = {"r_scale": 0, "lyapunov_eps": 0}
# Plain upper bounds: field <= bound. Each trial index and observation index
# keys a random stream as one uint32 entry (see numerics.RngStream)
_AT_MOST = {"n_observations": 2**32 - 1, "trials": 2**32}
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
