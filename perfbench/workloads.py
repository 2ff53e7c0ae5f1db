"""Benchmark workloads: the experiment configurations, the CLI calls that run
them, and the checks on the CSV files those calls write.

Every workload is generated as INI text from the benchmark seed, which goes
into ``base_seed``; the program under test sees only the files.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, field, replace

# Shared shape of the two Lorenz-96 workloads (configs/l96_pod.ini).
_L96 = {
    "model": {"kind": "l96", "dimension": 40},
    "noise": {"q_scale": 0.1, "r_scale": 0.01},
    "filter": {"kind": "projoppf", "n_particles": 20},
}
# Shape of configs/swe_jet.ini: 64 x 16 grid, 3,072 state variables, 1 % observed.
_SWE = {
    "model": {"kind": "swe", "nx": 64, "ny": 16},
    "observation": {"scenario": "all", "fraction": 0.01},
    "noise": {"q_scale": 0.1, "r_scale": 0.01},
    "reduction": {"kind": "pod", "r_p": 20, "r_d": 10, "data_reduction": "data",
                  "training_steps": 5760},
    "filter": {"kind": "projoppf", "n_particles": 5},
}


def _merge(*parts: dict) -> dict:
    out: dict = {}
    for part in parts:
        for section, keys in part.items():
            out.setdefault(section, {}).update(keys)
    return out


@dataclass(frozen=True)
class Call:
    """One CLI invocation of a workload: ``projda <command> --jobs <jobs>``."""

    label: str
    command: str  # "sweep" or "assimilate"
    jobs: int
    ini: dict = field(hash=False)

    def value(self, section: str, key: str):
        return self.ini[section][key]

    @property
    def sweep_ranks(self) -> list[int]:
        raw = self.ini["experiment"].get("sweep_r_p", "")
        return [int(p) for p in str(raw).split(",") if p.strip()]

    @property
    def points(self) -> int:
        return max(len(self.sweep_ranks), 1)

    @property
    def trials(self) -> int:
        return int(self.value("experiment", "trials"))

    @property
    def n_observations(self) -> int:
        return int(self.value("experiment", "n_observations"))

    @property
    def cycles(self) -> int:
        """Assimilation cycles the call completes: observations x trials x points."""
        return self.n_observations * self.trials * self.points

    def ini_text(self, seed: int) -> str:
        lines = []
        for section, keys in self.ini.items():
            lines.append(f"[{section}]")
            for key, value in keys.items():
                if section == "experiment" and key == "base_seed":
                    value = seed
                lines.append(f"{key} = {value}")
            lines.append("")
        return "\n".join(lines)

    def setup_call(self) -> "Call":
        """The call set-up time is measured on: the first sweep point, one
        trial, one observation, run as a serial ``assimilate``."""
        ini = {section: dict(keys) for section, keys in self.ini.items()}
        ini["experiment"] = {k: v for k, v in ini["experiment"].items()
                             if not k.startswith("sweep_")}
        ini["experiment"].update(trials=1, n_observations=1)
        if self.sweep_ranks:
            ini["reduction"]["r_p"] = self.sweep_ranks[0]
        return replace(self, label="setup", command="assimilate", jobs=1, ini=ini)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    calls: tuple

    @property
    def cycles(self) -> int:
        return sum(call.cycles for call in self.calls)

    @property
    def trials(self) -> int:
        return sum(call.trials * call.points for call in self.calls)

    def resized(self, **sections) -> "Workload":
        """The workload with INI keys overridden in every call, as in
        ``resized(experiment={"trials": 1})``; used to shrink it for tests."""
        calls = tuple(replace(c, ini=_merge(c.ini, sections)) for c in self.calls)
        return replace(self, calls=calls)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="l96_rank_sweep",
            why="rank sweep re-walks each trial truth per rank point, so spin-up "
                "is most of the work; two worker processes and small L96 steps",
            calls=(Call("sweep", "sweep", 2, _merge(_L96, {
                "model": {"forcing": 3.0},
                "reduction": {"kind": "pod", "r_p": 20, "r_d": 5},
                "experiment": {"n_observations": 100, "trials": 2, "base_seed": 0,
                               "sweep_r_p": "5, 10, 20, 40"},
            })),),
        ),
        Workload(
            name="l96_aus_long",
            why="chaotic L96 with a basis rebuilt every cycle: AUS steps, assembly "
                "and resampling dominate, spin-up is a small share",
            calls=(Call("aus", "assimilate", 1, _merge(_L96, {
                "model": {"forcing": 8.0},
                "reduction": {"kind": "aus", "r_p": 20, "r_d": 5},
                "experiment": {"n_observations": 300, "trials": 1, "base_seed": 0},
            })),),
        ),
        Workload(
            name="swe_jet_pair",
            why="3,072-variable shallow-water model step dominates; the reduced "
                "filter against the full-space one with its large factorizations",
            calls=(
                Call("projoppf", "assimilate", 1, _merge(_SWE, {
                    "experiment": {"n_observations": 6, "trials": 1, "base_seed": 0},
                })),
                Call("oppf", "assimilate", 1, _merge(_SWE, {
                    "filter": {"kind": "oppf"},
                    "experiment": {"n_observations": 6, "trials": 1, "base_seed": 0},
                })),
            ),
        ),
    )
}


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

@dataclass
class CallResult:
    """What one CLI call produced: per-unit mean RMSE (a unit is one trial of
    an ``assimilate`` call or one point of a ``sweep``), failures, and the
    digest of the CSV file."""

    sha256: str
    rmse: dict  # unit key -> mean RMSE, for units that completed
    attempted: int
    failed: int
    problems: list


def sha256_of(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_csv(call: Call, path: str) -> CallResult:
    """Parse the CSV a call wrote and count the trials that did not complete."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if call.command == "sweep":
        return _check_summary(call, rows, sha256_of(path))
    return _check_trials(call, rows, sha256_of(path))


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _check_trials(call: Call, rows: list, digest: str) -> CallResult:
    per_trial: dict = {}
    problems = []
    for row in rows:
        if not (_finite(row["rmse"]) and _finite(row["ess"])):
            problems.append(f"{call.label}: non-finite row {row}")
            continue
        per_trial.setdefault(int(row["trial"]), []).append(float(row["rmse"]))
    rmse = {}
    failed = 0
    for t in range(call.trials):
        values = per_trial.get(t, [])
        if len(values) != call.n_observations:
            failed += 1
            problems.append(f"{call.label}: trial {t} has {len(values)} of "
                            f"{call.n_observations} rows")
            continue
        rmse[f"{call.label}/trial{t}"] = sum(values) / len(values)
    return CallResult(digest, rmse, call.trials, failed, problems)


def _check_summary(call: Call, rows: list, digest: str) -> CallResult:
    problems = []
    rmse = {}
    failed = 0
    by_rank = {int(row["r_p"]): row for row in rows}
    for rank in call.sweep_ranks:
        row = by_rank.get(rank)
        if row is None:
            failed += call.trials
            problems.append(f"{call.label}: no summary row for r_p={rank}")
            continue
        n_failed = int(row["failed_trials"])
        failed += n_failed
        if n_failed:
            problems.append(f"{call.label}: r_p={rank} reports {n_failed} failed trials")
        elif not _finite(row["mean_rmse"]):
            failed += call.trials
            problems.append(f"{call.label}: r_p={rank} mean_rmse is {row['mean_rmse']}")
        else:
            rmse[f"{call.label}/r_p{rank}"] = float(row["mean_rmse"])
    return CallResult(digest, rmse, call.trials * call.points, failed, problems)


def unit_trials(call: Call) -> int:
    """Trials behind one RMSE unit: one for a trial, all trials for a point."""
    return call.trials if call.command == "sweep" else 1


def out_of_tolerance(rmse: dict, reference: dict, seed: int) -> list:
    """Units whose mean RMSE leaves the reference tolerance.

    At a recorded seed a unit must lie within ``rel_tol`` of its recorded
    value. At another seed it must not exceed the largest value recorded for
    that unit by more than three times the recorded range (largest minus
    smallest), which allows for the unit's spread across seeds.
    """
    tol = reference["rel_tol"]
    seeds = reference["seeds"]
    at_seed = seeds.get(str(seed), {}).get("rmse", {})
    bad = []
    for key, value in rmse.items():
        if key in at_seed:
            ref = at_seed[key]
            if abs(value - ref) > tol * ref:
                bad.append(f"{key}: rmse {value:.6g} vs reference {ref:.6g} (tol {tol:.0%})")
            continue
        recorded = [s["rmse"][key] for s in seeds.values() if key in s["rmse"]]
        if not recorded:
            bad.append(f"{key}: no reference recorded")
            continue
        limit = max(recorded) + 3.0 * (max(recorded) - min(recorded))
        if value > limit:
            bad.append(f"{key}: rmse {value:.6g} above {limit:.6g}, the recorded "
                       f"maximum plus three recorded ranges")
    return bad
