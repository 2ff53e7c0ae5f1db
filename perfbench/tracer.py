"""In-process tracing of projda's layers, from outside the package.

The tracer wraps public callables under the names their callers look them up
by (``projda.experiments.trial`` imports ``pod_basis``, ``aus_step`` and
``build_reduced_model`` by name, so those are wrapped there) and records one
span per call: name, start, end, parent span and, for model steps, the number
of state columns stepped. Spans stay in memory and are written out once, when
the run ends. A span's self time is its duration minus its children's.

Run as a script, it executes CLI calls in process with tracing on:

    PYTHONPATH=src python3 perfbench/tracer.py SPEC.json

SPEC.json holds ``{"calls": [[cli args...], ...], "spans": "out.json"}``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time


class Tracer:
    """Span recorder. Spans are stored column-wise in plain lists."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.columns: list[int] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, state_arg: int | None = None):
        """fn with a span around each call; state_arg is the positional index
        of a model state whose column count the span records."""
        names, start, end, parent, columns, stack = (
            self.names, self.start, self.end, self.parent, self.columns, self._stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parent.append(stack[-1] if stack else -1)
            if state_arg is None:
                columns.append(0)
            else:
                shape = getattr(args[state_arg], "shape", ())
                columns.append(shape[1] if len(shape) == 2 else 1)
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = time.perf_counter()
                start[i] = t0
                stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced callable; restore the originals on exit."""
        saved = []
        try:
            for owner, attr, name, state_arg in _targets():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, state_arg))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def spans(self) -> dict:
        return {"name": self.names, "start": self.start, "end": self.end,
                "parent": self.parent, "columns": self.columns}


def _targets():
    """(owner, attribute, span name, state argument index) per traced callable."""
    from projda import filters
    from projda.experiments import sweep, trial
    from projda.models.lorenz96 import L96Spec
    from projda.models.shallow_water import SWESpec
    from projda.numerics import NoiseSpec, RngStream
    from projda.reduction.reduced_model import OptimalProposal, ReducedModel

    return [
        (sweep, "run_trial", "trial", None),
        (trial, "observe", "trial.observe", None),
        (trial, "pod_basis", "reduction.pod", None),
        (trial, "aus_step", "reduction.aus_step", None),
        (trial, "build_reduced_model", "reduced.assembly", None),
        (trial, "identity_reduced_model", "reduced.assembly", None),
        (trial, "proj_oppf_step", "filter.step", None),
        (trial, "proj_pf_step", "filter.step", None),
        (OptimalProposal, "__init__", "reduced.proposal_factor", None),
        (ReducedModel, "forecast", "filter.forecast", None),
        (filters, "_proposal_draws", "filter.proposal.draws", None),
        (OptimalProposal, "mean_shift", "filter.proposal.mean_shift", None),
        (OptimalProposal, "sample_delta", "filter.proposal.sample_delta", None),
        (ReducedModel, "weight_quad", "filter.weighting.weight_quad", None),
        (NoiseSpec, "quad", "filter.weighting.quad", None),
        (filters, "systematic_resample", "filter.resample.systematic", None),
        (ReducedModel, "jitter_noise", "filter.resample.jitter", None),
        (RngStream, "generator", "rng.generator", None),
        (L96Spec, "step", "l96.step", 1),
        (L96Spec, "cycle_map", "l96.cycle_map", None),
        (SWESpec, "step", "swe.step", 1),
        (SWESpec, "cycle_map", "swe.cycle_map", None),
    ]


# Per-layer metrics, in print order: name -> unit.
LAYER_METRICS = {
    "model.step_single_us": "us",
    "model.step_batch_us_per_col": "us",
    "l96.state_steps": "count",
    "swe.state_steps": "count",
    "trial.trials": "count",
    "trial.spinup_s": "s",
    "trial.spinup_steps_per_trial": "count",
    "trial.truth_s": "s",
    "trial.driver_self_s": "s",
    "reduction.basis_s": "s",
    "reduction.pod_calls": "count",
    "reduction.aus_step_calls": "count",
    "reduced.assembly_s": "s",
    "reduced.assembly_calls": "count",
    "reduced.proposal_factor_s": "s",
    "reduced.forecast_self_s": "s",
    "filter.cycles": "count",
    "filter.forecast_s": "s",
    "filter.proposal_s": "s",
    "filter.weighting_s": "s",
    "filter.resample_s": "s",
    "filter.step_self_s": "s",
    "filter.resample_ratio": "ratio",
    "rng.generator_calls_per_cycle": "calls/cycle",
    "rng.generator_s": "s",
}

# Metrics that count work; two traced runs of one input must agree on them exactly.
COUNT_METRICS = tuple(
    name for name, unit in LAYER_METRICS.items()
    if unit in ("count", "calls/cycle") or name == "filter.resample_ratio"
)


def layer_metrics(spans: dict) -> dict:
    """Per-layer metrics from recorded spans, keyed as LAYER_METRICS."""
    name, parent, cols = spans["name"], spans["parent"], spans["columns"]
    n = len(name)
    dur = [e - s for s, e in zip(spans["start"], spans["end"])]
    child = [0.0] * n
    for i in range(n):
        if parent[i] >= 0:
            child[parent[i]] += dur[i]
    self_time = [d - c for d, c in zip(dur, child)]
    # a parent span is always recorded before its children
    in_cycle = [False] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            in_cycle[i] = in_cycle[p] or name[p].endswith(".cycle_map")

    total: dict = {}
    calls: dict = {}
    for i in range(n):
        total[name[i]] = total.get(name[i], 0.0) + self_time[i]
        calls[name[i]] = calls.get(name[i], 0) + 1

    single_t = batch_t = spin_t = 0.0
    single_n = batch_cols = spin_cols = 0
    state_steps = {"l96.step": 0, "swe.step": 0}
    truth = 0.0
    phase = {"forecast": 0.0, "proposal": 0.0, "weighting": 0.0, "resample": 0.0}
    for i in range(n):
        nm = name[i]
        if nm in state_steps:
            state_steps[nm] += cols[i]
            if cols[i] == 1:
                single_t += self_time[i]
                single_n += 1
            else:
                batch_t += self_time[i]
                batch_cols += cols[i]
            if not in_cycle[i]:
                spin_t += self_time[i]
                spin_cols += cols[i]
        p = parent[i]
        if p < 0:
            continue
        if (nm.endswith(".cycle_map") and name[p] == "trial") or nm == "trial.observe":
            truth += dur[i]
        if name[p] == "filter.step" and nm.startswith("filter."):
            phase[nm.split(".")[1]] += dur[i]

    trials = calls.get("trial", 0)
    cycles = calls.get("filter.step", 0)
    return {
        "model.step_single_us": 1e6 * single_t / max(single_n, 1),
        "model.step_batch_us_per_col": 1e6 * batch_t / max(batch_cols, 1),
        "l96.state_steps": state_steps["l96.step"],
        "swe.state_steps": state_steps["swe.step"],
        "trial.trials": trials,
        "trial.spinup_s": spin_t,
        "trial.spinup_steps_per_trial": spin_cols / max(trials, 1),
        "trial.truth_s": truth,
        "trial.driver_self_s": total.get("trial", 0.0),
        "reduction.basis_s": total.get("reduction.pod", 0.0) + total.get("reduction.aus_step", 0.0),
        "reduction.pod_calls": calls.get("reduction.pod", 0),
        "reduction.aus_step_calls": calls.get("reduction.aus_step", 0),
        "reduced.assembly_s": total.get("reduced.assembly", 0.0),
        "reduced.assembly_calls": calls.get("reduced.assembly", 0),
        "reduced.proposal_factor_s": total.get("reduced.proposal_factor", 0.0),
        "reduced.forecast_self_s": total.get("filter.forecast", 0.0),
        "filter.cycles": cycles,
        "filter.forecast_s": phase["forecast"],
        "filter.proposal_s": phase["proposal"],
        "filter.weighting_s": phase["weighting"],
        "filter.resample_s": phase["resample"],
        "filter.step_self_s": total.get("filter.step", 0.0),
        "filter.resample_ratio": calls.get("filter.resample.systematic", 0) / max(cycles, 1),
        "rng.generator_calls_per_cycle": calls.get("rng.generator", 0) / max(cycles, 1),
        "rng.generator_s": total.get("rng.generator", 0.0),
    }


def run_traced(argv_list) -> tuple[int, Tracer]:
    """Run CLI calls in this process with tracing on; returns the worst exit
    status and the tracer holding the spans."""
    from projda.cli import dispatch

    tracer = Tracer()
    status = 0
    with tracer.installed():
        for argv in argv_list:
            status = max(status, dispatch(argv))
    return status, tracer


def main(argv) -> int:
    with open(argv[0]) as fh:
        spec = json.load(fh)
    status, tracer = run_traced(spec["calls"])
    with open(spec["spans"], "w") as fh:
        json.dump(tracer.spans(), fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
