"""End-to-end benchmark of projda twin experiments.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Each workload (see workloads.py) is generated as INI files from the seed and
run through the real command line, ``python -m projda.cli sweep|assimilate``
with ``src`` on PYTHONPATH, in the caller's environment otherwise unchanged:
no thread-count variable is set, so BLAS oversubscription under ``--jobs 2``
stays visible.

With ``--trace 0`` the benchmark repeats, for ``--seconds`` seconds and at
least ``MIN_REPEATS`` times, a set-up call (a one-trial, one-observation
``assimilate`` of the workload's first point) followed by the workload's
calls. It reports medians over repeats:

    cycles_per_s  observation times x trials x sweep points over CLI wall time
    setup_s       wall time of the set-up call: interpreter start to first analysis
    peak_rss_mb   resident memory of the CLI process tree, summed over its
                  processes (each process's peak, VmHWM), pool workers included
    rmse_mean     mean analysis RMSE over all trials, read from the CLI's CSV
    failed_frac   failed over attempted trials (printed; the JSON carries the
                  two counts as "failed" and "attempted")

With ``--trace 1`` it starts the set-up call once, untimed, then runs the
workload three times: serially through the CLI, with ``--jobs 2`` through
the CLI, and serially in process with every layer traced (tracer.py). It
prints the per-layer metrics of the traced run, the parallel efficiency
(serial wall over twice the ``--jobs 2`` wall) and the tracing overhead
(traced wall over serial wall).

A trial fails if its CLI call exits non-zero, if it wrote fewer rows than
requested, or if its mean RMSE leaves the tolerance of reference.json. Every
repeat of one seed must write byte-identical CSV files, and so must the serial,
``--jobs 2`` and traced runs. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import LAYER_METRICS, layer_metrics  # noqa: E402
from workloads import WORKLOADS, check_csv, out_of_tolerance, unit_trials  # noqa: E402

ROOT = HERE.parent
MIN_REPEATS = 3
MEMORY_POLL_S = 0.1

END_TO_END = {
    "cycles_per_s": "cycles/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "rmse_mean": "state_units",
}
PER_LAYER = dict(LAYER_METRICS, **{"sweep.parallel_efficiency": "ratio",
                                   "trace.overhead_pct": "%"})


# ---------------------------------------------------------------------------
# Running the command line
# ---------------------------------------------------------------------------

def cli_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _children_by_parent() -> dict:
    children: dict = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    return children


def _peak_rss_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class TreeMemory(threading.Thread):
    """Samples, until stopped, the peak resident set (VmHWM) of every process
    in the tree under root; each process's own high-water mark is exact, so
    sampling only has to see every process once while it runs."""

    def __init__(self, root: int):
        super().__init__(daemon=True)
        self.root = root
        self.peaks: dict = {}
        self._stop_event = threading.Event()

    def run(self):
        while True:
            children = _children_by_parent()
            todo = [self.root]
            while todo:
                p = todo.pop()
                self.peaks[p] = max(self.peaks.get(p, 0), _peak_rss_kib(p))
                todo.extend(children.get(p, ()))
            if self._stop_event.wait(MEMORY_POLL_S):
                return

    def stop_mib(self) -> float:
        """Stop sampling; the summed peaks in MiB."""
        self._stop_event.set()
        self.join()
        return sum(self.peaks.values()) / 1024.0


@dataclass
class Outcome:
    """One CLI call: wall time, peak memory, exit status, checked output."""

    wall: float
    peak_mib: float
    returncode: int
    result: object  # workloads.CallResult, or None when no CSV was written
    stderr: str


def run_cli(argv: list, workdir: Path, call, csv_path: Path, watch_memory: bool) -> Outcome:
    err_path = workdir / "stderr.txt"
    with open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=workdir, env=cli_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        memory = TreeMemory(proc.pid) if watch_memory else None
        if memory:
            memory.start()
        proc.wait()
        wall = time.perf_counter() - t0
        peak = memory.stop_mib() if memory else 0.0
    result = check_csv(call, str(csv_path)) if csv_path.exists() else None
    if csv_path.exists():
        csv_path.unlink()
    return Outcome(wall, peak, proc.returncode, result, err_path.read_text()[-2000:])


def cli_argv(call, ini: Path, out: Path, jobs: int) -> list:
    return [call.command, "--config", str(ini), "--out", str(out), "--jobs", str(jobs)]


# ---------------------------------------------------------------------------
# Bookkeeping of trials, failures and output digests
# ---------------------------------------------------------------------------

@dataclass
class Ledger:
    seed: int
    reference: dict | None
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)  # call label -> set of sha256
    rmse: dict = field(default_factory=dict)  # unit -> (mean rmse, trials)

    def record(self, call, outcome: Outcome, what: str):
        res = outcome.result
        if outcome.returncode != 0 or res is None:
            n = call.trials * call.points
            self.attempted += n
            self.failed += n
            self.problems.append(f"{what}: exit status {outcome.returncode}: "
                                 f"{outcome.stderr.strip()[-300:]}")
            return
        self.attempted += res.attempted
        self.failed += res.failed
        self.problems.extend(f"{what}: {p}" for p in res.problems)
        if self.reference is not None:
            bad = out_of_tolerance(res.rmse, self.reference, self.seed)
            self.failed += len(bad) * unit_trials(call)
            self.problems.extend(f"{what}: {b}" for b in bad)
        self.digests.setdefault(call.label, set()).add(res.sha256)
        if call.label != "setup":
            for key, value in res.rmse.items():
                self.rmse[key] = (value, unit_trials(call))

    @property
    def deterministic(self) -> bool:
        return all(len(d) == 1 for d in self.digests.values())

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.deterministic and bool(self.digests)

    def rmse_mean(self) -> float:
        weight = sum(n for _, n in self.rmse.values())
        return sum(v * n for v, n in self.rmse.values()) / max(weight, 1)

    def csv_identical(self) -> str:
        """Whether the CSV files match the ones recorded for this seed."""
        recorded = (self.reference or {}).get("seeds", {}).get(str(self.seed))
        if recorded is None:
            return f"n/a (no reference recorded for seed {self.seed})"
        same = all(digests == {recorded["csv_sha256"].get(label)}
                   for label, digests in self.digests.items())
        return "yes" if same else "no"

    def report(self) -> list:
        lines = [f"failed_frac = {self.failed / max(self.attempted, 1):.6g} ratio "
                 f"({self.failed} of {self.attempted} trials)",
                 f"csv_identical: {self.csv_identical()}"]
        if not self.deterministic:
            lines.append("error: repeated runs of one seed wrote different CSV files")
        lines.extend(f"error: {p}" for p in self.problems[:20])
        return lines


# ---------------------------------------------------------------------------
# Measurements
# ---------------------------------------------------------------------------

def write_inis(workload, seed: int, workdir: Path) -> dict:
    paths = {}
    for call in workload.calls + (workload.calls[0].setup_call(),):
        path = workdir / f"{call.label}.ini"
        path.write_text(call.ini_text(seed))
        paths[call.label] = path
    return paths


def _median_line(name: str, unit: str, values: list) -> str:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return (f"{name} = {statistics.median(values):.6g} {unit} "
            f"(quartiles {q1:.6g} .. {q3:.6g}, n={len(values)})")


def _run(call, inis: dict, workdir: Path, jobs: int, ledger: Ledger, what: str,
         watch_memory: bool = False) -> Outcome:
    out = workdir / f"{call.label}.csv"
    argv = [sys.executable, "-m", "projda.cli"] + cli_argv(call, inis[call.label], out, jobs)
    outcome = run_cli(argv, workdir, call, out, watch_memory)
    ledger.record(call, outcome, what)
    return outcome


def measure_end_to_end(workload, seed: int, seconds: float, workdir: Path,
                       ledger: Ledger, min_repeats: int = MIN_REPEATS) -> tuple[dict, list]:
    inis = write_inis(workload, seed, workdir)
    setup = workload.calls[0].setup_call()
    # One untimed set-up call compiles the package's bytecode and brings the
    # interpreter, numpy, scipy and BLAS into the page cache, so that the first
    # timed repeat is not slower than the rest.
    _run(setup, inis, workdir, 1, ledger, "warm-up")

    # Set-up starts are interleaved with the workload's repeats, so that both
    # medians sample the same stretch of the machine's load. A repeat starts
    # only if, at the median length of those before it, it ends by the
    # deadline, so a run lasts about --seconds unless MIN_REPEATS take longer.
    lines = []
    setup_walls, rates, peaks, lengths = [], [], [], []
    t0 = time.perf_counter()
    while len(rates) < min_repeats or (
            time.perf_counter() - t0 + statistics.median(lengths) <= seconds):
        n = len(rates) + 1
        r0 = time.perf_counter()
        setup_walls.append(_run(setup, inis, workdir, 1, ledger, f"setup {n}").wall)
        outcomes = [_run(call, inis, workdir, call.jobs, ledger,
                         f"repeat {n} {call.label}", watch_memory=True)
                    for call in workload.calls]
        wall = sum(o.wall for o in outcomes)
        rates.append(workload.cycles / wall)
        peaks.append(max(o.peak_mib for o in outcomes))
        lengths.append(time.perf_counter() - r0)
        lines.append(f"repeat {n}: set-up {setup_walls[-1]:.3f} s, workload {wall:.3f} s "
                     f"for {workload.cycles} cycles, peak {peaks[-1]:.1f} MiB")

    metrics = {
        "cycles_per_s": statistics.median(rates),
        "setup_s": statistics.median(setup_walls),
        "peak_rss_mb": statistics.median(peaks),
        "rmse_mean": ledger.rmse_mean(),
    }
    lines += [
        _median_line("cycles_per_s", END_TO_END["cycles_per_s"], rates),
        _median_line("setup_s", END_TO_END["setup_s"], setup_walls),
        _median_line("peak_rss_mb", END_TO_END["peak_rss_mb"], peaks),
        f"rmse_mean = {metrics['rmse_mean']:.10g} {END_TO_END['rmse_mean']}",
    ]
    return metrics, lines


def measure_traced(workload, seed: int, workdir: Path, ledger: Ledger) -> tuple[dict, list]:
    """Serial CLI run, --jobs 2 CLI run, then a traced serial run in process."""
    inis = write_inis(workload, seed, workdir)
    _run(workload.calls[0].setup_call(), inis, workdir, 1, ledger, "warm-up")
    walls = {jobs: sum(_run(call, inis, workdir, jobs, ledger, f"--jobs {jobs} {call.label}").wall
                       for call in workload.calls)
             for jobs in (1, 2)}

    outs = {call.label: workdir / f"{call.label}.csv" for call in workload.calls}
    spans_path = workdir / "spans.json"
    spec_path = workdir / "trace_spec.json"
    spec_path.write_text(json.dumps({
        "calls": [cli_argv(call, inis[call.label], outs[call.label], 1) for call in workload.calls],
        "spans": str(spans_path),
    }))
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, str(HERE / "tracer.py"), str(spec_path)],
                          cwd=workdir, env=cli_env(), stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    traced_wall = time.perf_counter() - t0
    for call in workload.calls:
        path = outs[call.label]
        result = check_csv(call, str(path)) if path.exists() else None
        ledger.record(call, Outcome(traced_wall, 0.0, done.returncode, result,
                                    done.stderr[-2000:]), f"traced {call.label}")

    if done.returncode == 0:
        metrics = layer_metrics(json.loads(spans_path.read_text()))
    else:
        metrics = dict.fromkeys(LAYER_METRICS, 0.0)
    metrics["sweep.parallel_efficiency"] = walls[1] / (2.0 * walls[2])
    metrics["trace.overhead_pct"] = 100.0 * (traced_wall / walls[1] - 1.0)
    lines = [f"walls: serial {walls[1]:.3f} s, --jobs 2 {walls[2]:.3f} s, "
             f"traced serial {traced_wall:.3f} s"]
    lines += [f"{name} = {metrics[name]:.6g} {unit}" for name, unit in PER_LAYER.items()]
    lines.append(f"filter.resample_ratio base: {metrics['filter.cycles']:.0f} cycles")
    return metrics, lines


# ---------------------------------------------------------------------------
# Machine description and entry point
# ---------------------------------------------------------------------------

def machine_info() -> str:
    import numpy
    import scipy

    def read(path: str, prefix: str = "") -> str:
        try:
            with open(path) as fh:
                for line in fh:
                    if line.startswith(prefix):
                        return line.split(":", 1)[-1].strip() if prefix else line.strip()
        except OSError:
            pass
        return "unknown"

    cache = "/sys/devices/system/cpu/cpu0/cache/index{}/size"
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return (f"machine: nproc={len(os.sched_getaffinity(0))} "
            f"cpu={read('/proc/cpuinfo', 'model name')!r} "
            f"l2={read(cache.format(2))} l3={read(cache.format(3))} "
            f"python={sys.version.split()[0]} numpy={numpy.__version__} "
            f"scipy={scipy.__version__} blas={blas!r}")


def load_reference(name: str) -> dict | None:
    path = HERE / "reference.json"
    if not path.exists():
        return None
    data = json.loads(path.read_text())
    entry = data["workloads"].get(name)
    return None if entry is None else dict(entry, rel_tol=data["rel_tol"])


def run_workload(workload, seed: int, seconds: float, trace: bool, **sizes) -> dict:
    """Measure one workload and print its report; returns the result object."""
    workbase = HERE / ".work"
    workbase.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=workbase))
    ledger = Ledger(seed, load_reference(workload.name))
    try:
        if trace:
            metrics, lines = measure_traced(workload, seed, workdir, ledger)
            units = PER_LAYER
        else:
            metrics, lines = measure_end_to_end(workload, seed, seconds, workdir, ledger, **sizes)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"workload {workload.name} seed {seed} trace {int(trace)}: {workload.why}")
    for line in lines + ledger.report():
        print("  " + line)
    return {
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "projda" / "cli.py").is_file():
        print(f"error: no projda sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    print(machine_info())
    if args.workload != "all":
        result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
        return 0

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS.values():
        for trace in (False, True):
            result = run_workload(workload, args.seed, args.seconds, trace)
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                combined["metrics"][f"{workload.name}/{name}"] = metric
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
