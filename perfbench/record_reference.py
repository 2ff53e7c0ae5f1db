"""Record the reference outputs the benchmark checks correctness against.

    python3 perfbench/record_reference.py --seeds 0-15

Runs every workload's CLI calls once per seed, set-up call included, and
writes perfbench/reference.json: per seed, the mean RMSE of every trial (of
every sweep point, for a sweep) and the SHA-256 of every CSV file. Record it
only from a commit whose outputs are known good; later commits are checked
against it.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import cli_argv, run_cli, write_inis  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# A unit's mean RMSE may differ from its value recorded at the same seed by
# this share (see workloads.out_of_tolerance).
REL_TOL = 0.25


def record_seed(workload, seed: int, workdir: Path) -> dict:
    inis = write_inis(workload, seed, workdir)
    entry = {"rmse": {}, "csv_sha256": {}}
    for call in (workload.calls[0].setup_call(),) + workload.calls:
        out = workdir / f"{call.label}.csv"
        outcome = run_cli([sys.executable, "-m", "projda.cli"]
                          + cli_argv(call, inis[call.label], out, call.jobs),
                          workdir, call, out, watch_memory=False)
        res = outcome.result
        if outcome.returncode != 0 or res is None or res.failed:
            raise SystemExit(f"{workload.name} seed {seed} {call.label} failed: "
                             f"{outcome.stderr or res.problems}")
        entry["rmse"].update(res.rmse)
        entry["csv_sha256"][call.label] = res.sha256
    return entry


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-15", help="inclusive range, as 0-15")
    args = parser.parse_args()
    first, last = (int(p) for p in args.seeds.split("-"))
    workbase = HERE / ".work"
    workbase.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="reference-", dir=workbase))
    data = {"rel_tol": REL_TOL, "workloads": {}}
    try:
        for workload in WORKLOADS.values():
            seeds = {}
            for seed in range(first, last + 1):
                seeds[str(seed)] = record_seed(workload, seed, workdir)
                print(f"{workload.name} seed {seed}: {seeds[str(seed)]['rmse']}", flush=True)
            data["workloads"][workload.name] = {"seeds": seeds}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
