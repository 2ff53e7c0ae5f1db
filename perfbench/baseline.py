"""Run the benchmark over several seeds and summarize its spread.

    python3 perfbench/baseline.py --seeds 0-9 [--workload NAME] [--out FILE]

For every workload it runs ``run.py --trace 0`` once per seed, then
``run.py --trace 1`` on the first seed, and reports per end-to-end metric
the median, the quartiles and their distance as a share of the median
(the spread ``statistics.quantiles(values, n=4)`` gives). With --out it
writes the summary as JSON, the form of perfbench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["machine"] = lines[0]
    return result


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-9", help="inclusive range, as 0-9")
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--out", help="write the summary JSON here")
    args = parser.parse_args()
    first, last = (int(p) for p in args.seeds.split("-"))
    seeds = range(first, last + 1)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {"seeds": list(seeds), "run_seconds": spec["run_seconds"], "workloads": {}}
    for name in names:
        runs = [bench(name, seed, spec["run_seconds"], 0) for seed in seeds]
        entry = {"correct": all(r["correct"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs),
                 "end_to_end": {}}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / q2
            entry["end_to_end"][metric] = {
                "unit": runs[0]["metrics"][metric]["unit"], "median": statistics.median(values),
                "q1": q1, "q3": q3, "spread": spread, "bound": bound, "values": values}
            print(f"{name} {metric}: median {statistics.median(values):.6g} "
                  f"spread {spread:.3f} (bound {bound}, a third {bound / 3:.3f}) "
                  f"values {' '.join(f'{v:.4g}' for v in values)}", flush=True)
        traced = bench(name, seeds[0], spec["run_seconds"], 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["machine"] = runs[0]["machine"]
        print(f"{name}: correct {entry['correct']}, failed {entry['failed']} of "
              f"{entry['attempted']}, sweep.parallel_efficiency "
              f"{entry['per_layer']['sweep.parallel_efficiency']:.3f}", flush=True)
        summary["workloads"][name] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
