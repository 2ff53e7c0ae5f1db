"""Command-line entry points.

Subcommands: truth (training trajectory to a snapshot file), reduce (basis
file from snapshots), lyapunov (exponent spectrum and attractor dimension),
assimilate (per-trial metrics CSV), sweep (summary CSV over parameter lists).
Set PROJDA_LOG=debug|info|warning to control logging.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import logging
import os
import sys

from .errors import ConfigError, ProjdaError, ReductionError
from .experiments import load_config, replace, run_point, run_sweep, summarize
from .experiments.config import _point
from .experiments.sweep import write_summary_csv, write_trial_csv
from .experiments.trial import _initial_state, _spin_up, _state_basis, training_trajectory
from .models import load_snapshots, save_snapshots
from .numerics import RngStream
from .reduction import kaplan_yorke, lyapunov_spectrum, save_basis

logger = logging.getLogger("projda.cli")


def _cmd_truth(args, config):
    states, meta = training_trajectory(config)
    save_snapshots(args.out, states, meta)
    print(f"wrote {states.shape[0]} snapshots of dimension {states.shape[1]} to {args.out}")
    return 0


def _cmd_reduce(args, config):
    kind = (args.kind or config.reduction_kind).lower()
    why = {"identity": "an 'identity' basis is the whole state space and needs no file",
           "aus": "'aus' bases are not precomputable (the unstable-subspace basis is "
                  "rebuilt every assimilation cycle)"}
    if kind in why:
        raise ConfigError(f"reduce builds pod or dmd bases; {why[kind]}")
    rank = args.r if args.r is not None else config.r_p
    snapshot_file = config.snapshot_file or "truth.bin"
    snapshots, sidecar = load_snapshots(snapshot_file)
    parameters = {"rank": rank}
    if kind == "dmd":
        parameters.update(svd_rank=config.dmd_rank or 0, dt=sidecar.get("dt", 1.0))
    basis = _state_basis(kind, snapshots, rank, config.dmd_rank, parameters.get("dt"))
    save_basis(args.out, basis, source_snapshot_file=snapshot_file,
               parameters=parameters)
    print(f"wrote a {basis.state_dim}x{basis.rank} {kind} basis to {args.out}")
    return 0


def _cmd_lyapunov(args, config):
    model = config.build_model()
    rng = RngStream(config.base_seed).child(0)
    x, _ = _spin_up(model, _initial_state(config, model, rng), config.burn_in)
    exponents = lyapunov_spectrum(
        model, x, config.lyapunov_steps,
        min(config.lyapunov_exponents, model.dimension),
        eps=config.lyapunov_eps, qr_interval=config.lyapunov_qr_interval,
    )
    try:
        dimension = kaplan_yorke(exponents)
        note = ""
    except ReductionError as exc:
        dimension = float("nan")
        note = f" ({exc})"
    for i, value in enumerate(exponents):
        print(f"lambda_{i + 1} = {value: .6f}")
    print(f"kaplan_yorke = {dimension:.4f}{note}")
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "exponent"])
            for i, value in enumerate(exponents):
                writer.writerow([i + 1, f"{value:.10g}"])
            writer.writerow(["kaplan_yorke", f"{dimension:.10g}"])
        print(f"wrote {args.out}")
    return 0


def _cmd_assimilate(args, config):
    records = run_point(config, jobs=args.jobs)
    write_trial_csv(args.out, records, config.build_model().cycle_dt)
    row = summarize(config, records)
    ok = len(records) - row.failed_trials
    if ok:
        print(f"{ok} trials: mean rmse {row.mean_rmse:.4g}, "
              f"resampled {row.resamp_pct:.1f}% of steps, {row.failed_trials} failed")
    else:
        print(f"all {row.failed_trials} trials failed; see {args.out} and the log")
    print(f"wrote {args.out}")
    return 0 if ok else 1


def _cmd_sweep(args, config):
    rows = run_sweep(config, jobs=args.jobs)
    write_summary_csv(args.out, rows, config.model_kind)
    print(f"wrote {len(rows)} summary rows to {args.out}")
    failed = sum(row.failed_trials for row in rows)
    if failed < len(rows) * config.trials:
        return 0
    print(f"all {failed} trials failed; see {args.out} and the log")
    return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="projda",
        description="Twin experiments for projected particle filters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(default_out):
        p = argparse.ArgumentParser(add_help=False)
        p.add_argument("--config", required=True, help="INI experiment configuration")
        p.add_argument("--out", default=default_out, help=f"output path (default {default_out})")
        p.add_argument("--seed", dest="base_seed", metavar="SEED", type=int, default=None,
                       help="override [experiment] base_seed")
        return p

    # options of the commands that run trials; the dest of each override, as
    # of --seed, is the ExperimentConfig field it sets
    running = argparse.ArgumentParser(add_help=False)
    running.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    running.add_argument("--kind", dest="reduction_kind", choices=("pod", "dmd", "aus"),
                         default=None)
    running.add_argument("--r", dest="r_p", metavar="R", type=int, default=None,
                         help="override r_p")
    running.add_argument("--rd", dest="r_d", metavar="RD", type=int, default=None,
                         help="override r_d")

    p_truth = sub.add_parser("truth", parents=[common("truth.bin")],
                             help="generate a training trajectory snapshot file")
    p_truth.set_defaults(handler=_cmd_truth)

    p_reduce = sub.add_parser("reduce", parents=[common("basis.bin")],
                              help="build a reduction basis from snapshots")
    p_reduce.add_argument("--kind", choices=("pod", "dmd", "aus"), default=None,
                          help="basis kind (default from config)")
    p_reduce.add_argument("--r", type=int, default=None, help="basis rank (default r_p)")
    p_reduce.set_defaults(handler=_cmd_reduce)

    p_lyap = sub.add_parser("lyapunov", parents=[common("")],
                            help="Lyapunov spectrum and Kaplan-Yorke dimension")
    p_lyap.set_defaults(handler=_cmd_lyapunov)

    p_assim = sub.add_parser("assimilate", parents=[common("metrics.csv"), running],
                             help="run trials, write per-trial metrics CSV")
    p_assim.set_defaults(handler=_cmd_assimilate)

    p_sweep = sub.add_parser("sweep", parents=[common("summary.csv"), running],
                             help="run the configured sweep, write summary CSV")
    p_sweep.set_defaults(handler=_cmd_sweep)
    return parser


def _apply_overrides(args, config):
    fields = {f.name for f in dataclasses.fields(config)}
    overrides = {name: value for name, value in vars(args).items()
                 if name in fields and value is not None}
    return replace(config, **overrides) if overrides else config


def dispatch(argv) -> int:
    level = os.environ.get("PROJDA_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = _apply_overrides(args, load_config(args.config))
        if args.handler is not _cmd_sweep:
            # the loader checked the sweep points; these commands run the
            # base values, so check those as one point too
            config = _point(config)
        return args.handler(args, config)
    except ProjdaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
