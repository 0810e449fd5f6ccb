"""Command-line entry point.

Subcommands mirror the library surface: groups, hardness, bounds, simulate,
case-jammer, case-radar, group-mean-dist. Every subcommand writes one CSV
table to stdout or --out. Failures print a single JSON object
{"code", "message"} to stderr; config problems exit 2, everything else 1.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from contextlib import nullcontext

from .casestudies import (
    DEFAULT_JAMMER_NOISE_GRID,
    DEFAULT_RADAR_NOISE_VAR,
    run_jammer_experiment,
    run_radar_experiment,
    seeded_radar_scenario,
)
from .core import gap_profile
from .errors import BestArmError, ConfigParse, IoFailure
from .experiments import (
    RESULT_COLUMNS,
    experiment_config_from_json,
    group_mean_distribution,
    group_mean_distribution_rows,
    instance_from_json,
    parse_algorithms,
    parse_budgets,
    parse_grid,
    result_rows,
    run_experiment,
    theoretical_bound,
)
from .grouping import construct_groups
from .hardness import hardness


def _read_text(path, what: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigParse(f"cannot read {what} {path}: {exc}") from exc


def _write_csv(header, rows, path) -> None:
    try:
        fh = nullcontext(sys.stdout) if path is None else open(path, "w", newline="")
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
    with fh as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _cmd_groups(args):
    code = construct_groups(args.K)
    rows = [
        [f"G{k + 1}", ";".join(map(str, members.tolist()))]
        for k, members in enumerate(code.groups)
    ]
    return ["group_id", "members"], rows


def _cmd_hardness(args):
    instance = instance_from_json(_read_text(args.instance, "instance"))
    row = hardness(gap_profile(instance)).as_row(instance.K)
    return list(row.keys()), [list(row.values())]


def _cmd_bounds(args):
    instance = instance_from_json(_read_text(args.instance, "instance"))
    budgets = parse_budgets(args.budgets)
    algorithms = parse_algorithms(args.algorithms)
    hp = hardness(gap_profile(instance))
    rows = []
    for algorithm in algorithms:
        for T in budgets:
            bound = theoretical_bound(algorithm, instance, T, hp)
            rows.append([algorithm, T, "" if bound is None else bound])
    return ["algorithm", "T", "bound"], rows


def _cmd_simulate(args):
    config = experiment_config_from_json(_read_text(args.config, "config"))
    results = run_experiment(config)
    return list(RESULT_COLUMNS), result_rows(results)


def _cmd_case_jammer(args):
    grid = args.noise_grid
    results = run_jammer_experiment(
        K=args.K,
        noise_grid=DEFAULT_JAMMER_NOISE_GRID if grid is None else parse_grid(grid),
        T=args.T,
        trials=args.trials,
        master_seed=args.seed,
    )
    return list(RESULT_COLUMNS), result_rows(results)


def _cmd_case_radar(args):
    results = run_radar_experiment(
        scenario=seeded_radar_scenario(args.seed, args.noise_var, args.active_channel),
        plays=parse_budgets(args.plays),
        trials=args.trials,
        csv_path=args.iq,
        master_seed=args.seed,
    )
    return list(RESULT_COLUMNS), result_rows(results)


def _cmd_group_mean_dist(args):
    dist = group_mean_distribution(
        K=args.K,
        delta_min=args.delta_min,
        delta_max=args.delta_max,
        samples=args.samples,
        mu_star=args.mu_star,
        bins=args.bins,
        master_seed=args.seed,
    )
    header = ["variable", "bin_lo", "bin_hi", "count", "density", "clt_density"]
    return header, group_mean_distribution_rows(dist)


def _add_out(p) -> None:
    p.add_argument("--out", default=None, help="output CSV path (default: stdout)")


def _add_seed(p) -> None:
    p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 2, as argparse's do, with
    one JSON ConfigParse object on stderr instead of the usage text."""

    def error(self, message):
        sys.exit(_fail(ConfigParse(message), 2))


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bestarm",
        description="Fixed-budget best-arm identification toolkit",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("groups", help="binary arm groups for K arms")
    p.add_argument("--K", type=int, required=True, help="number of arms")
    _add_out(p)
    p.set_defaults(handler=_cmd_groups)

    p = sub.add_parser("hardness", help="hardness parameters of an instance")
    p.add_argument("--instance", required=True, help="instance JSON file")
    _add_out(p)
    p.set_defaults(handler=_cmd_hardness)

    p = sub.add_parser("bounds", help="theoretical error-bound curves")
    p.add_argument("--instance", required=True, help="instance JSON file")
    p.add_argument(
        "--budgets",
        required=True,
        help="budget grid: a:b:step, a:b:xfactor, or comma list",
    )
    p.add_argument(
        "--algorithms",
        default="UE,SR,SH,RE",
        help="comma list of algorithms (default UE,SR,SH,RE)",
    )
    _add_out(p)
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("simulate", help="Monte-Carlo error table from a config")
    p.add_argument("--config", required=True, help="experiment config JSON file")
    _add_out(p)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("case-jammer", help="jammer waveform-selection sweep")
    p.add_argument("--K", type=int, default=16, help="waveform count (default 16)")
    p.add_argument(
        "--noise-grid",
        default=None,
        help="noise-variance grid: a:b:step, a:b:xfactor, or comma list",
    )
    p.add_argument("--T", type=int, default=64, help="budget per trial (default 64)")
    p.add_argument("--trials", type=int, default=500, help="trials per cell")
    _add_seed(p)
    _add_out(p)
    p.set_defaults(handler=_cmd_case_jammer)

    p = sub.add_parser("case-radar", help="radar channel-detection sweep")
    p.add_argument(
        "--plays",
        default="1200,3000,6000",
        help="play-budget grid (default 1200,3000,6000)",
    )
    p.add_argument("--trials", type=int, default=500, help="trials per cell")
    p.add_argument("--iq", default=None, help="I/Q CSV (header n,i,q) for the active channel")
    p.add_argument(
        "--noise-var",
        type=float,
        default=DEFAULT_RADAR_NOISE_VAR,
        help=f"per-sample complex noise variance (default {DEFAULT_RADAR_NOISE_VAR:g})",
    )
    p.add_argument(
        "--active-channel",
        type=int,
        default=None,
        help="active channel 1..8 (default: drawn from the seed)",
    )
    _add_seed(p)
    _add_out(p)
    p.set_defaults(handler=_cmd_case_radar)

    p = sub.add_parser(
        "group-mean-dist", help="distribution of group means under random gaps"
    )
    p.add_argument("--K", type=int, default=16, help="number of arms (default 16)")
    p.add_argument("--delta-min", type=float, default=0.1, help="smallest gap")
    p.add_argument("--delta-max", type=float, default=0.4, help="largest gap")
    p.add_argument("--samples", type=int, default=100_000, help="number of draws")
    p.add_argument("--bins", type=int, default=60, help="histogram bins")
    p.add_argument("--mu-star", type=float, default=1.0, help="best-arm mean")
    _add_seed(p)
    _add_out(p)
    p.set_defaults(handler=_cmd_group_mean_dist)

    return parser


def _fail(exc: BestArmError, status: int) -> int:
    sys.stderr.write(json.dumps({"code": exc.code, "message": str(exc)}) + "\n")
    return status


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:
            raise ConfigParse(f"--seed must be >= 0, got {args.seed}")
        header, rows = args.handler(args)
        _write_csv(header, rows, args.out)
    except ConfigParse as exc:
        return _fail(exc, 2)
    except BestArmError as exc:
        return _fail(exc, 1)
    except OSError as exc:
        return _fail(IoFailure(str(exc)), 1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
