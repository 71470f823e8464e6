"""Command-line interface: simulate / fit / table / scenario.

Each option resolves by one rule: its default < the ``--config`` YAML mapping
(``fit`` and ``scenario``) < the flag, when given.  The environment variable
``PPCF_SEED`` counts as a given ``--seed`` and beats the flag, everywhere.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from .harness import (
    Scenario,
    check_parallelism,
    emit_scenario_files,
    fit_file,
    resolve_scenario_options,
    row_columns,
    run_scenario_records,
    run_table,
    write_run,
)

# every option flag, declared once; absent, it is None ("not given")
_OPTION_FLAGS = {
    "window": dict(choices=("W1", "W2")),
    "process": dict(choices=("poisson", "lgcp")),
    "covar": dict(choices=("ind", "dep")),
    "nuisance": dict(choices=("linear", "poly")),
    "estimators": dict(type=lambda v: tuple(e.strip() for e in v.split(",") if e.strip()),
                       help="comma-separated subset of semi,para,oracle"),
    "seed": dict(type=int),
    "reps": dict(type=int),
    "folds": dict(type=int),
    "bandwidth": dict(type=float),
    "kernel_order": dict(type=int, choices=(2, 4)),
    "approx": dict(choices=("quadrature", "logistic")),
    "skip_thinning": dict(action="store_true"),
    "pcf": dict(choices=("known", "estimated", "none")),
    "grid_n": dict(type=int),
}


def _options(p: argparse.ArgumentParser, *flags, **renamed):
    """Attach option flags to ``p``: each sets the option of its own name, or
    of the name ``renamed`` gives it."""
    keys = {**{flag: flag for flag in flags}, **renamed}
    for flag, key in keys.items():
        p.add_argument("--" + flag.replace("_", "-"), dest=key, default=None,
                       **_OPTION_FLAGS[flag])
    p.set_defaults(option_keys=keys)


def build_parser() -> argparse.ArgumentParser:
    # exact flag spellings only: no unique-prefix abbreviations
    parser = argparse.ArgumentParser(prog="ppcf", allow_abbrev=False,
                                     description="semiparametric spatial point process fitting")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", allow_abbrev=False,
                           help="emit pattern and covariate grid files")
    _options(p_sim, "window", "process", "nuisance", covar="covariates", seed="base_seed")
    p_sim.add_argument("--rep", type=int, default=0)
    p_sim.add_argument("--out-dir", type=str, required=True)

    p_fit = sub.add_parser("fit", allow_abbrev=False,
                           help="fit a point pattern file with covariate grids")
    p_fit.add_argument("pattern", type=str)
    p_fit.add_argument("--y-grid", action="append", required=True)
    p_fit.add_argument("--z-grid", action="append", required=True)
    p_fit.add_argument("--config", type=str, default=None,
                       help="YAML mapping of fit options; flags override it")
    _options(p_fit, "folds", "bandwidth", "kernel_order", "skip_thinning", "seed", "approx",
             "pcf", "grid_n")
    p_fit.add_argument("--out", type=str, default=None)

    p_tab = sub.add_parser("table", allow_abbrev=False, help="reproduce a simulation table")
    p_tab.add_argument("--table", type=int, choices=(2, 3, 4), required=True)
    _options(p_tab, "reps", seed="base_seed")
    p_tab.add_argument("--parallelism", type=int, default=1)
    p_tab.add_argument("--out", type=str, default=None)

    p_sc = sub.add_parser("scenario", allow_abbrev=False, help="run one simulation scenario")
    p_sc.add_argument("--config", type=str, default=None,
                      help="YAML mapping of scenario options; flags override it")
    _options(p_sc, "window", "process", "nuisance", "estimators", "folds", "bandwidth",
             "kernel_order", "skip_thinning", "reps", "approx", "pcf", covar="covariates",
             seed="base_seed")
    p_sc.add_argument("--parallelism", type=int, default=1)
    p_sc.add_argument("--out", type=str, default=None)
    return parser


def _given(args) -> dict:
    """The options given on the command line, by key; ``PPCF_SEED`` as the seed."""
    given = {key: getattr(args, key) for key in args.option_keys.values()
             if getattr(args, key) is not None}
    env = os.environ.get("PPCF_SEED")
    if env is not None:
        given[args.option_keys["seed"]] = int(env)
    return given


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    given = _given(args)

    if args.command == "simulate":
        paths = emit_scenario_files(Scenario(reps=1, **given), args.rep, args.out_dir)
        print(json.dumps(paths, indent=2))
        return 0

    if args.command == "fit":
        out_prefix = args.out or "fit"
        report = fit_file(args.pattern, args.y_grid, args.z_grid,
                          config_path=args.config, out_prefix=out_prefix, overrides=given)
        for i, (t, se) in enumerate(zip(report.theta_hat, report.se)):
            cis = "".join(f"  {100 * level:g}% CI = ({arr[i, 0]:.6f}, {arr[i, 1]:.6f})"
                          for level, arr in report.ci.items())
            print(f"theta[{i}] = {t:.6f}  se = {se:.6f}{cis}")
        print(f"outputs written with prefix {out_prefix!r}")
        return 0

    if args.command == "table":
        out = args.out or f"table{args.table}.csv"
        start = time.perf_counter()
        rows = run_table(args.table, out, parallelism=args.parallelism, **given)
        print(f"wrote {len(rows)} rows to {out} in {time.perf_counter() - start:.1f} s")
        return 0

    if args.command == "scenario":
        s = resolve_scenario_options(set(args.option_keys.values()), args.config, given)
        check_parallelism(args.parallelism)
        if args.out:
            Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        rows, records = run_scenario_records(s, parallelism=args.parallelism)
        out_rows = [{"estimator": est, **row_columns(row, starred=row.mean_se_star is not None)}
                    for est, row in rows.items()]
        for entry in out_rows:
            print(json.dumps(entry))
        if args.out:
            write_run(out_rows, records, args.out)
        return 0

    return 1


if __name__ == "__main__":
    sys.exit(main())
