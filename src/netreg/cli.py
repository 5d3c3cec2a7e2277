"""Command-line interface: sweep, experiment, analyze.

Exit codes: 0 on success, 1 on validation problems (bad scenario text,
violated model assumptions), 2 on numerical failures (no convergence,
singular systems, diverging projections).
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from .discrimination import WelfareDirection, _by_type, welfare_direction_large_delta
from .errors import NetregError, NumericalError, UnsupportedRegulationError, ValidationError
from .market import MarketPrimitives
from .network import equitable_partition
from .regulation import classify_limit, pareto_certificate
from .scenario import parse_scenario
from .sweeps import EXPERIMENT_NAMES, emit_csv, run_named_experiment, run_sweep


def _read_scenario(path):
    return parse_scenario(Path(path).read_text(encoding="utf-8"))


def cmd_sweep(args) -> int:
    scenario = _read_scenario(args.scenario)
    rows = run_sweep(scenario)
    if args.output:
        emit_csv(rows, args.output)
        print(f"wrote {len(rows)} rows to {args.output}")
    else:
        emit_csv(rows, sys.stdout)
    return 0


def cmd_experiment(args) -> int:
    results = run_named_experiment(args.name, count=args.count)
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    for stem, rows in results.items():
        path = outdir / f"{stem}.csv"
        emit_csv(rows, path)
        print(f"wrote {len(rows)} rows to {path}")
    return 0


def cmd_analyze(args) -> int:
    scenario = _read_scenario(args.scenario)
    lam1 = scenario.network.lambda1
    delta = args.delta_fraction / lam1 if lam1 > 0 else 0.0
    prim = MarketPrimitives(net=scenario.network, a=scenario.a, c=scenario.c, delta=delta)
    print(f"markets: {scenario.network.n}   lambda1: {lam1:.12g}   delta: {delta:.12g}")
    print(f"regulation: {scenario.regulation.kind}")

    cert = pareto_certificate(prim, scenario.regulation)
    if cert.efficient:
        print(f"frontier certificate: efficient (weight {cert.eta:.12g})")
    else:
        print(f"frontier certificate: inefficient ({cert.reason})")

    try:
        limit = classify_limit(prim, scenario.regulation)
    except UnsupportedRegulationError as err:
        print(f"large-spillover class: not determined ({err})")
    else:
        lo, hi = limit.interval.lower, limit.interval.upper
        print(
            f"large-spillover class: {limit.label.value}   "
            f"statistic interval: [{lo:.6g}, {hi:.6g}]   closest point: {limit.a_star:.6g}"
        )
        print(f"limit ratios: surplus {limit.limit_r_v:.6g}   profit {limit.limit_r_pi:.6g}")

    types = equitable_partition(scenario.network)  # refined once, for both lines that use it
    sizes = np.sort(np.bincount(types))
    two_type = sizes.shape[0] == 2
    print(f"network types: {sizes.shape[0]}" + (f" (of {sizes[0]} and {sizes[1]} markets)" if two_type else ""))

    try:
        if scenario.c.any():
            raise ValidationError("marginal costs are nonzero")
        direction = welfare_direction_large_delta(scenario.network, scenario.a)
    except ValidationError as err:
        print(f"uniform-pricing welfare direction: not applicable ({err})")
    else:
        wording = {
            WelfareDirection.CONSUMERS_GAIN: "consumers gain from a discrimination ban",
            WelfareDirection.CONSUMERS_LOSE: "consumers lose from a discrimination ban",
            WelfareDirection.INDETERMINATE: "indeterminate",
        }
        print(f"uniform-pricing welfare direction: {wording[direction]}")
        if two_type:
            by_type = _by_type(scenario.network, types, scenario.a)
            print(f"two-type welfare direction: {wording[by_type]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netreg",
        description="Monopoly pricing and welfare under price regulations with network spillovers",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_sweep = sub.add_parser("sweep", help="run a scenario file over its spillover grid")
    p_sweep.add_argument("scenario", help="scenario file path")
    p_sweep.add_argument("-o", "--output", default=None, help="CSV output path (default stdout)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_exp = sub.add_parser("experiment", help="run a named desk experiment")
    p_exp.add_argument("name", choices=EXPERIMENT_NAMES)
    p_exp.add_argument("-o", "--output", default=".", help="output directory for CSV files")
    p_exp.add_argument("--count", type=int, default=60, help="grid points per sweep")
    p_exp.set_defaults(func=cmd_experiment)

    p_an = sub.add_parser("analyze", help="one-shot efficiency, limit and network-type analysis")
    p_an.add_argument("scenario", help="scenario file path")
    p_an.add_argument(
        "--delta-fraction",
        type=float,
        default=0.5,
        help="spillover as a fraction of 1/lambda1 for the certificate (default 0.5)",
    )
    p_an.set_defaults(func=cmd_analyze)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NumericalError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 2
    except (NetregError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
