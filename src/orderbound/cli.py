"""Command-line interface.

Subcommands: bound (closed forms and the quantile approximation), oracle
(search-based ground truth), coverage (exact or Monte Carlo), verify
(theorem campaigns). Output is JSON by default, CSV on request; every
JSON payload carries a schema_version field.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from . import harness
from .closedform import lexi_high_homogeneous_bracket, lexi_low_homogeneous, optimal_pointwise_homogeneous
from .dist import distribution_from_json, full_support
from .harness import SCHEMA_VERSION, OracleCache
from .oracle import InfeasibleError, OracleConfig, pessimal_bound_oracle
from .orders import order_from_string
from .quantile import quantile_bound
from .support import GridError, SupportGrid, make_sample, parse_sample_values


def _add_grid_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--s-min", type=float, default=0.0, help="grid lower endpoint")
    p.add_argument("--s-max", type=float, default=1.0, help="grid upper endpoint")
    p.add_argument("--m", type=int, default=2, help="number of support points")


def _add_common_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, default=0.05, help="miscoverage level in [0, 1)")
    p.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orderbound",
        description="Lower confidence bounds on means of discrete bounded "
        "distributions, consistent with sample orders.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bound", help="closed-form and approximate bound values")
    _add_grid_args(b)
    _add_common_args(b)
    b.add_argument("--method", required=True,
                   choices=("pointwise", "lexi-low", "lexi-high-bracket", "quantile"))
    b.add_argument("--i", type=int, required=True,
                   help="support index for closed forms; order-statistic index for quantile")
    b.add_argument("--n", type=int, default=1, help="sample size (closed forms)")
    b.add_argument("--sample", help="sample values, 'a,b,c' or JSON array (quantile);"
                   " a sample starting with a negative value is written --sample=-1,0"
                   " or --sample '[-1, 0]'")
    b.add_argument("--epsilon", type=float, default=1e-4, help="quantile search accuracy")
    b.set_defaults(handler=_cmd_bound)

    o = sub.add_parser("oracle", help="search-based ground-truth bound")
    _add_grid_args(o)
    _add_common_args(o)
    o.add_argument("--order", required=True,
                   help="lexi-low | lexi-high | quantile:<i> | pointwise")
    o.add_argument("--sample", required=True,
                   help="sample values, 'a,b,c' or JSON array; a sample starting with a"
                   " negative value is written --sample=-1,0 or --sample '[-1, 0]'")
    o.add_argument("--resolution", type=float, default=1e-3)
    o.add_argument("--full-support", action="store_true",
                   help="search the whole grid instead of the refined support")
    o.set_defaults(handler=_cmd_oracle)

    c = sub.add_parser("coverage", help="coverage of the oracle bound under a distribution")
    _add_grid_args(c)
    _add_common_args(c)
    mode = c.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exact", action="store_true")
    mode.add_argument("--mc", action="store_true")
    c.add_argument("--dist", required=True, help="JSON array of m masses")
    c.add_argument("--order", default="lexi-low")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--trials", type=int, default=10000)
    c.add_argument("--seed", type=int, default=20260810)
    c.add_argument("--resolution", type=float, default=1e-3)
    c.set_defaults(handler=_cmd_coverage)

    v = sub.add_parser("verify", help="run theorem-level verification campaigns")
    _add_grid_args(v)
    _add_common_args(v)
    v.add_argument("campaign", choices=("sandwich", "consistency", "agreement", "all"))
    v.add_argument("--n", type=int, default=2)
    v.add_argument("--trials", type=int, default=200)
    v.add_argument("--seed", type=int, default=20260810)
    v.add_argument("--resolution", type=float, default=1e-3)
    v.set_defaults(handler=_cmd_verify)

    return parser


def _grid(args) -> SupportGrid:
    return SupportGrid(args.s_min, args.s_max, args.m)


def _cmd_bound(args) -> dict:
    grid = _grid(args)
    base = {
        "schema_version": SCHEMA_VERSION,
        "method": args.method,
        "grid": {"s_min": grid.s_min, "s_max": grid.s_max, "m": grid.m},
        "alpha": args.alpha,
    }
    if args.method == "quantile":
        if not args.sample:
            raise GridError("quantile bound needs --sample")
        x = make_sample(grid, parse_sample_values(args.sample))
        res = quantile_bound(x, args.i, args.alpha, args.epsilon)
        base.update({
            "sample": list(x.values), "i": args.i,
            "p_hat": res.p_hat, "bound": res.bound, "epsilon": res.epsilon,
            "c": res.c, "iterations": res.iterations, "delta": res.delta,
        })
        return base
    base.update({"i": args.i, "n": args.n})
    if args.method == "pointwise":
        base["value"] = optimal_pointwise_homogeneous(grid, args.i, args.n, args.alpha)
    elif args.method == "lexi-low":
        base["value"] = lexi_low_homogeneous(grid, args.i, args.n, args.alpha)
    else:
        br = lexi_high_homogeneous_bracket(grid, args.i, args.n, args.alpha)
        base.update({"lo": br.lo, "hi": br.hi, "top_degenerate": br.top_degenerate})
    return base


def _cmd_oracle(args) -> dict:
    grid = _grid(args)
    x = make_sample(grid, parse_sample_values(args.sample))
    order = order_from_string(args.order, pointwise_base=x)
    cfg = OracleConfig(
        resolution=args.resolution,
        support_override=full_support(grid) if args.full_support else None,
    )
    res = pessimal_bound_oracle(x, order, args.alpha, cfg)
    return {
        "schema_version": SCHEMA_VERSION,
        "order": order.name,
        "alpha": args.alpha,
        "sample": list(x.values),
        "value": res.value,
        "constraint_prob": res.constraint_prob,
        "support_used": list(res.support_used.indices),
        "witness": [float(v) for v in res.witness.mass],
        "final_step": res.final_step,
        "mode": res.mode,
    }


def _cmd_coverage(args) -> dict:
    grid = _grid(args)
    F = distribution_from_json(grid, args.dist)
    order = order_from_string(args.order)
    cfg = OracleConfig(resolution=args.resolution)
    bound_fn = harness.make_oracle_bound(order, args.alpha, OracleCache(cfg))
    label = f"oracle[{order.name}]"
    if args.exact:
        report = harness.exact_coverage(F, bound_fn, args.n, args.alpha, method=label)
    else:
        report = harness.mc_coverage(F, bound_fn, args.n, args.trials, args.seed,
                                     args.alpha, method=label)
    return report.to_dict()


def _cmd_verify(args):
    if not 0.0 <= args.alpha < 1.0:
        raise ValueError(f"alpha must be in [0, 1), got {args.alpha}")
    grid = _grid(args)
    cache = OracleCache(OracleConfig(resolution=args.resolution))
    if args.campaign == "sandwich":
        reports = [harness.verify_sandwich(grid, args.n, args.alpha, cache)]
    elif args.campaign == "consistency":
        reports = harness.consistency_campaign(grid, args.n, args.alpha, cache)
    elif args.campaign == "agreement":
        reports = harness.agreement_campaign(grid, args.trials, args.seed)
    else:
        reports = harness.run_all(grid, args.n, args.alpha, cache,
                                  trials=args.trials, seed=args.seed)
    return [r.to_dict() for r in reports]


def _emit(payload, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2))
        return
    rows = payload if isinstance(payload, list) else [payload]
    flat = []
    for row in rows:
        flat.append({
            k: json.dumps(v) if isinstance(v, (list, dict)) else v
            for k, v in row.items()
        })
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(flat[0].keys()))
    writer.writeheader()
    writer.writerows(flat)
    print(buf.getvalue(), end="")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload = args.handler(args)
    except (GridError, ValueError, InfeasibleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        _emit(payload, args.format)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (`| head`): point stdout at devnull so
        # the flush at exit raises no second error, and exit 1 as Python does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    if args.command == "verify":
        return 0 if all(r["passed"] for r in payload) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
