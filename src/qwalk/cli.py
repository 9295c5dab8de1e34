"""Command line interface.

Subcommands: simulate, exact, oracle, limit, approx, verify, figure, sweep.
Exit codes: 0 success, 1 verification failure, 2 invalid arguments (a size
too large for memory included), 3 I/O failure.
"""
from __future__ import annotations

import argparse
import json
import math
import re
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import harness
from .asymptotics import DensityKind, LimitDensity, cdf_grid, density_at
from .closed_form import PrecisionError
from .core import Coin, make_coin, make_coin_pi
from .harness import OutputTable, emit, figure_data, run_checks, table_meta

_PI_FORM = re.compile(r"^([+-]?)(\d*)pi(?:/(\d+))?$")


class UsageError(ValueError):
    """Bad argument values discovered after parsing."""


def parse_theta(text: str) -> Coin:
    """Angle in radians, or an exact pi fraction like 'pi/4', '-pi/4' or '2pi/5'."""
    text = text.strip().lower().replace(" ", "")
    m = _PI_FORM.match(text)
    if m:
        sign, num, den = m.groups()
        num = int(num) if num else 1
        den = int(den) if den else 1
        if den == 0:
            raise UsageError(f"cannot parse theta {text!r}: zero denominator")
        return make_coin_pi(Fraction(-num if sign == "-" else num, den))
    try:
        return make_coin(float(text))
    except ValueError as exc:
        raise UsageError(
            f"cannot parse theta {text!r}: use radians or a pi fraction"
        ) from exc


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v != ""]
    except ValueError as exc:
        raise UsageError(f"cannot parse integer list {text!r}") from exc


def _add_common(p: argparse.ArgumentParser, steps: bool = True) -> None:
    p.add_argument("--theta", default="pi/4",
                   help="coin angle: radians or pi fraction (default pi/4)")
    if steps:
        p.add_argument("--steps", type=int, required=True, help="time t")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default="-", help="output path, '-' for stdout")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qwalk",
        description="coined walk on the half line and its line-walk copy",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    # simulate, exact, oracle and approx each run one harness route
    for command, route, text in (
            ("simulate", "evolve", "evolve the walk and emit probabilities"),
            ("exact", "exact", "closed-form probabilities"),
            ("oracle", "oracle", "exact rational walk at theta = pi/4")):
        p = sub.add_parser(command, help=text)
        p.add_argument("--walk", choices=("halfline", "line"),
                       default="halfline")
        _add_common(p)
        p.set_defaults(route=route)

    p = sub.add_parser("limit", help="limit density or CDF samples")
    p.add_argument("--kind", choices=tuple(k.value for k in DensityKind),
                   default="halfTotal")
    p.add_argument("--quantity", choices=("density", "cdf"), default="density")
    p.add_argument("--points", type=int, default=512)
    _add_common(p, steps=False)

    p = sub.add_parser("approx", help="large-t approximation of the half-line walk")
    _add_common(p)
    p.set_defaults(route="approx", walk="halfline")

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", choices=harness.SUITES + ("all",), default="all")
    p.add_argument("--thetas", default="pi/6,pi/4,pi/3,1.0",
                   help="comma-separated angles")
    p.add_argument("--ts", default="1,2,14,15,30,60",
                   help="comma-separated times")
    p.add_argument("--out", default="", help="optional JSON report path")

    p = sub.add_parser("figure", help="emit the numeric content of one figure")
    p.add_argument("--id", choices=harness.FIGURES, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("sweep", help="run many configurations, one file each")
    p.add_argument("--walk", choices=("halfline", "line"), default="halfline")
    p.add_argument("--route", choices=harness.ROUTES, default="evolve")
    p.add_argument("--thetas", required=True)
    p.add_argument("--ts", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", required=True, help="output directory")
    return ap


def _cmd_route(args) -> int:
    table = harness.route_table(args.route, args.walk, parse_theta(args.theta),
                                args.steps)
    emit(table, args.format, args.out)
    return 0


def _cmd_limit(args) -> int:
    coin = parse_theta(args.theta)
    d = LimitDensity(coin=coin, kind=DensityKind(args.kind))
    if args.points < 2:
        raise UsageError("--points must be >= 2")
    lo, hi = d.support
    span = hi - lo
    lo -= 0.05 * span
    hi += 0.05 * span
    n = args.points
    xs = (lo + (hi - lo) * np.arange(n) / (n - 1)).tolist()
    if args.quantity == "density":
        rows = [(y, density_at(d, y)) for y in xs]
        columns = ("y", "density")
    else:
        rows = list(zip(xs, cdf_grid(d, xs).tolist()))
        columns = ("x", "cdf")
    table = OutputTable(meta=table_meta(args.kind, coin.theta, None, "limit"),
                        columns=columns, rows=tuple(rows))
    emit(table, args.format, args.out)
    return 0


def _cmd_verify(args) -> int:
    coins = [parse_theta(v) for v in args.thetas.split(",") if v]
    ts = _parse_int_list(args.ts)
    report = run_checks(args.suite, coins, ts)
    if not report.checks:
        raise UsageError(f"suite {args.suite} has no check at times {args.ts}")
    for check in report.checks:
        print(check.line())
    if args.out:
        doc = [
            {
                "name": c.name, "theta": c.theta, "t": c.t,
                # an error entry's NaN residual is not valid JSON
                "max_residual": (c.max_residual
                                 if math.isfinite(c.max_residual) else None),
                "tolerance": c.tolerance,
                "pass": c.passed, "error": c.error,
            }
            for c in report.checks
        ]
        Path(args.out).write_text(json.dumps(doc, indent=2) + "\n",
                                  encoding="utf-8")
    return 0 if report.all_passed else 1


def _cmd_figure(args) -> int:
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for table in figure_data(args.id):
        emit(table, args.format, outdir / f"{table.label}.{args.format}")
    return 0


def _cmd_sweep(args) -> int:
    theta_texts = [v for v in args.thetas.split(",") if v]
    coins = [(text, parse_theta(text)) for text in theta_texts]
    ts = _parse_int_list(args.ts)
    if not coins or not ts:
        raise UsageError("sweep needs at least one angle and one time")
    jobs = {}  # file name -> (coin, t); a repeated job is written once
    for text, coin in coins:
        tag = re.sub(r"[^0-9a-zA-Z._-]", "_", text)
        for t in ts:
            name = f"{args.route}_{args.walk}_theta-{tag}_t-{t}.{args.format}"
            jobs.setdefault(name, (coin, t))
    # every table is built before anything is written, so a refused job
    # fails the sweep with no output
    tables = {name: harness.route_table(args.route, args.walk, coin, t)
              for name, (coin, t) in jobs.items()}
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, table in tables.items():
        emit(table, args.format, outdir / name)
    manifest = "\n".join(sorted(
        jobs, key=lambda name: (jobs[name][0].theta, jobs[name][1]))) + "\n"
    (outdir / "manifest.txt").write_text(manifest, encoding="utf-8")
    return 0


_COMMANDS = {
    "simulate": _cmd_route,
    "exact": _cmd_route,
    "oracle": _cmd_route,
    "limit": _cmd_limit,
    "approx": _cmd_route,
    "verify": _cmd_verify,
    "figure": _cmd_figure,
    "sweep": _cmd_sweep,
}


def _attach_angles(argv: list[str]) -> list[str]:
    """``--theta -pi/4`` as ``--theta=-pi/4``: argparse takes a value that
    starts with '-', unless it is a plain number, for an option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in ("--theta", "--thetas") and arg[:1] == "-":
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_attach_angles(argv))
    try:
        return _COMMANDS[args.command](args)
    # UsageError, FormulaDomainError and OracleLimitError are ValueErrors
    except (ValueError, PrecisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # a walk too long for memory, refused when its buffers are allocated
    except MemoryError as exc:
        print(f"error: out of memory: {exc}".rstrip(": "), file=sys.stderr)
        return 2
    except OSError as exc:
        target = getattr(exc, "filename", None)
        where = f" ({target})" if target else ""
        print(f"i/o error: {exc}{where}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
