#!/usr/bin/env python3
"""Time the evolution, oracle, closed-form and render layers as one JSON record.

Measured, each as the median process time of --runs runs:

- ns per site-step of `evolve` at t = 10^4, both walks, theta = pi/4 and 1.0
  (a site-step is one site of the support window advanced by one step);
- `evolve` and a full `iter_states` pass to t = 200, the same four walks
  (each run the mean of 20 calls);
- `ks_distance` at t = 1000 (half-line total, theta = pi/4);
- us per grid point of `cdf_grid` at theta = 1.0 on the grids `ks_distance`
  builds: half-line total at t = 200 (201 points) and line total at
  t = 5000 (10,002 points);
- `run_checks` at `canonical_coins()`: ksConvergence at t = 100..200,
  lemma1, lemma2 and theorem1 at t = 1..200, and exactVsSim at t = 1..60;
- `total_mass` of each of the four limit laws at theta = 5e-5, 1e-3 and 1.0,
  its cache cleared in every run;
- us per site-step of a full `q2_oracle_series` pass to t = 200, both walks;
- us per `dd.to_fraction` call over the dd values of
  `half_line_exact_values` at t = 200, theta = pi/4 (the conversion the
  exact-oracle benchmark gates every dd value with);
- `line_exact_values` and `half_line_exact_values` at t = 50, 100, 150,
  200: dd and exact at theta = pi/4, double and dd at theta = 1.0 (a float
  angle, whose integer sums grow fastest) and dd at pi/3; and double and dd
  at t = 1000, theta = 1.0 and at t = 3000, theta = pi/3 (long enough that
  pi/3's tables too are rounded from the top bits of their factors);
- `render_csv` and `render_json` of the line walk's table at t = 5000,
  theta = 1.0 (the table is built once, outside the timing), and
  `read_table_json` of that table's JSON file;
- `figure_data("fig2")`, the half-line series at theta = pi/4 every 10th
  t to 500 (the same at every size).

Each entry holds the median and the quartiles q1, q3 of the runs, and
`kernel_ms`: the median process time of perfbench's `interpreter_kernel`
(imported from perfbench/workloads.py), timed just before that metric, so a
reader can tell a code change from a slower host. The record also names the
git commit of the measured qwalk tree, the machine and the Python and numpy
versions. --tiny shrinks every size so a test can run the script in about a
second. Run from a checkout:

    PYTHONPATH=src python scripts/bench.py --out BENCH_<n>.json
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

import qwalk
from qwalk import dd
from qwalk import (DensityKind, LimitDensity, WalkKind, distribution, evolve,
                   iter_states, ks_distance, make_coin, make_coin_pi,
                   q2_oracle_series, total_mass)
from qwalk.asymptotics import cdf_grid
from qwalk.closed_form import (ExactParams, Precision, half_line_exact_values,
                               line_exact_values)
from qwalk.harness import (canonical_coins, figure_data, read_table_json,
                           render_csv, render_json, run_checks,
                           table_from_distribution)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import interpreter_kernel  # noqa: E402

# (long walk t, short walk t, KS t, KS suite times, walk suite times,
# exactVsSim suite times, oracle t, closed-form ts, long closed-form t at
# theta = 1.0 and at pi/3, rendered table t)
SIZES = {
    "full": (10_000, 200, 1000, range(100, 201), range(1, 201), range(1, 61),
             200, (50, 100, 150, 200), (1000, 3000), 5000),
    "tiny": (200, 20, 50, range(10, 13), range(1, 13), range(1, 7), 20,
             (10, 20), (30, 40), 50),
}

# a short walk takes about a millisecond, so each of its runs averages this
# many calls
SHORT_CALLS = 20


def _coins():
    return {"pi/4": make_coin_pi(Fraction(1, 4)), "1.0": make_coin(1.0)}


def _site_steps(kind: WalkKind, t: int) -> int:
    """Sum of window sizes over the steps 0 -> t."""
    return sum(s + 1 if kind is WalkKind.HALF_LINE else 2 * s + 2
               for s in range(t))


def _run_s(fn, runs: int, calls: int) -> list[float]:
    """Time per call of each run; a run makes ``calls`` calls."""
    times = []
    for _ in range(runs):
        start = time.process_time()
        for _ in range(calls):
            fn()
        times.append((time.process_time() - start) / calls)
    return times


def _quartiles(times: list[float]) -> tuple[float, float, float]:
    """q1, median, q3 (inclusive method; one run gives itself three times)."""
    if len(times) == 1:
        return times[0], times[0], times[0]
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return q1, median, q3


def _drain(states) -> None:
    for _ in states:
        pass


def _git(tree: Path) -> dict:
    def run(*args: str) -> str:
        return subprocess.run(["git", "-C", str(tree), *args], check=True,
                              capture_output=True, text=True).stdout.strip()
    try:
        return {"sha": run("rev-parse", "HEAD"),
                "dirty": bool(run("status", "--porcelain", "--", "src"))}
    except (OSError, subprocess.CalledProcessError):
        return {"sha": None, "dirty": None}


def measure(size: str, runs: int) -> dict:
    (t_long, t_short, t_ks, ks_ts, walk_ts, cf_suite_ts, t_oracle, cf_ts,
     (t_cf_float, t_cf_pi3), t_render) = SIZES[size]
    results: dict = {}
    raw: dict = {}

    def record(metric: str, key: str, fn, scale: float, calls: int = 1) -> None:
        kernel_s = statistics.median(_run_s(interpreter_kernel, runs, 1))
        times = _run_s(fn, runs, calls)
        q1, median, q3 = _quartiles(times)
        results.setdefault(metric, {})[key] = {
            "median": median * scale, "q1": q1 * scale, "q3": q3 * scale,
            "kernel_ms": kernel_s * 1e3}
        raw.setdefault(metric, {})[key] = times

    for name, coin in _coins().items():
        for kind in (WalkKind.HALF_LINE, WalkKind.LINE):
            key = f"{kind.value}@{name}"
            record(f"evolve_t{t_long}.ns_per_site_step", key,
                   lambda: evolve(kind, coin, t_long),
                   1e9 / _site_steps(kind, t_long))
            record(f"evolve_t{t_short}.ms", key,
                   lambda: evolve(kind, coin, t_short), 1e3, SHORT_CALLS)
            record(f"iter_states_t{t_short}.ms", key,
                   lambda: _drain(iter_states(kind, coin, t_short)), 1e3,
                   SHORT_CALLS)
    pi4 = _coins()["pi/4"]
    record(f"ks_distance_t{t_ks}.ms", "halfTotal@pi/4",
           lambda: ks_distance(pi4, t_ks), 1e3)
    for name, suite, ts in (("ks", "ksConvergence", ks_ts),
                            ("lemma1", "lemma1", walk_ts),
                            ("lemma2", "lemma2", walk_ts),
                            ("theorem1", "theorem1", walk_ts),
                            ("exactVsSim", "exactVsSim", cf_suite_ts)):
        record(f"{name}_suite_t{ts.start}-{ts.stop - 1}.s", "canonical_coins",
               lambda: run_checks(suite, canonical_coins(), ts), 1.0)
    for text in ("5e-5", "1e-3", "1.0"):
        for kind in DensityKind:
            d = LimitDensity(make_coin(float(text)), kind)
            record("total_mass.ms", f"{kind.value}@{text}",
                   lambda: (total_mass.cache_clear(), total_mass(d)), 1e3)
    one = _coins()["1.0"]
    for walk, kind, t in ((WalkKind.HALF_LINE, DensityKind.HALF_TOTAL, t_short),
                          (WalkKind.LINE, DensityKind.LINE_TOTAL, t_render)):
        state = evolve(walk, one, t)
        xs = (np.arange(len(state.amps)) + state.offset) / t
        d = LimitDensity(one, kind)
        record(f"cdf_grid_t{t}.us_per_point", f"{kind.value}@1.0",
               lambda: cdf_grid(d, xs), 1e6 / len(xs), SHORT_CALLS)
    for kind in (WalkKind.HALF_LINE, WalkKind.LINE):
        record(f"oracle_t{t_oracle}.us_per_site_step", kind.value,
               lambda: _drain(q2_oracle_series(kind, t_oracle)),
               1e6 / _site_steps(kind, t_oracle))
    dd_values = [v for row in half_line_exact_values(
        pi4, t_oracle, ExactParams.for_coin(pi4, t_oracle,
                                            Precision.DOUBLE_DOUBLE)).values()
        for v in row if v is not None]
    record(f"to_fraction_t{t_oracle}.us_per_call", "dd@pi/4",
           lambda: [dd.to_fraction(v) for v in dd_values],
           1e6 / len(dd_values), SHORT_CALLS)
    pi3 = make_coin_pi(Fraction(1, 3))
    float_coins = (("1.0", one, Precision.DOUBLE),
                   ("1.0", one, Precision.DOUBLE_DOUBLE))
    pi3_coins = (("pi/3", pi3, Precision.DOUBLE),
                 ("pi/3", pi3, Precision.DOUBLE_DOUBLE))
    cf_coins = (("pi/4", pi4, Precision.DOUBLE_DOUBLE),
                ("pi/4", pi4, Precision.EXACT_Q2), *float_coins,
                pi3_coins[1])
    for ts, coins in ((cf_ts, cf_coins), ((t_cf_float,), float_coins),
                      ((t_cf_pi3,), pi3_coins)):
        for t in ts:
            for name, coin, prec in coins:
                params = ExactParams.for_coin(coin, t, prec)
                for fn in (line_exact_values, half_line_exact_values):
                    record(f"{fn.__name__}_t{t}.ms", f"{prec.value}@{name}",
                           lambda: fn(coin, t, params), 1e3)
    table = table_from_distribution(
        distribution(evolve(WalkKind.LINE, one, t_render)),
        "evolve", 1.0)
    for fn in (render_csv, render_json):
        record(f"{fn.__name__}_t{t_render}.ms", "line@1.0",
               lambda: fn(table), 1e3)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.json"
        path.write_text(render_json(table), encoding="utf-8")
        record(f"read_table_json_t{t_render}.ms", "line@1.0",
               lambda: read_table_json(path), 1e3)
    record("figure_fig2.ms", "halfline@pi/4", lambda: figure_data("fig2"), 1e3)

    tree = Path(qwalk.__file__).resolve().parents[2]
    return {
        "about": "evolution, oracle, closed-form, render and read timings; "
                 "medians and quartiles of process time, each with the "
                 "interpreter kernel's median time taken just before it",
        "git": _git(tree),
        "machine": {"platform": platform.platform(),
                    "processor": platform.processor() or platform.machine(),
                    "cpus": os.cpu_count()},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "size": size,
        "runs": runs,
        "results": results,
        "raw_s": raw,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--tiny", action="store_true",
                    help="small sizes, for a quick test of the script")
    ap.add_argument("--out", default="-", help="JSON path, '-' for stdout")
    args = ap.parse_args()
    if args.runs < 1:
        ap.error("--runs must be >= 1")
    doc = json.dumps(measure("tiny" if args.tiny else "full", args.runs),
                     indent=1) + "\n"
    if args.out == "-":
        sys.stdout.write(doc)
    else:
        Path(args.out).write_text(doc, encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
