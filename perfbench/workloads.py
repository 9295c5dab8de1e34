"""The benchmark's workloads: inputs drawn from a seed, one pass of items,
and the correctness gate that decides whether each item failed.

An item is the unit a user waits for. Its gate compares the program's output
with a reference; an item fails when the gate says no or when anything in it
raises. Work per pass is a computed count fixed by the request (checks,
closed-form table entries, site-steps of the requested walks), so it does
not change when an implementation does less work to answer the same request.
"""
from __future__ import annotations

import math
import random
import statistics
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from qwalk import asymptotics, closed_form, dd, evolution, harness, qfield
from qwalk.asymptotics import DensityKind
from qwalk.closed_form import ExactParams, Precision
from qwalk.core import Coin, WalkKind, make_coin, make_coin_pi

# the seeded float angle stands in for theta = 1.0 rad, more than 0.5 rad
# from every multiple of pi/2, where the closed forms and the limit laws are
# undefined. The range is narrow because step evolution slows with the
# number of subnormal amplitudes outside the light cone |x| < |cos theta| t,
# which changes with theta: at t = 5000 the same walk costs about a quarter
# more at theta = 1.01 than at 0.90, and at t = 3000 it drops by a third
# between 1.02 and 1.05, where those amplitudes underflow to zero.
SEED_THETA_RANGE = (0.99, 1.01)

# the double-double closed form is silently wrong from about t = 160 at pi/4
# (errors 2.8e-12 at t = 160 up to 8.7e-6 at t = 200). Those items stay in
# the workload and count as failed; only a failure outside this set makes
# the run incorrect.
KNOWN_DD_DEFECT_T = 160

# dd against the exact oracle: acceptance criterion 5 up to t = 100, and the
# closed-form-vs-simulation tolerance beyond
DD_TOL_TO_100 = Fraction(1, 10**25)
DD_TOL_BEYOND = Fraction(1, 10**12)

NORM_DRIFT_TOL = 1e-12


@dataclass(frozen=True)
class Size:
    """Grid sizes; FULL is the benchmark, TINY the smoke test."""

    verify_t_max: int
    ks_t_min: int
    oracle_t_max: int
    oracle_every: int
    long_t: int


FULL = Size(verify_t_max=200, ks_t_min=100, oracle_t_max=qfield.ORACLE_MAX_T,
            oracle_every=10, long_t=5000)
TINY = Size(verify_t_max=12, ks_t_min=6, oracle_t_max=20, oracle_every=5,
            long_t=60)


def seeded_theta(seed: int) -> float:
    return random.Random(seed).uniform(*SEED_THETA_RANGE)


# Calibration kernels: fixed work independent of qwalk, timed between items
# to track how fast the shared host is running right now. Over 30-second
# windows the median time of a dd closed-form sweep or an oracle stretch,
# divided by the interpreter kernel's, moved by at most 8 % (raw: 37-39 %),
# and a 2,500-step line walk divided by the array kernel's by at most 6 %
# (raw: 23 %); each tracked the other kernel poorly. Changing a kernel or
# its reference time moves every time the benchmark reports.
def interpreter_kernel() -> None:
    """Integer, float and Fraction arithmetic, dict stores, small arrays."""
    acc = 0
    table = {}
    for i in range(20000):
        acc += (i * 7) % 13
        table[i & 255] = acc
    f = 0.0
    for i in range(20000):
        f = f * 0.5 + i
    a = np.ones(64)
    for _ in range(1500):
        a = a * 0.5 + a[::-1]
    x = Fraction(1, 3)
    for _ in range(1500):
        x = (x * 3 + Fraction(1, 7)) / 3


def array_kernel() -> None:
    """A coin-and-shift-like update of two 10^4-site complex arrays."""
    a = np.ones(10000, dtype=complex)
    b = np.ones(10000, dtype=complex)
    for _ in range(60):
        x = 0.6 * a + 0.8 * b
        y = 0.8 * a - 0.6 * b
        a = np.zeros(10002, dtype=complex)[:10000]
        a[:] = x
        b = y


# (kernel, its median time on the reference host: a 2-vCPU Intel Xeon VM at
# 2.1 GHz, Python 3.11, numpy 2.4); reported times are scaled to that host
INTERPRETER = (interpreter_kernel, 0.0122)
ARRAY = (array_kernel, 0.0062)
CALIBRATE_EVERY_S = 0.2
# half-width of the time window whose kernel runs give a moment's host speed
SPEED_WINDOW_S = 3.0


class Recorder:
    """Times passes and items, gates items and counts their outcomes.

    Before each item, at most every CALIBRATE_EVERY_S, one run of the
    workload's calibration kernel is timed and left out of the pass;
    `scaled` turns a time measured over some interval into seconds on the
    reference host using the kernel runs around that interval. ``perturb``
    hands a perturbed reference to the first item gated, which must then
    count as failed; the smoke test uses it.
    """

    def __init__(self, calibration=INTERPRETER, tracer=None,
                 perturb: bool = False) -> None:
        self.kernel, self.k_ref = calibration
        self.tracer = tracer
        self.kernels: list[tuple[float, float]] = []  # (mid time, seconds)
        self.items: list[tuple[float, float]] = []  # (start, end)
        self.passes: list[tuple[float, float, float]] = []  # start, end, seconds
        # traced runs: each pass's span index range and computed counts
        self.span_ranges: list[tuple[int, int]] = []
        self.pass_counts: list[Counter] = []
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.work = 0
        self._perturb = perturb
        self._last_calibration = -math.inf
        self._kernel_in_pass = 0.0

    def calibrate(self) -> None:
        if perf_counter() - self._last_calibration < CALIBRATE_EVERY_S:
            return
        t0 = perf_counter()
        self.kernel()
        t1 = perf_counter()
        self.kernels.append(((t0 + t1) / 2, t1 - t0))
        self._kernel_in_pass += t1 - t0
        self._last_calibration = t1

    def scaled(self, start: float, end: float, seconds: float) -> float:
        """`seconds`, measured in [start, end], as seconds on the reference host.

        The host's speed then is the median kernel time within
        SPEED_WINDOW_S of the interval, the window widening until it holds
        three kernel runs.
        """
        width = SPEED_WINDOW_S
        while True:
            near = [k for mid, k in self.kernels
                    if start - width <= mid <= end + width]
            if len(near) >= min(3, len(self.kernels)):
                return seconds * self.k_ref / statistics.median(near)
            width *= 2

    def pass_seconds(self) -> list[float]:
        return [self.scaled(*p) for p in self.passes]

    def item_seconds(self) -> list[float]:
        return [self.scaled(a, b, b - a) for a, b in self.items]

    def run_pass(self, workload, out_dir: Path) -> None:
        tr = self.tracer
        if tr is not None:
            first = len(tr.spans)
            tr.counts.clear()
        self._kernel_in_pass = 0.0
        t0 = perf_counter()
        workload.run_pass(self, out_dir)
        t1 = perf_counter()
        self.passes.append((t0, t1, t1 - t0 - self._kernel_in_pass))
        if tr is not None:
            self.span_ranges.append((first, len(tr.spans)))
            self.pass_counts.append(Counter(tr.counts))

    def count(self, name: str, n: int) -> None:
        if self.tracer is not None and n:
            self.tracer.counts[name] += n

    def item(self, key: str, gate: Callable[[bool], bool],
             known_defect: bool = False) -> None:
        self.calibrate()
        perturb, self._perturb = self._perturb, False
        tr = self.tracer
        if tr is not None:
            tr.item = key
            span = tr.open(key, "bench")
        error = None
        t0 = perf_counter()
        try:
            ok = gate(perturb)
        except Exception as exc:  # a raising item is a failed item
            ok, error = False, f"{type(exc).__name__}: {exc}"
        self.items.append((t0, perf_counter()))
        if tr is not None:
            tr.close(span)
            tr.item = None
        self.attempted += 1
        if not ok:
            self.failed += 1
            if not known_defect:
                self.unexpected.append(key + (f" [{error}]" if error else ""))


class Workload:
    name = ""
    calibration = INTERPRETER

    def __init__(self, seed: int, size: Size) -> None:
        self.size = size
        self.theta = seeded_theta(seed)
        self.seeded_coin = make_coin(self.theta)

    def run_pass(self, rec: Recorder, out_dir: Path) -> None:
        raise NotImplementedError


def _tag(coin: Coin) -> str:
    f = coin.pi_fraction
    return f"pi*{f}" if f is not None else f"{coin.theta:.6f}"


class VerifyGrid(Workload):
    """Every verification suite over the four angles, as `run_verification`."""

    name = "verify-grid"

    def __init__(self, seed: int, size: Size) -> None:
        super().__init__(seed, size)
        self.coins = harness.canonical_coins()[:3] + (self.seeded_coin,)
        ts = list(range(1, size.verify_t_max + 1))
        # the same per-suite time filters `run_checks("all", ...)` applies
        self.suite_ts = {
            suite: ([t for t in ts if t <= harness.EXACT_VS_SIM_MAX_T]
                    if suite in ("exactVsSim", "innerSplit") else
                    [t for t in ts if t >= size.ks_t_min]
                    if suite == "ksConvergence" else ts)
            for suite in harness.SUITES
        }

    def expected_checks(self, suite: str) -> int:
        return 3 if suite == "limitNorm" else len(self.suite_ts[suite])

    def run_pass(self, rec: Recorder, out_dir: Path) -> None:
        for suite in harness.SUITES:
            for coin in self.coins:
                rec.item(f"{suite}@{_tag(coin)}",
                         lambda perturb, s=suite, c=coin: self._gate(rec, s, c, perturb))
                rec.work += self.expected_checks(suite)

    def _gate(self, rec: Recorder, suite: str, coin: Coin, perturb: bool) -> bool:
        report = harness.run_checks(suite, [coin], self.suite_ts[suite])
        n_fail = len(report.failures())
        if suite in ("exactVsSim", "innerSplit"):
            rec.count("closed_form.wrong", n_fail)
        expected = self.expected_checks(suite) + (1 if perturb else 0)
        return len(report.checks) == expected and n_fail == 0


class ExactOracle(Workload):
    """Closed forms (exact and dd) against the Q(sqrt2) oracle at pi/4."""

    name = "exact-oracle"

    def __init__(self, seed: int, size: Size) -> None:
        super().__init__(seed, size)
        self.coin = make_coin_pi(Fraction(1, 4))
        self.checkpoints = range(size.oracle_every, size.oracle_t_max + 1,
                                 size.oracle_every)

    def run_pass(self, rec: Recorder, out_dir: Path) -> None:
        for kind in (WalkKind.LINE, WalkKind.HALF_LINE):
            for dist in qfield.q2_oracle_series(kind, self.size.oracle_t_max):
                t = dist.t
                if t not in self.checkpoints:
                    continue
                ref = (dist.as_dict(), dist.inner_dict(0), dist.inner_dict(1))
                for prec in (Precision.EXACT_Q2, Precision.DOUBLE_DOUBLE):
                    known = (prec is Precision.DOUBLE_DOUBLE
                             and t >= KNOWN_DD_DEFECT_T)
                    rec.item(
                        f"{kind.value}/{prec.value}/t={t}",
                        lambda perturb, k=kind, p=prec, t=t, r=ref:
                            self._gate(rec, k, p, t, r, perturb),
                        known_defect=known,
                    )

    def _gate(self, rec: Recorder, kind: WalkKind, prec: Precision, t: int,
              ref: tuple, perturb: bool) -> bool:
        params = ExactParams.for_coin(self.coin, t, prec)
        total, inner0, inner1 = ref
        if perturb:
            x = min(total)
            total = {**total, x: total[x] + Fraction(1, 10**40)}
        if kind is WalkKind.LINE:
            vals = closed_form.line_exact_values(self.coin, t, params)
            pairs = [(vals.get(x), total.get(x, 0)) for x in set(vals) | set(total)]
        else:
            vals = closed_form.half_line_exact_values(self.coin, t, params)
            pairs = []
            for x in set(vals) | set(total):
                v0, v1, vt = vals.get(x, (None, None, None))
                pairs += [(v0, inner0.get(x, 0)), (v1, inner1.get(x, 0)),
                          (vt, total.get(x, 0))]
        rec.work += len(vals)
        if prec is Precision.EXACT_Q2:
            ok = all((v if v is not None else 0) == r for v, r in pairs)
        else:
            tol = DD_TOL_TO_100 if t <= 100 else DD_TOL_BEYOND
            ok = all(abs((dd.to_fraction(v) if v is not None else 0) - r) <= tol
                     for v, r in pairs)
        if not ok:
            rec.count("closed_form.wrong", 1)
        return ok


class LongWalk(Workload):
    """Long walks at pi/4 and the seeded angle: evolve, tabulate, emit, KS."""

    name = "long-walk"
    calibration = ARRAY  # its time goes to numpy updates of 10^4-site windows

    _KS_KIND = {WalkKind.HALF_LINE: DensityKind.HALF_TOTAL,
                WalkKind.LINE: DensityKind.LINE_TOTAL}

    def __init__(self, seed: int, size: Size) -> None:
        super().__init__(seed, size)
        self.coins = (make_coin_pi(Fraction(1, 4)), self.seeded_coin)

    def run_pass(self, rec: Recorder, out_dir: Path) -> None:
        t = self.size.long_t
        for i, coin in enumerate(self.coins):
            for kind in (WalkKind.HALF_LINE, WalkKind.LINE):
                stem = out_dir / f"{kind.value}-angle{i}"
                rec.item(f"{kind.value}@{_tag(coin)}",
                         lambda perturb, c=coin, k=kind, stem=stem:
                         self._gate(c, k, stem, perturb))
                # site-steps of the requested walk: sum of window sizes
                rec.work += sum(s + 1 if kind is WalkKind.HALF_LINE else 2 * s + 2
                                for s in range(t))

    def _gate(self, coin: Coin, kind: WalkKind, stem: Path, perturb: bool) -> bool:
        t = self.size.long_t
        state = evolution.evolve(kind, coin, t)
        ok = abs(state.norm_sq() - 1.0) <= NORM_DRIFT_TOL
        table = harness.table_from_distribution(
            evolution.distribution(state), "evolve", coin.theta, stem.name)
        for fmt in ("csv", "json"):
            first, second = (stem.with_suffix(f".{n}.{fmt}") for n in (1, 2))
            harness.emit(table, fmt, first)
            harness.emit(table, fmt, second)
            ok &= first.read_bytes() == second.read_bytes()
        rows = table.rows
        if perturb:
            x, p0, p1, p = rows[0]
            rows = ((x, p0, p1, math.nextafter(p, 1.0)),) + rows[1:]
        back = harness.read_table_json(stem.with_suffix(".1.json"))
        ok &= back.rows == rows
        ks = asymptotics.ks_distance(coin, t, self._KS_KIND[kind])
        return ok and ks.ks <= harness.ks_tolerance(t)


_BY_NAME = {w.name: w for w in (VerifyGrid, ExactOracle, LongWalk)}
WORKLOADS = tuple(_BY_NAME)


def build(name: str, seed: int, size: Size = FULL) -> Workload:
    """The workload's inputs: the seeded angle, coins and time grids."""
    return _BY_NAME[name](seed, size)
