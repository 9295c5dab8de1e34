"""Verification suites, plot-ready output tables, and figure data.

The verification suites re-derive the distribution identities numerically:
mirror symmetries of the line walk (lemma1), the amplitude copy between the
two walks (lemma2), the probability copy (theorem1), closed form versus
simulation (exactVsSim), the inner-state split of the half-line closed form
(innerSplit), limit-density normalization (limitNorm), and the KS convergence
diagnostic (ksConvergence).
"""
from __future__ import annotations

import json
import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import asymptotics
from .asymptotics import DensityKind, LimitDensity
from .closed_form import (FormulaDomainError, PrecisionError, half_line_exact,
                          line_exact)
from .core import (_TRIG_ZERO, Coin, Distribution, WalkKind, make_coin,
                   make_coin_pi)
from .evolution import distribution, evolve, iter_states, probability_arrays

TOLERANCES = {
    "lemma1": 1e-12,
    "lemma2": 1e-12,
    "theorem1": 1e-12,
    "exactVsSim": 1e-9,
    "innerSplit": 1e-12,
    "limitNorm": 1e-8,
}

# the closed-form suites run to t = 60 inside 'all'. Every closed-form value
# is exact and rounded once at any t, so this bounds cost (about t^2 per
# table at float angles, 0.1 s at t = 1000), not validity; larger requested
# times are skipped
EXACT_VS_SIM_MAX_T = 60

# KS thresholds frozen from a calibration sweep over the canonical angles:
# worst observed 0.046 at t = 1000 and 0.124 at t = 100, decaying roughly
# like t^-0.43; the pre-1000 curve carries a margin on top of that
KS_TOL_AT_1000 = 0.05
_KS_ANCHOR = 0.052
_KS_DECAY = 0.45


def ks_tolerance(t: int) -> float:
    if t < 1:
        raise ValueError(f"KS tolerance needs t >= 1, got {t}")
    if t >= 1000:
        return KS_TOL_AT_1000
    return _KS_ANCHOR * (1000.0 / t) ** _KS_DECAY


def canonical_coins() -> tuple[Coin, ...]:
    """The four angles used throughout the verification grids."""
    return (
        make_coin_pi(Fraction(1, 6)),
        make_coin_pi(Fraction(1, 4)),
        make_coin_pi(Fraction(1, 3)),
        make_coin(1.0),
    )


@dataclass(frozen=True)
class CheckResult:
    """One executed check; ``passed`` is exactly residual <= tolerance."""

    name: str
    theta: float
    t: int
    max_residual: float
    tolerance: float
    error: Optional[str] = None

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        msg = f" [{self.error}]" if self.error else ""
        return (
            f"{status} {self.name} theta={self.theta:.12g} t={self.t} "
            f"residual={self.max_residual:.3e} tol={self.tolerance:.1e}{msg}"
        )


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)


def _as_coin(theta: Union[Coin, float]) -> Coin:
    return theta if isinstance(theta, Coin) else make_coin(float(theta))


def _error_check(name: str, coin: Coin, t: int, tol: float, msg: str) -> CheckResult:
    return CheckResult(
        name=name, theta=coin.theta, t=t, max_residual=math.nan,
        tolerance=tol, error=msg,
    )


def _check(name: str, coin: Coin, t: int, tol: float,
           residual: Callable[..., float], *args) -> CheckResult:
    """Check ``residual(*args)``; a closed form that refuses is an error entry."""
    try:
        res = residual(*args)
    except (FormulaDomainError, PrecisionError) as exc:
        return _error_check(name, coin, t, tol, str(exc))
    return CheckResult(name=name, theta=coin.theta, t=t, max_residual=res,
                       tolerance=tol)


def _sin_zero(coin: Coin) -> Optional[str]:
    # identity angles (multiples of pi) break the mirror/copy identities
    if coin.pi_fraction is not None:
        zero = (coin.pi_fraction % 1) == 0
    else:
        zero = abs(coin.s) < _TRIG_ZERO
    return "theta excluded (sin = 0)" if zero else None


def _degenerate(coin: Coin) -> Optional[str]:
    return "theta excluded (degenerate coin)" if coin.is_degenerate() else None


def _never(coin: Coin) -> Optional[str]:
    return None


# a suite's checks for one coin: (coin, sorted times) -> checks
_SuiteChecks = Callable[[Coin, Sequence[int]], list[CheckResult]]

_BOTH_WALKS = (WalkKind.LINE, WalkKind.HALF_LINE)


def _walk_suite(name: str, residual: Callable[..., float],
                walks: tuple[WalkKind, ...] = _BOTH_WALKS,
                tolerance: Optional[Callable[[int], float]] = None,
                excluded: Callable[[Coin], Optional[str]] = _sin_zero,
                min_t: int = 0) -> _SuiteChecks:
    """Checks fed by one ``iter_states`` pass per walk and coin.

    ``residual(coin, *states)`` runs at every requested time >= min_t, with
    the states in the order of ``walks``; an angle for which ``excluded``
    gives a reason gets an error entry at each of those times instead.
    ``tolerance(t)`` defaults to the suite's entry in TOLERANCES.
    """
    tol = tolerance or (lambda t: TOLERANCES[name])

    def checks(coin: Coin, ts: Sequence[int]) -> list[CheckResult]:
        tols = {t: tol(t) for t in ts if t >= min_t}
        reason = excluded(coin)
        if reason:
            return [_error_check(name, coin, t, tols[t], reason) for t in tols]
        if not tols:
            return []
        passes = zip(*((state for _, state in iter_states(kind, coin, max(tols)))
                       for kind in walks))
        return [_check(name, coin, states[0].t, tols[states[0].t], residual,
                       coin, *states)
                for states in passes if states[0].t in tols]

    return checks


def _grid_suite(name: str, residual: Callable[[Coin, int], float],
                min_t: int = 1) -> _SuiteChecks:
    """Checks of ``residual(coin, t)`` at every requested time t >= min_t."""
    tol = TOLERANCES[name]

    def checks(coin: Coin, ts: Sequence[int]) -> list[CheckResult]:
        return [_check(name, coin, t, tol, residual, coin, t)
                for t in ts if t >= min_t]

    return checks


def _padded_line(state) -> tuple[np.ndarray, np.ndarray, int]:
    """Line amplitudes padded with zeros; position p sits at index p + shift."""
    g = state.amps[:, 0]
    d = state.amps[:, 1]
    pad = 3
    gp = np.concatenate([np.zeros(pad, dtype=complex), g,
                         np.zeros(pad, dtype=complex)])
    dp = np.concatenate([np.zeros(pad, dtype=complex), d,
                         np.zeros(pad, dtype=complex)])
    return gp, dp, pad - state.offset


def _lemma1_residual(state, coin: Coin) -> float:
    """Mirror identities of the line amplitudes at one time."""
    t = state.t
    gp, dp, shift = _padded_line(state)
    x = np.arange(0, t + 1)
    ia = x - 1 + shift
    ib = -x + shift
    ic = -x - 2 + shift
    sgn = 1.0 if t % 2 == 0 else -1.0
    c, s = coin.c, coin.s
    res1 = np.abs(dp[ia] - sgn * dp[ib])
    lhs = s * gp[ia] - c * dp[ia]
    rhs = s * gp[ic] - c * dp[ic]
    res2 = np.abs(lhs + sgn * rhs)
    return float(max(res1.max(), res2.max()))


def _lemma2_residual(half_state, line_state) -> float:
    """Amplitude copy identities between the two walks at one time."""
    t = half_state.t
    a = half_state.amps[:, 0]
    b = half_state.amps[:, 1]
    gp, dp, shift = _padded_line(line_state)
    x = np.arange(0, t + 1)
    even_pos = x % 2 == 0
    ix = x + shift
    im = -x - 1 + shift
    g_x, d_x = gp[ix], dp[ix]
    g_m, d_m = gp[im], dp[im]
    if t % 2 == 0:
        exp_a = np.where(even_pos, g_x - 1j * d_x, d_x + 1j * g_x)
        exp_b = np.where(even_pos, d_m + 1j * g_m, -g_m + 1j * d_m)
    else:
        exp_a = np.where(even_pos, d_x + 1j * g_x, g_x - 1j * d_x)
        exp_b = np.where(even_pos, g_m - 1j * d_m, -d_m - 1j * g_m)
    return float(max(np.abs(a - exp_a).max(), np.abs(b - exp_b).max()))


def _theorem1_residual(half_state, line_state) -> float:
    """Probability copy: inner 0 matches x >= 0, inner 1 matches -x-1."""
    t = half_state.t
    p0, p1 = probability_arrays(half_state)
    lp0, lp1 = probability_arrays(line_state)
    pl = lp0 + lp1
    right = pl[t + 1:]
    left_rev = pl[t::-1]
    return float(max(np.abs(p0 - right).max(), np.abs(p1 - left_rev).max()))


def _exact_vs_sim_residual(coin: Coin, line_state, half_state) -> float:
    """Closed forms of both walks against the evolved states."""
    t = line_state.t
    res = 0.0
    for table, state in ((line_exact(coin, t), line_state),
                         (half_line_exact(coin, t), half_state)):
        cf = table.as_dict()
        sim = distribution(state).as_dict()
        for x in set(cf) | set(sim):
            res = max(res, abs(cf.get(x, 0.0) - sim.get(x, 0.0)))
    return res


def _inner_split_residual(coin: Coin, t: int) -> float:
    """Total column against the sum of the inner columns, one evaluation."""
    dist = half_line_exact(coin, t)
    return max(abs(p - p0 - p1) for p0, p1, p in zip(dist.p0, dist.p1, dist.p))


def _ks_residual(coin: Coin, half_state) -> float:
    return asymptotics.ks_distance(coin, half_state.t, DensityKind.HALF_TOTAL,
                                   state=half_state).ks


def _mass_off(coin: Coin, tol: float) -> Optional[str]:
    # the laws on the double c, s have mass ~ 1 + e/(2 s^2), e = c^2 + s^2 - 1
    # taken exactly, which no integration undoes; exact cos^2 makes e = 0
    c, s = Fraction(coin.c), Fraction(coin.s)
    e = 0 if coin.cos2_exact() is not None else abs(c * c + s * s - 1)
    if e <= 2 * Fraction(tol) * s * s:
        return None
    return ("theta excluded (double cos, sin: limit mass off by "
            f"{float(e / (2 * s * s)):.1e})")


def _limit_norm_checks(coin: Coin, ts: Sequence[int]) -> list[CheckResult]:
    """Total mass of each limit law; one entry per law, at t = 0."""
    tol = TOLERANCES["limitNorm"]
    reason = _degenerate(coin) or _mass_off(coin, tol)
    if reason:
        return [_error_check("limitNorm", coin, 0, tol, reason)]

    def mass(kind: DensityKind) -> float:
        return asymptotics.total_mass(LimitDensity(coin, kind))

    return [
        CheckResult(name=name, theta=coin.theta, t=0,
                    max_residual=abs(m - 1.0), tolerance=tol)
        for name, m in (
            ("limitNorm[lineTotal]", mass(DensityKind.LINE_TOTAL)),
            ("limitNorm[halfTotal]", mass(DensityKind.HALF_TOTAL)),
            ("limitNorm[halfInner0+halfInner1]",
             mass(DensityKind.HALF_INNER0) + mass(DensityKind.HALF_INNER1)),
        )
    ]


def _any_t(t: int) -> bool:
    return True


def _closed_form_range(t: int) -> bool:
    return t <= EXACT_VS_SIM_MAX_T


def _ks_range(t: int) -> bool:
    # the KS diagnostic only means something once the law has started to
    # settle; small times are skipped inside the combined run
    return t >= 100


# suite -> (checks for one coin, the times it keeps inside 'all'); the
# order is the report order of 'all'
_REGISTRY: dict[str, tuple[_SuiteChecks, Callable[[int], bool]]] = {
    "lemma1": (_walk_suite("lemma1",
                           lambda coin, line: _lemma1_residual(line, coin),
                           (WalkKind.LINE,)), _any_t),
    "lemma2": (_walk_suite("lemma2", lambda coin, line, half:
                           _lemma2_residual(half, line)), _any_t),
    "theorem1": (_walk_suite("theorem1", lambda coin, line, half:
                             _theorem1_residual(half, line)), _any_t),
    "exactVsSim": (_walk_suite("exactVsSim", _exact_vs_sim_residual,
                               excluded=_never, min_t=1), _closed_form_range),
    "innerSplit": (_grid_suite("innerSplit", _inner_split_residual),
                   _closed_form_range),
    "limitNorm": (_limit_norm_checks, _any_t),
    "ksConvergence": (_walk_suite("ksConvergence[halfTotal]", _ks_residual,
                                  (WalkKind.HALF_LINE,),
                                  tolerance=ks_tolerance,
                                  excluded=_degenerate, min_t=1),
                      _ks_range),
}

SUITES = tuple(_REGISTRY)


def run_checks(suite: str, thetas: Sequence[Union[Coin, float]],
               ts: Sequence[int]) -> VerificationReport:
    """Execute one verification suite (or 'all') over a theta and time grid."""
    coins = [_as_coin(th) for th in thetas]
    if not coins:
        raise ValueError("at least one angle is required")
    ts = sorted(set(int(t) for t in ts))
    if not ts:
        raise ValueError("at least one time is required")
    if ts[0] < 0:
        raise ValueError(f"times must be >= 0, got {ts[0]}")
    if suite == "all":
        plan = [(checks, [t for t in ts if keep(t)])
                for checks, keep in _REGISTRY.values()]
    elif suite in _REGISTRY:
        plan = [(_REGISTRY[suite][0], ts)]
    else:
        raise ValueError(
            f"unknown suite {suite!r}; expected one of {SUITES + ('all',)}")
    return VerificationReport(checks=tuple(
        check for checks, suite_ts in plan for coin in coins
        for check in checks(coin, suite_ts)
    ))


# ---------------------------------------------------------------------------
# output tables


def table_meta(kind: str, theta: float, t: Optional[int], route: str) -> dict:
    """The metadata that says how a table was made: its JSON "meta" object."""
    return {"kind": kind, "theta": theta, "t": t, "route": route}


@dataclass(frozen=True)
class OutputTable:
    """Rows plus the metadata needed to reproduce them."""

    meta: dict
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    label: str = ""


def table_from_distribution(dist: Distribution, route: str, theta: float,
                            label: str = "") -> OutputTable:
    rows = tuple(zip(dist.positions(), dist.p0, dist.p1, dist.p))
    return OutputTable(
        meta=table_meta(dist.kind.value, theta, dist.t, route),
        columns=("x", "p0", "p1", "p"), rows=rows, label=label,
    )


def _fmt(v) -> str:
    # an exact float, nearly every value a table holds, skips the type tests
    if type(v) is not float:
        if v is None:
            return ""
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        v = float(v)
    return repr(v) if v else "0"


def _json_value(v) -> str:
    # the text json.dumps gives one value, a Fraction's that of its double;
    # finite floats skip its encoder
    if type(v) is float and math.isfinite(v):
        return repr(v)
    return json.dumps(float(v) if type(v) is Fraction else v)


def _cells(column: Sequence, fmt: Callable[[object], str]) -> list[str]:
    """``fmt`` of each value of a column, run once per distinct value.

    Equal values print differently only across types (1 and 1.0) or as zeros
    of opposite sign (0.0 and -0.0), so only a column of one type shares its
    texts, and each zero is formatted apart. Both formats print an int with
    ``str``.
    """
    types = set(map(type, column))
    if types == {int}:
        return list(map(str, column))
    if len(types) > 1:
        return list(map(fmt, column))
    memo = {v: fmt(v) for v in dict.fromkeys(column)}
    return [memo[v] if v != 0.0 else fmt(v) for v in column]


def _columns(rows: Sequence[tuple], width: int) -> list[tuple]:
    """The columns of ``rows``; ``width`` empty ones when there is no row."""
    return list(zip(*rows)) or [()] * width


def render_csv(table: OutputTable) -> str:
    cells = [_cells(column, _fmt)
             for column in _columns(table.rows, len(table.columns))]
    return "\n".join([",".join(table.columns),
                      *map(",".join, zip(*cells))]) + "\n"


def render_json(table: OutputTable) -> str:
    keys = table.columns
    columns = _columns(table.rows, len(keys))
    # a column of Fractions also gives its exact texts, after the row's other
    # keys, as "<name>_exact"
    for name, column in zip(table.columns, list(columns)):
        if all(type(v) is Fraction for v in column):
            keys += (name + "_exact",)
            columns.append(list(map(str, column)))
    cells = [_cells(column, _json_value) for column in columns]
    template = "{%s}" % ",".join(json.dumps(k).replace("%", "%%") + ":%s"
                                 for k in keys)
    doc = {"meta": table.meta, "columns": list(table.columns), "rows": []}
    # the head is json.dumps's own text, up to the rows' closing "]}"
    head = json.dumps(doc, indent=None, separators=(",", ":"))[:-2]
    return (head + ",".join([template % values for values in zip(*cells)])
            + "]}\n")


def emit(table: OutputTable, format: str, destination) -> None:
    """Write one table as CSV or JSON; '-' writes to stdout."""
    if format == "csv":
        text = render_csv(table)
    elif format == "json":
        text = render_json(table)
    else:
        raise ValueError(f"unknown format {format!r}")
    if destination == "-":
        sys.stdout.write(text)
        return
    Path(destination).write_text(text, encoding="utf-8", newline="\n")


def _getter(keys: Sequence[str]) -> Callable[[dict], tuple]:
    # itemgetter of one key gives the bare value, and of none is an error
    if len(keys) > 1:
        return operator.itemgetter(*keys)
    return lambda obj: tuple(obj[k] for k in keys)


def read_table_json(path) -> OutputTable:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    columns = tuple(doc["columns"])
    objs = doc["rows"]
    # a column with "<name>_exact" texts reads back as Fractions
    extra = set(objs[0]).difference(columns) if objs else ()
    keys = [c + "_exact" if c + "_exact" in extra else c for c in columns]
    rows = tuple(map(_getter(keys), objs))
    if extra:
        rows = tuple(zip(*(map(Fraction, column) if key in extra else column
                           for key, column in zip(keys, zip(*rows)))))
    return OutputTable(meta=doc["meta"], columns=columns, rows=rows)


# ---------------------------------------------------------------------------
# route tables and figure data

FIGURES = tuple(f"fig{i}" for i in range(1, 10))
ROUTES = ("evolve", "exact", "approx")

_PI4 = Fraction(1, 4)
_PI3 = Fraction(1, 3)


def route_table(route: str, walk: WalkKind, coin: Coin, t: int,
                label: str = "") -> OutputTable:
    """The table of one route: evolve, exact or approx (half line only).

    Each route refuses its own jobs with ``ValueError`` and its own message.
    """
    if route == "evolve":
        dist = distribution(evolve(walk, coin, t))
    elif route == "exact":
        dist = (line_exact if walk is WalkKind.LINE else half_line_exact)(
            coin, t)
    elif route != "approx":
        raise ValueError(f"unknown route {route!r}; expected one of {ROUTES}")
    elif walk is not WalkKind.HALF_LINE:
        raise ValueError("the large-t approximation is defined on the half "
                         "line only")
    else:
        p0, p1, p = (tuple(column.tolist()) for column in
                     asymptotics.approx_columns(coin, t, np.arange(t + 1.0)))
        dist = Distribution(walk, t, 0, p0, p1, p)
    return table_from_distribution(dist, route, coin.theta, label)


def _series_tables(coin: Coin, t_max: int, step: int) -> list[OutputTable]:
    """Long-format (t, x, p) time series of the half-line walk, per column."""
    series: dict[str, list[tuple]] = {"inner0": [], "inner1": [], "total": []}
    for t, state in iter_states(WalkKind.HALF_LINE, coin, t_max):
        if t % step == 0:
            p0, p1 = probability_arrays(state)
            for rows, column in zip(series.values(), (p0, p1, p0 + p1)):
                rows.extend((t, x, p) for x, p in enumerate(column.tolist()))
    return [
        OutputTable(
            meta=table_meta(WalkKind.HALF_LINE.value, coin.theta, None,
                            "evolve"),
            columns=("t", "x", "p"), rows=tuple(rows),
            label=f"fig2_{name}_series",
        )
        for name, rows in series.items()
    ]


# figure -> (angles as fractions of pi, time, routes); fig2 is the series
_FIGURES = {
    "fig1": ((_PI4,), 500, ("evolve",)),
    "fig3": ((Fraction(1, 6), _PI4, _PI3, Fraction(2, 5)), 150, ("evolve",)),
    "fig4": ((_PI4,), 14, ("evolve", "exact")),
    "fig5": ((_PI4,), 15, ("evolve", "exact")),
    "fig6": ((_PI3,), 14, ("evolve", "exact")),
    "fig7": ((_PI3,), 15, ("evolve", "exact")),
    "fig8": ((_PI4,), 500, ("evolve", "approx")),
    "fig9": ((_PI3,), 500, ("evolve", "approx")),
}


def figure_data(figure: str) -> list[OutputTable]:
    """Numeric content behind one of the nine reproduction figures."""
    if figure == "fig2":
        return _series_tables(make_coin_pi(_PI4), 500, 10)
    if figure not in _FIGURES:
        raise ValueError(f"unknown figure {figure!r}; expected one of {FIGURES}")
    fractions, t, routes = _FIGURES[figure]
    tables = []
    for f in fractions:
        coin = make_coin_pi(f)
        tag = f"{'' if f.numerator == 1 else f.numerator}pi{f.denominator}"
        tables += [route_table(route, WalkKind.HALF_LINE, coin, t,
                               f"{figure}_halfline_theta_{tag}_t{t}_{route}")
                   for route in routes]
    return tables
