"""Combinatorial closed forms for the walk distributions.

Every positive probability of either walk is a finite alternating sum over
binomial coefficients. For a branch indexed by m with binomial width M the
double sum

    sum_{j1,j2=1}^{m} (-r)^{j1+j2} C(m-1,j1-1) C(m-1,j2-1) C(M,j1-1) C(M,j2-1)
        * { (w - j1 - j2) * w / (j1 j2) + 1/s^2 },      r = s^2 / c^2,

factors exactly through the partial-fraction expansion of the weight into

    w^2 * A1^2 - 2 w * A0 * A1 + A0^2 / s^2,

with the two single sums

    A0 = sum_j (-r)^j C(m-1,j-1) C(M,j-1),
    A1 = sum_j (-r)^j C(m-1,j-1) C(M,j-1) / j = (1/m) sum_j (-r)^j C(m,j) C(M,j-1).

Both single sums have integer coefficients (the 1/j is absorbed by
C(m-1,j-1)/j = C(m,j)/m), which is what makes the double-double path so
accurate: at the canonical angles r is exactly representable, the integer
terms convert exactly below 2^106, and the massive cancellation then happens
in error-free arithmetic. Terms are accumulated from j = m down to 1.

Three arithmetic backends implement the same evaluation: plain doubles
(adequate to t ~ 30), double-double (the default; adequate to a few hundred
steps at the canonical angles), and exact rationals (theta = pi/4 only,
where r = 1 and cos^2 = 1/2 are rational).
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional

from . import dd
from .core import Coin, Distribution, DistributionRow, WalkKind

__all__ = [
    "BinomialTable",
    "ExactParams",
    "FormulaDomainError",
    "Precision",
    "PrecisionError",
    "binomial_table",
    "half_line_exact",
    "half_line_exact_by_inner",
    "half_line_exact_total",
    "half_line_exact_values",
    "line_exact",
    "line_exact_values",
]

# magnitudes below this round to exact zero; larger negative values signal a
# genuine precision collapse and raise instead of being hidden
_NEG_CLAMP = 1e-13
_PROB_FLOOR = 1e-300

# the weighted combination is a positive-semidefinite quadratic form in the
# two branch sums, so a precision collapse shows up as a huge positive table
# rather than as negative entries; the completeness of the representation is
# the reliable detector (measured: double-double holds ~1e-13 to t = 150,
# ~1e-5 at t = 200, and explodes past t ~ 230 at the canonical angles)
_COMPLETENESS_GUARD = 1e-3

# CLI warning threshold for the float paths
PRECISION_WARN_T = 300


class FormulaDomainError(ValueError):
    """The closed forms exclude multiples of pi/2, where the walk is trivial."""


class PrecisionError(ArithmeticError):
    """The requested precision could not deliver a trustworthy value."""


class Precision(str, Enum):
    DOUBLE = "double"
    DOUBLE_DOUBLE = "dd"
    EXACT_Q2 = "exact"


@dataclass(frozen=True)
class ExactParams:
    """Evaluation request: angle, time, and arithmetic backend."""

    theta: float
    t: int
    precision: Precision = Precision.DOUBLE_DOUBLE

    @classmethod
    def for_coin(cls, coin: Coin, t: int,
                 precision: Precision = Precision.DOUBLE_DOUBLE) -> "ExactParams":
        return cls(theta=coin.theta, t=t, precision=precision)


class BinomialTable:
    """Triangular Pascal table of exact integers, grown on demand."""

    def __init__(self, n_max: int = 0) -> None:
        self._rows: list[list[int]] = [[1]]
        self._lock = threading.Lock()
        self.ensure(n_max)

    @property
    def n_max(self) -> int:
        return len(self._rows) - 1

    def ensure(self, n_max: int) -> None:
        with self._lock:
            while len(self._rows) <= n_max:
                prev = self._rows[-1]
                n = len(self._rows)
                row = [1] + [prev[k - 1] + prev[k] for k in range(1, n)] + [1]
                self._rows.append(row)

    def binom(self, n: int, k: int) -> int:
        if k < 0 or k > n:
            return 0
        self.ensure(n)
        return self._rows[n][k]

    def row(self, n: int) -> tuple[int, ...]:
        self.ensure(n)
        return tuple(self._rows[n])


_SHARED_TABLE = BinomialTable()


def binomial_table(n_max: int = 0) -> BinomialTable:
    """The shared process-wide table, grown to cover n_max."""
    _SHARED_TABLE.ensure(n_max)
    return _SHARED_TABLE


# ---------------------------------------------------------------------------
# arithmetic backends


class _DoubleCtx:
    precision = Precision.DOUBLE
    zero = 0.0
    one = 1.0

    @staticmethod
    def from_int(n: int) -> float:
        try:
            return float(n)
        except OverflowError as exc:
            raise PrecisionError("integer coefficient exceeds double range") from exc

    from_float = staticmethod(float)

    @staticmethod
    def from_fraction(q: Fraction) -> float:
        return float(q)

    add = staticmethod(lambda a, b: a + b)
    sub = staticmethod(lambda a, b: a - b)
    mul = staticmethod(lambda a, b: a * b)
    div = staticmethod(lambda a, b: a / b)
    neg = staticmethod(lambda a: -a)

    @staticmethod
    def ipow(a: float, n: int) -> float:
        return a**n

    to_float = staticmethod(float)

    @staticmethod
    def is_finite(a: float) -> bool:
        return math.isfinite(a)


class _DDCtx:
    precision = Precision.DOUBLE_DOUBLE
    zero = dd.ZERO
    one = dd.ONE

    @staticmethod
    def from_int(n: int) -> dd.DD:
        try:
            return dd.from_int(n)
        except OverflowError as exc:
            raise PrecisionError("integer coefficient exceeds double range") from exc

    from_float = staticmethod(dd.from_float)
    from_fraction = staticmethod(dd.from_fraction)
    add = staticmethod(dd.add)
    sub = staticmethod(dd.sub)
    mul = staticmethod(dd.mul)
    div = staticmethod(dd.div)
    neg = staticmethod(dd.neg)
    ipow = staticmethod(dd.ipow)
    to_float = staticmethod(dd.to_float)
    is_finite = staticmethod(dd.is_finite)


class _ExactCtx:
    precision = Precision.EXACT_Q2
    zero = Fraction(0)
    one = Fraction(1)

    from_int = staticmethod(Fraction)
    from_fraction = staticmethod(Fraction)

    @staticmethod
    def from_float(a: float) -> Fraction:
        return Fraction(a)

    add = staticmethod(lambda a, b: a + b)
    sub = staticmethod(lambda a, b: a - b)
    mul = staticmethod(lambda a, b: a * b)
    div = staticmethod(lambda a, b: a / b)
    neg = staticmethod(lambda a: -a)

    @staticmethod
    def ipow(a: Fraction, n: int) -> Fraction:
        return a**n

    to_float = staticmethod(float)

    @staticmethod
    def is_finite(a: Fraction) -> bool:
        return True


_CTXS = {
    Precision.DOUBLE: _DoubleCtx,
    Precision.DOUBLE_DOUBLE: _DDCtx,
    Precision.EXACT_Q2: _ExactCtx,
}


def _resolve(coin: Coin, t: int, params: Optional[ExactParams]):
    if params is None:
        params = ExactParams.for_coin(coin, t)
    if params.t != t:
        raise ValueError(f"params.t = {params.t} disagrees with t = {t}")
    if abs(params.theta - coin.theta) > 1e-12:
        raise ValueError("params.theta disagrees with the coin angle")
    return _CTXS[Precision(params.precision)]


class _Consts:
    """Per-(coin, backend) constants: -r, 1/s^2, c^2, and (-r)^j powers."""

    def __init__(self, coin: Coin, ctx) -> None:
        if coin.is_degenerate():
            raise FormulaDomainError(
                "closed forms require theta not a multiple of pi/2"
            )
        self.ctx = ctx
        cos2 = coin.cos2_exact()
        if ctx.precision == Precision.EXACT_Q2:
            if coin.pi_fraction is None or (coin.pi_fraction % 2) != Fraction(1, 4):
                raise ValueError(
                    "exact rational evaluation is supported only at theta = pi/4"
                )
        if cos2 is not None:
            c2 = ctx.from_fraction(cos2)
            s2 = ctx.from_fraction(1 - cos2)
        else:
            c = ctx.from_float(coin.c)
            s = ctx.from_float(coin.s)
            c2 = ctx.mul(c, c)
            s2 = ctx.mul(s, s)
        self.c2 = c2
        self.inv_s2 = ctx.div(ctx.one, s2)
        self.neg_r = ctx.neg(ctx.div(s2, c2))
        self._pows = [ctx.one]

    def neg_r_pow(self, j: int):
        while len(self._pows) <= j:
            self._pows.append(self.ctx.mul(self._pows[-1], self.neg_r))
        return self._pows[j]

    def prefactor(self, c2_exponent: int):
        """c^(2*c2_exponent) / 2, guarding against a silent underflow to 0."""
        p = self.ctx.mul(
            self.ctx.ipow(self.c2, c2_exponent),
            self.ctx.from_fraction(Fraction(1, 2)),
        )
        if self.ctx.to_float(p) == 0.0:
            raise PrecisionError(
                "prefactor underflowed to zero; time too large for this backend"
            )
        return p


class _BranchSums:
    """The factored sums A0, A1 of one branch, pre-combined into products.

    ``coeffs_a0[j-1]`` and ``coeffs_b1[j-1]`` are the integer coefficients of
    (-r)^j in A0 and in m*A1 respectively.
    """

    def __init__(self, consts: _Consts, m: int,
                 coeffs_a0, coeffs_b1) -> None:
        ctx = consts.ctx
        a0 = ctx.zero
        b1 = ctx.zero
        for j in range(m, 0, -1):
            pw = consts.neg_r_pow(j)
            a0 = ctx.add(a0, ctx.mul(pw, ctx.from_int(coeffs_a0[j - 1])))
            b1 = ctx.add(b1, ctx.mul(pw, ctx.from_int(coeffs_b1[j - 1])))
        a1 = ctx.div(b1, ctx.from_int(m))
        self.ctx = ctx
        self.inv_s2 = consts.inv_s2
        self.a1_sq = ctx.mul(a1, a1)
        self.a0_a1 = ctx.mul(a0, a1)
        self.a0_sq = ctx.mul(a0, a0)

    def weighted(self, w: int):
        """w^2 A1^2 - 2w A0 A1 + A0^2 / s^2."""
        ctx = self.ctx
        out = ctx.mul(ctx.from_int(w * w), self.a1_sq)
        out = ctx.sub(out, ctx.mul(ctx.from_int(2 * w), self.a0_a1))
        return ctx.add(out, ctx.mul(self.inv_s2, self.a0_sq))

    def weighted_pair(self, w1: int, w2: int):
        """weighted(w1) + weighted(w2), via the combined weight."""
        ctx = self.ctx
        out = ctx.mul(ctx.from_int(w1 * w1 + w2 * w2), self.a1_sq)
        out = ctx.sub(out, ctx.mul(ctx.from_int(2 * (w1 + w2)), self.a0_a1))
        two_inv_s2 = ctx.add(self.inv_s2, self.inv_s2)
        return ctx.add(out, ctx.mul(two_inv_s2, self.a0_sq))


def _pair_sums(consts: _Consts, m: int, M: int, table: BinomialTable) -> _BranchSums:
    row_m1 = table.row(m - 1)
    row_m = table.row(m)
    row_M = table.row(M)
    a0 = [row_m1[j - 1] * row_M[j - 1] for j in range(1, m + 1)]
    b1 = [row_m[j] * row_M[j - 1] for j in range(1, m + 1)]
    return _BranchSums(consts, m, a0, b1)


def _origin_sums(consts: _Consts, T: int, table: BinomialTable) -> _BranchSums:
    # origin branch of even times: squared binomial coefficients
    row_t1 = table.row(T - 1)
    row_t = table.row(T)
    a0 = [row_t1[j - 1] ** 2 for j in range(1, T + 1)]
    b1 = [row_t[j] * row_t1[j - 1] for j in range(1, T + 1)]
    return _BranchSums(consts, T, a0, b1)


def _check_completeness(ctx, totals) -> None:
    s = sum(ctx.to_float(v) for v in totals)
    if not math.isfinite(s) or abs(s - 1.0) > _COMPLETENESS_GUARD:
        raise PrecisionError(
            f"closed-form table sums to {s!r}, not 1: the alternating sums "
            "have exhausted this backend's precision; use a shorter time, "
            "double-double, or exact (pi/4) precision"
        )


def _to_prob(ctx, v) -> float:
    x = ctx.to_float(v)
    if not math.isfinite(x):
        raise PrecisionError("closed-form value is not finite")
    if x < 0.0:
        if x < -_NEG_CLAMP:
            raise PrecisionError(
                f"closed-form value {x!r} is negative beyond the clamp; "
                "increase precision"
            )
        return 0.0
    if x < _PROB_FLOOR:
        return 0.0
    return x


# ---------------------------------------------------------------------------
# line walk


def line_exact_values(coin: Coin, t: int, params: Optional[ExactParams] = None
                      ) -> dict[int, object]:
    """Backend-typed probability per position with positive probability.

    Values are floats, double-double pairs, or Fractions depending on the
    requested precision; ``line_exact`` wraps this into a Distribution.
    """
    if t < 1:
        raise ValueError(f"closed form needs t >= 1, got {t}")
    ctx = _resolve(coin, t, params)
    consts = _Consts(coin, ctx)
    table = binomial_table(t)
    pref = consts.prefactor(t - 1)
    out: dict[int, object] = {-t - 1: pref, -t: pref}
    for m in range(1, t // 2 + 1):
        sums = _pair_sums(consts, m, t - m - 1, table)
        right = ctx.mul(pref, sums.weighted(m))
        left = ctx.mul(pref, sums.weighted(t - m))
        out[t - 2 * m] = right
        out[t - 2 * m - 1] = right
        out[-(t - 2 * m) - 1] = left
        out[-(t - 2 * m)] = left
    _check_completeness(ctx, out.values())
    return out


def line_exact(coin: Coin, t: int, params: Optional[ExactParams] = None
               ) -> Distribution:
    """Line-walk distribution over all positions with positive probability.

    Total-only: no per-inner split exists for this walk's closed form.
    """
    ctx = _resolve(coin, t, params)
    vals = line_exact_values(coin, t, params)
    rows = tuple(
        DistributionRow(x=x, p0=None, p1=None, p=_to_prob(ctx, v))
        for x, v in sorted(vals.items())
    )
    return Distribution(kind=WalkKind.LINE, t=t, rows=rows)


# ---------------------------------------------------------------------------
# half-line walk


def half_line_exact_values(coin: Coin, t: int,
                           params: Optional[ExactParams] = None
                           ) -> dict[int, tuple]:
    """Per-position (inner0, inner1, total) backend-typed values.

    inner0 is None where only inner 1 is positive (the frontier pair). The
    total column is evaluated through its own combined weight, not by adding
    the inner columns, so the split consistency stays a real check.
    """
    if t < 1:
        raise ValueError(f"closed form needs t >= 1, got {t}")
    ctx = _resolve(coin, t, params)
    consts = _Consts(coin, ctx)
    table = binomial_table(t + 1)
    out: dict[int, tuple] = {}
    pref = consts.prefactor(t - 1)
    if t % 2 == 0:
        half = t // 2
        for m in range(1, half):
            sums = _pair_sums(consts, m, t - m - 1, table)
            v0 = ctx.mul(pref, sums.weighted(m))
            v1 = ctx.mul(pref, sums.weighted(t - m))
            vt = ctx.mul(pref, sums.weighted_pair(m, t - m))
            for x in (2 * (half - m), 2 * (half - m) - 1):
                out[x] = (v0, v1, vt)
        # origin term, even times only: both inners share one value
        sums = _origin_sums(consts, half, table)
        vo = ctx.mul(pref, sums.weighted(half))
        out[0] = (vo, vo, ctx.add(vo, vo))
    else:
        half = (t - 1) // 2
        for m in range(1, half + 1):
            sums = _pair_sums(consts, m, t - m - 1, table)
            v0 = ctx.mul(pref, sums.weighted(m))
            v1 = ctx.mul(pref, sums.weighted(t - m))
            vt = ctx.mul(pref, sums.weighted_pair(m, t - m))
            for x in (2 * (half - m) + 1, 2 * (half - m)):
                out[x] = (v0, v1, vt)
    # frontier pair carries inner 1 only
    out[t] = (None, pref, pref)
    out[t - 1] = (None, pref, pref)
    _check_completeness(ctx, (v[2] for v in out.values()))
    return out


def half_line_exact(coin: Coin, t: int,
                    params: Optional[ExactParams] = None) -> Distribution:
    """Both inner columns and the total from one closed-form evaluation.

    ``p0`` is None on the frontier pair, where only inner 1 is positive.
    """
    ctx = _resolve(coin, t, params)
    vals = half_line_exact_values(coin, t, params)
    rows = tuple(
        DistributionRow(
            x=x,
            p0=None if v0 is None else _to_prob(ctx, v0),
            p1=_to_prob(ctx, v1),
            p=_to_prob(ctx, vt),
        )
        for x, (v0, v1, vt) in sorted(vals.items())
    )
    return Distribution(kind=WalkKind.HALF_LINE, t=t, rows=rows)


def half_line_exact_by_inner(coin: Coin, t: int, inner: int,
                             params: Optional[ExactParams] = None
                             ) -> Distribution:
    """Positive probabilities of one inner component at time t."""
    if inner not in (0, 1):
        raise ValueError(f"inner must be 0 or 1, got {inner}")
    column = half_line_exact(coin, t, params).inner_dict(inner)
    rows = tuple(
        DistributionRow(x=x, p0=p if inner == 0 else None,
                        p1=p if inner == 1 else None, p=p)
        for x, p in column.items()
    )
    return Distribution(kind=WalkKind.HALF_LINE, t=t, rows=rows)


def half_line_exact_total(coin: Coin, t: int,
                          params: Optional[ExactParams] = None) -> Distribution:
    """Total probabilities (inner states summed) via the combined weights."""
    rows = tuple(
        DistributionRow(x=r.x, p0=None, p1=None, p=r.p)
        for r in half_line_exact(coin, t, params).rows
    )
    return Distribution(kind=WalkKind.HALF_LINE, t=t, rows=rows)
