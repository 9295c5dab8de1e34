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

Two float backends run this evaluation term by term through an arithmetic
context: plain doubles (adequate to t ~ 30) and double-double (the default;
adequate to a few hundred steps at the canonical angles). The exact backend
(theta = pi/4 only) writes cos^2 = p/q, so that (-r)^j = u^j / p^j with
u = -(q - p): p^m A0 and p^m m A1 are then Horner sums in u over Python ints,
with the powers of p folded into the coefficients. Each table value becomes
one Fraction; its denominator collects the prefactor's q^(t-1), the
1/s^2 = q/(q - p) and the m^2 p^(2m) of the two sums.
"""
from __future__ import annotations

import math
import operator
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
        self.ensure(n_max)

    @property
    def n_max(self) -> int:
        return len(self._rows) - 1

    def ensure(self, n_max: int) -> None:
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


class _DDCtx:
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


_CTXS = {
    Precision.DOUBLE: _DoubleCtx,
    Precision.DOUBLE_DOUBLE: _DDCtx,
}


def _resolve(coin: Coin, t: int, params: Optional[ExactParams]):
    """The constants of one table for the requested backend."""
    if params is None:
        params = ExactParams.for_coin(coin, t)
    if params.t != t:
        raise ValueError(f"params.t = {params.t} disagrees with t = {t}")
    if abs(params.theta - coin.theta) > 1e-12:
        raise ValueError("params.theta disagrees with the coin angle")
    if coin.is_degenerate():
        raise FormulaDomainError(
            "closed forms require theta not a multiple of pi/2"
        )
    precision = Precision(params.precision)
    if precision is not Precision.EXACT_Q2:
        return _Consts(coin, _CTXS[precision], t)
    if coin.pi_fraction is None or (coin.pi_fraction % 2) != Fraction(1, 4):
        raise ValueError(
            "exact rational evaluation is supported only at theta = pi/4"
        )
    return _RationalConsts(coin.cos2_exact(), t)


class _Consts:
    """Float-backend constants of one table: -r, 1/s^2, the prefactor
    c^(2(t-1)) / 2, and (-r)^j powers."""

    def __init__(self, coin: Coin, ctx, t: int) -> None:
        self.ctx = ctx
        cos2 = coin.cos2_exact()
        if cos2 is not None:
            c2 = ctx.from_fraction(cos2)
            s2 = ctx.from_fraction(1 - cos2)
        else:
            c = ctx.from_float(coin.c)
            s = ctx.from_float(coin.s)
            c2 = ctx.mul(c, c)
            s2 = ctx.mul(s, s)
        self.inv_s2 = ctx.div(ctx.one, s2)
        self.neg_r = ctx.neg(ctx.div(s2, c2))
        self._pows = [ctx.one]
        self.add = ctx.add
        self.pref = ctx.mul(ctx.ipow(c2, t - 1), ctx.from_fraction(Fraction(1, 2)))
        if ctx.to_float(self.pref) == 0.0:
            raise PrecisionError(
                "prefactor underflowed to zero; time too large for this backend"
            )

    def neg_r_pow(self, j: int):
        while len(self._pows) <= j:
            self._pows.append(self.ctx.mul(self._pows[-1], self.neg_r))
        return self._pows[j]

    def branch(self, m: int, coeffs_a0, coeffs_b1) -> "_BranchSums":
        return _BranchSums(self, m, coeffs_a0, coeffs_b1)

    def check_completeness(self, totals) -> None:
        s = sum(self.ctx.to_float(v) for v in totals)
        if not math.isfinite(s) or abs(s - 1.0) > _COMPLETENESS_GUARD:
            raise PrecisionError(
                f"closed-form table sums to {s!r}, not 1: the alternating sums "
                "have exhausted this backend's precision; use a shorter time, "
                "double-double, or exact (pi/4) precision"
            )


class _BranchSums:
    """The factored sums A0, A1 of one branch, pre-combined into products.

    ``coeffs_a0[j-1]`` and ``coeffs_b1[j-1]`` are the integer coefficients of
    (-r)^j in A0 and in m*A1 respectively. ``weighted`` and
    ``weighted_pair`` return table values: the prefactor is applied.
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
        self.pref = consts.pref
        self.inv_s2 = consts.inv_s2
        self.a1_sq = ctx.mul(a1, a1)
        self.a0_a1 = ctx.mul(a0, a1)
        self.a0_sq = ctx.mul(a0, a0)

    def weighted(self, w: int):
        """prefactor * (w^2 A1^2 - 2w A0 A1 + A0^2 / s^2)."""
        ctx = self.ctx
        out = ctx.mul(ctx.from_int(w * w), self.a1_sq)
        out = ctx.sub(out, ctx.mul(ctx.from_int(2 * w), self.a0_a1))
        return ctx.mul(self.pref, ctx.add(out, ctx.mul(self.inv_s2, self.a0_sq)))

    def weighted_pair(self, w1: int, w2: int):
        """weighted(w1) + weighted(w2), via the combined weight."""
        ctx = self.ctx
        out = ctx.mul(ctx.from_int(w1 * w1 + w2 * w2), self.a1_sq)
        out = ctx.sub(out, ctx.mul(ctx.from_int(2 * (w1 + w2)), self.a0_a1))
        two_inv_s2 = ctx.add(self.inv_s2, self.inv_s2)
        return ctx.mul(self.pref, ctx.add(out, ctx.mul(two_inv_s2, self.a0_sq)))


class _RationalConsts:
    """Exact-backend constants of one table, with cos^2 theta = p/q."""

    add = staticmethod(operator.add)

    def __init__(self, cos2: Fraction, t: int) -> None:
        self.p, self.q = cos2.numerator, cos2.denominator
        self.u = -(self.q - self.p)  # (-r)^j = u^j / p^j
        self.pref = Fraction(self.p ** (t - 1), 2 * self.q ** (t - 1))

    def branch(self, m: int, coeffs_a0, coeffs_b1) -> "_IntegerBranch":
        return _IntegerBranch(self, m, coeffs_a0, coeffs_b1)

    @staticmethod
    def check_completeness(totals) -> None:
        s = sum(totals)
        if s != 1:
            raise PrecisionError(
                f"exact closed-form table sums to 1 + {float(s - 1)!r}, not 1"
            )


class _IntegerBranch:
    """One branch on Python ints: N0 = p^m A0 and N1 = p^m m A1.

    With D = m^2 p^(2m) (q - p), the weight w^2 A1^2 - 2w A0 A1 + A0^2 / s^2
    is (w^2 k1 - w k01 + k0) / D, so a table value is a single Fraction with
    the prefactor's numerator above and its denominator times D below.
    """

    def __init__(self, consts: _RationalConsts, m: int,
                 coeffs_a0, coeffs_b1) -> None:
        p, q, u = consts.p, consts.q, consts.u
        n0 = n1 = 0
        pw = 1  # j = m down to 1: coefficient j carries p^(m-j)
        for c0, c1 in zip(reversed(coeffs_a0), reversed(coeffs_b1)):
            n0 = n0 * u + c0 * pw
            n1 = n1 * u + c1 * pw
            pw *= p
        n0 *= u
        n1 *= u
        self.num = consts.pref.numerator
        self.den = consts.pref.denominator * m * m * p ** (2 * m) * (q - p)
        self.k1 = n1 * n1 * (q - p)
        self.k01 = 2 * m * n0 * n1 * (q - p)
        self.k0 = m * m * q * n0 * n0

    def weighted(self, w: int) -> Fraction:
        """prefactor * (w^2 A1^2 - 2w A0 A1 + A0^2 / s^2)."""
        return Fraction(self.num * (w * w * self.k1 - w * self.k01 + self.k0),
                        self.den)

    def weighted_pair(self, w1: int, w2: int) -> Fraction:
        """weighted(w1) + weighted(w2), via the combined weight."""
        k = (w1 * w1 + w2 * w2) * self.k1 - (w1 + w2) * self.k01 + 2 * self.k0
        return Fraction(self.num * k, self.den)


def _pair_sums(consts, m: int, M: int, table: BinomialTable):
    row_m1 = table.row(m - 1)
    row_m = table.row(m)
    row_M = table.row(M)
    a0 = [row_m1[j - 1] * row_M[j - 1] for j in range(1, m + 1)]
    b1 = [row_m[j] * row_M[j - 1] for j in range(1, m + 1)]
    return consts.branch(m, a0, b1)


def _origin_sums(consts, T: int, table: BinomialTable):
    # origin branch of even times: squared binomial coefficients
    row_t1 = table.row(T - 1)
    row_t = table.row(T)
    a0 = [row_t1[j - 1] ** 2 for j in range(1, T + 1)]
    b1 = [row_t[j] * row_t1[j - 1] for j in range(1, T + 1)]
    return consts.branch(T, a0, b1)


def _to_prob(v) -> float:
    x = dd.to_float(v) if isinstance(v, tuple) else float(v)
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
    consts = _resolve(coin, t, params)
    table = binomial_table(t)
    pref = consts.pref
    out: dict[int, object] = {-t - 1: pref, -t: pref}
    for m in range(1, t // 2 + 1):
        sums = _pair_sums(consts, m, t - m - 1, table)
        right = sums.weighted(m)
        left = sums.weighted(t - m)
        out[t - 2 * m] = right
        out[t - 2 * m - 1] = right
        out[-(t - 2 * m) - 1] = left
        out[-(t - 2 * m)] = left
    consts.check_completeness(out.values())
    return out


def line_exact(coin: Coin, t: int, params: Optional[ExactParams] = None
               ) -> Distribution:
    """Line-walk distribution over all positions with positive probability.

    Total-only: no per-inner split exists for this walk's closed form.
    """
    vals = line_exact_values(coin, t, params)
    rows = tuple(
        DistributionRow(x=x, p0=None, p1=None, p=_to_prob(v))
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
    consts = _resolve(coin, t, params)
    table = binomial_table(t + 1)
    out: dict[int, tuple] = {}
    pref = consts.pref
    if t % 2 == 0:
        half = t // 2
        for m in range(1, half):
            sums = _pair_sums(consts, m, t - m - 1, table)
            v0 = sums.weighted(m)
            v1 = sums.weighted(t - m)
            vt = sums.weighted_pair(m, t - m)
            for x in (2 * (half - m), 2 * (half - m) - 1):
                out[x] = (v0, v1, vt)
        # origin term, even times only: both inners share one value
        sums = _origin_sums(consts, half, table)
        vo = sums.weighted(half)
        out[0] = (vo, vo, consts.add(vo, vo))
    else:
        half = (t - 1) // 2
        for m in range(1, half + 1):
            sums = _pair_sums(consts, m, t - m - 1, table)
            v0 = sums.weighted(m)
            v1 = sums.weighted(t - m)
            vt = sums.weighted_pair(m, t - m)
            for x in (2 * (half - m) + 1, 2 * (half - m)):
                out[x] = (v0, v1, vt)
    # frontier pair carries inner 1 only
    out[t] = (None, pref, pref)
    out[t - 1] = (None, pref, pref)
    consts.check_completeness(v[2] for v in out.values())
    return out


def half_line_exact(coin: Coin, t: int,
                    params: Optional[ExactParams] = None) -> Distribution:
    """Both inner columns and the total from one closed-form evaluation.

    ``p0`` is None on the frontier pair, where only inner 1 is positive.
    """
    vals = half_line_exact_values(coin, t, params)
    rows = tuple(
        DistributionRow(
            x=x,
            p0=None if v0 is None else _to_prob(v0),
            p1=_to_prob(v1),
            p=_to_prob(vt),
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
