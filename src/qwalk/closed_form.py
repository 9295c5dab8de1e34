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
C(m-1,j-1)/j = C(m,j)/m). Writing cos^2 = p/q and sin^2 = b/q over one
integer denominator, (-r)^j = u^j / p^j with u = -b, so N0 = p^m A0 and
N1 = p^m m A1 are integers: with M = t - m - 1,

    N0(m) = u F(m-1),   F(a) = sum_i C(a,i) C(t-2-a,i) u^i p^(a-i),
    N1(m) = G(m),       G(m) = sum_j C(m,j) C(M,j-1) u^j p^(m-j).

Both are hypergeometric in the branch index, so each branch follows from
the two before it by a three-term recurrence with the common divisor
d(m) = m (m - t + 1)(2m - t - 1):

    d(m) F(m)   = -(2m - t) [(t-1)((t-3)u + p) - 2(2u - p)(m-1)(t-1-m)] F(m-1)
                  - p^2 (m-1)(m-t)(2m-t+1) F(m-2),
    d(m) G(m+1) = -(2m - t) [(t^2-1)u - 2(2u - p) m (t-m)] G(m)
                  - p^2 m (m-t-1)(2m-t+1) G(m-1),

from F(-1) = G(0) = 0, F(0) = 1 and G(1) = u. For 1 <= m < t/2 the
divisor is a nonzero int and the quotient exact, so a branch costs O(1)
big-int operations instead of an O(m) sum over binomial coefficients.

Each table value is then one exact rational, whose denominator collects
the prefactor's 2 q^(t-1), the 1/s^2 = q/b and the m^2 p^(2m) of the two
sums, and it is rounded once to the requested precision: a correctly
rounded double, a double-double pair whose low part is the correctly
rounded remainder, or the exact Fraction where the two ``Coin.squares()``
sum to exactly 1 (a rational cos^2). The ``*_values`` functions take the
precision; the Distribution functions hold correctly rounded doubles,
which is what every precision gives once rounded to a double.

At the angles with rational cos^2 (pi/6, pi/4, pi/3, ...) p/q and b/q are
exact and b = q - p. At any other angle the model is the one the doubles
give: cos^2 and sin^2 are the exact squares of the double c and s, dyadic
rationals whose sum differs from 1 in the last bits. Their integers carry
about 106 bits per power of p, so a branch's integers have O(t) words. The
double and dd precisions round such a branch from the top bits of its
factors after one exact difference (``_Branch``), so every step of a
branch is linear in its size and a table grows about like t^2: 4-5 ms at
t = 200 and 0.07-0.08 s at t = 1000 on a 2-vCPU host, against 25-41 ms
and 1.9-2.4 s uncut. The exact precision is always uncut, and so are the
tables whose integers are too small for the cuts to pay (``_CUT_MIN_BITS``):
t < 20-26 at float angles, t < 1201 at pi/6 and pi/3, t < 2400 at pi/4.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from typing import Optional

from .core import _PROB_FLOOR, Coin, Distribution, WalkKind, _index, _inner

__all__ = [
    "ExactParams",
    "FormulaDomainError",
    "Precision",
    "PrecisionError",
    "half_line_exact",
    "half_line_exact_by_inner",
    "half_line_exact_total",
    "half_line_exact_values",
    "line_exact",
    "line_exact_values",
]

# the exact precision checks that a table sums to exactly 1; the float
# precisions check the sum of the rounded values against this bound. At a
# float angle c^2 + s^2 = 1 + d with |d| ~ 2^-52, and the model's own total
# is off by about t * d (2e-14 at t = 200).
_COMPLETENESS_GUARD = 1e-9


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
    """Evaluation request: angle, time, and the precision of the values."""

    theta: float
    t: int
    precision: Precision = Precision.DOUBLE_DOUBLE

    @classmethod
    def for_coin(cls, coin: Coin, t: int,
                 precision: Precision = Precision.DOUBLE_DOUBLE) -> "ExactParams":
        return cls(theta=coin.theta, t=t, precision=precision)


# ---------------------------------------------------------------------------
# integer sums, rounded once


def _dd_pair(num: int, den: int) -> tuple[float, float]:
    """num/den as a double-double (hi, lo): hi and the remainder
    num/den - hi, each correctly rounded, so the pair is within 2^-104 of
    num/den, relative."""
    hi = num / den
    hn, hd = hi.as_integer_ratio()
    return hi, (num * hd - hn * den) / (den * hd)


# int / int true division is correctly rounded
_ROUNDING = {
    Precision.DOUBLE: operator.truediv,
    Precision.DOUBLE_DOUBLE: _dd_pair,
    Precision.EXACT_Q2: Fraction,
}

# the float precisions round a value from the top W bits of its factors
# (_Branch): W per precision, so that the bracket, 2^(4-W) relative, is
# far inside the 2^-53 of a double or the 2^-106 a dd pair resolves
_CUT_BITS = {Precision.DOUBLE: 128, Precision.DOUBLE_DOUBLE: 200}
# tables whose 2 q^(t-1) has at most this many bits round the uncut
# products. Whole tables cost about the same either way at 2,400 bits, at
# float angles and at pi/6, pi/4 and pi/3 alike: there the cuts take
# 0.88-0.93 times as long as the uncut products at double and 1.00-1.09
# times at dd; at 2,000 bits 0.95-1.19 times, at 2,500 bits 0.77-1.04 and
# at 3,000 bits 0.68-0.88 (theta = 1.0 and 0.3 at t = 20-30, pi/3 and
# pi/6 at t = 1000-1500, pi/4 at t = 2000-3000)
_CUT_MIN_BITS = 2400
# the largest q^(t-1) a table may build: 100 times the 10^6 bits of a
# table at theta = 1.0, t = 10^4, and far below what exhausts memory, so
# an oversized t is refused before the power is taken
_MAX_PREF_BITS = 10 ** 8
_NORMAL_MIN = 2.0 ** -1022  # the smallest normal double


def _top(x: int, bits: int) -> tuple[int, int]:
    """x >= 0 cut to its top bits: (x >> s, s) with
    s = max(bitlen(x) - bits, 0)."""
    s = max(x.bit_length() - bits, 0)
    return x >> s, s


def _resolve(coin: Coin, t: int, params: Optional[ExactParams]
             ) -> "_RationalConsts":
    """The constants of one table for the requested precision."""
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
    cos2, sin2 = coin.squares()
    if precision is Precision.EXACT_Q2 and cos2 + sin2 != 1:
        raise ValueError("exact rational evaluation needs rational cos^2: "
                         "theta a pi fraction with denominator 3, 4 or 6")
    return _RationalConsts(cos2, sin2, t, precision)


class _RationalConsts:
    """Constants of one table, with cos^2 = p/q and sin^2 = b/q.

    At the rational-cos^2 angles b = q - p; at float angles p + b differs
    from q in the last bits of the doubles.
    """

    def __init__(self, cos2: Fraction, sin2: Fraction, t: int,
                 precision: Precision) -> None:
        q = math.lcm(cos2.denominator, sin2.denominator)
        self.p = cos2.numerator * (q // cos2.denominator)
        self.b = sin2.numerator * (q // sin2.denominator)
        self.q = q
        self.u = -self.b  # (-r)^j = u^j / p^j
        self.t = t
        self.precision = precision
        self.round = _ROUNDING[precision]
        if (t - 1) * q.bit_length() > _MAX_PREF_BITS:
            raise MemoryError(
                f"a closed-form table at t = {t} needs q^(t-1) of about "
                f"{(t - 1) * q.bit_length()} bits, over the "
                f"{_MAX_PREF_BITS}-bit cap")
        # the prefactor c^(2(t-1)) / 2
        self.pref_den = 2 * q ** (t - 1)
        self.pref = self.round(self.p ** (t - 1), self.pref_den)
        # every table value is power K / (den m^2): power = p^(t-2m), K the
        # branch's weight and den = pref_den b p (_Branch)
        self.den = self.pref_den * self.b * self.p
        self.qb = q - self.b
        self.cut_bits = (None if self.pref_den.bit_length() <= _CUT_MIN_BITS
                         else _CUT_BITS.get(precision))
        if self.cut_bits is not None:
            self.cut_qb = _top(self.qb, self.cut_bits)
            self.cut_b = _top(self.b, self.cut_bits)
            self.cut_den = _top(self.den, self.cut_bits)
            self.slack = 1 << (self.cut_bits - 4)

    def check_completeness(self, totals) -> None:
        """The table must sum to 1: exactly at the exact precision, else
        within the float guard."""
        totals = list(totals)
        if self.precision is not Precision.EXACT_Q2:
            s = sum(v[0] if isinstance(v, tuple) else v for v in totals)
            if abs(s - 1.0) > _COMPLETENESS_GUARD:
                raise PrecisionError(
                    f"closed-form table sums to {s!r}, not 1"
                )
            return
        # every denominator divides den * lcm(m^2) over the branches, so
        # the numerators add over that common denominator
        common = self.den * math.lcm(*range(1, self.t // 2 + 1)) ** 2
        scaled = [divmod(v.numerator * common, v.denominator) for v in totals]
        if any(rest for _, rest in scaled) or sum(k for k, _ in scaled) != common:
            raise PrecisionError(
                f"exact closed-form table sums to 1 + "
                f"{float(sum(totals) - 1)!r}, not 1"
            )


class _Branch:
    """One branch on Python ints: N0 = p^m A0 and N1 = p^m m A1.

    The weight w^2 A1^2 - 2w A0 A1 + A0^2 / s^2 is K / (m^2 p^(2m) b), with
    K a sum of non-negative terms, as b / q = s^2 <= 1:

        K = b d^2 + m^2 N0^2 (q - b),   d = w N1 - m N0.

    With the prefactor p^(t-1) / pref_den a value is power K / (den m^2),
    power = p^(t-2m) and den = pref_den b p, rounded once; two w's give the
    sum of their K's, rounded once. _uncut rounds these products, alone at
    the exact precision and for small integers (cut_bits None). _bracketed
    keeps d exact and cuts |d|, N0, b, q - b, power and den to their top W
    bits: x' = (x >> s) << s, s = max(bitlen(x) - W, 0), so that
    x' <= x < x' (1 + eps) with eps = 2^(1-W).
    - Each term of K has three cut factors (d twice and b, or N0 twice and
      q - b), so the cut weight is in (K (1 + eps)^-3, K].
    - With the cut power the numerator has four cuts, and the denominator
      has one.
    - So the exact value V and the value A of the cut factors satisfy
      (1 + eps)^-1 < V / A < (1 + eps)^4, and V is strictly inside the
      bracket A (1 -+ 2^(4-W)).
    The power is exact, carried from branch to branch by exact division,
    and cut once, so the bracket does not widen with t.

    Rounding to nearest is monotone, and so is the remainder V - hi once hi
    is fixed. So when both ends of the bracket round to the same double, or
    to the same (hi, lo) pair, V rounds to it too: the value is the exact
    rational rounded once. Where the ends differ, or where the value is
    below the normal range of the doubles and not zero, _uncut gives it
    instead. A zero needs no fallback: V is below the bracket's upper end,
    and where that end rounds to zero it is at most 2^-1075, so V rounds to
    zero too.
    """

    def __init__(self, consts: _RationalConsts, m: int, n0: int, n1: int,
                 power: int) -> None:
        self.consts = consts
        self.m, self.n1, self.mn0, self.power = m, n1, m * n0, power
        # m^2 N0^2 (q - b), den m^2 and each w's K, on first uncut use
        self.term0, self.ks = None, {}
        bits = consts.cut_bits
        if bits is not None:
            y, sy = _top(abs(n0), bits)
            qb, sqb = consts.cut_qb
            self.cut_term0 = (m * m * y * y * qb, 2 * sy + sqb)
            # the cut value is cut_num K' 2^cut_shift / cut_den, and
            # cut_den carries the 2^(W-4) of the bracket's ends
            self.cut_num, spw = _top(power, bits)
            den, sden = consts.cut_den
            self.cut_den = den * m * m << (bits - 4)
            self.cut_shift = spw - sden

    def weighted(self, *ws: int):
        """prefactor * the summed weight of one or two w's."""
        value = self._bracketed(ws) if self.consts.cut_bits else None
        return self._uncut(ws) if value is None else value

    def _uncut(self, ws):
        """The value rounded from the uncut products. Each w's K is kept,
        as the half line asks for it again in its total."""
        consts, m, mn0, ks = self.consts, self.m, self.mn0, self.ks
        if self.term0 is None:
            self.term0, self.den = mn0 * mn0 * consts.qb, consts.den * m * m
        k = 0
        for w in ws:
            if w not in ks:
                d = w * self.n1 - mn0
                ks[w] = consts.b * d * d + self.term0
            k += ks[w]
        return consts.round(self.power * k, self.den)

    def _bracketed(self, ws):
        """The value rounded from the cut factors, or None where the ends
        of its bracket differ or it is below the normal range but not
        zero."""
        consts = self.consts
        bits = consts.cut_bits
        b, sb = consts.cut_b
        weight, low = self.cut_term0
        weight *= len(ws)
        for w in ws:
            d = abs(w * self.n1 - self.mn0)
            sd = max(d.bit_length() - bits, 0)
            s = sb + 2 * sd
            if s < low:
                weight, low = weight << (low - s), s
            d >>= sd
            weight += b * d * d << (s - low)
        num, den = weight * self.cut_num, self.cut_den
        shift = self.cut_shift + low
        if shift >= 0:
            num <<= shift
        else:
            den <<= -shift
        value = consts.round(num * (consts.slack - 1), den)
        if value != consts.round(num * (consts.slack + 1), den):
            return None
        head = value[0] if isinstance(value, tuple) else value
        return value if head >= _NORMAL_MIN or not head else None


def _sums(consts: _RationalConsts, t: int):
    """(m, N0, N1) for the branches m = 1..t//2, each pair from the two
    before it by the recurrences of the module docstring.

    Both recurrences share the divisor m (m - t + 1)(2m - t - 1), a nonzero
    int for 1 <= m < t/2, and every quotient is exact; a remainder would
    mean a wrong value, so it raises rather than rounds.
    """
    p, u = consts.p, consts.u
    pp, v = p * p, 2 * (2 * u - p)
    cf = (t - 1) * ((t - 3) * u + p)
    cg = (t * t - 1) * u
    f_prev, f, g_prev, g = 0, 1, 0, u  # F(m-2), F(m-1), G(m-1), G(m)
    for m in range(1, t // 2 + 1):
        yield m, u * f, g
        if 2 * m + 2 > t:
            return
        d = m * (m - t + 1) * (2 * m - t - 1)
        f_next, rf = divmod(
            -(2 * m - t) * (cf - v * (m - 1) * (t - 1 - m)) * f
            - pp * (m - 1) * (m - t) * (2 * m - t + 1) * f_prev, d)
        g_next, rg = divmod(
            -(2 * m - t) * (cg - v * m * (t - m)) * g
            - pp * m * (m - t - 1) * (2 * m - t + 1) * g_prev, d)
        if rf or rg:
            raise PrecisionError(f"branch recurrence left a remainder at "
                                 f"t = {t}, m = {m + 1}")
        f_prev, f, g_prev, g = f, f_next, g, g_next


def _to_prob(x: float) -> float:
    # every value is >= 0: pref * ((w A1 - A0)^2 + A0^2 (1/s^2 - 1)), s^2 <= 1
    return 0.0 if x < _PROB_FLOOR else x


# ---------------------------------------------------------------------------
# line walk


def line_exact_values(coin: Coin, t: int, params: Optional[ExactParams] = None
                      ) -> dict[int, object]:
    """Precision-typed probability per position with positive probability.

    Values are floats, double-double pairs, or Fractions depending on the
    requested precision; ``line_exact`` wraps this into a Distribution.
    They are the inner columns of ``half_line_exact_values`` relabelled
    (theorem1): the line at x >= 0 is inner 0 at x, at -x - 1 inner 1 at x.
    The half line's completeness check is the line's: inner 0 + inner 1 ==
    total as Fractions, and the float totals, each correctly rounded, sum
    within about 2t + 2 roundings of the inner columns' sum, far inside
    ``_COMPLETENESS_GUARD``.
    """
    half = half_line_exact_values(coin, t, params)
    out = {-x - 1: v1 for x, (_, v1, _) in half.items()}
    out.update((x, v0) for x, (v0, _, _) in half.items() if v0 is not None)
    return out


def _line_of(half: Distribution) -> Distribution:
    """The line's Distribution relabelled from the half line's at the same t,
    as in `line_exact_values`: the line's -t-1..-1 are inner 1 at t..0, and
    its 0..t are inner 0 at 0..t, 0.0 on the frontier pair."""
    p = tuple(reversed(half.p1)) + half.p0
    none = (None,) * len(p)
    return Distribution(WalkKind.LINE, half.t, none, none, p)


def line_exact(coin: Coin, t: int) -> Distribution:
    """Line-walk distribution over the window -t-1..t. The walk never
    reaches t-1 and t, which hold exactly 0.0.

    Total-only: no per-inner split exists for this walk's closed form.
    """
    return _line_of(half_line_exact(coin, t))


# ---------------------------------------------------------------------------
# half-line walk


def half_line_exact_values(coin: Coin, t: int,
                           params: Optional[ExactParams] = None
                           ) -> dict[int, tuple]:
    """Per-position (inner0, inner1, total) precision-typed values.

    inner0 is None where only inner 1 is positive (the frontier pair). The
    total column is evaluated through its own combined weight, not by adding
    the inner columns, so the split consistency stays a real check.

    Branch m = 1..t//2 gives the values at x = t - 2m and x - 1, from its
    `_sums` and p^(t-2m), carried down by exact division. This is the one
    branch loop: the line's table is this one relabelled.
    """
    t = _index("t", t, 1)
    consts = _resolve(coin, t, params)
    power, pp = consts.p ** max(t - 2, 0), consts.p ** 2
    out: dict[int, tuple] = {}
    for m, n0, n1 in _sums(consts, t):
        sums = _Branch(consts, m, n0, n1, power)
        power //= pp
        vals = (sums.weighted(m), sums.weighted(t - m),
                sums.weighted(m, t - m))
        x = t - 2 * m
        out[x] = vals
        if x > 0:
            out[x - 1] = vals
    # frontier pair carries inner 1 only
    out[t] = out[t - 1] = (None, consts.pref, consts.pref)
    consts.check_completeness(v[2] for v in out.values())
    return out


def half_line_exact(coin: Coin, t: int) -> Distribution:
    """Both inner columns and the total over 0..t from one closed-form
    evaluation.

    ``p0`` is 0.0 on the frontier pair, where only inner 1 is positive.
    """
    t = _index("t", t, 1)
    vals = half_line_exact_values(
        coin, t, ExactParams.for_coin(coin, t, Precision.DOUBLE))
    v0s, v1s, vts = zip(*(vals[x] for x in range(t + 1)))
    return Distribution(
        WalkKind.HALF_LINE, t,
        p0=tuple(0.0 if v is None else _to_prob(v) for v in v0s),
        p1=tuple(map(_to_prob, v1s)), p=tuple(map(_to_prob, vts)))


def half_line_exact_by_inner(coin: Coin, t: int, inner: int) -> Distribution:
    """Probabilities of one inner component over the window 0..t; inner 0
    is 0.0 on the frontier pair.

    ``p`` repeats the inner column and the other inner is None.
    """
    inner = _inner(inner)
    dist = half_line_exact(coin, t)
    p = dist.p1 if inner else dist.p0
    none = (None,) * len(p)
    return replace(dist, p0=none if inner else p, p1=p if inner else none,
                   p=p)


def half_line_exact_total(coin: Coin, t: int) -> Distribution:
    """Total probabilities (inner states summed) via the combined weights."""
    dist = half_line_exact(coin, t)
    none = (None,) * len(dist.p)
    return replace(dist, p0=none, p1=none)
