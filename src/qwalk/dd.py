"""Double-double arithmetic: unevaluated sums hi + lo of two floats.

Gives ~31 significant decimal digits. Values are plain (hi, lo) tuples, the
form in which the closed forms return their `dd` values. The closed forms
round each exact rational to such a pair themselves; `from_fraction` and
`to_fraction` convert between pairs and Fractions, the reference that pairs
are checked against. The error-free transforms (Dekker/Knuth) and the
accurate compound operations are kept as reference arithmetic.

Integers of magnitude below 2^106 convert exactly, and sums of such integers
accumulate exactly as long as every partial sum stays below 2^106.
"""
from __future__ import annotations

from fractions import Fraction

_SPLITTER = 134217729.0  # 2^27 + 1
_SPLIT_THRESH = 6.69692879491417e299  # 2^996
_SPLIT_SCALE_DOWN = 3.7252902984619140625e-09  # 2^-28
_SPLIT_SCALE_UP = 268435456.0  # 2^28

DD = tuple  # (hi, lo) with |lo| <= ulp(hi)/2

ZERO: DD = (0.0, 0.0)
ONE: DD = (1.0, 0.0)


def two_sum(a: float, b: float) -> DD:
    """a + b = s + e exactly (Knuth)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def quick_two_sum(a: float, b: float) -> DD:
    """a + b = s + e exactly, assuming |a| >= |b| (Dekker)."""
    s = a + b
    return s, b - (s - a)


def _split(a: float) -> DD:
    # Dekker split into two 26/27-bit halves; rescale to dodge overflow.
    if abs(a) > _SPLIT_THRESH:
        a *= _SPLIT_SCALE_DOWN
        t = _SPLITTER * a
        hi = t - (t - a)
        return hi * _SPLIT_SCALE_UP, (a - hi) * _SPLIT_SCALE_UP
    t = _SPLITTER * a
    hi = t - (t - a)
    return hi, a - hi


def two_prod(a: float, b: float) -> DD:
    """a * b = p + e exactly (Dekker product)."""
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def add(x: DD, y: DD) -> DD:
    s1, s2 = two_sum(x[0], y[0])
    t1, t2 = two_sum(x[1], y[1])
    s2 += t1
    s1, s2 = quick_two_sum(s1, s2)
    s2 += t2
    return quick_two_sum(s1, s2)


def neg(x: DD) -> DD:
    return (-x[0], -x[1])


def mul(x: DD, y: DD) -> DD:
    p1, p2 = two_prod(x[0], y[0])
    p2 += x[0] * y[1] + x[1] * y[0]
    return quick_two_sum(p1, p2)


def mul_float(x: DD, d: float) -> DD:
    p1, p2 = two_prod(x[0], d)
    p2 += x[1] * d
    return quick_two_sum(p1, p2)


def div(x: DD, y: DD) -> DD:
    q1 = x[0] / y[0]
    r = add(x, neg(mul_float(y, q1)))
    q2 = r[0] / y[0]
    r = add(r, neg(mul_float(y, q2)))
    q3 = r[0] / y[0]
    q1, q2 = quick_two_sum(q1, q2)
    return add((q1, q2), (q3, 0.0))


def from_int(n: int) -> DD:
    """Exact for |n| < 2^106; correctly rounded beyond."""
    hi = float(n)
    lo = float(n - int(hi))
    return quick_two_sum(hi, lo)


def from_fraction(q: Fraction) -> DD:
    hi = float(q)
    lo = float(q - Fraction(hi))
    return quick_two_sum(hi, lo)


def to_fraction(x: DD) -> Fraction:
    """Exact rational value of the pair (both halves are dyadic)."""
    # the denominators are powers of two: add over the larger one
    (n1, d1), (n2, d2) = x[0].as_integer_ratio(), x[1].as_integer_ratio()
    if d1 < d2:
        n1, d1, n2, d2 = n2, d2, n1, d1
    return Fraction(n1 + n2 * (d1 // d2), d1)
