"""Double-double pairs: unevaluated sums hi + lo of two floats.

Gives ~31 significant decimal digits. Values are plain (hi, lo) tuples, the
form in which the closed forms return their `dd` values. The closed forms
round each exact rational to such a pair themselves; `from_fraction` and
`to_fraction` convert between pairs and Fractions, the reference that pairs
are checked against.
"""
from __future__ import annotations

from fractions import Fraction

DD = tuple  # (hi, lo) with |lo| <= ulp(hi)/2


def quick_two_sum(a: float, b: float) -> DD:
    """a + b = s + e exactly, assuming |a| >= |b| (Dekker)."""
    s = a + b
    return s, b - (s - a)


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
