"""Double-double pairs: unevaluated sums hi + lo of two floats.

Gives ~31 significant decimal digits. Values are plain (hi, lo) tuples, the
form in which the closed forms return their `dd` values. The closed forms
round each exact rational to such a pair themselves; `to_fraction` gives a
pair's exact value, to check it against a reference Fraction.
"""
from __future__ import annotations

from fractions import Fraction

from .qfield import _dyadic

DD = tuple  # (hi, lo) with |lo| <= ulp(hi)/2


def to_fraction(x: DD) -> Fraction:
    """Exact rational value of the pair, in lowest terms.

    Both halves are dyadic, so the sum is reduced with qfield's shift.
    """
    # the denominators are powers of two: add over the larger one
    (n1, d1), (n2, d2) = x[0].as_integer_ratio(), x[1].as_integer_ratio()
    if d1 < d2:
        n1, d1, n2, d2 = n2, d2, n1, d1
    return _dyadic(n1 + n2 * (d1 // d2), d1.bit_length() - 1)
