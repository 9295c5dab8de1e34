import math
from fractions import Fraction

import pytest

from qwalk import make_coin, make_coin_pi


def _spread_grid(n: int) -> tuple[float, ...]:
    """n angles spread over (0, 2*pi), nudged away from multiples of pi/2."""
    out = []
    step = (2 * math.pi - 0.24) / (n - 1)
    for k in range(n):
        th = 0.12 + k * step
        frac = th % (math.pi / 2)
        if min(frac, math.pi / 2 - frac) < 0.1:
            th += 0.13
        out.append(th)
    return tuple(out)


THETA_GRID_20 = _spread_grid(20)


def quick_two_sum(a: float, b: float) -> tuple[float, float]:
    """a + b = s + e exactly, assuming |a| >= |b| (Dekker)."""
    s = a + b
    return s, b - (s - a)


def from_fraction(q: Fraction) -> tuple[float, float]:
    """q as a double-double pair: float(q) and the rounded remainder, the
    reference the closed forms' dd values are checked against."""
    hi = float(q)
    lo = float(q - Fraction(hi))
    return quick_two_sum(hi, lo)


def assert_same_fraction(got, want: Fraction) -> None:
    """got is a Fraction in the same lowest terms as want: equal, with the
    same hash, str, numerator and denominator."""
    assert type(got) is Fraction
    assert got == want
    assert hash(got) == hash(want)
    assert str(got) == str(want)
    assert (got.numerator, got.denominator) == (want.numerator,
                                                want.denominator)


ROUTE_THETAS = (
    math.pi / 6,
    math.pi / 4,
    math.pi / 3,
    1.0,
    0.3,
    2.0,
)


@pytest.fixture(scope="session")
def canonical_coins():
    from fractions import Fraction

    return (
        make_coin_pi(Fraction(1, 6)),
        make_coin_pi(Fraction(1, 4)),
        make_coin_pi(Fraction(1, 3)),
        make_coin(1.0),
    )


@pytest.fixture(scope="session")
def pi4_coin():
    from fractions import Fraction

    return make_coin_pi(Fraction(1, 4))


@pytest.fixture(scope="session")
def pi3_coin():
    from fractions import Fraction

    return make_coin_pi(Fraction(1, 3))
