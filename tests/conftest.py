import math
from fractions import Fraction

import numpy as np
import pytest

from qwalk import State, WalkKind, initial, make_coin, make_coin_pi


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

TINY = np.finfo(np.float64).tiny


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


def reference_half_line_step(state, coin):
    """Complex-arithmetic step, one fresh window per step."""
    a0 = coin.c * state.amps[:, 0] + coin.s * state.amps[:, 1]
    a1 = coin.s * state.amps[:, 0] - coin.c * state.amps[:, 1]
    n = state.t + 2
    amps = np.zeros((n, 2), dtype=np.complex128)
    amps[: n - 2, 0] = a0[1:]
    amps[0, 1] = a0[0]
    amps[1:, 1] = a1
    return State(WalkKind.HALF_LINE, state.t + 1, amps)


def reference_line_step(state, coin):
    """Complex-arithmetic step, one fresh window per step."""
    a0 = coin.c * state.amps[:, 0] + coin.s * state.amps[:, 1]
    a1 = coin.s * state.amps[:, 0] - coin.c * state.amps[:, 1]
    old = state.amps.shape[0]
    amps = np.zeros((old + 2, 2), dtype=np.complex128)
    # new window starts one position further left: new_index = old_index for
    # the left-movers, old_index + 2 for the right-movers
    amps[:old, 0] = a0
    amps[2 : old + 2, 1] = a1
    return State(WalkKind.LINE, state.t + 1, amps)


REFERENCE = {
    WalkKind.HALF_LINE: reference_half_line_step,
    WalkKind.LINE: reference_line_step,
}


def reference_states(kind, coin, steps):
    step = REFERENCE[kind]
    state = initial(kind, coin)
    yield state
    for _ in range(steps):
        state = step(state, coin)
        yield state


def trimmed_reference_states(kind, coin, steps):
    """The reference states with the kernel's trims applied.

    After every 64th step, once that state is yielded, every site before
    the first or after the last site with a normal component is set to
    zero; the half line keeps its sites from the boundary on.
    """
    step = REFERENCE[kind]
    state = initial(kind, coin)
    yield state
    for t in range(1, steps + 1):
        state = step(state, coin)
        yield state
        if t % 64 == 0:
            normal = np.flatnonzero(
                (np.abs(state.amps.view(np.float64)) >= TINY).any(axis=1))
            first = 0 if kind is WalkKind.HALF_LINE else normal[0]
            amps = np.zeros_like(state.amps)
            amps[first:normal[-1] + 1] = state.amps[first:normal[-1] + 1]
            state = State(kind, t, amps)
