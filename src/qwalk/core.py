"""Domain types for the coined walk: coins, walk states, distributions.

Positions on the half line are 0, 1, 2, ...; positions on the line are all
integers. A state stores one complex amplitude pair per position of its
support window (inner components 0 and 1); everything outside the window is
implicitly zero. States are immutable value objects.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Union

import numpy as np

SQRT1_2 = math.sqrt(0.5)

# cos^2 of pi*p/q is rational only for these denominators (after reduction)
_RATIONAL_COS2 = {
    1: Fraction(1),
    2: Fraction(0),
    3: Fraction(1, 4),
    4: Fraction(1, 2),
    6: Fraction(3, 4),
}

# a float angle's cos or sin below this counts as zero
_TRIG_ZERO = 1e-12


class WalkKind(str, Enum):
    """Which lattice the walker moves on."""

    HALF_LINE = "halfline"
    LINE = "line"


@dataclass(frozen=True)
class Coin:
    """Real reflection coin [[c, s], [s, -c]] with c = cos(theta), s = sin(theta).

    ``pi_fraction`` is set when the angle was given as an exact rational
    multiple of pi; exact-arithmetic code paths key off it to avoid the
    round-off of float cos/sin at the canonical angles.
    """

    theta: float
    c: float
    s: float
    pi_fraction: Optional[Fraction] = None

    def matrix(self) -> np.ndarray:
        return np.array([[self.c, self.s], [self.s, -self.c]])

    def cos2_exact(self) -> Optional[Fraction]:
        """Exact cos^2(theta) when the angle is a nice pi-fraction, else None."""
        if self.pi_fraction is None:
            return None
        return _RATIONAL_COS2.get((self.pi_fraction % 2).denominator)

    def is_degenerate(self) -> bool:
        """True for angles where the coin is diagonal/antidiagonal (multiples of pi/2)."""
        if self.pi_fraction is not None:
            return (self.pi_fraction % Fraction(1, 2)) == 0
        return min(abs(self.c), abs(self.s)) < _TRIG_ZERO


def make_coin(theta: float) -> Coin:
    """Build the coin for an angle in radians."""
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError(f"coin angle must be finite, got {theta!r}")
    return Coin(theta=theta, c=math.cos(theta), s=math.sin(theta))


def make_coin_pi(fraction: Union[Fraction, int, str]) -> Coin:
    """Build the coin for theta = fraction * pi, keeping the fraction exact.

    The float c, s stay the ordinary cos/sin of the float angle (any other
    rounding choice compounds into a visible norm drift over 10^4 steps);
    the fraction is what lets exact code paths bypass them entirely.
    """
    frac = Fraction(fraction)
    theta = float(frac) * math.pi
    return Coin(theta=theta, c=math.cos(theta), s=math.sin(theta),
                pi_fraction=frac)


@dataclass(frozen=True)
class State:
    """Walk state at time t over the window offset..t: positions 0..t on the
    half line, -t-1..t on the line. amps has one (inner 0, inner 1) row per
    position, index 0 at ``offset``, and is frozen."""

    kind: WalkKind
    t: int
    amps: np.ndarray

    def __post_init__(self) -> None:
        if self.t < 0:
            raise ValueError("time must be >= 0")
        shape = (self.t + 1 - self.offset, 2)
        if self.amps.shape != shape:
            lo = "0" if self.kind is WalkKind.HALF_LINE else "-t-1"
            raise ValueError(
                f"support window must cover {lo}..t: expected {shape}, "
                f"got {self.amps.shape}"
            )
        self.amps.flags.writeable = False

    @property
    def offset(self) -> int:
        return 0 if self.kind is WalkKind.HALF_LINE else -self.t - 1

    def amplitude(self, x: int, inner: int) -> complex:
        i = x - self.offset
        if 0 <= i < self.amps.shape[0]:
            return complex(self.amps[i, inner])
        return 0j

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amps) ** 2))


def initial(kind: WalkKind, coin: Coin) -> State:
    """State at t=0. On the half line, position 0 carries
    e^{-i theta} (1, i)/sqrt(2); the line starts delocalized, positions -1
    and 0 carrying (c, s)/sqrt(2), all real."""
    if WalkKind(kind) is WalkKind.HALF_LINE:
        phase = complex(coin.c, -coin.s)
        amps = np.zeros((1, 2), dtype=np.complex128)
        amps[0, 0] = phase * SQRT1_2
        amps[0, 1] = 1j * phase * SQRT1_2
        return State(WalkKind.HALF_LINE, 0, amps)
    amps = np.zeros((2, 2), dtype=np.complex128)
    amps[:, 0] = coin.c * SQRT1_2
    amps[:, 1] = coin.s * SQRT1_2
    return State(WalkKind.LINE, 0, amps)


# probabilities below this are emitted as exact zero to keep subnormal noise
# out of output files
_PROB_FLOOR = 1e-300


@dataclass(frozen=True)
class Distribution:
    """Per-position probability table of a walk at one time.

    Position ``offset + i`` has inner probabilities ``p0[i]``, ``p1[i]`` and
    total ``p[i]``: floats, or Fractions from the exact oracle. An inner
    entry is None where the route gives no value for that inner.
    """

    kind: WalkKind
    t: int
    offset: int
    p0: tuple
    p1: tuple
    p: tuple

    def __post_init__(self) -> None:
        if not len(self.p0) == len(self.p1) == len(self.p):
            raise ValueError("p0, p1 and p must have equal lengths")

    def positions(self) -> range:
        return range(self.offset, self.offset + len(self.p))

    def total(self) -> float:
        return sum(self.p)

    def prob(self, x: int) -> float:
        i = x - self.offset
        return self.p[i] if 0 <= i < len(self.p) else 0.0

    def as_dict(self) -> dict[int, float]:
        return dict(zip(self.positions(), self.p))

    def inner_dict(self, inner: int) -> dict[int, float]:
        column = self.p0 if inner == 0 else self.p1
        return {x: v for x, v in zip(self.positions(), column) if v is not None}
