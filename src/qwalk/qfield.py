"""Exact arithmetic over Q(sqrt2) + i*Q(sqrt2) and the exact walk oracle.

At theta = pi/4 the coin entries are +-sqrt2/2 and both initial states live
in the field, so the whole evolution can be carried out with rational
coordinates and probabilities come out as exact rationals. The half-line
initial state is used without its global phase, which leaves the
distribution unchanged and keeps the amplitudes inside the field.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .core import Distribution, WalkKind

ORACLE_MAX_T = 200


class OracleLimitError(ValueError):
    """Requested time exceeds the exact oracle's supported range."""


@dataclass(frozen=True)
class QFieldComplex:
    """(re_a + re_b*sqrt2) + i*(im_a + im_b*sqrt2) with rational coordinates."""

    re_a: Fraction
    re_b: Fraction
    im_a: Fraction
    im_b: Fraction

    @classmethod
    def zero(cls) -> "QFieldComplex":
        z = Fraction(0)
        return cls(z, z, z, z)

    @classmethod
    def of(cls, re_a=0, re_b=0, im_a=0, im_b=0) -> "QFieldComplex":
        return cls(Fraction(re_a), Fraction(re_b), Fraction(im_a), Fraction(im_b))

    def __add__(self, other: "QFieldComplex") -> "QFieldComplex":
        return QFieldComplex(
            self.re_a + other.re_a,
            self.re_b + other.re_b,
            self.im_a + other.im_a,
            self.im_b + other.im_b,
        )

    def __sub__(self, other: "QFieldComplex") -> "QFieldComplex":
        return QFieldComplex(
            self.re_a - other.re_a,
            self.re_b - other.re_b,
            self.im_a - other.im_a,
            self.im_b - other.im_b,
        )

    def __neg__(self) -> "QFieldComplex":
        return QFieldComplex(-self.re_a, -self.re_b, -self.im_a, -self.im_b)

    def __mul__(self, other: "QFieldComplex") -> "QFieldComplex":
        # complex product with (a + b w)(a' + b' w) = aa' + 2bb' + (ab' + ba') w
        ra, rb, ia, ib = self.re_a, self.re_b, self.im_a, self.im_b
        sa, sb, ta, tb = other.re_a, other.re_b, other.im_a, other.im_b
        re_a = ra * sa + 2 * rb * sb - (ia * ta + 2 * ib * tb)
        re_b = ra * sb + rb * sa - (ia * tb + ib * ta)
        im_a = ra * ta + 2 * rb * tb + ia * sa + 2 * ib * sb
        im_b = ra * tb + rb * ta + ia * sb + ib * sa
        return QFieldComplex(re_a, re_b, im_a, im_b)

    def conj_sqrt2(self) -> "QFieldComplex":
        """Field conjugate sqrt2 -> -sqrt2 (not complex conjugation)."""
        return QFieldComplex(self.re_a, -self.re_b, self.im_a, -self.im_b)

    def mul_sqrt2_half(self) -> "QFieldComplex":
        """Multiply by sqrt2/2; the hot path of the coin application."""
        return QFieldComplex(
            self.re_b, self.re_a / 2, self.im_b, self.im_a / 2
        )

    def abs2(self) -> tuple[Fraction, Fraction]:
        """|z|^2 as (rational part, sqrt2 coefficient)."""
        rat = (
            self.re_a**2 + 2 * self.re_b**2 + self.im_a**2 + 2 * self.im_b**2
        )
        irr = 2 * (self.re_a * self.re_b + self.im_a * self.im_b)
        return rat, irr

    def abs2_rational(self) -> Fraction:
        """|z|^2, requiring the sqrt2 coefficient to vanish."""
        rat, irr = self.abs2()
        if irr != 0:
            raise ArithmeticError(
                "squared modulus left the rationals; amplitude parity broken"
            )
        return rat

    def to_complex(self) -> complex:
        w = 2**0.5
        return complex(
            float(self.re_a) + float(self.re_b) * w,
            float(self.im_a) + float(self.im_b) * w,
        )


@dataclass(frozen=True)
class ExactDistributionRow:
    """Exact rational probabilities at one position; ``p`` is summed on use."""

    x: int
    p0: Fraction
    p1: Fraction

    @property
    def p(self) -> Fraction:
        return self.p0 + self.p1


def _initial(kind: WalkKind) -> tuple[list, list, int]:
    """Amplitude lists (inner 0, inner 1) and window offset at t = 0."""
    half = Fraction(1, 2)
    if kind is WalkKind.HALF_LINE:
        # (1/sqrt2, i/sqrt2): global phase dropped, distribution unaffected
        return (
            [QFieldComplex.of(re_b=half)],
            [QFieldComplex.of(im_b=half)],
            0,
        )
    return (
        [QFieldComplex.of(re_a=half), QFieldComplex.of(re_a=half)],
        [QFieldComplex.of(re_a=half), QFieldComplex.of(re_a=half)],
        -1,
    )


def _step(kind: WalkKind, a: list, b: list) -> tuple[list, list]:
    # coin at pi/4: a0' = (a + b)*sqrt2/2, a1' = (a - b)*sqrt2/2, then shift
    c0 = [(x + y).mul_sqrt2_half() for x, y in zip(a, b)]
    c1 = [(x - y).mul_sqrt2_half() for x, y in zip(a, b)]
    zero = QFieldComplex.zero()
    if kind is WalkKind.HALF_LINE:
        n = len(a) + 1
        an = c0[1:] + [zero, zero]
        bn = [c0[0]] + c1
        return an[:n], bn[:n]
    n = len(a) + 2
    an = c0 + [zero, zero]
    bn = [zero, zero] + c1
    return an[:n], bn[:n]


def _snapshot(kind: WalkKind, t: int, a: list, b: list, offset: int) -> Distribution:
    rows = tuple(
        ExactDistributionRow(
            x=offset + i, p0=a[i].abs2_rational(), p1=b[i].abs2_rational()
        )
        for i in range(len(a))
    )
    return Distribution(kind=kind, t=t, rows=rows)


def q2_oracle_series(kind: WalkKind, t_max: int) -> Iterator[Distribution]:
    """Yield the exact distribution at every t = 0..t_max (one evolution pass)."""
    kind = WalkKind(kind)
    if t_max > ORACLE_MAX_T:
        raise OracleLimitError(
            f"exact oracle supports t <= {ORACLE_MAX_T}, got {t_max}"
        )
    if t_max < 0:
        raise ValueError("t_max must be >= 0")
    a, b, offset = _initial(kind)
    yield _snapshot(kind, 0, a, b, offset)
    for t in range(1, t_max + 1):
        a, b = _step(kind, a, b)
        if kind is WalkKind.LINE:
            offset -= 1
        yield _snapshot(kind, t, a, b, offset)


def q2_oracle_distribution(kind: WalkKind, t: int) -> Distribution:
    """Exact rational distribution of the theta = pi/4 walk at time t."""
    out = None
    for out in q2_oracle_series(kind, t):
        pass
    assert out is not None
    return out
