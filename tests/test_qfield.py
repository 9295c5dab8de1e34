import math
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st
from pytest import approx

from qwalk import (
    OracleLimitError,
    WalkKind,
    distribution,
    evolve,
    q2_oracle_distribution,
    q2_oracle_series,
)
from qwalk.core import Distribution
from qwalk.evolution import probability_arrays
from qwalk.qfield import _DEN_POWER, _dyadic, _states

from conftest import assert_same_fraction


@dataclass(frozen=True)
class QFieldComplex:
    """(re_a + re_b*sqrt2) + i*(im_a + im_b*sqrt2) with rational coordinates:
    what the reference stepper below needs of Q(sqrt2)[i]."""

    re_a: Fraction
    re_b: Fraction
    im_a: Fraction
    im_b: Fraction

    @classmethod
    def of(cls, re_a=0, re_b=0, im_a=0, im_b=0) -> "QFieldComplex":
        return cls(*map(Fraction, (re_a, re_b, im_a, im_b)))

    def __add__(self, other: "QFieldComplex") -> "QFieldComplex":
        return QFieldComplex(self.re_a + other.re_a, self.re_b + other.re_b,
                             self.im_a + other.im_a, self.im_b + other.im_b)

    def __sub__(self, other: "QFieldComplex") -> "QFieldComplex":
        return QFieldComplex(self.re_a - other.re_a, self.re_b - other.re_b,
                             self.im_a - other.im_a, self.im_b - other.im_b)

    def mul_sqrt2_half(self) -> "QFieldComplex":
        """Multiply by sqrt2/2: (a + b sqrt2) sqrt2/2 = b + (a/2) sqrt2."""
        return QFieldComplex(self.re_b, self.re_a / 2,
                             self.im_b, self.im_a / 2)

    def abs2(self) -> tuple[Fraction, Fraction]:
        """|z|^2 as (rational part, sqrt2 coefficient)."""
        rat = (self.re_a**2 + 2 * self.re_b**2
               + self.im_a**2 + 2 * self.im_b**2)
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


def _to_complex(u: QFieldComplex) -> complex:
    w = math.sqrt(2)
    return complex(float(u.re_a) + float(u.re_b) * w,
                   float(u.im_a) + float(u.im_b) * w)


rationals = st.fractions(min_value=-5, max_value=5)


def field_elems():
    return st.builds(QFieldComplex, rationals, rationals, rationals, rationals)


@given(field_elems(), field_elems())
def test_add_sub_roundtrip(u, v):
    assert (u + v) - v == u


@given(field_elems())
def test_mul_sqrt2_half_matches_complex_arithmetic(u):
    half = u.mul_sqrt2_half()
    assert _to_complex(half) == approx(_to_complex(u) * math.sqrt(2) / 2,
                                       abs=1e-9)
    # (sqrt2/2)^2 = 1/2, exactly
    assert half.mul_sqrt2_half() == QFieldComplex(
        u.re_a / 2, u.re_b / 2, u.im_a / 2, u.im_b / 2)


@given(field_elems())
def test_abs2_matches_float(u):
    rat, irr = u.abs2()
    assert float(rat) + float(irr) * math.sqrt(2) == approx(
        abs(_to_complex(u)) ** 2, abs=1e-9)


# The oracle as it stepped QFieldComplex values before the integer stepper:
# the independent reference the integer oracle is pinned to.
def _initial(kind: WalkKind) -> tuple[list, list]:
    """Amplitude lists (inner 0, inner 1) at t = 0."""
    half = Fraction(1, 2)
    if kind is WalkKind.HALF_LINE:
        # (1/sqrt2, i/sqrt2): global phase dropped, distribution unaffected
        return [QFieldComplex.of(re_b=half)], [QFieldComplex.of(im_b=half)]
    return (
        [QFieldComplex.of(re_a=half), QFieldComplex.of(re_a=half)],
        [QFieldComplex.of(re_a=half), QFieldComplex.of(re_a=half)],
    )


def _field_step(kind: WalkKind, a: list, b: list) -> tuple[list, list]:
    # coin at pi/4: a0' = (a + b)*sqrt2/2, a1' = (a - b)*sqrt2/2, then shift
    c0 = [(x + y).mul_sqrt2_half() for x, y in zip(a, b)]
    c1 = [(x - y).mul_sqrt2_half() for x, y in zip(a, b)]
    zero = QFieldComplex.of()
    if kind is WalkKind.HALF_LINE:
        n = len(a) + 1
        an = c0[1:] + [zero, zero]
        bn = [c0[0]] + c1
        return an[:n], bn[:n]
    n = len(a) + 2
    an = c0 + [zero, zero]
    bn = [zero, zero] + c1
    return an[:n], bn[:n]


def _snapshot(kind: WalkKind, t: int, a: list, b: list) -> Distribution:
    p0 = tuple(z.abs2_rational() for z in a)
    p1 = tuple(z.abs2_rational() for z in b)
    return Distribution(kind=kind, t=t, p0=p0, p1=p1,
                        p=tuple(map(sum, zip(p0, p1))))


def _reference_series(kind: WalkKind, t_max: int):
    a, b = _initial(kind)
    yield _snapshot(kind, 0, a, b)
    for t in range(1, t_max + 1):
        a, b = _field_step(kind, a, b)
        yield _snapshot(kind, t, a, b)


def _rows(dist):
    return list(zip(dist.positions(), dist.p0, dist.p1, dist.p))


@pytest.mark.parametrize("kind", [WalkKind.HALF_LINE, WalkKind.LINE])
def test_integer_oracle_matches_field_reference(kind):
    """Equal rows, as Fractions, at every t <= 120."""
    pairs = zip(q2_oracle_series(kind, 120), _reference_series(kind, 120),
                strict=True)
    for t, (got, ref) in enumerate(pairs):
        assert (got.kind, got.t) == (kind, t)
        assert _rows(got) == _rows(ref), t
        assert all(type(v) is Fraction
                   for v in got.p0 + got.p1 + got.p)


@pytest.mark.parametrize("kind", [WalkKind.HALF_LINE, WalkKind.LINE])
def test_equal_probabilities_share_one_fraction(kind):
    for t in (1, 37, 200):
        dist = q2_oracle_distribution(kind, t)
        values = dist.p0 + dist.p1 + dist.p
        assert len({id(v) for v in values}) == len(set(values)), t


@pytest.mark.parametrize("kind", [WalkKind.HALF_LINE, WalkKind.LINE])
def test_distribution_is_the_series_element(kind):
    series = list(q2_oracle_series(kind, 200))
    for t in (0, 1, 57, 200):
        assert q2_oracle_distribution(kind, t) == series[t]


@given(st.integers(min_value=-2**700, max_value=2**700)
       | st.builds(lambda k, s: k << s, st.integers(-2**64, 2**64),
                   st.integers(0, 700)),
       st.integers(min_value=0, max_value=600))
@example(0, 0)
@example(0, 600)
@example(-1, 0)
@example(-3, 5)
@example(7, 600)
@example(2**600, 600)
@example(-(2**601), 600)
@example(3 << 700, 600)
def test_dyadic_is_the_reduced_fraction(k, p):
    assert_same_fraction(_dyadic(k, p), Fraction(k, 2**p))


@pytest.mark.parametrize("kind", [WalkKind.HALF_LINE, WalkKind.LINE])
def test_series_values_are_the_reduced_probabilities(kind):
    """Every value to t = 200 is Fraction(|z|^2, 2**(t + power)), hash and
    str included."""
    pairs = zip(q2_oracle_series(kind, 200), _states(kind, 200), strict=True)
    for dist, (t, (re0, im0, re1, im1)) in pairs:
        assert dist.t == t
        den = 2**(t + _DEN_POWER[kind])
        n0 = [a * a + b * b for a, b in zip(re0, im0)]
        n1 = [a * a + b * b for a, b in zip(re1, im1)]
        first = {}
        for got, k in zip(dist.p0 + dist.p1 + dist.p,
                          n0 + n1 + [a + b for a, b in zip(n0, n1)],
                          strict=True):
            if k not in first:
                first[k] = got
                assert_same_fraction(got, Fraction(k, den))
            assert got is first[k]


class TestOracle:
    def test_half_line_t1(self):
        dist = q2_oracle_distribution(WalkKind.HALF_LINE, 1)
        assert dist.as_dict() == {0: Fraction(1, 2), 1: Fraction(1, 2)}
        assert dist.inner_dict(0) == {0: Fraction(0), 1: Fraction(0)}

    def test_line_t2(self):
        dist = q2_oracle_distribution(WalkKind.LINE, 2)
        quarters = {x: Fraction(1, 4) for x in (-3, -2, -1, 0)}
        got = {x: p for x, p in dist.as_dict().items() if p}
        assert got == quarters

    def test_norm_exactly_one(self):
        for kind in (WalkKind.HALF_LINE, WalkKind.LINE):
            dist = q2_oracle_distribution(kind, 50)
            assert dist.total() == 1

    def test_matches_float_evolution_spot(self, pi4_coin):
        for kind in (WalkKind.HALF_LINE, WalkKind.LINE):
            exact = q2_oracle_distribution(kind, 60)
            sim = distribution(evolve(kind, pi4_coin, 60))
            worst = max(
                abs(float(p) - sim.prob(x)) for x, p in exact.as_dict().items()
            )
            assert worst <= 1e-13

    def test_series_is_incremental(self):
        series = list(q2_oracle_series(WalkKind.HALF_LINE, 5))
        assert [d.t for d in series] == [0, 1, 2, 3, 4, 5]
        assert series[0].as_dict() == {0: Fraction(1)}

    def test_resource_limit(self):
        with pytest.raises(OracleLimitError):
            q2_oracle_distribution(WalkKind.HALF_LINE, 201)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            q2_oracle_distribution(WalkKind.LINE, -1)

    def test_series_checks_arguments_on_the_call(self):
        with pytest.raises(OracleLimitError):
            q2_oracle_series(WalkKind.LINE, 500)
        with pytest.raises(ValueError):
            q2_oracle_series(WalkKind.LINE, -1)
        with pytest.raises(TypeError):
            q2_oracle_series(WalkKind.LINE, 2.5)

    def test_series_refusals_name_t_max(self):
        with pytest.raises(TypeError,
                           match=r"^t_max must be an integer, got 4\.0$"):
            q2_oracle_series("line", 4.0)
        message = r"^exact oracle supports {} <= 200, got 201$"
        with pytest.raises(OracleLimitError, match=message.format("t_max")):
            q2_oracle_series("line", 201)
        with pytest.raises(OracleLimitError, match=message.format("t")):
            q2_oracle_distribution("line", 201)

    def test_fig4_time_rationals_match_evolution(self, pi4_coin):
        """t = 14 exact bars agree with the double-precision panels."""
        exact = q2_oracle_distribution(WalkKind.HALF_LINE, 14)
        state = evolve(WalkKind.HALF_LINE, pi4_coin, 14)
        p0, p1 = probability_arrays(state)
        for x, e0, e1 in zip(exact.positions(), exact.p0, exact.p1):
            assert float(e0) == approx(p0[x], abs=1e-15)
            assert float(e1) == approx(p1[x], abs=1e-15)
