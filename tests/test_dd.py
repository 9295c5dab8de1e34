from fractions import Fraction

from hypothesis import example, given, strategies as st

from qwalk import dd

from conftest import assert_same_fraction, from_fraction, quick_two_sum

small_floats = st.floats(min_value=-1e12, max_value=1e12,
                         allow_nan=False, allow_infinity=False)


@given(small_floats, small_floats)
def test_quick_two_sum_is_exact(a, b):
    if abs(a) < abs(b):
        a, b = b, a
    s, e = quick_two_sum(a, b)
    assert Fraction(s) + Fraction(e) == Fraction(a) + Fraction(b)


@given(st.fractions(min_value=-100, max_value=100))
def test_from_fraction_within_one_ulp_squared(q):
    x = from_fraction(q)
    if q == 0:
        assert dd.to_fraction(x) == 0
    else:
        assert abs(dd.to_fraction(x) - q) <= abs(q) * Fraction(1, 2**104)


finite_floats = st.floats(allow_nan=False, allow_infinity=False)


# every finite double, subnormals and signed zeros included; independent
# halves give |lo| >= |hi| as often as not, and equal exponents carry into
# low zero bits of the sum that the result must strip
@given(finite_floats, finite_floats)
@example(5e-324, -0.0)
@example(-0.0, 1.7976931348623157e308)
@example(2.0**-1074, -(2.0**-1074))
@example(1.0, 2.0**-1074)
@example(-0.0, -0.0)
@example(0.75, 0.75)
@example(-0.375, -0.125)
@example(2.0**-1074, 2.0**-1074)
@example(1.7976931348623157e308, 1.7976931348623157e308)
def test_to_fraction_is_the_exact_sum(a, b):
    got = dd.to_fraction((a, b))
    assert type(got) is Fraction
    assert got == Fraction(a) + Fraction(b)
    assert_same_fraction(got, Fraction(a) + Fraction(b))
