from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from qwalk import dd

ints_106 = st.integers(min_value=-(2**100), max_value=2**100)
small_floats = st.floats(min_value=-1e12, max_value=1e12,
                         allow_nan=False, allow_infinity=False)
# two_prod's error term is exact only while the product stays normal, so
# keep magnitudes in a range whose products cannot underflow
normal_range = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-60, max_value=1e60),
    st.floats(min_value=-1e60, max_value=-1e-60),
)


@given(small_floats, small_floats)
def test_two_sum_is_exact(a, b):
    s, e = dd.two_sum(a, b)
    assert Fraction(s) + Fraction(e) == Fraction(a) + Fraction(b)


@given(small_floats, small_floats)
def test_quick_two_sum_is_exact(a, b):
    if abs(a) < abs(b):
        a, b = b, a
    s, e = dd.quick_two_sum(a, b)
    assert Fraction(s) + Fraction(e) == Fraction(a) + Fraction(b)


@given(normal_range, normal_range)
def test_two_prod_is_exact(a, b):
    p, e = dd.two_prod(a, b)
    assert Fraction(p) + Fraction(e) == Fraction(a) * Fraction(b)


@given(st.integers(min_value=-(2**104), max_value=2**104))
def test_from_int_exact_below_2_106(n):
    assert dd.to_fraction(dd.from_int(n)) == n


@settings(max_examples=50)
@given(st.lists(st.integers(min_value=-(2**95), max_value=2**95),
                min_size=1, max_size=80))
def test_integer_accumulation_is_exact(values):
    acc = dd.ZERO
    for v in values:
        acc = dd.add(acc, dd.from_int(v))
    assert dd.to_fraction(acc) == sum(values)


@given(ints_106, ints_106)
def test_mul_relative_error(a, b):
    x = dd.mul(dd.from_int(a), dd.from_int(b))
    exact = Fraction(a) * Fraction(b)
    if exact == 0:
        assert dd.to_fraction(x) == 0
    else:
        rel = abs(dd.to_fraction(x) - exact) / abs(exact)
        assert rel <= Fraction(1, 2**102)


@given(st.integers(min_value=1, max_value=10**12),
       st.integers(min_value=1, max_value=10**12))
def test_div_relative_error(a, b):
    x = dd.div(dd.from_int(a), dd.from_int(b))
    exact = Fraction(a, b)
    rel = abs(dd.to_fraction(x) - exact) / exact
    assert rel <= Fraction(1, 2**100)


@given(st.fractions(min_value=-100, max_value=100))
def test_from_fraction_within_one_ulp_squared(q):
    x = dd.from_fraction(q)
    if q == 0:
        assert dd.to_fraction(x) == 0
    else:
        assert abs(dd.to_fraction(x) - q) <= abs(q) * Fraction(1, 2**104)


finite_floats = st.floats(allow_nan=False, allow_infinity=False)


# every finite double, subnormals and signed zeros included; independent
# halves give |lo| >= |hi| as often as not
@given(finite_floats, finite_floats)
@example(5e-324, -0.0)
@example(-0.0, 1.7976931348623157e308)
@example(2.0**-1074, -(2.0**-1074))
@example(1.0, 2.0**-1074)
def test_to_fraction_is_the_exact_sum(a, b):
    got = dd.to_fraction((a, b))
    assert type(got) is Fraction
    assert got == Fraction(a) + Fraction(b)


def test_split_handles_huge_values():
    big = 1e300
    p, e = dd.two_prod(big, 0.5)
    assert p == 5e299
    assert e == 0.0
