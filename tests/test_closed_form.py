import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, seed, settings, strategies as st
from pytest import approx

from qwalk import (
    Coin,
    ExactParams,
    FormulaDomainError,
    Precision,
    PrecisionError,
    WalkKind,
    distribution,
    evolve,
    half_line_exact_by_inner,
    half_line_exact_total,
    half_line_exact_values,
    iter_states,
    line_exact,
    line_exact_values,
    make_coin,
    make_coin_pi,
    q2_oracle_series,
)
from qwalk import closed_form, dd
from qwalk.harness import TOLERANCES
from qwalk.closed_form import half_line_exact

from conftest import ROUTE_THETAS, THETA_GRID_20, from_fraction


class TestLineExact:
    def test_t1_edge_only(self, pi4_coin):
        dist = line_exact(pi4_coin, 1)
        assert dist.as_dict() == approx({-2: 0.5, -1: 0.5, 0: 0.0, 1: 0.0})
        assert dist.p0 == dist.p1 == (None,) * 4

    def test_t2_pi4(self, pi4_coin):
        dist = line_exact(pi4_coin, 2)
        expected = {-3: 0.25, -2: 0.25, -1: 0.25, 0: 0.25, 1: 0.0, 2: 0.0}
        assert dist.as_dict() == approx(expected, abs=1e-15)

    def test_t2_general_theta(self):
        coin = make_coin(0.7)
        c2 = coin.c**2
        s2 = coin.s**2
        dist = line_exact(coin, 2)
        assert dist.prob(-3) == approx(c2 / 2, abs=1e-15)
        assert dist.prob(-2) == approx(c2 / 2, abs=1e-15)
        assert dist.prob(-1) == approx(s2 / 2, abs=1e-15)
        assert dist.prob(0) == approx(s2 / 2, abs=1e-15)

    def test_edge_formula_any_theta(self):
        for theta in ROUTE_THETAS:
            coin = make_coin(theta)
            for t in (1, 5, 20):
                dist = line_exact(coin, t)
                edge = coin.c ** (2 * (t - 1)) / 2
                assert dist.prob(-t - 1) == approx(edge, abs=1e-15)
                assert dist.prob(-t) == approx(edge, abs=1e-15)

    def test_sums_to_one_on_grid(self):
        for theta in THETA_GRID_20:
            coin = make_coin(theta)
            for t in range(1, 61):
                dist = line_exact(coin, t)
                assert dist.total() == approx(1.0, abs=1e-9), (theta, t)
                assert all(p >= 0.0 for p in dist.p)

    def test_even_time_branch_overlap_consistent(self):
        # at even t the m = t/2 pair is indexed by both branches; the
        # weights coincide there and the values must agree bit-for-bit
        coin = make_coin(0.8)
        for t in (2, 6, 14):
            vals = line_exact_values(coin, t)
            assert vals[0] == vals[-1]

    def test_t0_rejected(self, pi4_coin):
        with pytest.raises(ValueError):
            line_exact(pi4_coin, 0)

    @pytest.mark.parametrize("frac", [0, Fraction(1, 2), 1, Fraction(3, 2)])
    def test_excluded_angles_raise(self, frac):
        with pytest.raises(FormulaDomainError):
            line_exact(make_coin_pi(frac), 5)


class TestHalfLineExact:
    def test_time1_odd_branch(self, pi4_coin):
        by1 = half_line_exact_by_inner(pi4_coin, 1, 1)
        assert by1.inner_dict(1) == approx({0: 0.5, 1: 0.5})
        by0 = half_line_exact_by_inner(pi4_coin, 1, 0)
        assert by0.p == by0.p0 == (0.0, 0.0)
        assert by0.p1 == (None, None)

    def test_time2_even_branch(self, pi4_coin):
        by1 = half_line_exact_by_inner(pi4_coin, 2, 1)
        got = by1.inner_dict(1)
        assert got[2] == approx(0.25, abs=1e-15)
        assert got[1] == approx(0.25, abs=1e-15)

    def test_time2_origin_split(self, pi4_coin):
        by0 = half_line_exact_by_inner(pi4_coin, 2, 0)
        by1 = half_line_exact_by_inner(pi4_coin, 2, 1)
        assert by0.inner_dict(0)[0] == approx(by1.inner_dict(1)[0], abs=1e-16)
        sim = distribution(evolve(WalkKind.HALF_LINE, pi4_coin, 2))
        assert by0.inner_dict(0)[0] == approx(sim.inner_dict(0)[0], abs=1e-12)

    def test_time1_total(self, pi4_coin):
        total = half_line_exact_total(pi4_coin, 1)
        assert total.as_dict() == approx({0: 0.5, 1: 0.5})

    def test_frontier_values(self):
        for theta in ROUTE_THETAS:
            coin = make_coin(theta)
            for half_t in (0, 1, 3, 10):
                t = 2 * half_t + 1
                by1 = half_line_exact_by_inner(coin, t, 1)
                expected = coin.c ** (4 * half_t) / 2
                assert by1.inner_dict(1)[t] == approx(expected, abs=1e-15)
                assert by1.inner_dict(1)[t - 1] == approx(expected, abs=1e-15)

    @pytest.mark.parametrize("t", [1, 2, 7, 14, 15])
    def test_frontier_inner0_is_zero(self, pi3_coin, t):
        """The Distribution holds the walk's 0.0 on the frontier pair, as
        evolution does; the precision-typed values keep None there."""
        dist = half_line_exact(pi3_coin, t)
        sim = distribution(evolve(WalkKind.HALF_LINE, pi3_coin, t))
        vals = half_line_exact_values(pi3_coin, t)
        for x in (t - 1, t):
            assert dist.p0[x] == sim.p0[x] == 0.0
            assert vals[x][0] is None

    def test_even_time_pairing(self):
        """Interior positions 2k and 2k-1 carry one shared value."""
        coin = make_coin(0.9)
        total = half_line_exact_total(coin, 14).as_dict()
        for m in range(1, 7):
            assert total[2 * (7 - m)] == total[2 * (7 - m) - 1]

    def test_positions_partition(self):
        """Every position is produced by exactly one branch formula."""
        coin = make_coin(1.0)
        for t in (1, 2, 3, 4, 9, 10, 15, 16):
            vals = half_line_exact_values(coin, t)
            assert sorted(vals) == list(range(0, t + 1))

    def test_figures_grid_matches_evolution(self, pi4_coin, pi3_coin):
        for coin in (pi4_coin, pi3_coin):
            for t in (14, 15):
                sim = distribution(evolve(WalkKind.HALF_LINE, coin, t))
                tot = half_line_exact_total(coin, t).as_dict()
                i0 = half_line_exact_by_inner(coin, t, 0).inner_dict(0)
                i1 = half_line_exact_by_inner(coin, t, 1).inner_dict(1)
                for x in range(0, t + 1):
                    assert tot.get(x, 0.0) == approx(sim.prob(x), abs=1e-12)
                    assert i0.get(x, 0.0) == approx(
                        sim.inner_dict(0)[x], abs=1e-12)
                    assert i1.get(x, 0.0) == approx(
                        sim.inner_dict(1)[x], abs=1e-12)

    def test_inner_split_consistency(self):
        for theta in ROUTE_THETAS:
            coin = make_coin(theta)
            for t in (7, 12, 31):
                tot = half_line_exact_total(coin, t).as_dict()
                i0 = half_line_exact_by_inner(coin, t, 0).inner_dict(0)
                i1 = half_line_exact_by_inner(coin, t, 1).inner_dict(1)
                for x, p in tot.items():
                    assert p == approx(i0.get(x, 0.0) + i1.get(x, 0.0),
                                       abs=1e-12)

    def test_bad_inner_rejected(self, pi4_coin):
        with pytest.raises(ValueError):
            half_line_exact_by_inner(pi4_coin, 3, 2)


class TestRouteEquivalence:
    def test_double_path_to_t30(self):
        for theta in ROUTE_THETAS:
            coin = make_coin(theta)
            line_states = dict(iter_states(WalkKind.LINE, coin, 30))
            half_states = dict(iter_states(WalkKind.HALF_LINE, coin, 30))
            for t in range(1, 31):
                cf = line_exact(coin, t).as_dict()
                sim = distribution(line_states[t]).as_dict()
                worst = max(
                    abs(cf.get(x, 0.0) - sim.get(x, 0.0))
                    for x in set(cf) | set(sim)
                )
                assert worst <= 1e-12, (theta, t, "line")
                cf = half_line_exact_total(coin, t).as_dict()
                sim = distribution(half_states[t]).as_dict()
                worst = max(
                    abs(cf.get(x, 0.0) - sim.get(x, 0.0))
                    for x in set(cf) | set(sim)
                )
                assert worst <= 1e-12, (theta, t, "half")

    def test_dd_path_to_t60(self):
        for theta in ROUTE_THETAS:
            coin = make_coin(theta)
            line_states = dict(iter_states(WalkKind.LINE, coin, 60))
            for t in range(1, 61):
                cf = line_exact(coin, t).as_dict()
                sim = distribution(line_states[t]).as_dict()
                worst = max(
                    abs(cf.get(x, 0.0) - sim.get(x, 0.0))
                    for x in set(cf) | set(sim)
                )
                assert worst <= 1e-9, (theta, t)


@seed(2016)
@settings(max_examples=400, deadline=None)
@given(theta=st.floats(-math.pi, math.pi, exclude_min=True, exclude_max=True)
       .filter(lambda theta: not make_coin(theta).is_degenerate()),
       t=st.integers(1, 120), kind=st.sampled_from(WalkKind))
@example(theta=math.pi / 2 + 1e-5, t=60, kind=WalkKind.LINE)
@example(theta=-2.8, t=120, kind=WalkKind.LINE)
def test_routes_agree_over_one_window_at_drawn_angles(theta, t, kind):
    """Evolution and the closed form list the same positions, the walk's
    window, and agree there within exactVsSim's bound. A closed form that
    refuses with PrecisionError is a refusal, not a failure."""
    coin = make_coin(theta)
    sim = distribution(evolve(kind, coin, t))
    exact = line_exact if kind is WalkKind.LINE else half_line_exact
    try:
        cf = exact(coin, t)
    except PrecisionError:
        return
    assert cf.positions() == sim.positions()
    assert max(abs(a - b) for a, b in zip(cf.p, sim.p)) <= TOLERANCES[
        "exactVsSim"]


# The closed forms evaluated term by term: every binomial sum is summed over
# its terms, with no recurrence, and each value is one Fraction. The
# reference the integer backend is pinned to.
class _Reference:
    """cos^2 = P/Q and sin^2 = B/Q of the model over one denominator, so
    (-r)^j = U^j / P^j with U = -B, and the monomials U^j P^(m-j)."""

    def __init__(self, coin: Coin) -> None:
        if coin.is_degenerate():
            raise FormulaDomainError(
                "closed forms require theta not a multiple of pi/2"
            )
        cos2 = coin.cos2_exact()
        if cos2 is not None:
            c2, s2 = cos2, 1 - cos2
        else:
            c2, s2 = Fraction(coin.c) ** 2, Fraction(coin.s) ** 2
        self.q = math.lcm(c2.denominator, s2.denominator)
        self.p = c2.numerator * (self.q // c2.denominator)
        self.b = s2.numerator * (self.q // s2.denominator)
        self.monomials = [[1]]  # monomials[m][j] = U^j P^(m-j)

    def monomial_row(self, m: int) -> list:
        while len(self.monomials) <= m:
            last = self.monomials[-1]
            self.monomials.append([x * self.p for x in last]
                                  + [last[-1] * -self.b])
        return self.monomials[m]

    def prefactor(self, t: int) -> Fraction:
        """c^(2(t-1)) / 2."""
        return Fraction(self.p ** (t - 1), 2 * self.q ** (t - 1))


class _BranchSums:
    """The factored sums A0 = X0 / P^m and A1 = X1 / (m P^m) of one branch
    at time t, with the prefactor c^(2(t-1)) / 2 = P^(t-1) / (2 Q^(t-1)).

    ``coeffs_a0[j-1]`` and ``coeffs_b1[j-1]`` are the integer coefficients of
    (-r)^j in A0 and in m*A1 respectively.
    """

    def __init__(self, ref: _Reference, t: int, m: int,
                 coeffs_a0, coeffs_b1) -> None:
        mono = ref.monomial_row(m)
        x0 = sum(a * mono[j] for j, a in enumerate(coeffs_a0, 1))
        x1 = sum(a * mono[j] for j, a in enumerate(coeffs_b1, 1))
        # A1^2, A0 A1 and A0^2 / s^2 over the common denominator
        # m^2 B P^(2m), with 1/s^2 = Q/B
        self.a1_sq = x1 * x1 * ref.b
        self.a0_a1 = m * x0 * x1 * ref.b
        self.a0_sq_s2 = m * m * x0 * x0 * ref.q
        # the prefactor over that denominator, P^(t-1) / P^(2m) cancelled
        e = t - 1 - 2 * m
        self.num = ref.p ** max(e, 0)
        self.den = (2 * ref.q ** (t - 1) * m * m * ref.b
                    * ref.p ** max(-e, 0))

    def weighted(self, w: int) -> Fraction:
        """prefactor * (w^2 A1^2 - 2w A0 A1 + A0^2 / s^2)."""
        return self._times(
            w * w * self.a1_sq - 2 * w * self.a0_a1 + self.a0_sq_s2)

    def weighted_pair(self, w1: int, w2: int) -> Fraction:
        """weighted(w1) + weighted(w2), via the combined weight."""
        return self._times(
            (w1 * w1 + w2 * w2) * self.a1_sq - 2 * (w1 + w2) * self.a0_a1
            + 2 * self.a0_sq_s2)

    def _times(self, weight: int) -> Fraction:
        return Fraction(weight * self.num, self.den)


def _pair_sums(ref: _Reference, m: int, M: int) -> _BranchSums:
    a0 = [math.comb(m - 1, j - 1) * math.comb(M, j - 1) for j in range(1, m + 1)]
    b1 = [math.comb(m, j) * math.comb(M, j - 1) for j in range(1, m + 1)]
    return _BranchSums(ref, m + M + 1, m, a0, b1)


def _origin_sums(ref: _Reference, T: int) -> _BranchSums:
    # origin branch of even times: squared binomial coefficients
    a0 = [math.comb(T - 1, j - 1) ** 2 for j in range(1, T + 1)]
    b1 = [math.comb(T, j) * math.comb(T - 1, j - 1) for j in range(1, T + 1)]
    return _BranchSums(ref, 2 * T, T, a0, b1)


# one reference per angle, so the monomials are built once per test run
_REFERENCES: dict = {}


def _reference(coin: Coin) -> _Reference:
    key = (coin.theta, coin.pi_fraction)
    if key not in _REFERENCES:
        _REFERENCES[key] = _Reference(coin)
    return _REFERENCES[key]


def _reference_line_values(coin: Coin, t: int) -> dict:
    ref = _reference(coin)
    pref = ref.prefactor(t)
    out: dict[int, object] = {-t - 1: pref, -t: pref}
    for m in range(1, t // 2 + 1):
        sums = _pair_sums(ref, m, t - m - 1)
        right = sums.weighted(m)
        left = sums.weighted(t - m)
        out[t - 2 * m] = right
        out[t - 2 * m - 1] = right
        out[-(t - 2 * m) - 1] = left
        out[-(t - 2 * m)] = left
    return out


def _reference_half_line_values(coin: Coin, t: int) -> dict:
    ref = _reference(coin)
    out: dict[int, tuple] = {}
    pref = ref.prefactor(t)
    if t % 2 == 0:
        half = t // 2
        for m in range(1, half):
            sums = _pair_sums(ref, m, t - m - 1)
            v0 = sums.weighted(m)
            v1 = sums.weighted(t - m)
            vt = sums.weighted_pair(m, t - m)
            for x in (2 * (half - m), 2 * (half - m) - 1):
                out[x] = (v0, v1, vt)
        # origin term, even times only: both inners share one value
        sums = _origin_sums(ref, half)
        vo = sums.weighted(half)
        out[0] = (vo, vo, vo + vo)
    else:
        half = (t - 1) // 2
        for m in range(1, half + 1):
            sums = _pair_sums(ref, m, t - m - 1)
            v0 = sums.weighted(m)
            v1 = sums.weighted(t - m)
            vt = sums.weighted_pair(m, t - m)
            for x in (2 * (half - m) + 1, 2 * (half - m)):
                out[x] = (v0, v1, vt)
    # frontier pair carries inner 1 only
    out[t] = (None, pref, pref)
    out[t - 1] = (None, pref, pref)
    return out


def _columns(vals: dict, half: bool) -> dict:
    """(position, column) -> value of either walk's table, None dropped."""
    return {(x, i): v for x, vs in vals.items()
            for i, v in enumerate(vs if half else (vs,)) if v is not None}


_ROUNDING_COINS = {
    "1.0": make_coin(1.0),
    "0.3": make_coin(0.3),
    "2.5": make_coin(2.5),
    "pi/6": make_coin_pi(Fraction(1, 6)),
    "pi/4": make_coin_pi(Fraction(1, 4)),
    "pi/3": make_coin_pi(Fraction(1, 3)),
}


@pytest.mark.parametrize("coin", [
    make_coin_pi(Fraction(1, 6)), make_coin_pi(Fraction(1, 4)),
    make_coin_pi(Fraction(1, 3)), make_coin(1.0), make_coin(2.5),
    make_coin(-0.7)], ids=["pi/6", "pi/4", "pi/3", "1.0", "2.5", "-0.7"])
def test_branch_recurrences_match_direct_sums(coin):
    """N0 = sum_j C(m-1,j-1) C(M,j-1) u^j p^(m-j) and
    N1 = sum_j C(m,j) C(M,j-1) u^j p^(m-j), M = t - m - 1, summed term by
    term, equal what the recurrences give for every branch up to t = 200."""
    from qwalk.closed_form import _resolve, _sums

    t_max = 200
    rows = [[math.comb(n, k) for k in range(n + 1)] for n in range(t_max)]
    consts = _resolve(coin, t_max, None)
    p, u = consts.p, consts.u
    monomials = [[1]]  # monomials[m][j] = u^j p^(m-j)
    for m in range(1, t_max // 2 + 1):
        monomials.append([x * p for x in monomials[-1]] + [monomials[-1][-1] * u])
    for t in range(1, t_max + 1):
        want = []
        for m in range(1, t // 2 + 1):
            row_M, mono = rows[t - m - 1], monomials[m]
            want.append((
                m,
                sum(rows[m - 1][j - 1] * row_M[j - 1] * mono[j]
                    for j in range(1, m + 1)),
                sum(rows[m][j] * row_M[j - 1] * mono[j]
                    for j in range(1, m + 1))))
        assert list(_sums(consts, t)) == want, t


def _sqrt_parts(square: Fraction, sign: float) -> tuple[Fraction, int]:
    """sqrt(square) with the sign of ``sign``, as (r, k) for r sqrt(k) with
    k a squarefree int."""
    n = square.numerator * square.denominator
    f = max(f for f in range(1, math.isqrt(n) + 1) if n % (f * f) == 0)
    return Fraction(f if sign > 0 else -f, square.denominator), n // (f * f)


def _exact_walk(kind: WalkKind, coin: Coin, t_max: int):
    """Yield (t, {x: (p0, p1)}) for t = 1..t_max, evolved step by step.

    With c^2 = p/q and s^2 = b/q from ``coin.squares()``, sqrt(2) q^t times
    an amplitude is its real and imaginary part (the real part alone on the
    line), each an element v0 + v1 c + v2 s + v3 cs held as four ints. A
    probability is evaluated with c, s and cs written as rational multiples
    of square roots of squarefree ints, and every irrational part must
    cancel.
    """
    c2, s2 = coin.squares()
    q = math.lcm(c2.denominator, s2.denominator)
    p, b = int(c2 * q), int(s2 * q)
    roots = ((Fraction(1), 1), _sqrt_parts(c2, coin.c),
             _sqrt_parts(s2, coin.s), _sqrt_parts(c2 * s2, coin.c * coin.s))

    # q c and q s times each part of an amplitude
    def times_c(z):
        return tuple((v1 * p, v0 * q, v3 * p, v2 * q) for v0, v1, v2, v3 in z)

    def times_s(z):
        return tuple((v2 * b, v3 * b, v0 * q, v1 * q) for v0, v1, v2, v3 in z)

    def add(y, z, sign=1):
        return tuple(tuple(u + sign * v for u, v in zip(*uv))
                     for uv in zip(y, z))

    def prob(z, t):
        # the square of each part times q^2, reduced with c^2 and s^2
        parts = dict.fromkeys((k for _, k in roots), Fraction(0))
        for v0, v1, v2, v3 in z:
            coefs = ((v0 * v0 * q + v1 * v1 * p + v2 * v2 * b) * q
                     + v3 * v3 * p * b,
                     2 * (v0 * v1 * q + v2 * v3 * b) * q,
                     2 * (v0 * v2 * q + v1 * v3 * p) * q,
                     2 * (v0 * v3 + v1 * v2) * q * q)
            for coef, (r, k) in zip(coefs, roots):
                parts[k] += coef * r
        assert not any(v for k, v in parts.items() if k != 1), parts
        return parts[1] / (2 * q ** (2 * t + 2))

    zero, c, s, minus_s = (0, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, -1, 0)
    if kind is WalkKind.HALF_LINE:
        # e^{-i theta} (1, i): inner 0 is c - i s, inner 1 is s + i c
        amps = {0: ((c, minus_s), (s, c))}
    else:  # the line stays real
        amps = {x: ((c,), (s,)) for x in (-1, 0)}
    empty = tuple((zero,) * len(a) for a in amps[0])
    for t in range(1, t_max + 1):
        new: dict = {}
        for x, (a0, a1) in amps.items():
            # the coin [[c, s], [s, -c]], then inner 0 left and inner 1
            # right; on the half line inner 0 leaving 0 is inner 1 there
            b0 = add(times_c(a0), times_s(a1))
            b1 = add(times_s(a0), times_c(a1), -1)
            to0 = (0, 1) if kind is WalkKind.HALF_LINE and x == 0 else (x - 1, 0)
            for (y, inner), z in ((to0, b0), ((x + 1, 1), b1)):
                site = list(new.get(y, empty))
                site[inner] = add(site[inner], z)
                new[y] = tuple(site)
        amps = new
        yield t, {x: (prob(a0, t), prob(a1, t)) for x, (a0, a1) in amps.items()}


class TestExactRationalPath:
    def test_requires_rational_cos2(self, pi3_coin, pi4_coin):
        # float pi/4 has no exact fraction, and cos^2(2pi/5) is irrational
        for coin in (make_coin(math.pi / 4), make_coin(1.0),
                     make_coin_pi(Fraction(2, 5))):
            with pytest.raises(ValueError, match="needs rational cos"):
                line_exact_values(
                    coin, 4, ExactParams.for_coin(coin, 4, Precision.EXACT_Q2))
        coin = make_coin_pi(Fraction(1, 2))
        with pytest.raises(FormulaDomainError):
            line_exact_values(
                coin, 4, ExactParams.for_coin(coin, 4, Precision.EXACT_Q2))
        for coin in (pi4_coin, pi3_coin):
            line_exact_values(
                coin, 4, ExactParams.for_coin(coin, 4, Precision.EXACT_Q2))

    @pytest.mark.parametrize("walk", list(WalkKind))
    @pytest.mark.parametrize("frac", [
        Fraction(1, 3), Fraction(1, 6), Fraction(2, 3), Fraction(3, 4),
        Fraction(-1, 3)], ids=["pi/3", "pi/6", "2pi/3", "3pi/4", "-pi/3"])
    def test_equals_an_independent_exact_walk(self, frac, walk):
        coin = make_coin_pi(frac)
        for t, probs in _exact_walk(walk, coin, 24):
            params = ExactParams.for_coin(coin, t, Precision.EXACT_Q2)
            if walk is WalkKind.LINE:
                got = {x: v for x, v in
                       line_exact_values(coin, t, params).items() if v}
                want = {x: p0 + p1 for x, (p0, p1) in probs.items()
                        if p0 + p1}
            else:
                got = {x: (v0 or 0, v1, vt) for x, (v0, v1, vt) in
                       half_line_exact_values(coin, t, params).items()}
                want = {x: (p0, p1, p0 + p1)
                        for x, (p0, p1) in probs.items()}
            assert got == want, t

    def test_line_matches_oracle_exactly(self, pi4_coin):
        # the series starts at t = 0, which has no closed form
        for ex in itertools.islice(q2_oracle_series(WalkKind.LINE, 200), 1, None):
            t = ex.t
            params = ExactParams.for_coin(pi4_coin, t, Precision.EXACT_Q2)
            vals = line_exact_values(pi4_coin, t, params)
            ora = ex.as_dict()
            for x, v in vals.items():
                assert v == ora.get(x, Fraction(0)), (t, x)

    def test_half_matches_oracle_exactly(self, pi4_coin):
        for ex in itertools.islice(
                q2_oracle_series(WalkKind.HALF_LINE, 200), 1, None):
            t = ex.t
            params = ExactParams.for_coin(pi4_coin, t, Precision.EXACT_Q2)
            vals = half_line_exact_values(pi4_coin, t, params)
            e0 = ex.inner_dict(0)
            e1 = ex.inner_dict(1)
            et = ex.as_dict()
            for x, (v0, v1, vt) in vals.items():
                if v0 is not None:
                    assert v0 == e0.get(x, Fraction(0)), (t, x, 0)
                assert v1 == e1.get(x, Fraction(0)), (t, x, 1)
                assert vt == et.get(x, Fraction(0)), (t, x, "tot")

    @pytest.mark.parametrize("values, reference", [
        (line_exact_values, _reference_line_values),
        (half_line_exact_values, _reference_half_line_values),
    ])
    def test_integer_sums_match_fraction_reference(self, pi4_coin, values,
                                                   reference):
        for t in [*range(1, 121), 150, 200]:
            params = ExactParams.for_coin(pi4_coin, t, Precision.EXACT_Q2)
            assert values(pi4_coin, t, params) == reference(pi4_coin, t), t

    @pytest.mark.parametrize("values", [line_exact_values,
                                        half_line_exact_values])
    def test_past_float_underflow(self, pi4_coin, values):
        # c^(2(t-1))/2 = 2^-1100 is below the smallest double
        t = 1100
        vals = values(pi4_coin, t,
                      ExactParams.for_coin(pi4_coin, t, Precision.EXACT_Q2))
        totals = [v[2] if isinstance(v, tuple) else v for v in vals.values()]
        assert all(isinstance(v, Fraction) for v in totals)
        assert min(totals) == Fraction(1, 2**t)
        assert sum(totals) == 1

    @pytest.mark.parametrize("frac", [Fraction(1, 3), Fraction(1, 6)])
    def test_integer_sums_for_other_rational_cos2(self, frac):
        # pi/3 (cos^2 = 1/4) and pi/6 (3/4) put b = q - p and p above 1;
        # every double-double pair is the reference value rounded once
        coin = make_coin_pi(frac)
        for t in range(1, 41):
            ref = _reference_line_values(coin, t)
            assert line_exact_values(coin, t) == {
                x: from_fraction(v) for x, v in ref.items()}, t
            ref = _reference_half_line_values(coin, t)
            assert half_line_exact_values(coin, t) == {
                x: tuple(None if v is None else from_fraction(v) for v in vs)
                for x, vs in ref.items()}, t

    def test_completeness_is_checked_exactly(self):
        from qwalk.closed_form import _RationalConsts

        half = Fraction(1, 2)
        consts = _RationalConsts(half, half, 2, Precision.EXACT_Q2)
        consts.check_completeness([half, half])
        for totals in ([half, half + Fraction(1, 2**200)],
                       [half, Fraction(1, 4)]):
            with pytest.raises(PrecisionError):
                consts.check_completeness(totals)
        consts = _RationalConsts(half, half, 2, Precision.DOUBLE)
        consts.check_completeness([0.5, 0.5])
        with pytest.raises(PrecisionError):
            consts.check_completeness([0.5, 0.51])
        # the common denominator with p and b above 1 (pi/3, pi/6)
        for frac in (Fraction(1, 3), Fraction(1, 6)):
            coin = make_coin_pi(frac)
            cos2 = coin.cos2_exact()
            for t in (2, 3, 7, 12):
                consts = _RationalConsts(cos2, 1 - cos2, t, Precision.EXACT_Q2)
                line = _reference_line_values(coin, t)
                consts.check_completeness(line.values())
                totals = [v[2] for v in
                          _reference_half_line_values(coin, t).values()]
                consts.check_completeness(totals)
                with pytest.raises(PrecisionError):
                    consts.check_completeness(totals[1:])

    def test_inner_split_exact(self, pi4_coin):
        for t in (6, 11, 24):
            params = ExactParams.for_coin(pi4_coin, t, Precision.EXACT_Q2)
            vals = half_line_exact_values(pi4_coin, t, params)
            for x, (v0, v1, vt) in vals.items():
                assert vt == (v0 or Fraction(0)) + v1


class TestDDPathAccuracy:
    def test_dd_vs_exact_rational_spot(self, pi4_coin):
        for t in (10, 35, 70):
            params_dd = ExactParams.for_coin(pi4_coin, t, Precision.DOUBLE_DOUBLE)
            params_ex = ExactParams.for_coin(pi4_coin, t, Precision.EXACT_Q2)
            got = line_exact_values(pi4_coin, t, params_dd)
            exact = line_exact_values(pi4_coin, t, params_ex)
            for x, v in got.items():
                assert abs(dd.to_fraction(v) - exact[x]) < Fraction(1, 10**28)

    def test_long_times_are_correctly_rounded(self, pi4_coin):
        # double-double at t = 300 and double at t = 200, far into the
        # cancellation of the alternating sums, on both walks
        for t, prec in ((300, Precision.DOUBLE_DOUBLE), (200, Precision.DOUBLE)):
            params = ExactParams.for_coin(pi4_coin, t, prec)
            for values, reference, half in (
                    (line_exact_values, _reference_line_values, False),
                    (half_line_exact_values, _reference_half_line_values, True)):
                ref = _columns(reference(pi4_coin, t), half)
                got = _columns(values(pi4_coin, t, params), half)
                assert got.keys() == ref.keys(), (t, half)
                for k, r in ref.items():
                    if prec is Precision.DOUBLE:
                        assert got[k] == float(r), (t, k)
                    else:
                        assert got[k] == from_fraction(r), (t, k)


@pytest.mark.parametrize("values, reference", [
    (line_exact_values, _reference_line_values),
    (half_line_exact_values, _reference_half_line_values),
], ids=["line", "half"])
@pytest.mark.parametrize("angle", list(_ROUNDING_COINS))
def test_values_are_the_reference_rounded_once(angle, values, reference):
    """double is float(ref); double-double is within 2^-104 of ref."""
    coin = _ROUNDING_COINS[angle]
    half = values is half_line_exact_values
    for t in [*range(1, 81), 150, 200]:
        ref = _columns(reference(coin, t), half)
        double = _columns(values(
            coin, t, ExactParams.for_coin(coin, t, Precision.DOUBLE)), half)
        pair = _columns(values(
            coin, t, ExactParams.for_coin(coin, t, Precision.DOUBLE_DOUBLE)),
            half)
        assert double.keys() == pair.keys() == ref.keys(), t
        for k, r in ref.items():
            assert double[k] == float(r), (t, k)
            assert abs(dd.to_fraction(pair[k]) - r) <= r / 2**104, (t, k)


# the float precisions round most values of tables with large integers from
# the top bits of their factors, with the uncut products only where a
# bracket straddles; with no cut widths every value comes from the uncut
# products
_NO_CUTS = {}
_CUT_TS = [*range(1, 41), 99, 200, 300]


def _tables(coin, ts=_CUT_TS, precs=(Precision.DOUBLE,
                                     Precision.DOUBLE_DOUBLE)):
    """Every table of both walks at the precisions precs, at the times ts."""
    return {(values.__name__, t, prec): values(
                coin, t, ExactParams.for_coin(coin, t, prec))
            for values in (line_exact_values, half_line_exact_values)
            for t in ts
            for prec in precs}


def _record(monkeypatch, method):
    """(precision, result) of every call of the branch method, in order."""
    calls = []
    original = getattr(closed_form._Branch, method)

    def recorded(self, ws):
        value = original(self, ws)
        calls.append((self.consts.precision, value))
        return value

    monkeypatch.setattr(closed_form._Branch, method, recorded)
    return calls


# theta = 1.5 puts values below the normal range of the doubles from
# t = 150 on
_CUT_COINS = {
    **{str(theta): make_coin(theta)
       for theta in (1.0, 2.5, -0.7, 0.3, 1e-3, 3.1415, 1.5)},
    "pi/6": make_coin_pi(Fraction(1, 6)),
    "pi/4": make_coin_pi(Fraction(1, 4)),
    "pi/3": make_coin_pi(Fraction(1, 3)),
}


@pytest.mark.parametrize("angle", list(_CUT_COINS))
def test_cut_factors_round_as_the_full_products(monkeypatch, angle):
    """Bit-identical doubles and dd pairs with and without the cuts, here
    taken at every t, below _CUT_MIN_BITS too."""
    coin = _CUT_COINS[angle]
    monkeypatch.setattr(closed_form, "_CUT_MIN_BITS", 0)
    cut = _tables(coin)
    monkeypatch.setattr(closed_form, "_CUT_BITS", _NO_CUTS)
    assert cut == _tables(coin)


def test_long_rational_angle_tables_take_the_cuts(monkeypatch):
    """pi/3 at t = 1500 is past _CUT_MIN_BITS: its dd values come from the
    cut factors and are the uncut products' values."""
    coin = make_coin_pi(Fraction(1, 3))
    bracketed = _record(monkeypatch, "_bracketed")
    cut = _tables(coin, [1500], [Precision.DOUBLE_DOUBLE])
    assert bracketed
    monkeypatch.setattr(closed_form, "_CUT_BITS", _NO_CUTS)
    assert cut == _tables(coin, [1500], [Precision.DOUBLE_DOUBLE])


def test_cut_factors_raise_as_the_full_products(monkeypatch):
    """Near pi/2 both paths refuse the same table with the same message.
    At pi/2 - 1e-9 the double sin is 1.0, so q = b and the weight's
    m^2 N0^2 (q - b) term is zero."""
    q_is_b = make_coin(math.pi / 2 - 1e-9)
    consts = closed_form._resolve(q_is_b, 200, None)
    assert consts.q == consts.b and consts.cut_bits
    for coin in (make_coin(1.5707), q_is_b):
        errors = []
        for cut_bits in (closed_form._CUT_BITS, _NO_CUTS):
            monkeypatch.setattr(closed_form, "_CUT_BITS", cut_bits)
            for values in (line_exact_values, half_line_exact_values):
                for prec in (Precision.DOUBLE, Precision.DOUBLE_DOUBLE):
                    params = ExactParams.for_coin(coin, 200, prec)
                    with pytest.raises(PrecisionError) as err:
                        values(coin, 200, params)
                    errors.append(str(err.value))
        assert errors[:4] == errors[4:], coin.theta


def test_straddled_brackets_take_the_full_products(monkeypatch):
    """With W small many brackets straddle a rounding boundary; those
    values come from the uncut products, and every value stays the same."""
    coin = make_coin(1.0)
    ts = [*range(1, 31), 120]
    want = _tables(coin, ts)
    monkeypatch.setattr(closed_form, "_CUT_MIN_BITS", 0)
    bracketed = _record(monkeypatch, "_bracketed")
    monkeypatch.setattr(closed_form, "_CUT_BITS", {
        Precision.DOUBLE: 58, Precision.DOUBLE_DOUBLE: 112})
    assert _tables(coin, ts) == want
    for prec in (Precision.DOUBLE, Precision.DOUBLE_DOUBLE):
        fell_back = [value is None for p, value in bracketed if p is prec]
        assert any(fell_back) and not all(fell_back)


def _head(value):
    return value[0] if isinstance(value, tuple) else value


def test_values_below_the_normal_range(monkeypatch):
    """At theta = 1.5, t = 300 the values below the normal range take the
    uncut products, which the rest never need; zeros come from the cuts."""
    coin = make_coin(1.5)
    want = _tables(coin, [300])
    bracketed = _record(monkeypatch, "_bracketed")
    uncut = _record(monkeypatch, "_uncut")
    assert _tables(coin, [300]) == want
    cut = [value for _, value in bracketed if value is not None]
    uncut = [value for _, value in uncut]
    assert cut and uncut
    assert all(0 < _head(value) < 2.0 ** -1022 for value in uncut)
    assert not any(0 < _head(value) < 2.0 ** -1022 for value in cut)
    assert 0.0 in map(_head, cut)


def test_float_angle_tables_need_no_full_products(monkeypatch):
    """At theta = 1.0, t = 200 every value comes from the cut factors."""
    coin = make_coin(1.0)
    want = _tables(coin, [200])

    def refuse(self, ws):
        raise AssertionError("uncut products at theta = 1.0, t = 200")

    monkeypatch.setattr(closed_form._Branch, "_uncut", refuse)
    assert _tables(coin, [200]) == want


class TestParams:
    def test_mismatched_params_rejected(self, pi4_coin):
        with pytest.raises(ValueError):
            line_exact_values(pi4_coin, 5,
                              ExactParams(theta=pi4_coin.theta, t=6))
        with pytest.raises(ValueError):
            line_exact_values(pi4_coin, 5, ExactParams(theta=1.0, t=5))


def test_package_exports_resolve():
    import qwalk
    from qwalk import closed_form

    missing = [name for name in qwalk.__all__ if not hasattr(qwalk, name)]
    assert missing == []
    assert qwalk.half_line_exact is closed_form.half_line_exact
