import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st
from pytest import approx

from qwalk import (
    State,
    WalkKind,
    distribution,
    evolve,
    initial,
    iter_states,
    make_coin,
    make_coin_pi,
    step,
)
from qwalk.cli import main
from qwalk.evolution import probability_arrays
from qwalk.harness import render_csv, table_from_distribution

SQRT1_2 = math.sqrt(0.5)

# the smallest power of two whose square is a nonzero double
SQUARE_UNDERFLOW = 2.0 ** -537
TINY = np.finfo(np.float64).tiny

EXACTNESS_COINS = (
    make_coin_pi(Fraction(1, 6)),
    make_coin_pi(Fraction(1, 4)),
    make_coin_pi(Fraction(1, 3)),
    make_coin_pi(Fraction(2, 5)),
    make_coin_pi(Fraction(-1, 4)),
    make_coin(1.0),
    make_coin(0.99),
    make_coin(1.01),
    make_coin(-0.7),
    make_coin(2.5),
)


# the exactness coins and angles where c and s are both negative
TWIN_COINS = EXACTNESS_COINS + (
    make_coin(-2.2),
    make_coin_pi(Fraction(-3, 4)),
)


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


def minus_i(amps):
    """-i times each amplitude on floats: the real and imaginary parts
    swapped and the new imaginary part negated."""
    out = np.empty_like(amps)
    out.real = amps.imag
    out.imag = -amps.real
    return out


def assert_twins(state):
    """Every value of the window comes twice: the line's sites 2j and
    2j + 1 are equal, and the half line's z(x + 1) is -i z(x) for x = 2j at
    odd t and x = 2j + 1 at even t."""
    a = state.amps
    if state.kind is WalkKind.LINE:
        assert np.array_equal(a[0::2], a[1::2])
    else:
        first = 1 - state.t % 2
        assert np.array_equal(a[first + 1::2], minus_i(a[first::2]))


def assert_same_walk(state, ref):
    """Equal amplitudes (a zero may differ in sign), equal probability bytes."""
    assert state.kind is ref.kind and state.t == ref.t
    assert state.amps.dtype == np.complex128
    assert np.array_equal(state.amps, ref.amps)
    for p, q in zip(probability_arrays(state), probability_arrays(ref)):
        assert p.tobytes() == q.tobytes()


def assert_same_walk_where_squares_count(state, ref):
    """Equal probability bytes, and equal amplitudes wherever one is large.

    The kernel drops subnormal amplitudes outside the light cone. That
    changes only components whose square underflows to zero: every
    component of size 2^-537 or more in either state is bit-identical, and
    an exact zero the reference does not hold replaces a subnormal.
    """
    assert state.kind is ref.kind and state.t == ref.t
    for p, q in zip(probability_arrays(state), probability_arrays(ref)):
        assert p.tobytes() == q.tobytes()
    a = state.amps.view(np.float64)
    r = ref.amps.view(np.float64)
    large = (np.abs(a) >= SQUARE_UNDERFLOW) | (np.abs(r) >= SQUARE_UNDERFLOW)
    assert np.array_equal(a[large], r[large])
    dropped = (a == 0) & (r != 0)
    assert np.all(np.abs(r[dropped]) < TINY)
    return int(dropped.sum())


def hand_half_line_t1(coin):
    """One hand-applied step from the localized start.

    Coin sends (a0, a1) to (c a0 + s a1, s a0 - c a1); the boundary shift
    then parks the post-coin inner 0 at the origin as inner 1 and moves the
    inner 1 to x = 1. Everything lands in inner state 1.
    """
    phase = complex(coin.c, -coin.s)
    b0 = phase * (coin.c + 1j * coin.s) * SQRT1_2
    b1 = phase * (coin.s - 1j * coin.c) * SQRT1_2
    return b0, b1


def hand_half_line_t2(coin):
    """Two hand-applied steps; returns (a0(0), b(0), b(1), b(2))."""
    b0, b1 = hand_half_line_t1(coin)
    c, s = coin.c, coin.s
    # coin on pure inner-1 sites: a0' = s*b, a1' = -c*b
    a0_0 = s * b1          # left-mover arriving from x = 1
    b_0 = s * b0           # boundary turnaround of the x = 0 left-mover
    b_1 = -c * b0
    b_2 = -c * b1
    return a0_0, b_0, b_1, b_2


class TestStepHalfLine:
    @pytest.mark.parametrize("theta", [0.0, math.pi / 4, math.pi / 3, 1.0, 2.5])
    def test_one_step_amplitudes(self, theta):
        coin = make_coin(theta)
        state = step(initial(WalkKind.HALF_LINE, coin), coin)
        b0, b1 = hand_half_line_t1(coin)
        assert state.t == 1
        assert state.amplitude(0, 0) == approx(0, abs=1e-16)
        assert state.amplitude(1, 0) == approx(0, abs=1e-16)
        assert state.amplitude(0, 1) == approx(b0, abs=1e-15)
        assert state.amplitude(1, 1) == approx(b1, abs=1e-15)

    @pytest.mark.parametrize("theta", [0.0, math.pi / 4, 1.0])
    def test_one_step_distribution_is_half_half(self, theta):
        coin = make_coin(theta)
        dist = distribution(step(initial(WalkKind.HALF_LINE, coin), coin))
        assert dist.prob(0) == approx(0.5, abs=1e-15)
        assert dist.prob(1) == approx(0.5, abs=1e-15)

    def test_two_step_amplitudes(self):
        coin = make_coin(1.1)
        state = evolve(WalkKind.HALF_LINE, coin, 2)
        a0_0, b_0, b_1, b_2 = hand_half_line_t2(coin)
        assert state.amplitude(0, 0) == approx(a0_0, abs=1e-15)
        assert state.amplitude(0, 1) == approx(b_0, abs=1e-15)
        assert state.amplitude(1, 1) == approx(b_1, abs=1e-15)
        assert state.amplitude(2, 1) == approx(b_2, abs=1e-15)
        assert state.amplitude(1, 0) == approx(0, abs=1e-16)
        assert state.amplitude(2, 0) == approx(0, abs=1e-16)

    def test_norm_preserved_1000_steps(self):
        coin = make_coin(1.0)
        state = evolve(WalkKind.HALF_LINE, coin, 1000)
        assert abs(state.norm_sq() - 1.0) <= 1e-12


class TestStepLine:
    def test_first_step_collapses_to_left_movers(self):
        # the delocalized start is built so the right-moving component
        # cancels on the first step, for every angle
        for theta in (0.4, math.pi / 4, 2.2):
            coin = make_coin(theta)
            state = step(initial(WalkKind.LINE, coin), coin)
            assert state.amplitude(-2, 0) == approx(SQRT1_2, abs=1e-15)
            assert state.amplitude(-1, 0) == approx(SQRT1_2, abs=1e-15)
            p = distribution(state)
            assert p.prob(-2) == approx(0.5, abs=1e-15)
            assert p.prob(-1) == approx(0.5, abs=1e-15)

    def test_t2_distribution_pi4(self, pi4_coin):
        dist = distribution(evolve(WalkKind.LINE, pi4_coin, 2))
        for x in (-3, -2, -1, 0):
            assert dist.prob(x) == approx(0.25, abs=1e-15)

    def test_t2_amplitudes_general_theta(self):
        coin = make_coin(0.9)
        state = evolve(WalkKind.LINE, coin, 2)
        c, s = coin.c, coin.s
        assert state.amplitude(-3, 0) == approx(c * SQRT1_2, abs=1e-15)
        assert state.amplitude(-2, 0) == approx(c * SQRT1_2, abs=1e-15)
        assert state.amplitude(-1, 1) == approx(s * SQRT1_2, abs=1e-15)
        assert state.amplitude(0, 1) == approx(s * SQRT1_2, abs=1e-15)

    def test_amplitudes_stay_real_500_steps(self, pi3_coin):
        state = evolve(WalkKind.LINE, pi3_coin, 500)
        assert float(np.max(np.abs(state.amps.imag))) < 1e-15

    def test_support_window(self):
        coin = make_coin(0.8)
        state = evolve(WalkKind.LINE, coin, 7)
        assert state.offset == -8
        assert state.amps.shape == (16, 2)


class TestEvolve:
    def test_zero_steps_returns_initial(self, pi4_coin):
        state = evolve(WalkKind.HALF_LINE, pi4_coin, 0)
        ref = initial(WalkKind.HALF_LINE, pi4_coin)
        assert np.array_equal(state.amps, ref.amps)

    def test_negative_steps_rejected(self, pi4_coin):
        with pytest.raises(ValueError):
            evolve(WalkKind.HALF_LINE, pi4_coin, -1)
        with pytest.raises(ValueError):
            list(iter_states(WalkKind.LINE, pi4_coin, -2))

    @pytest.mark.parametrize("kind", [WalkKind.HALF_LINE, WalkKind.LINE])
    def test_steps_must_be_an_integer(self, pi4_coin, kind):
        message = r"^steps must be an integer, got 2\.0$"
        with pytest.raises(TypeError, match=message):
            evolve(kind, pi4_coin, 2.0)
        with pytest.raises(TypeError, match=message):
            list(iter_states(kind, pi4_coin, 2.0))
        three = evolve(kind, pi4_coin, np.int64(3))
        assert three.t == 3 and type(three.t) is int
        assert three.amps.tobytes() == evolve(kind, pi4_coin, 3).amps.tobytes()

    @pytest.mark.parametrize("kind", [WalkKind.HALF_LINE, WalkKind.LINE])
    def test_iter_states_checks_arguments_on_the_call(self, pi4_coin, kind):
        """The refusal comes from the call itself, before any next()."""
        with pytest.raises(TypeError,
                           match=r"^steps must be an integer, got 4\.0$"):
            iter_states(kind, pi4_coin, 4.0)
        with pytest.raises(ValueError, match=r"^steps must be >= 0, got -1$"):
            iter_states(kind, pi4_coin, -1)
        with pytest.raises(ValueError):
            iter_states("ring", pi4_coin, 4)

    def test_norm_after_500_steps_pi3(self, pi3_coin):
        state = evolve(WalkKind.HALF_LINE, pi3_coin, 500)
        assert abs(state.norm_sq() - 1.0) <= 1e-12

    def test_determinism_bit_identical(self, pi4_coin):
        a = evolve(WalkKind.LINE, pi4_coin, 60)
        b = evolve(WalkKind.LINE, pi4_coin, 60)
        assert np.array_equal(a.amps, b.amps)


class TestExactness:
    """The kernel computes the same products and sums as complex steps."""

    @pytest.mark.parametrize("coin", EXACTNESS_COINS,
                             ids=lambda c: f"{c.theta:.4f}")
    @pytest.mark.parametrize("kind", [WalkKind.HALF_LINE, WalkKind.LINE])
    def test_every_t_to_300(self, kind, coin):
        refs = reference_states(kind, coin, 300)
        for (t, state), ref in zip(iter_states(kind, coin, 300), refs):
            assert_same_walk(state, ref)
        assert t == 300
        assert_same_walk(evolve(kind, coin, 300), ref)

    @pytest.mark.parametrize("coin", [make_coin_pi(Fraction(1, 4)),
                                      make_coin(1.0),
                                      make_coin_pi(Fraction(2, 5)),
                                      make_coin(-0.7)],
                             ids=lambda c: f"{c.theta:.4f}")
    @pytest.mark.parametrize("kind", [WalkKind.HALF_LINE, WalkKind.LINE])
    def test_t3000(self, kind, coin):
        for ref in reference_states(kind, coin, 3000):
            pass
        assert_same_walk_where_squares_count(evolve(kind, coin, 3000), ref)

    @pytest.mark.parametrize("kind", [WalkKind.HALF_LINE, WalkKind.LINE])
    def test_states_across_trims_equal_evolve(self, kind):
        # the live sites are trimmed every 64 steps; at theta = 1.0 the
        # first trim that drops sites falls between t = 1000 and 1500
        coin = make_coin(1.0)
        last = 1537
        for t, state in iter_states(kind, coin, last):
            if t in (63, 64, 65, 1500, 1501, last):
                ref = evolve(kind, coin, t)
                assert state.amps.tobytes() == ref.amps.tobytes(), t
        for ref in reference_states(kind, coin, 1501):
            pass
        assert assert_same_walk_where_squares_count(
            evolve(kind, coin, 1501), ref) > 0

    @pytest.mark.parametrize("coin,steps", [(make_coin(1.0), 1600),
                                            (make_coin_pi(Fraction(2, 5)), 900)],
                             ids=["1.0000", "1.2566"])
    @pytest.mark.parametrize("kind", [WalkKind.HALF_LINE, WalkKind.LINE])
    def test_every_t_equals_the_trimmed_reference(self, kind, coin, steps):
        refs = trimmed_reference_states(kind, coin, steps)
        for (t, state), ref in zip(iter_states(kind, coin, steps), refs):
            assert_same_walk(state, ref)
        assert t == steps
        # the trims did drop subnormals the plain reference still carries
        for ref in reference_states(kind, coin, steps):
            pass
        assert assert_same_walk_where_squares_count(state, ref) > 0

    def test_simulate_csv_matches_the_reference(self, capsys):
        coin = make_coin(1.0)
        for ref in reference_states(WalkKind.HALF_LINE, coin, 3000):
            pass
        table = table_from_distribution(distribution(ref), "evolve", 1.0)
        assert main(["simulate", "--theta", "1.0", "--steps", "3000"]) == 0
        assert capsys.readouterr().out == render_csv(table)

    def test_single_steps_from_any_state(self):
        # step keeps the imaginary part of a complex line window
        rng = np.random.default_rng(7)
        coin = make_coin(0.8)
        for t in (0, 1, 5):
            amps = (rng.standard_normal((2 * t + 2, 2))
                    + 1j * rng.standard_normal((2 * t + 2, 2)))
            line = State(WalkKind.LINE, t, amps)
            assert_same_walk(step(line, coin),
                             reference_line_step(line, coin))
            half = State(WalkKind.HALF_LINE, t, amps[: t + 1].copy())
            assert_same_walk(step(half, coin),
                             reference_half_line_step(half, coin))

    @pytest.mark.parametrize("kind", [WalkKind.HALF_LINE, WalkKind.LINE])
    def test_collected_states_stay_valid(self, kind):
        coin = make_coin(1.0)
        states = list(iter_states(kind, coin, 40))
        assert [t for t, _ in states] == list(range(41))
        for t, state in states:
            ref = evolve(kind, coin, t)
            assert state.amps.tobytes() == ref.amps.tobytes()
            assert not state.amps.flags.writeable
        for (_, a), (_, b) in zip(states, states[1:]):
            assert not np.shares_memory(a.amps, b.amps)


class TestTwins:
    """The paper's starts repeat every value, bit for bit, in the tests'
    own complex reference: the premise of the kernel's pairs."""

    @pytest.mark.parametrize("coin", TWIN_COINS,
                             ids=lambda c: f"{c.theta:.4f}")
    @pytest.mark.parametrize("kind", [WalkKind.HALF_LINE, WalkKind.LINE])
    def test_the_reference_repeats_every_value(self, kind, coin):
        for ref in reference_states(kind, coin, 3000):
            if ref.t <= 300 or ref.t == 3000:
                assert_twins(ref)
        assert ref.t == 3000

    def test_the_check_fails_without_twins(self):
        amps = np.array([[1.0, 0.5j], [0.25, 2.0]])
        for kind, t in ((WalkKind.HALF_LINE, 1), (WalkKind.LINE, 0)):
            with pytest.raises(AssertionError):
                assert_twins(State(kind, t, amps))


@seed(2016)
@settings(max_examples=200, deadline=None)
@given(theta=st.floats(-math.pi, math.pi, exclude_min=True,
                       exclude_max=True),
       t=st.integers(0, 400),
       kind=st.sampled_from(list(WalkKind)))
def test_drawn_walks_equal_the_reference(theta, t, kind):
    """evolve and the last state of iter_states equal the trimmed complex
    reference at drawn angles and times."""
    coin = make_coin(theta)
    for ref in trimmed_reference_states(kind, coin, t):
        pass
    assert_same_walk(evolve(kind, coin, t), ref)
    for _, state in iter_states(kind, coin, t):
        pass
    assert_same_walk(state, ref)


class TestDistribution:
    def test_half_line_t1_rows(self, pi4_coin):
        dist = distribution(evolve(WalkKind.HALF_LINE, pi4_coin, 1))
        assert list(dist.positions()) == [0, 1]
        assert dist.p0 == approx((0.0, 0.0), abs=1e-16)
        assert dist.p1 == approx((0.5, 0.5), abs=1e-14)
        assert dist.p == approx((0.5, 0.5), abs=1e-14)

    def test_line_t1_rows(self, pi4_coin):
        dist = distribution(evolve(WalkKind.LINE, pi4_coin, 1))
        p0, p1 = dist.inner_dict(0), dist.inner_dict(1)
        for x in (-2, -1):
            assert p0[x] == approx(0.5, abs=1e-14)
            assert p1[x] == approx(0.0, abs=1e-16)
        assert dist.prob(0) == approx(0.0, abs=1e-16)
        assert dist.prob(1) == approx(0.0, abs=1e-16)

    @pytest.mark.parametrize("theta", [0.3, 1.0, math.pi / 3, 2.7])
    @pytest.mark.parametrize("kind", [WalkKind.HALF_LINE, WalkKind.LINE])
    def test_total_probability_one(self, theta, kind):
        coin = make_coin(theta)
        dist = distribution(evolve(kind, coin, 40))
        assert dist.total() == approx(1.0, abs=1e-12)

    def test_adjacent_pair_equality_line(self):
        """Positions t-2m and t-2m-1 carry the same probability, and the
        mirrored pair does too."""
        for theta in (math.pi / 4, math.pi / 3, 1.0):
            coin = make_coin(theta)
            for t in (5, 12, 25):
                dist = distribution(evolve(WalkKind.LINE, coin, t))
                for m in range(1, t // 2 + 1):
                    assert dist.prob(t - 2 * m) == approx(
                        dist.prob(t - 2 * m - 1), abs=1e-12)
                    assert dist.prob(-(t - 2 * m)) == approx(
                        dist.prob(-(t - 2 * m) - 1), abs=1e-12)

    def test_support_never_exceeds_window(self):
        coin = make_coin(1.0)
        for t, state in iter_states(WalkKind.HALF_LINE, coin, 30):
            assert state.amps.shape[0] == t + 1
            assert abs(state.norm_sq() - 1.0) <= 1e-13

    def test_subnormal_probabilities_floored_to_zero(self):
        amps = np.zeros((2, 2), dtype=np.complex128)
        amps[0, 0] = 1e-160  # squares to a subnormal
        amps[1, 1] = 1.0
        dist = distribution(State(WalkKind.LINE, 0, amps))
        assert dist.p0[0] == 0.0
        assert dist.p[0] == 0.0
        assert dist.p1[1] == 1.0
