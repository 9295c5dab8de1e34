import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st
from pytest import approx

from qwalk import (
    Distribution,
    State,
    WalkKind,
    distribution,
    evolve,
    initial,
    make_coin,
    make_coin_pi,
    step,
)

SQRT1_2 = math.sqrt(0.5)


class TestMakeCoin:
    def test_identity_angle(self):
        coin = make_coin(0.0)
        assert coin.c == 1.0
        assert coin.s == 0.0

    def test_pi_over_4(self):
        coin = make_coin(math.pi / 4)
        assert coin.c == approx(0.70710678, abs=1e-8)
        assert coin.s == approx(0.70710678, abs=1e-8)

    def test_pi_over_3(self):
        coin = make_coin(math.pi / 3)
        assert coin.c == approx(0.5, abs=1e-15)
        assert coin.s == approx(0.86602540, abs=1e-8)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            make_coin(bad)

    def test_pi_fraction_carried(self):
        coin = make_coin_pi(Fraction(1, 4))
        assert coin.pi_fraction == Fraction(1, 4)
        assert coin.theta == approx(math.pi / 4, abs=1e-15)
        assert coin.cos2_exact() == Fraction(1, 2)
        assert make_coin_pi(Fraction(1, 3)).cos2_exact() == Fraction(1, 4)
        assert make_coin_pi(Fraction(1, 6)).cos2_exact() == Fraction(3, 4)
        assert make_coin_pi(Fraction(2, 5)).cos2_exact() is None
        assert make_coin(1.0).cos2_exact() is None

    def test_degenerate_detection(self):
        assert make_coin_pi(Fraction(1, 2)).is_degenerate()
        assert make_coin_pi(0).is_degenerate()
        assert make_coin_pi(Fraction(3, 2)).is_degenerate()
        assert not make_coin_pi(Fraction(1, 4)).is_degenerate()
        assert not make_coin(1.0).is_degenerate()

    def test_unitary_involutive_random_sample(self):
        rng = np.random.default_rng(20160201)
        eye = np.eye(2)
        for theta in rng.uniform(0.0, 2.0 * math.pi, size=10_000):
            coin = make_coin(float(theta))
            m = coin.matrix()
            assert abs(coin.c**2 + coin.s**2 - 1.0) <= 1e-15
            assert np.max(np.abs(m @ m - eye)) <= 1e-15


@given(st.floats(min_value=-50.0, max_value=50.0))
def test_coin_row_norm_any_theta(theta):
    coin = make_coin(theta)
    assert abs(coin.c**2 + coin.s**2 - 1.0) <= 1e-15


class TestInitialStates:
    def test_half_line_amplitudes_pi4(self, pi4_coin):
        state = initial(WalkKind.HALF_LINE, pi4_coin)
        phase = complex(pi4_coin.c, -pi4_coin.s)
        assert state.amplitude(0, 0) == approx(phase * SQRT1_2, abs=1e-16)
        assert state.amplitude(0, 1) == approx(1j * phase * SQRT1_2, abs=1e-16)
        assert state.norm_sq() == approx(1.0, abs=1e-15)

    def test_half_line_theta_zero_has_unit_phase(self):
        state = initial(WalkKind.HALF_LINE, make_coin(0.0))
        assert state.amplitude(0, 0) == approx(SQRT1_2, abs=1e-16)
        assert state.amplitude(0, 1) == approx(1j * SQRT1_2, abs=1e-16)

    def test_half_line_localized(self):
        for theta in (0.0, 0.7, 2.0, 4.5):
            state = initial(WalkKind.HALF_LINE, make_coin(theta))
            assert state.t == 0
            assert distribution(state).prob(0) == approx(1.0, abs=1e-15)

    def test_line_amplitudes(self, pi4_coin, pi3_coin):
        state = initial(WalkKind.LINE, pi4_coin)
        for x in (-1, 0):
            assert state.amplitude(x, 0) == approx(0.5, abs=1e-15)
            assert state.amplitude(x, 1) == approx(0.5, abs=1e-15)
        state = initial(WalkKind.LINE, pi3_coin)
        for x in (-1, 0):
            assert state.amplitude(x, 0) == approx(0.5 * SQRT1_2, abs=1e-15)
            assert state.amplitude(x, 1) == approx(
                math.sqrt(3) / 2 * SQRT1_2, abs=1e-15)

    @given(st.floats(min_value=-10.0, max_value=10.0))
    def test_both_initial_states_normalized(self, theta):
        coin = make_coin(theta)
        assert abs(initial(WalkKind.HALF_LINE, coin).norm_sq() - 1.0) <= 1e-15
        assert abs(initial(WalkKind.LINE, coin).norm_sq() - 1.0) <= 1e-15

    def test_line_initial_is_real(self):
        state = initial(WalkKind.LINE, make_coin(1.3))
        assert np.all(state.amps.imag == 0.0)


class TestStates:
    def test_amplitude_outside_window_is_zero(self):
        state = initial(WalkKind.LINE, make_coin(1.0))
        assert state.amplitude(5, 0) == 0
        assert state.amplitude(-3, 1) == 0
        half = initial(WalkKind.HALF_LINE, make_coin(1.0))
        assert half.amplitude(1, 0) == 0
        assert half.amplitude(-1, 0) == 0

    def test_states_are_frozen(self):
        state = initial(WalkKind.HALF_LINE, make_coin(1.0))
        with pytest.raises(ValueError):
            state.amps[0, 0] = 1.0

    def test_window_shape_enforced(self):
        with pytest.raises(ValueError):
            State(WalkKind.HALF_LINE, 2, np.zeros((2, 2), dtype=complex))
        with pytest.raises(ValueError):
            State(WalkKind.LINE, 1, np.zeros((3, 2), dtype=complex))

    def test_kind_and_offset(self):
        half = State(WalkKind.HALF_LINE, 2, np.zeros((3, 2), dtype=complex))
        line = State(WalkKind.LINE, 2, np.zeros((6, 2), dtype=complex))
        assert (half.kind, half.offset) == (WalkKind.HALF_LINE, 0)
        assert (line.kind, line.offset) == (WalkKind.LINE, -3)
        assert line.amplitude(-3, 0) == line.amplitude(-3, 1) == 0j
        assert line.amplitude(3, 0) == line.amplitude(3, 1) == 0j


class TestDistribution:
    def dist(self):
        return Distribution(kind=WalkKind.LINE, t=1, offset=-2,
                            p0=(0.25, None, 0.0), p1=(0.0, 0.5, 0.25),
                            p=(0.25, 0.5, 0.25))

    def test_columns_read_by_position(self):
        d = self.dist()
        assert d.positions() == range(-2, 1)
        assert d.as_dict() == {-2: 0.25, -1: 0.5, 0: 0.25}
        assert d.inner_dict(0) == {-2: 0.25, 0: 0.0}
        assert d.inner_dict(1) == {-2: 0.0, -1: 0.5, 0: 0.25}
        assert d.total() == 1.0

    def test_prob_outside_the_columns_is_zero(self):
        d = self.dist()
        assert [d.prob(x) for x in range(-4, 3)] == [0.0, 0.0, 0.25, 0.5,
                                                     0.25, 0.0, 0.0]

    def test_unequal_columns_rejected(self):
        with pytest.raises(ValueError):
            Distribution(kind=WalkKind.LINE, t=1, offset=-2, p0=(None,),
                         p1=(None, None), p=(0.5, 0.5))


def test_global_phase_invariance_at_distribution_level(pi4_coin):
    """Dropping the initial global phase leaves every probability unchanged."""
    amps = np.zeros((1, 2), dtype=np.complex128)
    amps[0, 0] = SQRT1_2
    amps[0, 1] = 1j * SQRT1_2
    unphased = State(WalkKind.HALF_LINE, 0, amps)
    phased = initial(WalkKind.HALF_LINE, pi4_coin)
    for _ in range(100):
        unphased = step(unphased, pi4_coin)
        phased = step(phased, pi4_coin)
        da = distribution(phased)
        db = distribution(unphased)
        worst = max(
            abs(a - b)
            for col_a, col_b in ((da.p0, db.p0), (da.p1, db.p1), (da.p, db.p))
            for a, b in zip(col_a, col_b)
        )
        assert worst <= 1e-14


def test_evolve_accepts_kind_strings(pi4_coin):
    state = evolve("halfline", pi4_coin, 3)
    assert state.kind is WalkKind.HALF_LINE
    state = evolve("line", pi4_coin, 3)
    assert state.kind is WalkKind.LINE
