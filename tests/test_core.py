import dataclasses
import math
from enum import Enum
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st
from pytest import approx

from qwalk import (
    ApproxKind,
    DensityKind,
    Distribution,
    LimitDensity,
    State,
    WalkKind,
    approx_prob,
    cdf_at,
    distribution,
    evolve,
    half_line_exact,
    half_line_exact_by_inner,
    half_line_exact_total,
    half_line_exact_values,
    initial,
    iter_states,
    ks_distance,
    line_exact,
    line_exact_values,
    make_coin,
    make_coin_pi,
    q2_oracle_distribution,
    q2_oracle_series,
    run_checks,
    step,
)
from qwalk.harness import ks_tolerance, route_table, table_from_distribution

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

    def test_squares(self):
        assert make_coin_pi(Fraction(1, 3)).squares() == (Fraction(1, 4),
                                                          Fraction(3, 4))
        assert make_coin_pi(Fraction(-3, 4)).squares() == (Fraction(1, 2),
                                                           Fraction(1, 2))
        for coin in (make_coin(1.0), make_coin_pi(Fraction(2, 5)),
                     make_coin(-2.5), make_coin(1e-200)):
            c2, s2 = coin.squares()
            assert (c2, s2) == (Fraction(coin.c) ** 2, Fraction(coin.s) ** 2)
            # the doubles' squares, rounded once, are what c * c gives
            assert (float(c2), float(s2)) == (coin.c * coin.c, coin.s * coin.s)

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
        return Distribution(kind=WalkKind.LINE, t=1,
                            p0=(0.25, None, 0.0, 0.0),
                            p1=(0.0, 0.5, 0.25, 0.0),
                            p=(0.25, 0.5, 0.25, 0.0))

    def test_columns_read_by_position(self):
        d = self.dist()
        assert d.positions() == range(-2, 2)
        assert d.as_dict() == {-2: 0.25, -1: 0.5, 0: 0.25, 1: 0.0}
        assert d.inner_dict(0) == {-2: 0.25, 0: 0.0, 1: 0.0}
        assert d.inner_dict(1) == {-2: 0.0, -1: 0.5, 0: 0.25, 1: 0.0}
        assert d.total() == 1.0

    def test_prob_outside_the_columns_is_zero(self):
        d = self.dist()
        assert [d.prob(x) for x in range(-4, 3)] == [0.0, 0.0, 0.25, 0.5,
                                                     0.25, 0.0, 0.0]

    def test_unequal_columns_rejected(self):
        with pytest.raises(ValueError):
            Distribution(kind=WalkKind.LINE, t=1, p0=(None,),
                         p1=(None, None, None, None), p=(0.5,) * 4)

    @pytest.mark.parametrize("kind, t, n", [
        ("line", 1, 1), ("line", 1, 3), ("line", 1, 5), ("line", 0, 1),
        ("halfline", 2, 2), ("halfline", 2, 4), ("halfline", 0, 0)])
    def test_columns_off_the_window_rejected(self, kind, t, n):
        with pytest.raises(ValueError, match=r"^p0, p1 and p must span "):
            Distribution(kind, t, (0.5,) * n, (0.5,) * n, (1.0,) * n)

    @pytest.mark.parametrize("kind", list(WalkKind))
    def test_offset_is_the_state_window(self, kind):
        for t in (0, 1, 6):
            n = t + 1 if kind is WalkKind.HALF_LINE else 2 * t + 2
            state = State(kind, t, np.zeros((n, 2), dtype=complex))
            dist = Distribution(kind, t, (0.0,) * n, (0.0,) * n, (0.0,) * n)
            assert dist.offset == state.offset
            assert dist.positions() == range(state.offset, t + 1)


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


_PI4 = make_coin_pi(Fraction(1, 4))
# keyed by value, so a kind given either way finds its entry
_WINDOWS = {"halfline": (1, 2), "line": (2, 2)}
_DISTS = {k.value: distribution(evolve(k, _PI4, 2)) for k in WalkKind}


def _state_and_step(kind):
    state = State(kind, 0, np.zeros(_WINDOWS[kind], complex))
    return state, step(state, _PI4)


def _distribution_table(kind):
    dist = dataclasses.replace(_DISTS[kind], kind=kind)
    return dist, table_from_distribution(dist, "evolve", _PI4.theta)


def _density(kind):
    d = LimitDensity(_PI4, kind)
    return d, [cdf_at(d, y) for y in (-0.5, 0.1, 0.5)]


# every public entry point that takes a kind: its kind enum and one call
_KIND_ENTRY_POINTS = {
    "initial": (WalkKind, lambda k: initial(k, _PI4)),
    "evolve": (WalkKind, lambda k: evolve(k, _PI4, 5)),
    "iter_states": (WalkKind, lambda k: list(iter_states(k, _PI4, 3))),
    "State": (WalkKind, _state_and_step),
    "Distribution": (WalkKind, _distribution_table),
    "route_table": (WalkKind, lambda k: [
        route_table(route, k, _PI4, 3) for route in ("evolve", "exact",
                                                      "oracle")]),
    "q2_oracle_distribution": (WalkKind,
                               lambda k: q2_oracle_distribution(k, 4)),
    "q2_oracle_series": (WalkKind, lambda k: list(q2_oracle_series(k, 4))),
    "LimitDensity": (DensityKind, _density),
    "ks_distance": (DensityKind, lambda k: ks_distance(_PI4, 20, k)),
    "approx_prob": (ApproxKind, lambda k: [approx_prob(_PI4, 50, x, k)
                                           for x in (0, 10, 30)]),
}


def _key(value):
    """A comparable form of a result, each string and int tagged with its
    type, so that a kind kept as its plain value differs from the member
    and a numpy integer kept as a time differs from the int."""
    if isinstance(value, (list, tuple)):
        return tuple(map(_key, value))
    if isinstance(value, dict):
        return tuple((_key(k), _key(v)) for k, v in value.items())
    if isinstance(value, str):
        return type(value), str(value)
    if isinstance(value, (int, np.integer)):
        return type(value), int(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if dataclasses.is_dataclass(value):
        return type(value), tuple(_key(getattr(value, f.name))
                                  for f in dataclasses.fields(value))
    return value


@pytest.mark.parametrize("name, kind", [
    (name, kind) for name, (kinds, _) in _KIND_ENTRY_POINTS.items()
    for kind in kinds])
def test_kind_as_value_or_member(name, kind: Enum):
    call = _KIND_ENTRY_POINTS[name][1]
    assert _key(call(kind.value)) == _key(call(kind))


# every public entry point that takes a time: the argument's name, the
# least time it takes, a time it takes and one call
_TIME_ENTRY_POINTS = {
    "evolve": ("steps", 0, 3, lambda t: evolve("line", _PI4, t)),
    "iter_states": ("steps", 0, 3,
                    lambda t: list(iter_states("halfline", _PI4, t))),
    "State": ("t", 0, 2, lambda t: State("halfline", t, np.zeros((3, 2)))),
    "Distribution": ("t", 0, 2, lambda t: Distribution(
        "halfline", t, (0.5, 0.5, 0.0), (0.0,) * 3, (0.5, 0.5, 0.0))),
    "line_exact_values": ("t", 1, 4, lambda t: line_exact_values(_PI4, t)),
    "half_line_exact_values": ("t", 1, 4,
                               lambda t: half_line_exact_values(_PI4, t)),
    "line_exact": ("t", 1, 4, lambda t: line_exact(_PI4, t)),
    "half_line_exact": ("t", 1, 4, lambda t: half_line_exact(_PI4, t)),
    "half_line_exact_by_inner": ("t", 1, 4, lambda t: [
        half_line_exact_by_inner(_PI4, t, inner) for inner in (0, 1)]),
    "half_line_exact_total": ("t", 1, 4,
                              lambda t: half_line_exact_total(_PI4, t)),
    "q2_oracle_distribution": ("t", 0, 4,
                               lambda t: q2_oracle_distribution("line", t)),
    "q2_oracle_series": ("t_max", 0, 4,
                         lambda t: list(q2_oracle_series("halfline", t))),
    "approx_prob": ("t", 1, 50, lambda t: [
        approx_prob(_PI4, t, x, "total") for x in (0, 10, 30)]),
    "ks_distance": ("t", 1, 20, lambda t: ks_distance(_PI4, t)),
    "ks_tolerance": ("t", 1, 20, ks_tolerance),
    "run_checks": ("times", 0, 2,
                   lambda t: run_checks("lemma1", [_PI4], [t])),
    **{f"route_table[{route}]": (name, least, 4, lambda t, route=route:
                                 route_table(route, "halfline", _PI4, t))
       for route, name, least in (("evolve", "steps", 0), ("exact", "t", 1),
                                  ("approx", "t", 1), ("oracle", "t", 0))},
}


@pytest.mark.parametrize("name", _TIME_ENTRY_POINTS)
def test_time_float_int64_and_bound(name):
    """A float time raises the named TypeError, a numpy integer gives the
    result of the int, and a time below the least raises the one
    ValueError."""
    arg, least, t, call = _TIME_ENTRY_POINTS[name]
    with pytest.raises(TypeError,
                       match=rf"^{arg} must be an integer, got {t}\.0$"):
        call(float(t))
    assert _key(call(np.int64(t))) == _key(call(t))
    with pytest.raises(ValueError,
                       match=rf"^{arg} must be >= {least}, got {least - 1}$"):
        call(least - 1)


# every public entry point that takes an inner index, and one call
_INNER_ENTRY_POINTS = {
    "Distribution.inner_dict": lambda inner: _DISTS["line"].inner_dict(inner),
    "State.amplitude": lambda inner: evolve("line", _PI4, 2).amplitude(
        -1, inner),
    "half_line_exact_by_inner": lambda inner: half_line_exact_by_inner(
        _PI4, 3, inner),
}


@pytest.mark.parametrize("name", _INNER_ENTRY_POINTS)
@pytest.mark.parametrize("bad, error, message", [
    (1.0, TypeError, r"inner must be an integer, got 1\.0"),
    ("1", TypeError, r"inner must be an integer, got '1'"),
    (2, ValueError, r"inner must be 0 or 1, got 2"),
    (-1, ValueError, r"inner must be 0 or 1, got -1"),
])
def test_inner_is_0_or_1_by_one_rule(name, bad, error, message):
    """Each entry point takes 0 and 1, a numpy integer as the int, and
    refuses anything else with the one message."""
    call = _INNER_ENTRY_POINTS[name]
    with pytest.raises(error, match=rf"^{message}$"):
        call(bad)
    assert _key(call(0)) != _key(call(1))
    assert _key(call(np.int64(1))) == _key(call(1))
