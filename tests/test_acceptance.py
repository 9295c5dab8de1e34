"""Acceptance criteria for the whole package, one test per criterion.

Each test prints a single PASS line with the measured figure of merit once
its assertions hold; tolerances are frozen here and nowhere else.
"""
import math
import time
from fractions import Fraction

import numpy as np

from qwalk import (
    ApproxKind,
    DensityKind,
    ExactParams,
    LimitDensity,
    Precision,
    WalkKind,
    approx_prob,
    density_at,
    distribution,
    evolve,
    half_line_exact_by_inner,
    half_line_exact_total,
    half_line_exact_values,
    iter_states,
    ks_distance,
    line_exact_values,
    make_coin,
    make_coin_pi,
    q2_oracle_series,
)
from qwalk import dd
from qwalk.evolution import probability_arrays
from qwalk.harness import canonical_coins

from conftest import THETA_GRID_20

COINS = canonical_coins()
PI4 = make_coin_pi(Fraction(1, 4))
PI3 = make_coin_pi(Fraction(1, 3))


def _report(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n}: PASS  {text}")


def test_criterion_1_unitarity_at_t_10000():
    worst = 0.0
    slowest = 0.0
    for coin in COINS:
        for kind in (WalkKind.HALF_LINE, WalkKind.LINE):
            start = time.perf_counter()
            state = evolve(kind, coin, 10_000)
            elapsed = time.perf_counter() - start
            drift = abs(state.norm_sq() - 1.0)
            assert drift <= 1e-12, (coin.theta, kind, drift)
            assert elapsed <= 10.0, (coin.theta, kind, elapsed)
            worst = max(worst, drift)
            slowest = max(slowest, elapsed)
    _report(1, f"norm drift <= {worst:.2e} at t=10^4, slowest config "
               f"{slowest:.1f}s")


def test_criterion_2_probability_copy_to_t500():
    worst = 0.0
    for coin in COINS:
        line_iter = iter_states(WalkKind.LINE, coin, 500)
        half_iter = iter_states(WalkKind.HALF_LINE, coin, 500)
        for (t, line_state), (_, half_state) in zip(line_iter, half_iter):
            if t == 0:
                continue
            p0, p1 = probability_arrays(half_state)
            pl0, pl1 = probability_arrays(line_state)
            pl = pl0 + pl1
            res = max(
                float(np.abs(p0 - pl[t + 1:]).max()),
                float(np.abs(p1 - pl[t::-1]).max()),
            )
            worst = max(worst, res)
    assert worst <= 1e-12
    _report(2, f"inner0/inner1 copy residual <= {worst:.2e} for t <= 500")


def test_criterion_3_amplitude_identities_to_t300():
    from qwalk.harness import _lemma1_residual, _lemma2_residual

    worst1 = worst2 = 0.0
    for coin in COINS:
        line_iter = iter_states(WalkKind.LINE, coin, 300)
        half_iter = iter_states(WalkKind.HALF_LINE, coin, 300)
        for (t, line_state), (_, half_state) in zip(line_iter, half_iter):
            if t == 0:
                continue
            worst1 = max(worst1, _lemma1_residual(coin, line_state))
            worst2 = max(worst2, _lemma2_residual(coin, line_state,
                                                  half_state))
    assert worst1 <= 1e-12
    assert worst2 <= 1e-12
    _report(3, f"mirror residual <= {worst1:.2e}, copy residual <= "
               f"{worst2:.2e} for t <= 300")


def test_criterion_4_closed_form_matches_simulation_figures():
    worst = 0.0
    for coin in (PI4, PI3):
        for t in (14, 15):
            sim = distribution(evolve(WalkKind.HALF_LINE, coin, t))
            tot = half_line_exact_total(coin, t).as_dict()
            i0 = half_line_exact_by_inner(coin, t, 0).inner_dict(0)
            i1 = half_line_exact_by_inner(coin, t, 1).inner_dict(1)
            for x in range(0, t + 1):
                worst = max(
                    worst,
                    abs(tot.get(x, 0.0) - sim.prob(x)),
                    abs(i0.get(x, 0.0) - sim.inner_dict(0)[x]),
                    abs(i1.get(x, 0.0) - sim.inner_dict(1)[x]),
                )
    assert worst <= 1e-12
    _report(4, f"closed form vs evolution residual <= {worst:.2e} at "
               "(t, theta) in {14,15} x {pi/4, pi/3}")


def test_criterion_5_exact_oracle_agreement():
    # double-double closed form against the exact rational oracle, t <= 100
    worst_dd = Fraction(0)
    line_oracle = {}
    for dist in q2_oracle_series(WalkKind.LINE, 200):
        line_oracle[dist.t] = dist
    half_oracle = {}
    for dist in q2_oracle_series(WalkKind.HALF_LINE, 200):
        half_oracle[dist.t] = dist
    for t in range(1, 101):
        params = ExactParams.for_coin(PI4, t, Precision.DOUBLE_DOUBLE)
        vals = line_exact_values(PI4, t, params)
        exact = line_oracle[t].as_dict()
        for x, v in vals.items():
            worst_dd = max(worst_dd,
                           abs(dd.to_fraction(v) - exact.get(x, Fraction(0))))
        hvals = half_line_exact_values(PI4, t, params)
        e0 = half_oracle[t].inner_dict(0)
        e1 = half_oracle[t].inner_dict(1)
        et = half_oracle[t].as_dict()
        for x, (v0, v1, vt) in hvals.items():
            if v0 is not None:
                worst_dd = max(worst_dd, abs(dd.to_fraction(v0)
                                             - e0.get(x, Fraction(0))))
            worst_dd = max(worst_dd, abs(dd.to_fraction(v1)
                                         - e1.get(x, Fraction(0))))
            worst_dd = max(worst_dd, abs(dd.to_fraction(vt)
                                         - et.get(x, Fraction(0))))
    assert worst_dd <= Fraction(1, 10**25)

    # oracle against double-precision evolution, t <= 200
    worst_float = 0.0
    for kind, oracle in ((WalkKind.LINE, line_oracle),
                         (WalkKind.HALF_LINE, half_oracle)):
        for t, state in iter_states(kind, PI4, 200):
            if t == 0:
                continue
            sim = distribution(state)
            for x, p in oracle[t].as_dict().items():
                worst_float = max(worst_float, abs(float(p) - sim.prob(x)))
    assert worst_float <= 1e-13
    _report(5, f"dd vs oracle <= {float(worst_dd):.2e} (t <= 100); oracle vs "
               f"evolution <= {worst_float:.2e} (t <= 200)")


def test_criterion_6_edge_formulas():
    worst = 0.0
    for coin in COINS:
        c = coin.c
        for t, state in iter_states(WalkKind.LINE, coin, 100):
            if t == 0:
                continue
            pl0, pl1 = probability_arrays(state)
            pl = pl0 + pl1
            edge = c ** (2 * (t - 1)) / 2.0
            worst = max(worst, abs(pl[0] - edge), abs(pl[1] - edge))
        for t, state in iter_states(WalkKind.HALF_LINE, coin, 100):
            if t == 0 or t % 2 == 0:
                continue
            half_t = (t - 1) // 2
            frontier = c ** (4 * half_t) / 2.0
            _, p1 = probability_arrays(state)
            worst = max(worst, abs(p1[t] - frontier))
    assert worst <= 1e-12
    _report(6, f"edge/frontier formula residual <= {worst:.2e} for t <= 100")


def test_criterion_7_limit_density_normalization():
    from qwalk import total_mass

    worst = 0.0
    for theta in THETA_GRID_20:
        coin = make_coin(theta)
        worst = max(
            worst,
            abs(total_mass(LimitDensity(coin, DensityKind.LINE_TOTAL)) - 1.0),
            abs(total_mass(LimitDensity(coin, DensityKind.HALF_TOTAL)) - 1.0),
            abs(total_mass(LimitDensity(coin, DensityKind.HALF_INNER0))
                + total_mass(LimitDensity(coin, DensityKind.HALF_INNER1))
                - 1.0),
        )
    assert worst <= 1e-8

    d = LimitDensity(PI4, DensityKind.HALF_TOTAL)
    edge = 1.0 / math.sqrt(2.0)
    worst_pt = 0.0
    for y in np.linspace(0.0, edge - 1e-9, 10_000):
        ref = 2.0 / (math.pi * (1.0 - y * y) * math.sqrt(1.0 - 2.0 * y * y))
        # the density is unbounded near the edge, so the 1e-14 tolerance is
        # taken relative once the reference exceeds 1
        worst_pt = max(worst_pt,
                       abs(density_at(d, float(y)) - ref) / max(1.0, ref))
    assert worst_pt <= 1e-14
    _report(7, f"mass residual <= {worst:.2e} on 20-angle grid; pi/4 density "
               f"formula residual <= {worst_pt:.2e}")


def test_criterion_8_ks_convergence():
    ks_1000 = ks_distance(PI4, 1000, DensityKind.HALF_TOTAL).ks
    assert ks_1000 <= 0.05

    medians = []
    for anchor in (200, 400, 800):
        window = [
            ks_distance(PI4, anchor + delta, DensityKind.HALF_TOTAL).ks
            for delta in (-2, -1, 0, 1, 2)
        ]
        medians.append(float(np.median(window)))
    assert medians[0] > medians[1] > medians[2]
    _report(8, f"ks(t=1000) = {ks_1000:.4f} <= 0.05; window medians "
               f"{medians[0]:.4f} > {medians[1]:.4f} > {medians[2]:.4f}")


def _pair_values(p: np.ndarray, t: int) -> tuple[np.ndarray, np.ndarray]:
    """Collapse the equal pairs of the half-line law at even time t.

    Returns the pair positions (upper member) and the pair values.
    """
    assert t % 2 == 0
    ks = np.arange(1, t // 2 + 1)
    return 2 * ks, p[2 * ks]


def test_criterion_9_approximation_quality():
    t = 500
    for coin in (PI4, PI3):
        p0, p1 = probability_arrays(evolve(WalkKind.HALF_LINE, coin, t))
        p = p0 + p1
        xs, pair_vals = _pair_values(p, t)
        # the interference fringes around the smooth envelope only vanish
        # under local averaging: smooth over 5 consecutive pairs, and keep
        # the window inside the support (scaled by |c|) where the
        # approximation has its stated meaning
        smooth = np.convolve(pair_vals, np.ones(5) / 5.0, mode="same")
        c = math.sqrt(float(coin.cos2_exact()))
        lo, hi = 0.05 * c * t, 0.55 * c * t
        worst = 0.0
        for k in range(2, len(xs) - 2):
            x = xs[k]
            if not (lo <= x <= hi):
                continue
            ref = (approx_prob(coin, t, int(x), ApproxKind.TOTAL)
                   + approx_prob(coin, t, int(x) - 1, ApproxKind.TOTAL)) / 2.0
            worst = max(worst, abs(smooth[k] - ref) / ref)
        assert worst <= 0.10, (coin.theta, worst)
        _report(9, f"theta={coin.theta:.4f}: pair-averaged relative deviation "
                   f"<= {worst:.3f} on [0.05, 0.55]|c|t")


def test_criterion_10_peak_location():
    p0, p1 = probability_arrays(evolve(WalkKind.HALF_LINE, PI4, 500))
    peak = int(np.argmax(p0 + p1))
    target = math.sqrt(0.5) * 500.0
    deviation = abs(peak - target) / target
    assert deviation <= 0.05
    _report(10, f"peak at x={peak}, |c|t={target:.1f}, deviation "
                f"{deviation:.3f} <= 0.05")
