import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from pytest import approx

from qwalk import (
    ApproxKind,
    DensityKind,
    LimitDensity,
    approx_prob,
    cdf_at,
    density_at,
    WalkKind,
    evolve,
    ks_distance,
    make_coin,
    total_mass,
)
from qwalk.asymptotics import _cs, _integral, approx_columns, cdf_grid

from conftest import THETA_GRID_20

ADMISSIBLE = st.sampled_from(THETA_GRID_20)

ROOT = Path(__file__).resolve().parents[1]

# the angles the closed-form CDFs are pinned at, in radians
CDF_THETAS = (math.pi / 6, math.pi / 4, math.pi / 3, 1.0, 2.5, 0.3, -0.7,
              1.536, 0.01)


def _quadrature_cdf(d: LimitDensity, xs) -> list[float]:
    """Reference CDF: the tanh-sinh rule on the psi integrand, panel by panel.

    psi runs up from 0 at y = -|c| on the line and down from pi/2 at y = 0
    on the half line, so a panel's mass is the absolute value of its
    integral.
    """
    lo, hi = d.support
    sub_law = d.kind in (DensityKind.HALF_INNER0, DensityKind.HALF_INNER1)
    line = d.kind is DensityKind.LINE_TOTAL
    prev = 0.0 if line else 0.5 * math.pi
    acc = 0.0
    out = []
    for x in xs:
        if x <= lo:
            out.append(0.0)
        elif x >= hi:
            out.append(total_mass(d) if sub_law else 1.0)
        else:
            cos = min(max(x / hi, -1.0), 1.0)
            psi = math.acos(-cos if line else cos)
            acc += abs(_integral(d, prev, psi))
            prev = psi
            out.append(acc)
    return out


def _run_child(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter; a hang fails after 60 s."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)


def test_coin_constants_are_the_roots_of_the_squares(pi3_coin):
    """Exact rational squares at pi-fractions, the doubles' squares
    otherwise, and |c|, |s| their roots, bit for bit."""
    assert _cs(pi3_coin) == (math.sqrt(0.25), math.sqrt(0.75), 0.25, 0.75)
    coin = make_coin(2.5)
    c2, s2 = coin.c * coin.c, coin.s * coin.s
    assert _cs(coin) == (math.sqrt(c2), math.sqrt(s2), c2, s2)


class TestDensity:
    @pytest.mark.parametrize("theta", [math.pi / 2, 0.0])
    @pytest.mark.parametrize("kind", list(DensityKind))
    def test_degenerate_coin_rejected(self, theta, kind):
        with pytest.raises(ValueError, match="limit densities need theta "
                           "away from multiples of pi/2"):
            LimitDensity(make_coin(theta), kind)

    def test_half_total_at_zero_pi4(self, pi4_coin):
        d = LimitDensity(pi4_coin, DensityKind.HALF_TOTAL)
        assert density_at(d, 0.0) == approx(2.0 / math.pi, abs=1e-12)

    def test_line_total_at_zero_pi4(self, pi4_coin):
        d = LimitDensity(pi4_coin, DensityKind.LINE_TOTAL)
        assert density_at(d, 0.0) == approx(1.0 / math.pi, abs=1e-12)

    def test_half_kinds_zero_below_origin(self):
        coin = make_coin(1.1)
        for kind in (DensityKind.HALF_INNER0, DensityKind.HALF_INNER1,
                     DensityKind.HALF_TOTAL):
            assert density_at(LimitDensity(coin, kind), -0.1) == 0.0

    def test_endpoint_returns_zero_not_infinity(self):
        coin = make_coin(0.9)
        c = abs(coin.c)
        for kind in DensityKind:
            d = LimitDensity(coin, kind)
            assert density_at(d, c) == 0.0
            assert density_at(d, -c) == 0.0
            assert density_at(d, c + 0.2) == 0.0

    def test_inner_split_pointwise(self):
        coin = make_coin(0.8)
        d0 = LimitDensity(coin, DensityKind.HALF_INNER0)
        d1 = LimitDensity(coin, DensityKind.HALF_INNER1)
        dt = LimitDensity(coin, DensityKind.HALF_TOTAL)
        for y in np.linspace(0.0, abs(coin.c) * 0.999, 500):
            total = density_at(dt, float(y))
            split = density_at(d0, float(y)) + density_at(d1, float(y))
            assert split == approx(total, rel=1e-14)

    def test_mirror_relation_to_line_density(self):
        """Inner-1 density equals the line density reflected through 0."""
        for theta in (math.pi / 4, math.pi / 3, 1.0, 2.0):
            coin = make_coin(theta)
            d1 = LimitDensity(coin, DensityKind.HALF_INNER1)
            dl = LimitDensity(coin, DensityKind.LINE_TOTAL)
            ys = np.linspace(0.0, abs(coin.c) * 0.9999, 10_000)
            worst = max(
                abs(density_at(d1, float(y)) - density_at(dl, float(-y)))
                for y in ys
            )
            assert worst <= 1e-14

    def test_pi4_corollary_closed_form(self, pi4_coin):
        """At pi/4 the total density reduces to 2/(pi (1-y^2) sqrt(1-2y^2))."""
        d = LimitDensity(pi4_coin, DensityKind.HALF_TOTAL)
        ys = np.linspace(0.0, 1 / math.sqrt(2) - 1e-9, 10_000)
        for y in ys:
            ref = 2.0 / (math.pi * (1 - y * y) * math.sqrt(1 - 2 * y * y))
            assert abs(density_at(d, float(y)) - ref) <= 1e-14 * max(1.0, ref)


class TestCdf:
    def test_saturates_at_support_edge(self):
        for theta in (0.6, math.pi / 4, 2.4):
            coin = make_coin(theta)
            for kind in (DensityKind.HALF_TOTAL, DensityKind.LINE_TOTAL):
                d = LimitDensity(coin, kind)
                assert cdf_at(d, abs(coin.c)) == approx(1.0, abs=1e-8)
                assert cdf_at(d, 5.0) == 1.0
                assert cdf_at(d, d.support[0] - 0.01) == 0.0

    def test_inner_masses_partition(self):
        for theta in THETA_GRID_20:
            coin = make_coin(theta)
            m0 = total_mass(LimitDensity(coin, DensityKind.HALF_INNER0))
            m1 = total_mass(LimitDensity(coin, DensityKind.HALF_INNER1))
            assert m0 + m1 == approx(1.0, abs=1e-8)

    def test_line_total_mass(self):
        for theta in THETA_GRID_20:
            coin = make_coin(theta)
            assert total_mass(LimitDensity(coin, DensityKind.LINE_TOTAL)) \
                == approx(1.0, abs=1e-8)

    def test_left_mass_vs_riemann_oracle(self, pi4_coin):
        """cdf at 0 for the line law, against a 10^7-point Riemann sum.

        The flat sum under-collects ~sqrt(h) of mass at the singular left
        endpoint, so the whole-interval comparison carries that resolution;
        the interior slice away from the singularity is checked tightly.
        """
        d = LimitDensity(pi4_coin, DensityKind.LINE_TOTAL)
        c = math.sqrt(0.5)
        s = c
        n = 10_000_000
        h = c / n
        mids = np.linspace(-c + h / 2, 0.0 - h / 2, n)
        f = s / (math.pi * (1.0 + mids) * np.sqrt(0.5 - mids * mids))
        riemann = float(np.sum(f) * h)
        got = cdf_at(d, 0.0)
        assert got == approx(riemann, abs=5e-4)
        assert 0.0 < got < 1.0

        inner_lo = -c / 2
        m = 1_000_000
        hh = (0.0 - inner_lo) / m
        mids = np.linspace(inner_lo + hh / 2, 0.0 - hh / 2, m)
        f = s / (math.pi * (1.0 + mids) * np.sqrt(0.5 - mids * mids))
        slice_riemann = float(np.sum(f) * hh)
        slice_quad = cdf_at(d, 0.0) - cdf_at(d, inner_lo)
        assert slice_quad == approx(slice_riemann, abs=1e-8)

    def test_cdf_monotone_on_grid(self):
        coin = make_coin(1.234)
        for kind in DensityKind:
            d = LimitDensity(coin, kind)
            xs = np.linspace(-1.0, 1.0, 10_000)
            vals = cdf_grid(d, xs)
            assert np.all(np.diff(vals) >= -1e-12)

    @settings(max_examples=25, deadline=None)
    @given(ADMISSIBLE, st.lists(st.floats(-1.2, 1.2), min_size=2, max_size=40))
    def test_cdf_monotone_property(self, theta, xs):
        coin = make_coin(theta)
        d = LimitDensity(coin, DensityKind.HALF_TOTAL)
        xs = sorted(xs)
        vals = [cdf_at(d, x) for x in xs]
        assert all(b - a >= -1e-10 for a, b in zip(vals, vals[1:]))

    def test_grid_requires_sorted(self, pi4_coin):
        d = LimitDensity(pi4_coin, DensityKind.HALF_TOTAL)
        with pytest.raises(ValueError):
            cdf_grid(d, np.array([0.3, 0.1]))

    def test_cdf_consistent_with_pointwise(self, pi3_coin):
        d = LimitDensity(pi3_coin, DensityKind.HALF_INNER1)
        xs = np.linspace(-0.1, 0.6, 53)
        grid = cdf_grid(d, xs)
        for x, v in zip(xs[::7], grid[::7]):
            assert cdf_at(d, float(x)) == approx(float(v), abs=1e-9)


class TestClosedFormCdf:
    @pytest.mark.parametrize("theta", CDF_THETAS)
    @pytest.mark.parametrize("kind", list(DensityKind))
    def test_matches_quadrature(self, theta, kind):
        d = LimitDensity(make_coin(theta), kind)
        lo, hi = d.support
        xs = np.linspace(lo - 0.1, hi + 0.1, 401)
        ref = _quadrature_cdf(d, xs)
        assert np.max(np.abs(cdf_grid(d, xs) - ref)) <= 1e-12

    @pytest.mark.parametrize("theta", CDF_THETAS)
    @pytest.mark.parametrize("kind", list(DensityKind))
    def test_derivative_is_the_density(self, theta, kind):
        d = LimitDensity(make_coin(theta), kind)
        lo, hi = d.support
        h = 1e-6 * (hi - lo)
        for y in np.linspace(lo, hi, 21)[2:-2]:
            slope = (cdf_at(d, y + h) - cdf_at(d, y - h)) / (2 * h)
            assert slope == approx(density_at(d, float(y)), rel=1e-6)

    @pytest.mark.parametrize("theta", CDF_THETAS)
    def test_sub_law_saturation_is_the_mass(self, theta):
        coin = make_coin(theta)
        for kind in (DensityKind.HALF_INNER0, DensityKind.HALF_INNER1):
            d = LimitDensity(coin, kind)
            hi = d.support[1]
            assert cdf_at(d, hi) == approx(total_mass(d), abs=1e-12)
            assert cdf_at(d, hi + 1.0) == cdf_at(d, hi)

    def test_one_point_is_the_grid_case(self):
        for theta in CDF_THETAS:
            for kind in DensityKind:
                d = LimitDensity(make_coin(theta), kind)
                lo, hi = d.support
                for x in np.linspace(lo - 0.1, hi + 0.1, 37):
                    x = float(x)
                    assert cdf_at(d, x) == cdf_grid(d, [x])[0]


class TestSmallAngles:
    """Angles near 0 and pi, where the density peaks at height ~ 1/|s|."""

    def test_commands_return(self):
        calls = [["verify", "--suite", "limitNorm", "--thetas", "0.01",
                  "--ts", "1"]]
        for theta in (0.01, math.pi - 0.01):
            for kind in DensityKind:
                calls.append(["limit", "--theta", repr(theta), "--kind",
                              kind.value, "--quantity", "cdf", "--points",
                              "16"])
        code = ("import sys\nfrom qwalk.cli import main\n"
                f"sys.exit(max(main(argv) for argv in {calls!r}))")
        proc = _run_child(code)
        assert proc.returncode == 0, proc.stderr

    def test_masses(self):
        thetas = (0.01, 0.001, math.pi / 2 - 0.01)
        code = ("import json\nfrom qwalk import DensityKind, LimitDensity, "
                "make_coin, total_mass\n"
                f"print(json.dumps([[total_mass(LimitDensity(make_coin(t), k))"
                f" for k in DensityKind] for t in {thetas!r}]))")
        proc = _run_child(code)
        assert proc.returncode == 0, proc.stderr
        for theta, masses in zip(thetas, json.loads(proc.stdout)):
            coin = make_coin(theta)
            m = dict(zip(DensityKind, masses))
            assert m[DensityKind.LINE_TOTAL] == approx(1.0, abs=1e-10)
            assert m[DensityKind.HALF_TOTAL] == approx(1.0, abs=1e-10)
            assert (m[DensityKind.HALF_INNER0] + m[DensityKind.HALF_INNER1]
                    == approx(1.0, abs=1e-10))
            for kind, mass in m.items():
                d = LimitDensity(coin, kind)
                assert mass == approx(cdf_at(d, d.support[1]), abs=1e-10)

    @pytest.mark.parametrize("theta", [5e-5, 7e-5, 1e-4])
    def test_half_total_mass_at_tiny_angles(self, theta):
        """Over psi the halfTotal law of the squares c^2, s^2 has mass
        1/sqrt(c^2 + s^2) exactly; the rule keeps it where the peak is
        ~ 1/|s| high."""
        coin = make_coin(theta)
        _, _, c2, s2 = _cs(coin)
        mass = total_mass(LimitDensity(coin, DensityKind.HALF_TOTAL))
        assert abs(mass - 1.0 / math.sqrt(c2 + s2)) <= 1e-15

    def test_limit_norm_just_above_the_exclusion(self):
        """Where the peak is ~ 1/|s| high the check still returns at once;
        pi - 5e-5, typed to ten decimals, stays excluded."""
        thetas = ("5e-5", "7e-5", "1e-4", "2e-4", "5e-4", "1e-3",
                  "3.1414926536", "3.1415426536")
        sub_laws = (DensityKind.HALF_INNER0, DensityKind.HALF_INNER1)
        code = ("import json\nfrom qwalk import LimitDensity, make_coin, "
                "total_mass\nfrom qwalk.harness import run_checks\n"
                f"coins = [make_coin(float(t)) for t in {thetas!r}]\n"
                "print(json.dumps([[[[c.passed, c.error] for c in "
                "run_checks('limitNorm', [coin], [1]).checks], "
                "[total_mass(LimitDensity(coin, k)) for k in "
                f"{[k.value for k in sub_laws]!r}]] for coin in coins]))")
        proc = _run_child(code)
        assert proc.returncode == 0, proc.stderr
        *kept, (excluded, _) = json.loads(proc.stdout)
        assert len(excluded) == 1 and not excluded[0][0]
        assert excluded[0][1].startswith("theta excluded")
        for text, (checks, masses) in zip(thetas, kept):
            assert [passed for passed, _ in checks] == [True] * 3, text
            for kind, mass in zip(sub_laws, masses):
                d = LimitDensity(make_coin(float(text)), kind)
                assert mass == approx(cdf_at(d, d.support[1]), abs=1e-8)


class TestApprox:
    def test_total_at_origin_t500_pi4(self, pi4_coin):
        # 2|s| t^2 / (pi t^2 sqrt(c^2 t^2)) = 2/(pi t) when s = c
        got = approx_prob(pi4_coin, 500, 0, ApproxKind.TOTAL)
        assert got == approx(2.0 / (500.0 * math.pi), rel=1e-12)

    def test_outside_support_is_zero(self):
        coin = make_coin(1.0)
        t = 100
        cutoff = abs(coin.c) * t
        for kind in ApproxKind:
            assert approx_prob(coin, t, int(cutoff) + 1, kind) == 0.0
            assert approx_prob(coin, t, -1, kind) == 0.0

    def test_partial_fraction_partition(self):
        """1/(t+x) + 1/(t-x) = 2t/(t^2-x^2) keeps the split exact."""
        coin = make_coin(0.7)
        t = 300
        for x in range(0, int(abs(coin.c) * t)):
            i0 = approx_prob(coin, t, x, ApproxKind.INNER0)
            i1 = approx_prob(coin, t, x, ApproxKind.INNER1)
            tot = approx_prob(coin, t, x, ApproxKind.TOTAL)
            assert i0 + i1 == approx(tot, rel=1e-15)

    def test_bad_t_rejected(self, pi4_coin):
        with pytest.raises(ValueError):
            approx_prob(pi4_coin, 0, 0, ApproxKind.TOTAL)

    def test_degenerate_coin_rejected(self):
        coin = make_coin(math.pi / 2)
        message = ("the large-t approximation needs theta away from "
                   "multiples of pi/2")
        with pytest.raises(ValueError, match=message):
            approx_columns(coin, 10, [0.0])
        with pytest.raises(ValueError, match=message):
            approx_prob(coin, 10, 0, ApproxKind.TOTAL)


class TestKS:
    def test_bounds(self, pi4_coin):
        for t in (3, 17, 64):
            report = ks_distance(pi4_coin, t)
            assert 0.0 <= report.ks <= 1.0
            assert report.t == t
            assert report.theta == pi4_coin.theta

    def test_t1000_under_frozen_threshold(self, pi4_coin):
        assert ks_distance(pi4_coin, 1000).ks <= 0.05

    def test_line_kind_uses_line_walk(self, pi4_coin):
        report = ks_distance(pi4_coin, 200, DensityKind.LINE_TOTAL)
        assert 0.0 <= report.ks <= 0.2

    def test_inner_kinds_sub_law_scale(self, pi4_coin):
        r0 = ks_distance(pi4_coin, 400, DensityKind.HALF_INNER0)
        r1 = ks_distance(pi4_coin, 400, DensityKind.HALF_INNER1)
        assert r0.ks <= 0.2 and r1.ks <= 0.2

    def test_bad_t(self, pi4_coin):
        with pytest.raises(ValueError):
            ks_distance(pi4_coin, 0)

    @pytest.mark.parametrize("kind", list(DensityKind))
    def test_supplied_state_gives_the_same_report(self, pi4_coin, kind):
        walk = (WalkKind.LINE if kind is DensityKind.LINE_TOTAL
                else WalkKind.HALF_LINE)
        state = evolve(walk, pi4_coin, 120)
        assert (ks_distance(pi4_coin, 120, kind, state=state)
                == ks_distance(pi4_coin, 120, kind))

    def test_supplied_state_must_match(self, pi4_coin):
        half = evolve(WalkKind.HALF_LINE, pi4_coin, 30)
        line = evolve(WalkKind.LINE, pi4_coin, 30)
        with pytest.raises(ValueError):
            ks_distance(pi4_coin, 31, state=half)
        with pytest.raises(ValueError):
            ks_distance(pi4_coin, 30, state=line)
        with pytest.raises(ValueError):
            ks_distance(pi4_coin, 30, DensityKind.LINE_TOTAL, state=half)
        with pytest.raises(ValueError):
            ks_distance(pi4_coin, 0, state=evolve(WalkKind.HALF_LINE,
                                                   pi4_coin, 0))
