"""Weak-limit densities of X_t/t, their CDFs, finite-time approximations,
and a Kolmogorov-Smirnov convergence diagnostic.

The rescaled position converges in law to a density supported on
(-|c|, |c|) for the line walk and on [0, |c|) for the half-line walk:

    line total:    |s| / (pi (1 + y) sqrt(c^2 - y^2))
    half, inner 0: |s| / (pi (1 + y) sqrt(c^2 - y^2))   on [0, |c|)
    half, inner 1: |s| / (pi (1 - y) sqrt(c^2 - y^2))   on [0, |c|)
    half, total:  2|s| / (pi (1 - y^2) sqrt(c^2 - y^2)) on [0, |c|)

The CDFs are closed forms. With y = |c| sin(phi) and
u = tan(phi/2) = y / (|c| + sqrt(c^2 - y^2)):

    line total:    (2/pi) [arctan((u + |c|)/|s|) - arctan((|c| - 1)/|s|)]
    half, inner 0: (2/pi) [arctan((u + |c|)/|s|) - arctan(|c|/|s|)]
    half, inner 1: (2/pi) [arctan((u - |c|)/|s|) + arctan(|c|/|s|)]
    half, total:   (2/pi) arctan(|s| y / sqrt(c^2 - y^2))

Only `total_mass` integrates, so the normalisation check stays independent
of the closed forms. One tanh-sinh rule runs in psi, the angle from the end
where the density peaks (y = |c| cos(psi), or -|c| cos(psi) on the line):

    half, total:   2|s| / (pi (s^2 + c^2 sin^2 psi))            on [0, pi/2]
    half, inner 0:  |s| / (pi (1 + |c| cos psi))                 on [0, pi/2]
    half, inner 1:  |s| / (pi ((1 - |c|) + 2|c| sin^2(psi/2)))   on [0, pi/2]
    line total:     the half, inner 1 integrand                  on [0, pi]

No denominator cancels, and a peak ~ 1/|s| sits at psi = 0, where the
mapped nodes psi = b * node round only relatively, not by ~ 1e-16 as nodes
mapped near an end at fl(pi/2) do.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Optional

import numpy as np

from .core import Coin, State, WalkKind, _index, _offset
from .evolution import evolve


class DensityKind(str, Enum):
    LINE_TOTAL = "lineTotal"
    HALF_INNER0 = "halfInner0"
    HALF_INNER1 = "halfInner1"
    HALF_TOTAL = "halfTotal"


@lru_cache(maxsize=256)
def _cs(coin: Coin) -> tuple[float, float, float, float]:
    """(|c|, |s|, cos^2, sin^2), the squares exact at the canonical angles.

    Near the support edge the density amplifies the last-ulp difference
    between cos(theta)^2 and the exact rational square, so prefer the latter
    and never re-square a rounded root: |c| and |s| are the roots of the
    squares.
    """
    # float(Fraction(c) ** 2) is c * c: both are the exact square rounded once
    c2, s2 = map(float, coin.squares())
    return math.sqrt(c2), math.sqrt(s2), c2, s2


@dataclass(frozen=True)
class LimitDensity:
    """Closed-form limit density of X_t/t for one walk/inner-state choice."""

    coin: Coin
    kind: DensityKind

    def __post_init__(self) -> None:
        if self.coin.is_degenerate():
            raise ValueError(
                "limit densities need theta away from multiples of pi/2")
        # a kind given by its value would miss every `is` test below
        object.__setattr__(self, "kind", DensityKind(self.kind))

    @property
    def support(self) -> tuple[float, float]:
        c = _cs(self.coin)[0]
        if self.kind is DensityKind.LINE_TOTAL:
            return (-c, c)
        return (0.0, c)


def density_at(d: LimitDensity, y: float) -> float:
    """Density value at y; zero outside the (half-)open support. NaN raises
    ``ValueError``."""
    if math.isnan(y):
        raise ValueError("the limit laws take no NaN")
    c, s, c2, _ = _cs(d.coin)
    if d.kind is DensityKind.LINE_TOTAL:
        if not (-c < y < c):
            return 0.0
    else:
        if not (0.0 <= y < c):
            return 0.0
    root = math.sqrt(c2 - y * y)
    if d.kind is DensityKind.LINE_TOTAL or d.kind is DensityKind.HALF_INNER0:
        return s / (math.pi * (1.0 + y) * root)
    if d.kind is DensityKind.HALF_INNER1:
        return s / (math.pi * (1.0 - y) * root)
    return 2.0 * s / (math.pi * (1.0 - y * y) * root)


# the tanh-sinh rule, h = 1/64 and |kh| <= 4, mapped from [-1, 1] onto [0, 1]:
# its nodes crowd into both ends, so into the peak at psi = 0. A node is
# 0.5 (1 + tanh(pi/2 sinh kh)) written as 1/(1 + e^(-pi sinh kh)), which
# keeps its relative precision near 0, where 1 + tanh cancels. Built with
# `math`, as numpy's sinh, exp and cosh would map 0.3 MB more memory.
_NODES = np.array([1.0 / (1.0 + math.exp(-math.pi * math.sinh(k / 64)))
                   for k in range(-256, 257)])
_WEIGHTS = np.array([math.pi / 256.0 * math.cosh(k / 64)
                     / math.cosh(0.5 * math.pi * math.sinh(k / 64)) ** 2
                     for k in range(-256, 257)])


def _psi_integrand(d: LimitDensity, psi: np.ndarray) -> np.ndarray:
    """The density in psi, the angle from its peak end (see the module
    docstring): bounded and smooth, with any peak at psi = 0."""
    c, s, c2, s2 = _cs(d.coin)
    if d.kind is DensityKind.HALF_TOTAL:
        return 2.0 * s / (math.pi * (s2 + c2 * np.sin(psi) ** 2))
    if d.kind is DensityKind.HALF_INNER0:
        return s / (math.pi * (1.0 + c * np.cos(psi)))
    return s / (math.pi * ((1.0 - c) + 2.0 * c * np.sin(0.5 * psi) ** 2))


def _integral(d: LimitDensity, a: float, b: float) -> float:
    """Integral of `_psi_integrand` over [a, b] by the tanh-sinh rule."""
    f = _psi_integrand(d, a + (b - a) * _NODES)
    # not `_WEIGHTS @ f`: the first BLAS call would map 0.5 MB more memory
    return (b - a) * float((_WEIGHTS * f).sum())


def _half_angle_cdf(kind: DensityKind, c: float, s: float, y, root):
    """(pi/2) times the CDF at y inside the support, root = sqrt(c^2 - y^2)."""
    if kind is DensityKind.HALF_TOTAL:
        return np.arctan2(s * y, root)
    u = y / (c + root)
    if kind is DensityKind.HALF_INNER1:
        return np.arctan((u - c) / s) + math.atan(c / s)
    start = c - 1.0 if kind is DensityKind.LINE_TOTAL else c
    return np.arctan((u + c) / s) - math.atan(start / s)


def cdf_grid(d: LimitDensity, xs: np.ndarray) -> np.ndarray:
    """Limit of P(X_t/t <= x [; inner]) at every point of a grid sorted
    ascending along its last axis, of any shape.

    Zero at or below the support, the saturation value at or above it. The
    two per-inner kinds describe joint (sub-probability) laws, so their CDFs
    saturate at the closed form's value at the upper edge rather than at 1.
    An unsorted grid or a NaN raises ``ValueError``.
    """
    xs = np.asarray(xs, dtype=float)
    if np.isnan(xs).any():
        raise ValueError("the limit laws take no NaN")
    if np.any(np.diff(xs) < 0):
        raise ValueError("grid must be sorted ascending")
    c, s, c2, _ = _cs(d.coin)
    lo, hi = d.support
    sub_law = d.kind in (DensityKind.HALF_INNER0, DensityKind.HALF_INNER1)
    edge = 2.0 / math.pi * float(_half_angle_cdf(d.kind, c, s, c, 0.0))
    out = np.where(xs >= hi, edge if sub_law else 1.0, 0.0)
    inside = (xs > lo) & (xs < hi)
    y = xs[inside]
    root = np.sqrt(np.maximum(c2 - y * y, 0.0))
    out[inside] = np.clip(2.0 / math.pi * _half_angle_cdf(d.kind, c, s, y, root),
                          0.0, 1.0)
    return out


def cdf_at(d: LimitDensity, x: float) -> float:
    """The CDF at one point; see `cdf_grid`."""
    return float(cdf_grid(d, [x])[0])


@lru_cache(maxsize=256)
def total_mass(d: LimitDensity) -> float:
    """Integral of the density over its whole support."""
    hi = math.pi if d.kind is DensityKind.LINE_TOTAL else 0.5 * math.pi
    return _integral(d, 0.0, hi)


class ApproxKind(str, Enum):
    INNER0 = "inner0"
    INNER1 = "inner1"
    TOTAL = "total"


def approx_columns(coin: Coin, t: int, xs) -> np.ndarray:
    """Large-t approximation of the half-line probabilities at positions xs:
    one row per `ApproxKind`, in its order; zero outside 0 <= x < |c| t."""
    t = _index("t", t, 1)
    if coin.is_degenerate():
        raise ValueError("the large-t approximation needs theta away from "
                         "multiples of pi/2")
    c, s, c2, _ = _cs(coin)
    x = np.asarray(xs, dtype=float)
    out = np.zeros((len(ApproxKind), x.size))
    inside = (0 <= x) & (x < c * t)
    x = x[inside]
    root = np.sqrt(c2 * t * t - x * x)
    out[0, inside] = s * t / (math.pi * (t + x) * root)
    out[1, inside] = s * t / (math.pi * (t - x) * root)
    # (t - x)(t + x) is t^2 - x^2 rounded once, as the integers give it
    out[2, inside] = 2.0 * s * t * t / (math.pi * ((t - x) * (t + x)) * root)
    return out


def approx_prob(coin: Coin, t: int, x: int, kind: ApproxKind) -> float:
    """`approx_columns` at one position x, for one kind."""
    row = list(ApproxKind).index(ApproxKind(kind))
    return float(approx_columns(coin, t, [x])[row, 0])


@dataclass(frozen=True)
class KSReport:
    """Sup-distance between the empirical law of X_t/t and the limit CDF."""

    t: int
    theta: float
    ks: float


def ks_distance(coin: Coin, t: int,
                kind: DensityKind = DensityKind.HALF_TOTAL, *,
                state: Optional[State] = None) -> KSReport:
    """Kolmogorov-Smirnov distance of the evolved walk at time t.

    The empirical CDF is right-continuous with jumps at x/t for every
    support position; the sup is attained at a jump, so both sides of every
    jump are inspected.

    ``state`` is the walk already evolved to time t with ``coin`` (the line
    walk for ``lineTotal``, the half line otherwise); without it the walk is
    evolved here. A state of the other walk or of another time raises
    ``ValueError``; the coin is not checked.
    """
    t = _index("t", t, 1)
    d = LimitDensity(coin=coin, kind=kind)
    walk = WalkKind.LINE if d.kind is DensityKind.LINE_TOTAL else WalkKind.HALF_LINE
    if state is None:
        state = evolve(walk, coin, t)
    elif getattr(state, "kind", None) is not walk or state.t != t:
        raise ValueError(
            f"state must be the {walk.value} walk at t = {t}, got "
            f"{getattr(state, 'kind', type(state).__name__)} at t = "
            f"{getattr(state, 't', None)}")
    ks = _ks_rows(d, np.array([t]), state.amps[None])[0]
    return KSReport(t=t, theta=coin.theta, ks=float(ks))


def _ks_rows(d: LimitDensity, times: np.ndarray,
             amps: np.ndarray) -> np.ndarray:
    """KS distance of each row of a block of `evolution._blocks`: the walk
    of ``d`` at ``times[i]`` in row i of ``amps``, position x at column
    x - offset(times[-1]).

    Past its window a row's cumulative sums stay constant, and its grid
    points lie past the support, where the limit is constant too, so the
    padded columns leave each sup as it is. Each norm sums the row's own
    window alone: np.sum's pairwise blocking depends on the length.
    """
    walk = WalkKind.LINE if d.kind is DensityKind.LINE_TOTAL else WalkKind.HALF_LINE
    first = _offset(walk, times[-1])
    p = np.abs(amps) ** 2
    p0, p1 = p[..., 0], p[..., 1]
    total = p0 + p1
    if d.kind is DensityKind.HALF_INNER0:
        weights = p0
    elif d.kind is DensityKind.HALF_INNER1:
        weights = p1
    else:
        weights = total
    # normalize by the full state norm so the per-inner kinds stay on the
    # joint (sub-probability) scale their limit laws use
    norms = [row[_offset(walk, t) - first:t + 1 - first].sum()
             for row, t in zip(total, times.tolist())]
    xs = (np.arange(amps.shape[1]) + first) / times[:, None]
    cum = np.cumsum(weights, axis=-1) / np.array(norms)[:, None]
    limit = cdf_grid(d, xs)
    below = np.zeros_like(cum)
    below[:, 1:] = cum[:, :-1]
    return np.maximum(np.abs(limit - cum), np.abs(limit - below)).max(axis=-1)
