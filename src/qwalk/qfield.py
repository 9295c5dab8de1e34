"""The exact walk oracle at theta = pi/4.

At theta = pi/4 the coin is (sqrt2/2)[[1, 1], [1, -1]] and both initial
states live in Q(sqrt2)[i], so every probability is an exact rational. The
oracle pulls the coin's factor sqrt2/2 out of every step into a known scale
and steps Gaussian-integer numerators z with plain ints:

- half line: amplitude = z * (sqrt2/2)**(t + 1), z = (1, i) at x = 0;
- line: amplitude = z/2 * (sqrt2/2)**t, z = (1, 1) at x = -1 and x = 0.

A step is then c0 = a + b, c1 = a - b followed by the shift (and, on the half
line, the boundary copy). The half-line initial state is used without its
global phase, which leaves the distribution unchanged. Probabilities are
|z|^2 over a power of two: 2**(t + 1) on the half line, 2**(t + 2) on the
line. They are rational by construction, so no sqrt2 coefficient is left to
check for parity. Equal probabilities within one snapshot share one
`Fraction`, built once per distinct numerator.

Each shared `Fraction` is reduced with a shift, not a gcd: over a power of
two, lowest terms only strip the numerator's trailing zero bits. It is then
built from its two slots, `_numerator` and `_denominator`, as CPython's own
`Fraction._from_coprime_ints` does. That is safe: `Fraction` keeps no other
state, and the pair is coprime with a positive denominator, which is just
what `Fraction(k, 2**p)` would store, so `==`, `hash` and `str` cannot tell
the two apart.
"""
from __future__ import annotations

from fractions import Fraction
from operator import add, sub
from typing import Iterator

from .core import Distribution, WalkKind, _index

ORACLE_MAX_T = 200


class OracleLimitError(ValueError):
    """Requested time exceeds the exact oracle's supported range."""


# |amplitude|^2 = |z|^2 / 2**(t + _DEN_POWER[kind]), from the scales
# (sqrt2/2)**(t + 1) on the half line and (sqrt2/2)**t / 2 on the line
_DEN_POWER = {WalkKind.HALF_LINE: 1, WalkKind.LINE: 2}


def _dyadic(k: int, p: int) -> Fraction:
    """k / 2**p in lowest terms, without a gcd."""
    # trailing zero bits of k, at most p; all of p when k == 0
    s = (k & -k).bit_length() - 1
    if s < 0 or s > p:
        s = p
    f = object.__new__(Fraction)
    f._numerator = k >> s
    f._denominator = 1 << (p - s)
    return f


def _check_t(name: str, t: int) -> int:
    t = _index(name, t)
    if t > ORACLE_MAX_T:
        raise OracleLimitError(
            f"exact oracle supports {name} <= {ORACLE_MAX_T}, got {t}"
        )
    return t


def _states(kind: WalkKind, t_max: int) -> Iterator[tuple[int, list]]:
    """Yield (t, [re0, im0, re1, im1]) for t = 0..t_max.

    The four lists hold the Gaussian-integer numerators of inner 0 and
    inner 1 over the walk's window at t. They are rebuilt, never mutated,
    so a yielded state stays valid after the next step.
    """
    if kind is WalkKind.HALF_LINE:
        # (1/sqrt2, i/sqrt2): global phase dropped, distribution unaffected
        state = [[1], [0], [0], [1]]
    else:
        state = [[1, 1], [0, 0], [1, 1], [0, 0]]
    yield 0, state
    for t in range(1, t_max + 1):
        # the coin's sqrt2/2 is in the scale; being real, the coin steps the
        # real and imaginary parts apart
        a_re, a_im, b_re, b_im = state
        s_re, s_im = list(map(add, a_re, b_re)), list(map(add, a_im, b_im))
        d_re, d_im = list(map(sub, a_re, b_re)), list(map(sub, a_im, b_im))
        if kind is WalkKind.HALF_LINE:
            # inner 0 moves left; the sum at x = 0 reflects into inner 1
            state = [s_re[1:] + [0, 0], s_im[1:] + [0, 0],
                     s_re[:1] + d_re, s_im[:1] + d_im]
        else:
            state = [s_re + [0, 0], s_im + [0, 0],
                     [0, 0] + d_re, [0, 0] + d_im]
        yield t, state


def _snapshot(kind: WalkKind, t: int, state: list) -> Distribution:
    power = t + _DEN_POWER[kind]
    re0, im0, re1, im1 = state
    n0 = [a * a + b * b for a, b in zip(re0, im0)]
    n1 = [a * a + b * b for a, b in zip(re1, im1)]
    n = list(map(add, n0, n1))
    # the mirror identities repeat many numerators: build each Fraction once
    frac = {k: _dyadic(k, power) for k in {*n0, *n1, *n}}.__getitem__
    return Distribution(kind, t, tuple(map(frac, n0)), tuple(map(frac, n1)),
                        tuple(map(frac, n)))


def q2_oracle_series(kind: WalkKind, t_max: int) -> Iterator[Distribution]:
    """Exact distributions at every t = 0..t_max, from one evolution pass.

    The arguments are checked on the call, before anything is yielded.
    """
    kind = WalkKind(kind)
    t_max = _check_t("t_max", t_max)
    return (_snapshot(kind, t, state) for t, state in _states(kind, t_max))


def q2_oracle_distribution(kind: WalkKind, t: int) -> Distribution:
    """Exact rational distribution of the theta = pi/4 walk at time t."""
    kind = WalkKind(kind)
    t = _check_t("t", t)
    for _, state in _states(kind, t):
        pass
    return _snapshot(kind, t, state)
