"""Unitary time evolution for both walks and probability extraction.

One step applies the coin at every site and then the shift. On the line the
shift is homogeneous (inner 0 moves left, inner 1 moves right) and the window
is re-based one position further left; on the half line the window stays at
x = 0 and a left-mover at the boundary is turned into a right-mover in place.

Both walks run through one coin-and-shift kernel. The window is held as two
float64 rows, inner 0 and inner 1, in one of two buffers allocated once per
walk; each step writes the other buffer, and the buffers swap roles, so no
step allocates. The shift is where the kernel writes, not a separate copy.
Because the coin is real it acts on real and imaginary parts independently:
the half line runs on the float64 view of complex rows, and the line, whose
start is real, runs on real rows and skips an imaginary half that stays
zero. Every amplitude is the same product and sum the complex step computes.

Outside the light cone |x| < |c| t the amplitudes decay into subnormal
floats, and from t of about 1000 on they stop decaying at a floor of them
(4.94e-324 times 0.707 rounds back to 4.94e-324), which the processor
handles slowly. So the kernel steps only a live range of sites and holds
exact zeros outside it. The range grows with the shift each step, and every
64 steps it shrinks to the sites from the first to the last with a
component of at least the smallest normal float; all it drops is
subnormal. While the outermost sites are normal, as in short walks, the
scan is skipped.

Against the complex step this keeps the probabilities, the norm and every
amplitude component of size 2^-537 or more bit-identical (a zero may differ
in sign); only amplitudes whose square underflows to zero change. Trims
depend on t alone, so identical inputs give bit-identical outputs however
far a walk runs, and states own frozen copies of their window, so they
stay shareable values.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np

from .core import (
    _PROB_FLOOR,
    Coin,
    Distribution,
    State,
    WalkKind,
    initial,
)

# steps between scans that drop the subnormal edges of the live sites
_TRIM_EVERY = 64
_TINY = np.finfo(np.float64).tiny


def _normal(src: np.ndarray, site: int, w: int) -> bool:
    """Whether a site of the float rows ``src`` has a normal component."""
    return any(abs(v) >= _TINY
               for row in src[:, site * w:(site + 1) * w].tolist() for v in row)


def _live(src: np.ndarray, lo: int, hi: int, w: int,
          half: bool) -> tuple[int, int]:
    """The sites of [lo, hi) from the first to the last with a normal component.

    The half line keeps site 0, its boundary. While the outermost sites are
    normal nothing can be dropped, and the window is not scanned.
    """
    if _normal(src, hi - 1, w) and (half or _normal(src, lo, w)):
        return lo, hi
    normal = np.abs(src[:, lo * w:hi * w]) >= _TINY
    floats = np.flatnonzero(normal[0] | normal[1])
    first = lo if half else lo + int(floats[0]) // w
    return first, lo + int(floats[-1]) // w + 1


def _windows(kind: WalkKind, amps: np.ndarray, coin: Coin,
             steps: int) -> Iterator[np.ndarray]:
    """Yield the window as (inner 0, inner 1) rows after each step from ``amps``.

    A yielded view is valid until the generator resumes. Each buffer row
    spans ``cap`` sites, the last window, from ``base`` sites in; the coin's
    output rows go to buffer sites 0 and cap + 2, which is the shift. On the
    line (base 0) inner 0 keeps its index and inner 1 moves two on, as the
    window starts one position further left. On the half line (base 1)
    inner 0 moves one down and inner 1 one up, and the left-mover leaving
    x = 0 lands in spare site 0, to be handed to inner 1 at x = 0.

    The coin runs on the live sites [lo, hi) only, and every other site of
    both buffers holds zero. A step moves ``hi`` on by the shift. Every
    ``_TRIM_EVERY`` steps the live sites shrink to those from the first to
    the last with a normal component; the sites dropped are zeroed in both
    buffers. On the line ``lo`` then stays two sites below the first, so
    inner 1 at sites lo and lo + 1, which no step writes, stays zero.
    """
    half = kind is WalkKind.HALF_LINE
    # a complex line window (only `step` can pass one) keeps its
    # imaginary part; the line's own start is real
    dtype = np.complex128 if half or amps.imag.any() else np.float64
    w = np.dtype(dtype).itemsize // 8  # floats per site
    base, grow = (1, 1) if half else (0, 2)
    n = amps.shape[0]
    cap = n + grow * steps
    bufs = [np.zeros(2 * cap + 4, dtype) for _ in range(2)]
    rows = [b[base:base + 2 * cap].reshape(2, cap) for b in bufs]
    flat = [r.view(np.float64) for r in rows]
    outs = [b.view(np.float64)[:2 * (cap + 2) * w].reshape(2, (cap + 2) * w)
            for b in bufs]
    src = np.ascontiguousarray(amps.T if w == 2 else amps.real.T,
                               dtype).view(np.float64)
    coef = coin.matrix()[:, :, None]
    tmp = np.empty((2, 2, cap * w))
    lo, hi = 0, n
    for start in range(0, steps, _TRIM_EVERY):
        if start:
            first, last = _live(src, lo, hi, w, half)
            if (first, last) != (lo, hi):
                src[:, lo * w:first * w] = 0
                src[:, last * w:hi * w] = 0
                # the buffer the next step writes holds the window before
                k = start & 1
                rows[k][:, lo:hi] = 0
                bufs[k][:base] = 0
                lo, hi = max(first - 2, lo), last
        # the live sites as float offsets into a row
        a, b = lo * w, hi * w
        for i in range(start, min(start + _TRIM_EVERY, steps)):
            k = i & 1
            m = b - a
            # out[r] = coef[r, 0] * inner0 + coef[r, 1] * inner1, the coin
            np.multiply(coef, src[:, a:b], out=tmp[:, :, :m])
            np.add(tmp[:, 0, :m], tmp[:, 1, :m], out=outs[k][:, a:b])
            if half:
                rows[k][1, 0] = bufs[k][0]
            n += grow
            b += grow * w
            src = flat[k]
            yield rows[k][:, :n]
        hi = b // w


def _state(kind: WalkKind, t: int, window: np.ndarray) -> State:
    """A state owning a complex copy of the (inner 0, inner 1) rows."""
    return State(kind, t, window.T.astype(np.complex128, order="C"))


def step(state: State, coin: Coin) -> State:
    """Advance one step: coin everywhere, then the shift of the state's walk.

    On the line the shift is homogeneous. On the half line post-coin inner 0
    at x >= 1 moves to x-1; at x = 0 it becomes inner 1 in place; inner 1
    moves from x to x+1.
    """
    window = next(_windows(state.kind, state.amps, coin, 1))
    return _state(state.kind, state.t + 1, window)


def _start(kind: WalkKind, coin: Coin, steps: int) -> tuple[WalkKind, State]:
    """The walk kind and its initial state, once ``steps`` is checked."""
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    state = initial(kind, coin)
    return state.kind, state


def evolve(kind: WalkKind, coin: Coin, steps: int) -> State:
    """Evolve the appropriate initial state for the given number of steps."""
    kind, state = _start(kind, coin, steps)
    window = None
    for window in _windows(kind, state.amps, coin, steps):
        pass
    return state if window is None else _state(kind, steps, window)


def iter_states(kind: WalkKind, coin: Coin, steps: int):
    """Yield (t, state) for t = 0..steps without re-evolving from scratch."""
    kind, state = _start(kind, coin, steps)
    yield 0, state
    for t, window in enumerate(_windows(kind, state.amps, coin, steps), 1):
        yield t, _state(kind, t, window)


def probability_arrays(state: State) -> tuple[np.ndarray, np.ndarray]:
    """(|a0|^2, |a1|^2) over the support window, index 0 at state.offset."""
    p = np.abs(state.amps) ** 2
    return p[:, 0], p[:, 1]


def distribution(state: State) -> Distribution:
    """Probability table over the state's support window."""
    p0, p1 = probability_arrays(state)
    p0 = np.where(p0 < _PROB_FLOOR, 0.0, p0)
    p1 = np.where(p1 < _PROB_FLOOR, 0.0, p1)
    return Distribution(kind=state.kind, t=state.t, offset=state.offset,
                        p0=tuple(p0.tolist()), p1=tuple(p1.tolist()),
                        p=tuple((p0 + p1).tolist()))
