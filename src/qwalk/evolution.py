"""Unitary time evolution for both walks and probability extraction.

One step applies the coin at every site and then the shift. On the line the
shift is homogeneous (inner 0 moves left, inner 1 moves right); on the half
line a left-mover at the boundary x = 0 is turned into a right-mover in
place.

The paper's initial states make every window carry each value twice, so
the kernel steps one site of each twin pair. The twins are exact in floats,
not only in exact arithmetic: the coin is real, so it commutes with a real
scale and with multiplication by -i, which swaps the real and imaginary
parts and negates one, and float rounding is symmetric under sign.

- The line starts from the same real vector (c, s)/sqrt(2) at x = -1 and
  x = 0. Its window is the walk phi from x = 0 alone plus phi moved one
  site left, and phi lives on the sites x = t (mod 2), so the two never
  overlap: psi_t(x) is phi_t(x) for x = t (mod 2) and phi_t(x + 1)
  otherwise. The window is phi's t + 1 sites, each repeated.
- The half line starts from e^{-i theta}(1, i)/sqrt(2) = (-i w, w). At odd
  t its window is the pairs (z(2j), z(2j + 1) = -i z(2j)). At even t it is
  the pairs (z(2j - 1), z(2j) = -i z(2j - 1)), the first of them at a
  virtual site below the boundary, z(-1) = i z(0). Each step sends pairs to
  pairs, as the coin commutes with -i and the shift moves both sites of a
  pair alike. The boundary keeps z(0) of the form (-i w, w) at even t: it
  is (post0(z(1)), post0(z(0))) with z(1) = -i z(0).

The kernel steps the first site of each pair on the line's shift, so inner
0 keeps its index and inner 1 moves one site on: real rows of phi on the
line, complex rows on the half line. The virtual site makes the half line's
boundary all but free. From even t, the coin sends z(-1) = (w, i w) to
post1 = s w - i c w, which is post0(z(0)), the value the boundary turns
into inner 1 at x = 0, and the pairs start one site up. From odd t, the
coin writes post0(z(0)) = w as inner 0 of the new virtual site, whose
inner 1, i w, is set by hand. The window is held as two float64 rows, inner
0 and inner 1, in one of two buffers allocated once per walk; each step
writes the other buffer, and the buffers swap roles, so no step allocates.
The shift is where the kernel writes, not a separate copy. A state, and
each row of a block of times, expands the pairs to its full window by the
one rule of `_expand`.

Outside the light cone |x| < |c| t the amplitudes decay into subnormal
floats, and from t of about 1000 on they stop decaying at a floor of them
(4.94e-324 times 0.707 rounds back to 4.94e-324), which the processor
handles slowly. So the kernel steps only a live range of sites and holds
exact zeros outside it. The range grows with the shift each step, and every
64 steps it shrinks to the sites from the first to the last with a
component of at least the smallest normal float; all it drops is
subnormal. Twins have equal magnitudes, so a trim never splits a pair.
While the outermost sites are normal, as in short walks, the scan is
skipped.

Against the complex step this keeps the probabilities, the norm and every
amplitude component of size 2^-537 or more bit-identical (a zero may differ
in sign); only amplitudes whose square underflows to zero change. Trims
depend on t alone, so identical inputs give bit-identical outputs however
far a walk runs, and states own frozen copies of their window, so they
stay shareable values.
"""
from __future__ import annotations

from itertools import chain
from typing import Iterator, Sequence

import numpy as np

from .core import (
    _PROB_FLOOR,
    Coin,
    Distribution,
    State,
    WalkKind,
    _index,
    _offset,
    initial,
)

# steps between scans that drop the subnormal edges of the live sites
_TRIM_EVERY = 64
_TINY = np.finfo(np.float64).tiny
# a half-line site times this is its twin: an exact swap of the real and
# imaginary parts, one of them negated (a zero may change sign)
_MINUS_I = np.array(-1j)
# the most positions of the line's window, summed over its times, in one
# block of `_blocks`: 128 KiB of amplitudes. Blocks of 2^14 ran the verify
# grid no faster and raised its peak RSS by about 2 MB
_BLOCK_SITES = 1 << 12


def _normal(src: np.ndarray, site: int, w: int) -> bool:
    """Whether a site of the float rows ``src`` has a normal component."""
    return any(abs(v) >= _TINY
               for row in src[:, site * w:(site + 1) * w].tolist() for v in row)


def _live(src: np.ndarray, lo: int, hi: int, w: int,
          half: bool) -> tuple[int, int]:
    """The sites of [lo, hi) from the first to the last with a normal component.

    The half line keeps site lo, its first pair. While the outermost sites
    are normal nothing can be dropped, and the window is not scanned.
    """
    if _normal(src, hi - 1, w) and (half or _normal(src, lo, w)):
        return lo, hi
    normal = np.abs(src[:, lo * w:hi * w]) >= _TINY
    floats = np.flatnonzero(normal[0] | normal[1])
    first = lo if half else lo + int(floats[0]) // w
    return first, lo + int(floats[-1]) // w + 1


def _windows(state: State, coin: Coin, steps: int) -> Iterator[np.ndarray]:
    """Yield the rows (inner 0, inner 1) of the first site of each pair
    after each step from the initial ``state``.

    A yielded view is valid until the generator resumes. Each buffer row
    spans ``cap`` sites, and after step t the pairs are at buffer sites
    [edge, t + 2): ``edge`` is 1 on the line, and on the half line it moves
    up one site with each step from even t. The coin's output rows go to
    buffer sites 0 and cap + 1, which is the shift: inner 0 keeps its index
    and inner 1 moves one on.

    The coin runs on a live range of sites only: from ``lo`` to ``hi``,
    which grows by one site a step. Each block of ``_TRIM_EVERY`` steps
    runs it on the live sites of its last step, so it takes its views once;
    the sites past a step's live ones hold zero. Before a block the live
    sites shrink to those from the first to the last with a normal
    component, and the sites dropped are zeroed in both buffers. On the
    line ``lo`` stays one site below the first, so inner 1 at site lo,
    which no step writes, stays zero. Below the half line's edge the
    buffers hold stale values; the coin carries them up only to inner 1 at
    the edge, which the same step overwrites or leaves below the new edge.
    """
    half = state.kind is WalkKind.HALF_LINE
    dtype = np.complex128 if half else np.float64
    w = np.dtype(dtype).itemsize // 8  # floats per site
    cap = steps + 2
    bufs = [np.zeros(2 * cap + 2, dtype) for _ in range(2)]
    rows = [b[:2 * cap].reshape(2, cap) for b in bufs]
    flat = [r.view(np.float64) for r in rows]
    outs = [b.view(np.float64).reshape(2, (cap + 1) * w) for b in bufs]
    # the half line's boundary fix, on floats as memoryviews, whose items
    # cost less to get and set than an array's
    row0, row1 = map(memoryview, flat[1])
    # step i reads buffer 1 - i % 2; the half line starts at z(-1) = i z(0)
    rows[1][:, 1] = state.amps[0] * 1j if half else state.amps[0].real
    coef = coin.matrix()[:, :, None]
    tmp = np.empty((2, 2, cap * w))
    lo, hi, edge = 0, 2, 1
    for start in range(0, steps, _TRIM_EVERY):
        stop = min(start + _TRIM_EVERY, steps)
        if half:
            lo = edge
        if start:
            # start is even, so its step reads buffer 1 and writes buffer 0
            first, last = _live(flat[1], lo, hi, w, half)
            if (first, last) != (lo, hi):
                flat[1][:, lo * w:first * w] = 0
                flat[1][:, last * w:hi * w] = 0
                rows[0][:, lo:hi] = 0
                lo, hi = max(first - 1, lo), last
        # the live sites of the block's last step, as float offsets
        a, b = lo * w, (hi + stop - start - 1) * w
        prod = tmp[:, :, :b - a]
        p0, p1 = prod[:, 0], prod[:, 1]
        srcs = [f[:, a:b] for f in flat]
        dsts = [o[:, a:b] for o in outs]
        for i in range(start, stop):
            k = i & 1
            # out[r] = coef[r, 0] * inner0 + coef[r, 1] * inner1, the coin
            np.multiply(coef, srcs[1 - k], prod)
            np.add(p0, p1, dsts[k])
            if half and k:
                # the new virtual site is (w, i w); i (re, im) = (-im, re)
                f = 2 * edge
                row1[f], row1[f + 1] = -row0[f + 1], row0[f]
            elif half:
                edge += 1
            yield rows[k][:, edge:i + 3]
        hi += stop - start


def _expand(kind: WalkKind, t: int, window: np.ndarray,
            out: np.ndarray) -> None:
    """Write the full window of the pairs ``window`` at time t to ``out``, one
    (inner 0, inner 1) row per position: each representative followed by
    its twin."""
    pairs = out.T
    if kind is WalkKind.LINE:
        pairs[:, 0::2] = window
        pairs[:, 1::2] = window
    elif t & 1:
        pairs[:, 0::2] = window
        np.multiply(window, _MINUS_I, pairs[:, 1::2])
    else:
        # the first pair starts at the virtual site x = -1
        np.multiply(window, _MINUS_I, pairs[:, 0::2])
        pairs[:, 1::2] = window[:, 1:]


def _state(kind: WalkKind, t: int, window: np.ndarray) -> State:
    """A state owning a complex copy of the full window."""
    amps = np.empty((t + 1 - _offset(kind, t), 2), np.complex128)
    _expand(kind, t, window, amps)
    return State(kind, t, amps)


def _blocks(kind: WalkKind, coin: Coin,
            ts: Sequence[int]) -> Iterator[tuple[list[int], np.ndarray]]:
    """(times, amps) for runs of the sorted, distinct times ``ts``, all from
    one evolution to the last of them.

    ``amps`` is a zero-padded (n, W, 2) complex array: row i is the full
    window at ``times[i]``, position x at column x - offset(times[-1]). A
    block spans at most ``_BLOCK_SITES`` positions of the line's window,
    whichever walk it holds, so both walks split ``ts`` alike; a time whose
    window alone is larger is a block of one.
    """
    state, steps = _start(kind, coin, ts[-1])
    kind = state.kind
    groups: list[list[int]] = []
    for t in ts:
        if groups and (len(groups[-1]) + 1) * (2 * t + 2) <= _BLOCK_SITES:
            groups[-1].append(t)
        else:
            groups.append([t])
    frames = enumerate(chain([None], _windows(state, coin, steps)))
    for times in groups:
        first = _offset(kind, times[-1])
        amps = np.zeros((len(times), times[-1] + 1 - first, 2), np.complex128)
        for row, t in zip(amps, times):
            for now, window in frames:
                if now == t:
                    break
            cols = row[_offset(kind, t) - first:t + 1 - first]
            if t:
                _expand(kind, t, window, cols)
            else:
                cols[...] = state.amps
        yield times, amps


def step(state: State, coin: Coin) -> State:
    """Advance any state one step: coin everywhere, then the shift.

    On the line the shift is homogeneous. On the half line post-coin inner 0
    at x >= 1 moves to x-1; at x = 0 it becomes inner 1 in place; inner 1
    moves from x to x+1.
    """
    amps = state.amps
    post0 = coin.c * amps[:, 0] + coin.s * amps[:, 1]
    post1 = coin.s * amps[:, 0] - coin.c * amps[:, 1]
    n = len(amps)
    if state.kind is WalkKind.HALF_LINE:
        out = np.zeros((n + 1, 2), np.complex128)
        out[:n - 1, 0] = post0[1:]
        out[0, 1] = post0[0]
        out[1:, 1] = post1
    else:
        out = np.zeros((n + 2, 2), np.complex128)
        out[:n, 0] = post0
        out[2:, 1] = post1
    return State(state.kind, state.t + 1, out)


def _start(kind: WalkKind, coin: Coin, steps: int) -> tuple[State, int]:
    """The initial state and the step count, once ``steps`` is checked."""
    steps = _index("steps", steps)
    return initial(kind, coin), steps


def evolve(kind: WalkKind, coin: Coin, steps: int) -> State:
    """Evolve the appropriate initial state for the given number of steps."""
    state, steps = _start(kind, coin, steps)
    window = None
    for window in _windows(state, coin, steps):
        pass
    return state if window is None else _state(state.kind, steps, window)


def iter_states(kind: WalkKind, coin: Coin,
                steps: int) -> Iterator[tuple[int, State]]:
    """(t, state) for t = 0..steps without re-evolving from scratch.

    The arguments are checked on the call, before anything is yielded.
    """
    state, steps = _start(kind, coin, steps)
    kind = state.kind
    return chain([(0, state)], ((t, _state(kind, t, window)) for t, window
                                in enumerate(_windows(state, coin, steps), 1)))


def probability_arrays(state: State) -> tuple[np.ndarray, np.ndarray]:
    """(|a0|^2, |a1|^2) over the support window, index 0 at state.offset."""
    p = np.abs(state.amps) ** 2
    return p[:, 0], p[:, 1]


def _floored(amps: np.ndarray) -> np.ndarray:
    """|amps|^2, each value below ``_PROB_FLOOR`` set to exact zero."""
    p = np.abs(amps) ** 2
    return np.where(p < _PROB_FLOOR, 0.0, p)


def distribution(state: State) -> Distribution:
    """Probability table over the state's support window."""
    p = _floored(state.amps)
    p0, p1 = p[:, 0], p[:, 1]
    return Distribution(state.kind, state.t, tuple(p0.tolist()),
                        tuple(p1.tolist()), tuple((p0 + p1).tolist()))
