"""Pinned output bytes and the shape of every route's Distribution.

The digests were taken from the row-object implementation that preceded
the columnar Distribution, and the two oracle digests at t = 200 from the
oracle that built one Fraction per site; any change to them is a change of
output bytes.
"""
import hashlib
from fractions import Fraction

import pytest

from qwalk import (
    WalkKind,
    distribution,
    evolve,
    half_line_exact_by_inner,
    half_line_exact_total,
    line_exact,
    make_coin,
    make_coin_pi,
    q2_oracle_distribution,
)
from qwalk.cli import main
from qwalk.closed_form import half_line_exact


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("argv, digest", [
    (["exact", "--walk", "line", "--theta", "pi/3", "--steps", "15",
      "--format", "json"],
     "320995786a376c0d7ca4b79bfc02badab3f1840f6cd31b067285655a51694b4f"),
    (["oracle", "--walk", "halfline", "--steps", "20", "--format", "json"],
     "1d8ebc7783f93389ab310fd0bef3b85b801d97ab971aa043b12139cec50ff620"),
    (["simulate", "--walk", "line", "--theta", "1.0", "--steps", "100"],
     "7449f5cffc21520ea3186d1c71afcb6797921d5457bae970c926bb56e8153950"),
    (["oracle", "--walk", "line", "--steps", "200", "--format", "json"],
     "cf8fec10b0538c7d6e13aeaf666f37b3fdddb46c0a0bbbb3ef60382fd3a9f95d"),
    (["oracle", "--walk", "halfline", "--steps", "200", "--format", "json"],
     "d2dbfc4198d1f919c53a63becd9cdce5681300d01bdb094a6277aacb4fd43c06"),
])
def test_stdout_bytes_are_pinned(argv, digest, tmp_path):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    assert _sha(out.read_bytes()) == digest


def test_fig4_csv_bytes_are_pinned(tmp_path):
    assert main(["figure", "--id", "fig4", "--out", str(tmp_path)]) == 0
    got = {p.name: _sha(p.read_bytes()) for p in tmp_path.iterdir()}
    assert got == {
        "fig4_halfline_theta_pi4_t14_evolve.csv":
            "2f69e5de5146cffc4b220e3312edb2010babd59bd51c73931dc0ff548cb0a10d",
        "fig4_halfline_theta_pi4_t14_exact.csv":
            "74361e3359271e9c0c2d9baffb26ab71237cd795ec7a60251e51e5ee34daf642",
    }


def _routes(t: int):
    """(name, distribution, first position, last position) of every route."""
    pi4 = make_coin_pi(Fraction(1, 4))
    coin = make_coin(1.0)
    return [
        ("evolve-half", distribution(evolve(WalkKind.HALF_LINE, coin, t)),
         0, t),
        ("evolve-line", distribution(evolve(WalkKind.LINE, coin, t)),
         -t - 1, t),
        ("line_exact", line_exact(coin, t), -t - 1, t - 2),
        ("half_line_exact", half_line_exact(coin, t), 0, t),
        ("half_line_exact_total", half_line_exact_total(coin, t), 0, t),
        ("by_inner0", half_line_exact_by_inner(coin, t, 0), 0, t - 2),
        ("by_inner1", half_line_exact_by_inner(coin, t, 1), 0, t),
        ("oracle-half", q2_oracle_distribution(WalkKind.HALF_LINE, t), 0, t),
        ("oracle-line", q2_oracle_distribution(WalkKind.LINE, t), -t - 1, t),
        ("exact-pi4", half_line_exact(pi4, t), 0, t),
    ]


@pytest.mark.parametrize("t", [1, 2, 7, 14, 15])
def test_every_route_has_equal_columns_over_its_range(t):
    for name, dist, first, last in _routes(t):
        assert dist.t == t, name
        assert dist.positions() == range(first, last + 1), name
        assert len(dist.p0) == len(dist.p1) == len(dist.p), name
        assert None not in dist.p, name
