"""Pinned output bytes and the shape of every route's Distribution.

The digests were taken from the row-object implementation that preceded
the columnar Distribution, the two oracle digests at t = 200 from the
oracle that built one Fraction per site, and the float-angle exact and
sweep digests while `exact` and `sweep` still took a precision option, and
the figure, pi/3 exact and evolve/approx sweep digests while the half-line
closed form still ran separate branch loops for even and odd t, and the
fig2 and fig3 digests before `figure_data` read its figures from one table,
and the t = 5000 simulate digests while the renderers still formatted one
cell at a time, and the two oracle CSV digests while the oracle table still
held its exact values as a second column set, and the t = 5000 simulate
digests at theta = 2.5, -0.7 and pi/4 while the step kernel still stepped
every site of the window. The two `exact --walk line` digests were retaken
when the line closed form came to list the whole window, with the exact
zeros at x = t - 1 and t. The `verify --out` report and the
`scripts/run_verification.py --t-max 200` stdout were pinned while every
walk suite still built one state per walk and time. Any change to them is a
change of output bytes.
"""
import hashlib
import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

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


ROOT = Path(__file__).resolve().parents[1]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("argv, digest", [
    (["exact", "--walk", "line", "--theta", "pi/3", "--steps", "15",
      "--format", "json"],
     "57edf43a8efb32c16da86b69e4c02bca898aa385220be49b880539cf4918d551"),
    (["oracle", "--walk", "halfline", "--steps", "20", "--format", "json"],
     "1d8ebc7783f93389ab310fd0bef3b85b801d97ab971aa043b12139cec50ff620"),
    (["simulate", "--walk", "line", "--theta", "1.0", "--steps", "100"],
     "7449f5cffc21520ea3186d1c71afcb6797921d5457bae970c926bb56e8153950"),
    (["oracle", "--walk", "line", "--steps", "200", "--format", "json"],
     "cf8fec10b0538c7d6e13aeaf666f37b3fdddb46c0a0bbbb3ef60382fd3a9f95d"),
    (["oracle", "--walk", "halfline", "--steps", "200", "--format", "json"],
     "d2dbfc4198d1f919c53a63becd9cdce5681300d01bdb094a6277aacb4fd43c06"),
    (["oracle", "--walk", "line", "--steps", "200", "--format", "csv"],
     "2498e7027af20c6d0add40edf0776575804bec80d975ab15a9a052c443074e81"),
    (["oracle", "--walk", "halfline", "--steps", "200", "--format", "csv"],
     "193fb251e3cbb2b2f50e2fe89c70b14cf7dd58d7d3190f37c018b526724774d7"),
])
def test_stdout_bytes_are_pinned(argv, digest, tmp_path):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    assert _sha(out.read_bytes()) == digest


@pytest.mark.parametrize("walk, fmt, digest", [
    ("line", "csv",
     "8e4878bd67630a6ffc49b65bc335e60b4f539c6ce9d3281a56bef31b3933a690"),
    ("line", "json",
     "65a8b8c04ef08827b598bb3bf1f263619c10ec2df67393ff189e6ddf67cbbb12"),
    ("halfline", "csv",
     "cfcad923d6deb695c5150d6fb43a72cb9f52e3f0d5d554dfd50bca7a26c6df77"),
    ("halfline", "json",
     "add525854a086c94165aebbfd21ddaf798e5b5c299a89d5ec680ea09b9bd6c3e"),
], ids=["line-csv", "line-json", "halfline-csv", "halfline-json"])
def test_long_walk_table_bytes_are_pinned(walk, fmt, digest, tmp_path):
    out = tmp_path / f"out.{fmt}"
    assert main(["simulate", "--walk", walk, "--theta", "1.0", "--steps",
                 "5000", "--format", fmt, "--out", str(out)]) == 0
    assert _sha(out.read_bytes()) == digest


@pytest.mark.parametrize("walk, theta, digest", [
    ("line", "2.5",
     "20ac4fe652c838b644787e835d103d29a623db953da4ca02e54a7c4e06b740a3"),
    ("line", "-0.7",
     "99eca74c1dddeb728eb82db965ce2621a7653456fe03f1b8d80aa57bfefe5196"),
    ("line", "pi/4",
     "d4b1053ca39b3e2257852cd1094ce5239a178b6e153e4da00c234f681d0e2400"),
    ("halfline", "2.5",
     "847ac573f9134f844e6207d3e67baeeef9c27eafed341938384bf0aad955b149"),
    ("halfline", "-0.7",
     "afe3ac9252af1735bc6307b171771753d0ead855c1c66a681129a0068d424a57"),
    ("halfline", "pi/4",
     "7ba22ccc3591dc03d4f9129a7fff827065a376e641fc9917c315b66eba5b05ae"),
])
def test_long_walk_csv_bytes_are_pinned_at_more_angles(walk, theta, digest,
                                                       tmp_path):
    out = tmp_path / "out.csv"
    assert main(["simulate", "--walk", walk, f"--theta={theta}", "--steps",
                 "5000", "--out", str(out)]) == 0
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
    """(name, distribution, first position, last position) of every route:
    the walk's window, 0..t on the half line and -t-1..t on the line."""
    pi4 = make_coin_pi(Fraction(1, 4))
    coin = make_coin(1.0)
    return [
        ("evolve-half", distribution(evolve(WalkKind.HALF_LINE, coin, t)),
         0, t),
        ("evolve-line", distribution(evolve(WalkKind.LINE, coin, t)),
         -t - 1, t),
        ("line_exact", line_exact(coin, t), -t - 1, t),
        ("half_line_exact", half_line_exact(coin, t), 0, t),
        ("half_line_exact_total", half_line_exact_total(coin, t), 0, t),
        ("by_inner0", half_line_exact_by_inner(coin, t, 0), 0, t),
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


@pytest.mark.parametrize("walk, digest", [
    ("line", "b94f8fcf5048ba5b71c3816304e297db0eb274a85c11687cf465b0d433664fc0"),
    ("halfline",
     "a9543c5c2908bc61312b33a7a76723aab03ce360ea47d8b5086f93ac853a0f79"),
], ids=["line", "halfline"])
def test_exact_json_at_float_angle_is_pinned(walk, digest, tmp_path):
    out = tmp_path / "out.json"
    assert main(["exact", "--walk", walk, "--theta", "1.0", "--steps", "60",
                 "--format", "json", "--out", str(out)]) == 0
    assert _sha(out.read_bytes()) == digest


def test_exact_sweep_files_are_pinned(tmp_path):
    assert main(["sweep", "--route", "exact", "--thetas", "pi/4,1.0",
                 "--ts", "3,30", "--out", str(tmp_path)]) == 0
    got = {p.name: _sha(p.read_bytes()) for p in tmp_path.iterdir()}
    assert got == {
        "exact_halfline_theta-1.0_t-3.csv":
            "40bb82dbad1f0dc8fc413bf9ec9081307c3c8a5e01ccebb87c438a13dc5d1879",
        "exact_halfline_theta-1.0_t-30.csv":
            "7f1046a3b3501cf77a7eec601594211e2e5f988728fc00e5e20dd76bf6873fbb",
        "exact_halfline_theta-pi_4_t-3.csv":
            "3b1504ed77415940cd123121d85e0b77cfd760c47c77c4c91b81666064748eee",
        "exact_halfline_theta-pi_4_t-30.csv":
            "40e1bf7a3db6c27868249b1075a66645d0fe0119086ce31cc27949205389043d",
        "manifest.txt":
            "1a14ca29a9ca450b566fc98aa2cf7e65f4ae676f49afc379a9848df2cfbbb353",
    }


@pytest.mark.parametrize("figure, digests", [
    ("fig1", {
        "fig1_halfline_theta_pi4_t500_evolve.csv":
            "05bee0ab3946ea9dc912874afa6c408c7354466fe03608e1b60fee5cdb2eaf0c",
    }),
    ("fig5", {
        "fig5_halfline_theta_pi4_t15_evolve.csv":
            "0e15b3b99d9ba87a1a9084d44272621029a928259456c5641ae825ae766ebc1f",
        "fig5_halfline_theta_pi4_t15_exact.csv":
            "b5407841ae073d4ba8c7e75c8d60ed6dd4ace9887598a8a42e72859fd45f331b",
    }),
    ("fig6", {
        "fig6_halfline_theta_pi3_t14_evolve.csv":
            "1b86ebda9b1951972d4002e6cbd3f11dd21a73276423f57a5708360846fbfc77",
        "fig6_halfline_theta_pi3_t14_exact.csv":
            "12d4859065424d206cf33ec36031a944bb482e25720265eea123f5b46f091bb5",
    }),
    ("fig7", {
        "fig7_halfline_theta_pi3_t15_evolve.csv":
            "bcda3f082087950706ac88963e6b4dc0e5698a5b2f82d0640eee72d8eb4ac122",
        "fig7_halfline_theta_pi3_t15_exact.csv":
            "d17f166591967ffb5b462ea3ac4a1a59a21dece53c3cdc6c62a801263306fba5",
    }),
    ("fig8", {
        "fig8_halfline_theta_pi4_t500_approx.csv":
            "16ab13ca19038354c180dd58964d94958cb48a0821d72d772c5ecef8eaa459b9",
        "fig8_halfline_theta_pi4_t500_evolve.csv":
            "05bee0ab3946ea9dc912874afa6c408c7354466fe03608e1b60fee5cdb2eaf0c",
    }),
    ("fig9", {
        "fig9_halfline_theta_pi3_t500_approx.csv":
            "129f6433b45b93e2de855ca8a34143f3ac0acbd0d2532040f73413531de8c676",
        "fig9_halfline_theta_pi3_t500_evolve.csv":
            "5e9898b9a4707f1b082af12b91d96148384c26e8893669f19a96acfbfbf8e413",
    }),
    ("fig2", {
        "fig2_inner0_series.csv":
            "37e7e5dc99fec3c81ea7bbe9a7d241e6d82a18535e1b6b04fb5383238ee7067c",
        "fig2_inner1_series.csv":
            "a6edcf18a79d3495ace73047d2dabb2a6cbbe5f80127f8ca04963b1e72334744",
        "fig2_total_series.csv":
            "385c7d68637528fd7409255b8f2e8308280ca86d262a8b704108949ee8d09391",
    }),
    ("fig3", {
        "fig3_halfline_theta_2pi5_t150_evolve.csv":
            "ea9cac317879727f01791b0a34323e175d312a095da91752d1cadf859d6f564b",
        "fig3_halfline_theta_pi3_t150_evolve.csv":
            "9b976f680539c6ef7ee4c02139f2da5d3baceee8898c38d26a721f4af7a86a4f",
        "fig3_halfline_theta_pi4_t150_evolve.csv":
            "8d21561574bb7ada622f6cb2f49152044ed0d5c238ceabba38e7f2e90f04c486",
        "fig3_halfline_theta_pi6_t150_evolve.csv":
            "d75f21f62441b08544832a0c00afb418ab88187ce4454c662200bb14f08c743f",
    }),
])
def test_figure_csv_bytes_are_pinned(figure, digests, tmp_path):
    assert main(["figure", "--id", figure, "--out", str(tmp_path)]) == 0
    got = {p.name: _sha(p.read_bytes()) for p in tmp_path.iterdir()}
    assert got == digests


@pytest.mark.parametrize("t, digest", [
    (14, "1382a675af5eacafce50c9ee9d8c63f93838c23b3cc22449b61535e02ae5da15"),
    (15, "c272775ac12a5e48badfda5e2ca432fa46e89f83b8932ec3f857fdec43f5df7c"),
])
def test_half_line_exact_json_at_pi3_is_pinned(t, digest, tmp_path):
    out = tmp_path / "out.json"
    assert main(["exact", "--walk", "halfline", "--theta", "pi/3", "--steps",
                 str(t), "--format", "json", "--out", str(out)]) == 0
    assert _sha(out.read_bytes()) == digest


@pytest.mark.parametrize("route, digests", [
    ("evolve", {
        "evolve_halfline_theta-1.0_t-3.csv":
            "5084e4c0d3a066a66aa7c55586eff4dff525ee6e4eb78f40c8c6fbfcf7e27664",
        "evolve_halfline_theta-1.0_t-30.csv":
            "c61e8d26d9e0284e0118eeea1a264e3cd5a51dacfe9afba20a952e2528d0a3d5",
        "evolve_halfline_theta-pi_4_t-3.csv":
            "a0db3c4935b011c3982e2dac7fc28f1d5bacb738d65a57bfe1b8eb7fa80f1ad4",
        "evolve_halfline_theta-pi_4_t-30.csv":
            "a6ddebf2018894c2bbd41c0de66287a94b8802d7755c25bcb9d71e8d701dd3f2",
        "manifest.txt":
            "16df57c8af85b56acfbc4db575024af7ffbaaaf1bbb69c58491a2e4b2bb1a965",
    }),
    ("approx", {
        "approx_halfline_theta-1.0_t-3.csv":
            "47fc1ed0e9a4219a434c529c500f841d1e738e9a32213f743de8dfc6228cd753",
        "approx_halfline_theta-1.0_t-30.csv":
            "620e54553bfd7bb3209323aaae0714071bc073c6bc7c4076406b2ec515ea006f",
        "approx_halfline_theta-pi_4_t-3.csv":
            "50b769ee6386fed3157c6cadc14fa2703b7b0995298d691a4bb50f270d230215",
        "approx_halfline_theta-pi_4_t-30.csv":
            "7ad35f2c67d529db55baf923b04467f2b708fc2d4b7b49fe56d38d5a17289fe8",
        "manifest.txt":
            "2e02b509cea9b6732d6bd51063d7602d1195a420979e0cc3c4e8de370bdbc10b",
    }),
])
def test_sweep_files_are_pinned(route, digests, tmp_path):
    assert main(["sweep", "--route", route, "--thetas", "pi/4,1.0",
                 "--ts", "3,30", "--out", str(tmp_path)]) == 0
    got = {p.name: _sha(p.read_bytes()) for p in tmp_path.iterdir()}
    assert got == digests


def test_verify_report_bytes_are_pinned(tmp_path):
    # exit 1: ksConvergence FAILs at 0.3 and 2.8 (known defect 1), and the
    # angle 0 is excluded from every suite
    out = tmp_path / "r.json"
    assert main(["verify", "--suite", "all", "--thetas",
                 "0,pi/6,pi/4,pi/3,1.0,0.3,2.8,-0.7,2pi/3", "--ts",
                 "0,1,2,15,31,32,33,60,61,100,199,200",
                 "--out", str(out)]) == 1
    assert _sha(out.read_bytes()) == (
        "76aedc1daae447c947fcbcfb34806184a0d94f01d1a3886acdfa6854f75a7f8a")


def test_verification_script_stdout_is_pinned(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(
        "run_verification", ROOT / "scripts" / "run_verification.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(sys, "argv", ["run_verification.py", "--t-max", "200"])
    assert script.main() == 0
    assert _sha(capsys.readouterr().out.encode()) == (
        "af557f3c4d4ac94413523f3ba92991da4b7dea7e436b34aa6cbfb210e9c2b4e9")
