import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from qwalk import cli
from qwalk.closed_form import (
    ExactParams,
    Precision,
    half_line_exact_values,
    line_exact_values,
)
from qwalk.cli import main, parse_theta
from qwalk.core import _PROB_FLOOR


class TestParseTheta:
    def test_pi_fractions(self):
        assert parse_theta("pi/4").pi_fraction == Fraction(1, 4)
        assert parse_theta("2pi/5").pi_fraction == Fraction(2, 5)
        assert parse_theta("pi").pi_fraction == Fraction(1)
        assert parse_theta("3pi/2").pi_fraction == Fraction(3, 2)
        assert parse_theta("-pi/4").pi_fraction == Fraction(-1, 4)
        assert parse_theta("+2pi/3").pi_fraction == Fraction(2, 3)

    def test_radians(self):
        coin = parse_theta("0.75")
        assert coin.theta == 0.75
        assert coin.pi_fraction is None

    def test_garbage(self):
        from qwalk.cli import UsageError

        with pytest.raises(UsageError):
            parse_theta("tau/4")
        with pytest.raises(UsageError):
            parse_theta("pi/0")
        with pytest.raises(UsageError):
            parse_theta("--pi/4")


def _main_in_capped_child(args: list[str]) -> subprocess.CompletedProcess:
    """``main(args)`` in a child process with 8 GiB of address space.

    10^11 steps need terabytes, which numpy and the closed forms' bit cap
    refuse at once; the address-space limit makes sure the child never
    allocates lazily, and one BLAS thread keeps numpy's own reservations
    under it.
    """
    code = ("import resource, sys; "
            "resource.setrlimit(resource.RLIMIT_AS, (8 << 30, 8 << 30)); "
            "from qwalk.cli import main; sys.exit(main(sys.argv[1:]))")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)


class TestExitCodes:
    def test_simulate_ok(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        rc = main(["simulate", "--walk", "halfline", "--theta", "pi/4",
                   "--steps", "5", "--out", str(out)])
        assert rc == 0
        assert out.read_text().startswith("x,p0,p1,p\n")

    def test_exact_excluded_theta_is_invalid_args(self, capsys):
        rc = main(["exact", "--walk", "line", "--theta", "pi/2",
                   "--steps", "5"])
        assert rc == 2

    @pytest.mark.parametrize("argv", [
        ["exact", "--steps", "5"],
        ["sweep", "--route", "exact", "--thetas", "pi/4", "--ts", "5"],
    ], ids=["exact", "sweep"])
    def test_precision_option_is_rejected(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(out), "--precision", "dd"])
        assert exc.value.code == 2
        assert not out.exists()

    def test_theta_forms(self, capsys):
        assert main(["simulate", "--theta=-pi/4", "--steps", "2"]) == 0
        capsys.readouterr()
        assert main(["simulate", "--theta", "pi/0", "--steps", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv, value", [
        (["simulate", "--steps", "3", "--theta"], "-pi/4"),
        (["simulate", "--steps", "3", "--theta"], "-1e-3"),
        (["exact", "--steps", "3", "--theta"], "-2pi/3"),
        (["verify", "--suite", "theorem1", "--ts", "1,2", "--thetas"],
         "-0.3,0.5"),
    ])
    def test_negative_angle_as_its_own_word(self, capsys, argv, value):
        """A negative angle after its option prints what it prints after
        '='."""
        assert main(argv + [value]) == 0
        out = capsys.readouterr().out
        assert main(argv[:-1] + [f"{argv[-1]}={value}"]) == 0
        assert capsys.readouterr().out == out != ""

    @pytest.mark.parametrize("theta", ["pi/2", "0", "pi", "3pi/2"])
    @pytest.mark.parametrize("route", ["approx", "sweep"])
    def test_approx_degenerate_theta_is_exit_2(self, tmp_path, capsys, theta,
                                               route):
        if route == "approx":
            argv = ["approx", "--theta", theta, "--steps", "5"]
        else:
            argv = ["sweep", "--route", "approx", "--thetas", theta,
                    "--ts", "5", "--out", str(tmp_path / "sweep")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: the large-t approximation needs "
                                "theta away from multiples of pi/2\n")

    def test_oracle_requires_pi4(self, capsys):
        rc = main(["oracle", "--walk", "line", "--theta", "pi/3",
                   "--steps", "5"])
        assert rc == 2

    def test_verify_failure_is_exit_1(self, capsys):
        rc = main(["verify", "--suite", "exactVsSim", "--thetas", "pi/2",
                   "--ts", "10"])
        assert rc == 1

    @pytest.mark.parametrize("option,value", [("--thetas", ","),
                                              ("--ts", ",")])
    def test_verify_empty_lists_exit_2(self, capsys, option, value):
        rc = main(["verify", "--suite", "lemma1", option, value])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (captured.err.startswith("error: ")
                and len(captured.err.splitlines()) == 1)

    @pytest.mark.parametrize("suite", ["ksConvergence", "exactVsSim"])
    def test_verify_selecting_no_check_is_exit_2(self, tmp_path, capsys,
                                                 suite):
        out = tmp_path / "report.json"
        rc = main(["verify", "--suite", suite, "--ts", "0", "--out",
                   str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (captured.err.startswith("error: ")
                and len(captured.err.splitlines()) == 1)
        assert not out.exists()

    def test_verify_pass_is_exit_0(self, capsys):
        rc = main(["verify", "--suite", "theorem1", "--thetas", "pi/4",
                   "--ts", "1,2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 2

    def test_io_error_is_exit_3(self, tmp_path, capsys):
        rc = main(["simulate", "--theta", "pi/4", "--steps", "2",
                   "--out", str(tmp_path / "no" / "dir" / "x.csv")])
        assert rc == 3

    def test_bad_subcommand_is_exit_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qwalk", "frobnicate"],
            capture_output=True,
        )
        assert proc.returncode == 2

    def test_negative_steps_rejected(self, capsys):
        rc = main(["simulate", "--theta", "pi/4", "--steps", "-3"])
        assert rc == 2

    @pytest.mark.parametrize("command, route, steps", [
        ("simulate", "evolve", "-1"), ("exact", "exact", "0"),
        ("approx", "approx", "0"), ("oracle", "oracle", "-1")])
    def test_refused_steps_message_is_the_sweep_message(
            self, tmp_path, capsys, command, route, steps):
        assert main([command, "--steps", steps]) == 2
        err = capsys.readouterr().err
        assert main(["sweep", "--route", route, "--thetas", "pi/4", "--ts",
                     steps, "--out", str(tmp_path / "sweep")]) == 2
        assert capsys.readouterr().err == err
        assert len(err.splitlines()) == 1


    @pytest.mark.parametrize("command", [
        ["simulate", "--theta", "1.0", "--steps", "99999999999"],
        ["sweep", "--route", "evolve", "--thetas", "1.0",
         "--ts", "99999999999", "--out", "{tmp}"],
        ["approx", "--theta", "1.0", "--steps", "99999999999"],
        ["sweep", "--route", "approx", "--thetas", "1.0",
         "--ts", "99999999999", "--out", "{tmp}"],
        ["limit", "--theta", "1.0", "--points", "99999999999"],
        ["exact", "--theta", "1.0", "--steps", "99999999999"],
        ["sweep", "--route", "exact", "--thetas", "1.0",
         "--ts", "99999999999", "--out", "{tmp}"],
    ], ids=["simulate", "sweep", "approx", "sweep-approx", "limit", "exact",
            "sweep-exact"])
    def test_oversized_steps_is_exit_2(self, tmp_path, command):
        args = [a.replace("{tmp}", str(tmp_path)) for a in command]
        proc = _main_in_capped_child(args)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: out of memory: ")
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stdout == ""


class TestOutputs:
    def test_simulate_stdout(self, capsys):
        rc = main(["simulate", "--theta", "pi/4", "--steps", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "x,p0,p1,p"
        assert len(out.splitlines()) == 3

    def test_exact_line_json(self, tmp_path):
        out = tmp_path / "e.json"
        rc = main(["exact", "--walk", "line", "--theta", "pi/4", "--steps",
                   "1", "--format", "json", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["meta"]["route"] == "exact"
        assert doc["rows"][0]["p0"] is None
        assert doc["rows"][0]["p"] == 0.5

    def test_oracle_json_exact_strings(self, tmp_path):
        out = tmp_path / "o.json"
        rc = main(["oracle", "--steps", "2", "--format", "json",
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["rows"][0]["p_exact"] == "1/2"

    def test_limit_cdf(self, tmp_path):
        out = tmp_path / "cdf.csv"
        rc = main(["limit", "--kind", "halfTotal", "--quantity", "cdf",
                   "--points", "16", "--theta", "pi/3", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,cdf"
        vals = [float(ln.split(",")[1]) for ln in lines[1:]]
        assert vals == sorted(vals)
        assert vals[-1] == 1.0

    def test_limit_density_header(self, capsys):
        rc = main(["limit", "--kind", "lineTotal", "--points", "8"])
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[0] == "y,density"

    def test_approx(self, capsys):
        rc = main(["approx", "--theta", "pi/4", "--steps", "500"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "x,p0,p1,p"
        assert len(lines) == 502

    def test_float_precisions_print_the_exact_values_rounded(self, tmp_path,
                                                             capsys):
        # the tables print the exact rationals rounded once, past t = 300,
        # and those below the floor as 0. At pi/3 and t = 1300, 2 q^(t-1)
        # has 2,600 bits, so the values are rounded from the cut factors
        def cell(v):
            v = float(v)
            return repr(v) if v >= _PROB_FLOOR else "0"

        for theta, t in (("pi/4", 301), ("pi/3", 301), ("pi/3", 1300),
                         ("2pi/3", 301)):
            coin = parse_theta(theta)
            params = ExactParams.for_coin(coin, t, Precision.EXACT_Q2)
            for walk, values in (("line", line_exact_values),
                                 ("halfline", half_line_exact_values)):
                vals = values(coin, t, params)
                if walk == "line":
                    # the walk never reaches t - 1 and t: exact zeros
                    rows = [f"{x},,,{cell(vals[x])}"
                            for x in range(-t - 1, t - 1)]
                    rows += [f"{t - 1},,,0", f"{t},,,0"]
                else:
                    rows = [f"{x},{cell(v0 or 0)},{cell(v1)},{cell(vt)}"
                            for x, (v0, v1, vt) in sorted(vals.items())]
                out = tmp_path / f"{walk}.csv"
                rc = main(["exact", "--walk", walk, "--theta", theta,
                           "--steps", str(t), "--out", str(out)])
                assert rc == 0, (theta, t, walk)
                assert capsys.readouterr().err == ""
                assert out.read_text() == "\n".join(
                    ["x,p0,p1,p", *rows]) + "\n", (theta, t, walk)

    def test_exact_beyond_threshold_ok_with_exact_precision(self, tmp_path,
                                                            capsys):
        for walk in ("line", "halfline"):
            out = tmp_path / f"exact400_{walk}.csv"
            rc = main(["exact", "--walk", walk, "--theta", "pi/4",
                       "--steps", "310", "--out", str(out)])
            assert rc == 0, walk
            assert "warning" not in capsys.readouterr().err
            rows = out.read_text().splitlines()[1:]
            total = sum(float(ln.split(",")[-1]) for ln in rows)
            assert abs(total - 1.0) < 1e-12, walk

    @pytest.mark.parametrize("walk", ["line", "halfline"])
    def test_exact_precision_past_float_underflow(self, walk, tmp_path, capsys):
        # the prefactor (1/2)^1100 underflows as a float but not as a Fraction
        out = tmp_path / f"exact1100_{walk}.csv"
        rc = main(["exact", "--walk", walk, "--theta", "pi/4",
                   "--steps", "1100", "--out", str(out)])
        assert rc == 0, capsys.readouterr().err
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == (2202 if walk == "line" else 1101)
        total = sum(float(ln.split(",")[-1]) for ln in rows)
        assert abs(total - 1.0) < 1e-12

    def test_figure_writes_files(self, tmp_path):
        rc = main(["figure", "--id", "fig4", "--out", str(tmp_path)])
        assert rc == 0
        files = sorted(p.name for p in tmp_path.iterdir())
        assert len(files) == 2
        assert any("evolve" in f for f in files)
        assert any("exact" in f for f in files)

    def test_figure_deterministic(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["figure", "--id", "fig5", "--out", str(a)]) == 0
        assert main(["figure", "--id", "fig5", "--out", str(b)]) == 0
        for fa in sorted(a.iterdir()):
            fb = b / fa.name
            assert fa.read_bytes() == fb.read_bytes()

    def test_verify_report_json(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        rc = main(["verify", "--suite", "lemma1", "--thetas", "pi/4,pi/3",
                   "--ts", "1,2,3", "--out", str(report)])
        assert rc == 0
        doc = json.loads(report.read_text())
        assert len(doc) == 6
        assert all(entry["pass"] for entry in doc)

    def test_verify_report_with_error_entry_is_strict_json(self, tmp_path,
                                                           capsys):
        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        report = tmp_path / "report.json"
        rc = main(["verify", "--suite", "lemma1", "--thetas", "pi",
                   "--ts", "1", "--out", str(report)])
        assert rc == 1
        assert "residual=nan" in capsys.readouterr().out
        doc = json.loads(report.read_text(), parse_constant=refuse)
        assert doc[0]["max_residual"] is None
        assert doc[0]["error"] and not doc[0]["pass"]


class TestSweep:
    def test_sweep_writes_manifest_in_lex_order(self, tmp_path):
        rc = main(["sweep", "--walk", "halfline", "--route", "evolve",
                   "--thetas", "pi/3,pi/4", "--ts", "4,2",
                   "--out", str(tmp_path)])
        assert rc == 0
        manifest = (tmp_path / "manifest.txt").read_text().splitlines()
        assert len(manifest) == 4
        # lexicographic by (theta, t): pi/4 (0.785) precedes pi/3 (1.047)
        assert manifest[0] == "evolve_halfline_theta-pi_4_t-2.csv"
        assert manifest[1] == "evolve_halfline_theta-pi_4_t-4.csv"
        assert manifest[2] == "evolve_halfline_theta-pi_3_t-2.csv"
        for name in manifest:
            assert (tmp_path / name).exists()

    @pytest.mark.parametrize("thetas,ts", [(",", "5"), ("pi/4", ","),
                                           ("", "")])
    def test_sweep_empty_lists_exit_2(self, tmp_path, capsys, thetas, ts):
        out = tmp_path / "sweep"
        rc = main(["sweep", "--thetas", thetas, "--ts", ts, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("route,thetas,ts", [
        ("approx", "pi/4,pi/2", "5"),
        ("approx", "pi/4", "5,0"),
        ("exact", "pi/4,pi/2", "5"),
        ("exact", "pi/4", "5,0"),
        ("evolve", "pi/4", "5,-1"),
        ("oracle", "pi/4,pi/3", "5"),
    ])
    def test_refused_job_writes_nothing(self, tmp_path, capsys, route, thetas,
                                        ts):
        out = tmp_path / "sweep"
        rc = main(["sweep", "--route", route, "--thetas", thetas, "--ts", ts,
                   "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert not out.exists()

    def test_oversized_exact_job_after_a_valid_one_writes_nothing(
            self, tmp_path, capsys):
        out = tmp_path / "sweep"
        rc = main(["sweep", "--route", "exact", "--thetas", "1.0",
                   "--ts", "3,99999999999", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: ")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("route", ["evolve", "approx"])
    def test_oversized_job_after_a_valid_one_writes_nothing(self, tmp_path,
                                                            route):
        out = tmp_path / "sweep"
        proc = _main_in_capped_child(
            ["sweep", "--route", route, "--thetas", "1.0",
             "--ts", "3,99999999999", "--out", str(out)])
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: out of memory: ")
        assert len(proc.stderr.splitlines()) == 1
        assert not out.exists()

    def test_approx_on_the_line_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        rc = main(["sweep", "--route", "approx", "--walk", "line",
                   "--thetas", "pi/4", "--ts", "5", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "half line only" in err
        assert not out.exists()

    def test_repeated_jobs_are_written_once(self, tmp_path, monkeypatch):
        written = []
        emit = cli.emit
        monkeypatch.setattr(cli, "emit", lambda table, fmt, dest: (
            written.append(dest.name), emit(table, fmt, dest)))
        rc = main(["sweep", "--thetas", "pi/4,pi/4", "--ts", "3,3",
                   "--out", str(tmp_path)])
        assert rc == 0
        name = "evolve_halfline_theta-pi_4_t-3.csv"
        assert written == [name]
        assert (tmp_path / "manifest.txt").read_text() == name + "\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [name,
                                                                "manifest.txt"]

    def test_sweep_deterministic_files(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        args = ["sweep", "--thetas", "pi/4", "--ts", "3,6",
                "--route", "exact"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        for fa in sorted(a.iterdir()):
            assert fa.read_bytes() == (b / fa.name).read_bytes()
