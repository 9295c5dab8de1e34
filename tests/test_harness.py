import errno
import json
import math
import os
import stat
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, seed, settings, strategies as st
from pytest import approx

from qwalk import (
    Coin,
    DensityKind,
    Distribution,
    LimitDensity,
    OutputTable,
    WalkKind,
    distribution,
    emit,
    evolve,
    figure_data,
    initial,
    line_exact,
    make_coin,
    make_coin_pi,
    q2_oracle_distribution,
    run_checks,
)
from qwalk import closed_form, harness
from qwalk.asymptotics import cdf_grid
from qwalk.closed_form import half_line_exact
from qwalk.core import State, _offset
from qwalk.evolution import _BLOCK_SITES, _blocks
from qwalk.harness import (
    _attempt,
    _degenerate,
    _exact_vs_sim_rows,
    _ks_rows,
    _lemma1_rows,
    _lemma2_rows,
    _sin_zero,
    _theorem1_rows,
    EXACT_VS_SIM_MAX_T,
    ROUTES,
    SUITES,
    TOLERANCES,
    CheckResult,
    canonical_coins,
    ks_tolerance,
    read_table_json,
    render_csv,
    render_json,
    route_table,
    table_from_distribution,
    table_meta,
)

from conftest import trimmed_reference_states


def read_rows_csv(path) -> tuple[tuple[str, ...], tuple[tuple, ...]]:
    """Header and typed rows of an emitted CSV (no metadata in this format)."""
    text = Path(path).read_text(encoding="utf-8")
    lines = [ln for ln in text.split("\n") if ln != ""]
    header = tuple(lines[0].split(","))
    rows = []
    for ln in lines[1:]:
        vals = []
        for i, cell in enumerate(ln.split(",")):
            if cell == "":
                vals.append(None)
            elif header[i] in ("x", "t"):
                vals.append(int(cell))
            else:
                vals.append(float(cell))
        rows.append(tuple(vals))
    return header, tuple(rows)


def _reference_fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    f = float(v)
    if f == 0.0:
        return "0"
    return repr(f)


def reference_render_csv(table: OutputTable) -> str:
    """CSV formatted one cell at a time: what render_csv must equal."""
    lines = [",".join(table.columns)]
    for row in table.rows:
        lines.append(",".join(_reference_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def reference_render_json(table: OutputTable) -> str:
    """JSON from one dict per row: what render_json must equal."""
    exact = [i for i in range(len(table.columns))
             if all(type(row[i]) is Fraction for row in table.rows)]
    rows = []
    for row in table.rows:
        obj = {c: float(v) if type(v) is Fraction else v
               for c, v in zip(table.columns, row)}
        obj.update((table.columns[i] + "_exact", str(row[i])) for i in exact)
        rows.append(obj)
    doc = {"meta": table.meta, "columns": list(table.columns), "rows": rows}
    return json.dumps(doc, indent=None, separators=(",", ":")) + "\n"


def reference_read_table_json(path) -> OutputTable:
    """A table read back one cell at a time: what read_table_json must equal."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    columns = tuple(doc["columns"])
    values = []
    for c in columns:
        values.append(tuple(
            Fraction(obj[c + "_exact"])
            if c + "_exact" in obj and c + "_exact" not in columns else obj[c]
            for obj in doc["rows"]))
    return OutputTable(meta=doc["meta"], columns=columns, values=tuple(values))


def hand_half_t1() -> Distribution:
    return Distribution(kind=WalkKind.HALF_LINE, t=1,
                        p0=(0.0, 0.0), p1=(0.5, 0.5), p=(0.5, 0.5))


def hand_line_exact_t1() -> Distribution:
    return Distribution(kind=WalkKind.LINE, t=1, p0=(None,) * 4,
                        p1=(None,) * 4, p=(0.5, 0.5, 0.0, 0.0))


class TestRunChecks:
    def test_theorem1_t1(self, pi4_coin):
        report = run_checks("theorem1", [pi4_coin], [1])
        (check,) = report.checks
        assert check.passed
        assert check.max_residual <= 1e-15

    def test_lemma1_t2(self, pi4_coin):
        report = run_checks("lemma1", [pi4_coin], [2])
        (check,) = report.checks
        assert check.passed
        assert check.max_residual <= 1e-15

    def test_lemma2_small_times(self, pi4_coin, pi3_coin):
        report = run_checks("lemma2", [pi4_coin, pi3_coin], [1, 2, 3, 8])
        assert report.all_passed

    def test_exact_vs_sim_domain_error_entry(self):
        report = run_checks("exactVsSim", [make_coin_pi(Fraction(1, 2))], [10])
        (check,) = report.checks
        assert check.error is not None
        assert math.isnan(check.max_residual)
        assert not check.passed
        assert not report.all_passed

    def test_one_branch_pass_per_angle_and_time(self, monkeypatch, pi4_coin):
        """exactVsSim evaluates one closed-form table per (angle, t), and
        the line's table is the half line's relabelled."""
        passes = []
        sums = closed_form._sums

        def counted(consts, t):
            passes.append(t)
            return sums(consts, t)

        monkeypatch.setattr(closed_form, "_sums", counted)
        report = run_checks("exactVsSim", [pi4_coin], range(1, 11))
        assert report.all_passed
        assert passes == list(range(1, 11))
        for line in (lambda: line_exact(pi4_coin, 7),
                     lambda: closed_form.line_exact_values(pi4_coin, 7)):
            passes.clear()
            line()
            assert passes == [7]

    def test_closed_form_precision_error_is_an_error_entry(self, pi4_coin):
        # near pi/2 the closed form refuses its table; the report survives
        report = run_checks("all", [1.5707, pi4_coin], [2])
        near = [c for c in report.checks if c.theta == 1.5707
                and c.name in ("exactVsSim", "innerSplit")]
        assert [c.name for c in near] == ["exactVsSim", "innerSplit"]
        for check in near:
            assert check.error == ("closed-form table sums to "
                                   "1.0000000061507703, not 1")
            assert math.isnan(check.max_residual)
        assert all(c.passed for c in report.checks
                   if c.theta == pi4_coin.theta)
        assert not report.all_passed

    def test_identity_angle_gives_error_entries(self):
        report = run_checks("theorem1", [make_coin_pi(0)], [3])
        (check,) = report.checks
        assert check.error is not None

    def test_inner_split_suite(self, canonical_coins):
        report = run_checks("innerSplit", canonical_coins, [5, 14])
        assert report.all_passed

    def test_limit_norm_suite(self, pi4_coin):
        report = run_checks("limitNorm", [pi4_coin], [1])
        assert report.all_passed
        names = {c.name for c in report.checks}
        assert "limitNorm[lineTotal]" in names
        assert "limitNorm[halfInner0+halfInner1]" in names

    def test_limit_norm_excludes_angles_whose_doubles_miss_unit_mass(self):
        # cos rounds to +-1 at the first two, so 1 - |c| is 0; at 1e-6 the
        # double-rounded laws miss unit mass by 4.4e-5 whatever the integrator
        thetas = [1e-9, math.pi - 1e-9, 1e-6]
        checks = run_checks("limitNorm", thetas, [1]).checks
        assert [(c.name, c.theta, c.passed) for c in checks] == [
            ("limitNorm", theta, False) for theta in thetas]
        assert all(c.error.startswith("theta excluded") for c in checks)
        # exact rational cos^2 leaves nothing to exclude
        assert run_checks("limitNorm", [make_coin_pi(Fraction(1, 3))],
                          [1]).all_passed

    def test_all_suite_small_grid(self, pi4_coin):
        report = run_checks("all", [pi4_coin], [1, 2, 14])
        assert report.all_passed
        assert len(report.checks) > 5

    def test_all_suite_canonical_grid_to_t200(self, canonical_coins):
        """Representative slice of the full grid: every suite passes."""
        ts = [1, 2, 3, 14, 15, 59, 60, 150, 200]
        report = run_checks("all", canonical_coins, ts)
        failures = report.failures()
        assert not failures, [c.line() for c in failures]
        names = {c.name for c in report.checks}
        assert "ksConvergence[halfTotal]" in names
        assert "exactVsSim" in names

    def test_all_is_the_suites_under_their_filters(self):
        """'all' equals the per-suite runs under the 'all' time filters."""
        coins = [make_coin_pi(0), make_coin_pi(Fraction(1, 2)),
                 make_coin_pi(Fraction(1, 4)), make_coin(1.0)]
        ts = [0, 1, 2, 60, 61, 100]
        keep = {
            "exactVsSim": lambda t: t <= EXACT_VS_SIM_MAX_T,
            "innerSplit": lambda t: t <= EXACT_VS_SIM_MAX_T,
            "ksConvergence": lambda t: t >= 100,
        }

        def fields(checks):
            return [(c.name, c.theta, c.t, repr(c.max_residual), c.tolerance,
                     c.error) for c in checks]

        expected = []
        for suite in SUITES:
            suite_ts = [t for t in ts if keep.get(suite, lambda t: True)(t)]
            expected += fields(run_checks(suite, coins, suite_ts).checks)
        assert fields(run_checks("all", coins, ts).checks) == expected
        errors = {name for name, _, _, _, _, error in expected if error}
        assert {"lemma1", "exactVsSim", "innerSplit", "limitNorm",
                "ksConvergence[halfTotal]"} <= errors

    def test_unknown_suite(self, pi4_coin):
        with pytest.raises(ValueError):
            run_checks("nope", [pi4_coin], [1])

    def test_bad_times_rejected(self, pi4_coin):
        for suite in ("lemma1", "exactVsSim", "ksConvergence"):
            with pytest.raises(ValueError):
                run_checks(suite, [pi4_coin], [-3, 2])

    def test_ks_suite_skips_times_below_1(self, pi4_coin):
        # the KS tolerance curve is undefined at t = 0, excluded angle or not
        for coin in (pi4_coin, make_coin_pi(Fraction(1, 2))):
            assert run_checks("ksConvergence", [coin], [0]).checks == ()
            assert (run_checks("ksConvergence", [coin], [0, 100]).checks
                    == run_checks("ksConvergence", [coin], [100]).checks)

    def test_no_angles_rejected(self):
        for suite in ("lemma1", "limitNorm", "all"):
            with pytest.raises(ValueError):
                run_checks(suite, [], [1, 2])

    def test_ks_suite_matches_ks_distance(self, pi4_coin):
        from qwalk import ks_distance

        checks = run_checks("ksConvergence", [pi4_coin], [1, 7, 100]).checks
        assert [c.t for c in checks] == [1, 7, 100]
        for c in checks:
            assert c.max_residual == ks_distance(pi4_coin, c.t).ks
            assert c.tolerance == ks_tolerance(c.t)

    def test_pass_iff_residual_within_tolerance(self):
        good = CheckResult("x", 1.0, 1, 1e-13, 1e-12)
        bad = CheckResult("x", 1.0, 1, 1e-11, 1e-12)
        assert good.passed and not bad.passed

    def test_ks_tolerance_curve(self):
        assert ks_tolerance(1000) == 0.05
        assert ks_tolerance(2000) == 0.05
        assert ks_tolerance(200) > ks_tolerance(400) > ks_tolerance(999)


class TestEmit:
    def test_csv_body_half_line_t1(self, tmp_path):
        table = table_from_distribution(hand_half_t1(), "evolve",
                                        math.pi / 4)
        path = tmp_path / "t.csv"
        emit(table, "csv", path)
        assert path.read_text() == "x,p0,p1,p\n0,0,0.5,0.5\n1,0,0.5,0.5\n"

    def test_csv_body_line_exact_total_only(self, tmp_path):
        table = table_from_distribution(hand_line_exact_t1(), "exact",
                                        math.pi / 4)
        path = tmp_path / "t.csv"
        emit(table, "csv", path)
        assert path.read_text() == ("x,p0,p1,p\n-2,,,0.5\n-1,,,0.5\n"
                                    "0,,,0\n1,,,0\n")

    def test_empty_table_is_header_only(self, tmp_path):
        table = OutputTable(meta=table_meta("halfline", 1.0, 0, "evolve"),
                            columns=("x", "p0", "p1", "p"),
                            values=((),) * 4)
        path = tmp_path / "empty.csv"
        emit(table, "csv", path)
        assert path.read_text() == "x,p0,p1,p\n"

    def test_json_round_trip(self, tmp_path):
        dist = hand_half_t1()
        table = table_from_distribution(dist, "evolve", 0.25)
        path = tmp_path / "t.json"
        emit(table, "json", path)
        back = read_table_json(path)
        assert back.meta == {"kind": "halfline", "theta": 0.25, "t": 1,
                             "route": "evolve"}
        assert back.rows == table.rows
        assert back == table

    def test_csv_round_trip_values(self, tmp_path):
        coin = make_coin(1.234)
        from qwalk import distribution, evolve

        dist = distribution(evolve(WalkKind.HALF_LINE, coin, 23))
        table = table_from_distribution(dist, "evolve", coin.theta)
        path = tmp_path / "t.csv"
        emit(table, "csv", path)
        header, rows = read_rows_csv(path)
        assert header == table.columns
        assert rows == table.rows

    def test_determinism_byte_identical(self, tmp_path):
        coin = make_coin(0.9)
        from qwalk import distribution, evolve

        dist = distribution(evolve(WalkKind.LINE, coin, 31))
        table = table_from_distribution(dist, "evolve", coin.theta)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit(table, "csv", a)
        emit(table, "csv", b)
        assert a.read_bytes() == b.read_bytes()

    def test_oracle_json_has_exact_strings(self, tmp_path):
        dist = q2_oracle_distribution(WalkKind.HALF_LINE, 2)
        table = table_from_distribution(dist, "oracle", math.pi / 4)
        path = tmp_path / "o.json"
        emit(table, "json", path)
        doc = json.loads(path.read_text())
        assert doc["columns"] == ["x", "p0", "p1", "p"]
        assert list(doc["rows"][0]) == ["x", "p0", "p1", "p", "p0_exact",
                                        "p1_exact", "p_exact"]
        assert doc["rows"][0]["p"] == 0.5
        assert doc["rows"][0]["p_exact"] == "1/2"
        assert doc["meta"]["route"] == "oracle"

    @pytest.mark.parametrize("walk", [WalkKind.LINE, WalkKind.HALF_LINE])
    def test_oracle_table_reads_back_as_fractions(self, walk, tmp_path):
        dist = q2_oracle_distribution(walk, 30)
        table = table_from_distribution(dist, "oracle", math.pi / 4)
        path = tmp_path / "o.json"
        emit(table, "json", path)
        back = read_table_json(path)
        assert back == table
        assert back.rows[0][1:] == (dist.p0[0], dist.p1[0], dist.p[0])
        assert all(type(v) is Fraction for row in back.rows for v in row[1:])

    def test_unknown_format(self, tmp_path):
        table = table_from_distribution(hand_half_t1(), "evolve", 1.0)
        with pytest.raises(ValueError):
            emit(table, "xml", tmp_path / "t.xml")

    def test_io_error_propagates(self, tmp_path):
        table = table_from_distribution(hand_half_t1(), "evolve", 1.0)
        with pytest.raises(OSError):
            emit(table, "csv", tmp_path / "missing_dir" / "t.csv")

    @staticmethod
    def _long_and_short() -> tuple[OutputTable, OutputTable]:
        coin = make_coin(1.0)
        return tuple(table_from_distribution(
            distribution(evolve(WalkKind.LINE, coin, t)), "evolve", coin.theta)
            for t in (40, 3))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_short_table_over_a_longer_file_is_a_fresh_write(self, fmt,
                                                             tmp_path):
        long, short = self._long_and_short()
        path, fresh = tmp_path / f"t.{fmt}", tmp_path / f"fresh.{fmt}"
        emit(long, fmt, path)
        emit(short, fmt, path)
        emit(short, fmt, fresh)
        assert path.read_bytes() == fresh.read_bytes()
        assert path.stat().st_size < 1000 < len(
            (render_csv if fmt == "csv" else render_json)(long))
        emit(long, fmt, path)
        emit(long, fmt, fresh)
        assert path.read_bytes() == fresh.read_bytes()

    def test_the_file_keeps_its_inode_and_mode(self, tmp_path):
        long, short = self._long_and_short()
        path = tmp_path / "t.csv"
        emit(long, "csv", path)
        path.chmod(0o640)
        before = path.stat()
        emit(short, "csv", path)
        after = path.stat()
        assert after.st_ino == before.st_ino
        assert stat.S_IMODE(after.st_mode) == 0o640
        assert path.read_text() == render_csv(short)

    def test_a_symlink_is_followed_and_stays_a_link(self, tmp_path):
        long, short = self._long_and_short()
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        emit(long, "json", target)
        link.symlink_to(target)
        emit(short, "json", link)
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_text() == render_json(short)

    def test_dev_null_is_written_and_not_truncated(self, monkeypatch):
        long, _ = self._long_and_short()
        cuts = []
        monkeypatch.setattr(harness.os, "ftruncate",
                            lambda fd, size: cuts.append(size))
        for fmt in ("csv", "json"):
            emit(long, fmt, "/dev/null")
        assert cuts == []

    def test_text_that_cannot_be_encoded_leaves_the_file(self, tmp_path):
        long, _ = self._long_and_short()
        path = tmp_path / "t.csv"
        emit(long, "csv", path)
        old = path.read_bytes()
        # a lone surrogate has no UTF-8 form (JSON writes it as an escape)
        bad = OutputTable(meta=long.meta, columns=("x\ud800",),
                          values=((1,),))
        with pytest.raises(UnicodeEncodeError):
            emit(bad, "csv", path)
        assert path.read_bytes() == old
        with pytest.raises(UnicodeEncodeError):
            emit(bad, "csv", tmp_path / "new.csv")
        assert not (tmp_path / "new.csv").exists()

    def test_a_write_that_raises_empties_the_file(self, monkeypatch,
                                                  tmp_path):
        long, short = self._long_and_short()
        path = tmp_path / "t.csv"
        emit(long, "csv", path)
        write = os.write
        calls = []

        def failing_write(fd, data):
            # the first call lands a few bytes, the second finds the disk full
            calls.append(len(data))
            if len(calls) == 1:
                return write(fd, data[:10])
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(harness.os, "write", failing_write)
        with pytest.raises(OSError) as info:
            emit(short, "csv", path)
        assert info.value.errno == errno.ENOSPC and len(calls) == 2
        assert path.read_bytes() == b""


# equal values that print differently (0.0 and -0.0, 1 and 1.0), the
# smallest subnormal, and the values JSON spells in words
_SPECIALS = (0.0, -0.0, 0, 1, 1.0, -1.0, 5e-324, -5e-324, 1e-310, math.nan,
             math.inf, -math.inf, None)

# the values of one column: any double or int, None, numpy doubles, repeats
# within one type, and repeats across types
_COLUMN_VALUES = st.sampled_from([
    st.floats(),
    st.integers(),
    st.none(),
    st.floats().map(np.float64),
    st.sampled_from((0.0, -0.0, 1.0, 5e-324, math.inf, 0.25)),
    st.sampled_from(_SPECIALS),
])


def _no_exact_clash(names) -> bool:
    # "<name>_exact" is the JSON key of a Fraction column's exact texts
    return not any(name + "_exact" in names for name in names)


@st.composite
def _tables(draw) -> OutputTable:
    names = draw(st.lists(st.text(), min_size=1, max_size=7, unique=True)
                 .filter(_no_exact_clash))
    width = draw(st.integers(1, min(4, len(names))))
    n = draw(st.integers(0, 12))
    # the first ``width`` columns hold any values, the rest Fractions that
    # have a double
    fractions = st.fractions(min_value=-2**64, max_value=2**64)
    cells = {name: tuple(draw(st.lists(draw(_COLUMN_VALUES) if i < width
                                       else fractions,
                                       min_size=n, max_size=n)))
             for i, name in enumerate(names)}
    columns = tuple(draw(st.permutations(names)))
    return OutputTable(
        meta=table_meta(draw(st.text()), draw(st.floats()),
                        draw(st.none() | st.integers()), draw(st.text())),
        columns=columns, values=tuple(cells[c] for c in columns))


def _table(columns, values) -> OutputTable:
    return OutputTable(meta=table_meta("line", 1.0, 3, "evolve"),
                       columns=columns, values=values)


def _has_nan(table: OutputTable) -> bool:
    values = (table.meta["theta"], *(v for col in table.values for v in col))
    return any(isinstance(v, float) and math.isnan(v) for v in values)


def _as_read(table: OutputTable) -> OutputTable:
    """The table as JSON gives it back: numpy doubles become floats."""
    values = tuple(tuple(float(v) if isinstance(v, np.floating) else v
                         for v in column) for column in table.values)
    return OutputTable(meta=table.meta, columns=table.columns, values=values)


class TestColumnRenderers:
    """The column-wise renderers against the per-cell references."""

    @pytest.fixture(scope="class")
    def json_path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("tables") / "table.json"

    @given(table=_tables())
    @example(table=_table(("p",), ((0.0, -0.0, 1, 1.0, -0.0),)))
    @example(table=_table(("x", "p0", "p"), ((),) * 3))
    @example(table=_table(("x", "p0", "p"), ((-1, 0), (None, None),
                                             (0.5, 0.5))))
    @example(table=_table(
        ("x", "p", "q"), ((0, 1), (Fraction(1, 2), Fraction(1, 3)),
                          (Fraction(0), Fraction(1)))))
    @settings(max_examples=300, deadline=None)
    def test_bytes_match_the_reference_and_read_back(self, table, json_path):
        assert render_csv(table) == reference_render_csv(table)
        text = render_json(table)
        assert text == reference_render_json(table)
        json_path.write_text(text, encoding="utf-8")
        back = read_table_json(json_path)
        # repr, not ==, so a nan read back matches itself
        assert repr(back) == repr(reference_read_table_json(json_path))
        assert render_json(back) == text
        if _has_nan(table):
            assert repr(back) == repr(_as_read(table))
        else:
            assert back == table

    def test_a_one_column_table_reads_back(self, json_path):
        table = _table(("x",), ((1, 2),))
        json_path.write_text(render_json(table), encoding="utf-8")
        assert read_table_json(json_path).rows == table.rows

    def test_signed_zeros_and_ints_keep_their_own_text(self):
        table = _table(("p",), ((0.0, -0.0, 1, 1.0, -0.0),))
        assert render_json(table).endswith(
            '"rows":[{"p":0.0},{"p":-0.0},{"p":1},{"p":1.0},{"p":-0.0}]}\n')
        assert render_csv(table) == "p\n0\n0\n1\n1.0\n0\n"
        floats = _table(("p",), ((0.0, -0.0, 0.5, -0.0),))
        assert render_json(floats).endswith(
            '"rows":[{"p":0.0},{"p":-0.0},{"p":0.5},{"p":-0.0}]}\n')

    def test_a_fraction_among_other_values_is_its_double(self):
        table = _table(("p",), ((Fraction(1, 2), None, 0.25),))
        assert render_json(table) == reference_render_json(table)
        assert render_json(table).endswith(
            '"rows":[{"p":0.5},{"p":null},{"p":0.25}]}\n')
        assert render_csv(table) == "p\n0.5\n\n0.25\n"

    def test_oracle_table_matches_the_reference(self):
        table = table_from_distribution(
            q2_oracle_distribution(WalkKind.LINE, 9), "oracle", math.pi / 4)
        assert render_json(table) == reference_render_json(table)
        assert render_csv(table) == reference_render_csv(table)

    def test_fig2_series_matches_the_reference(self):
        table = figure_data("fig2")[0]
        assert render_csv(table) == reference_render_csv(table)
        assert render_json(table) == reference_render_json(table)


class TestTableColumns:
    """A table holds one tuple of cells per column; its rows are derived."""

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_a_table_with_no_rows_holds_empty_columns(self, k, tmp_path):
        names = ("x", "p0", "p1", "p")[:k]
        table = _table(names, ((),) * k)
        assert table.values == ((),) * k and table.rows == ()
        assert render_csv(table) == ",".join(names) + "\n"
        assert render_json(table).endswith('"rows":[]}\n')
        path = tmp_path / "empty.json"
        emit(table, "json", path)
        back = read_table_json(path)
        assert back == table and back.values == ((),) * k

    @pytest.mark.parametrize("build", [
        lambda: distribution(evolve(WalkKind.LINE, make_coin(1.0), 9)),
        lambda: distribution(evolve(WalkKind.HALF_LINE, make_coin(1.0), 9)),
        lambda: q2_oracle_distribution(WalkKind.LINE, 9),
        lambda: q2_oracle_distribution(WalkKind.HALF_LINE, 9),
    ], ids=["evolve-line", "evolve-halfline", "oracle-line",
            "oracle-halfline"])
    def test_a_distribution_table_holds_its_columns(self, build):
        dist = build()
        table = table_from_distribution(dist, "evolve", 1.0)
        assert table.values == (tuple(dist.positions()), dist.p0, dist.p1,
                                dist.p)
        assert table.rows == tuple(zip(dist.positions(), dist.p0, dist.p1,
                                       dist.p))


class TestFigureData:
    def test_fig4_routes_agree(self):
        tables = figure_data("fig4")
        assert [t.meta["route"] for t in tables] == ["evolve", "exact"]
        ev, ex = tables
        sim = {r[0]: r for r in ev.rows}
        for x, p0, p1, p in ex.rows:
            assert p == approx(sim[x][3], abs=1e-12)
            assert p0 == approx(sim[x][1], abs=1e-12)
            assert p1 == approx(sim[x][2], abs=1e-12)

    def test_fig1_peak_location(self):
        (table,) = figure_data("fig1")
        assert table.meta["t"] == 500
        xs = [r[0] for r in table.rows]
        ps = [r[3] for r in table.rows]
        peak = xs[int(np.argmax(ps))]
        target = abs(math.cos(math.pi / 4)) * 500
        assert abs(peak - target) / target <= 0.05

    def test_fig8_approx_support(self):
        ev, ap = figure_data("fig8")
        assert ap.meta["route"] == "approx"
        cutoff = abs(math.cos(math.pi / 4)) * 500
        for x, p0, p1, p in ap.rows:
            if x >= cutoff:
                assert p == 0.0
            else:
                assert p > 0.0

    def test_fig2_long_format(self):
        tables = figure_data("fig2")
        assert len(tables) == 3
        for table in tables:
            assert table.columns == ("t", "x", "p")
            ts = {row[0] for row in table.rows}
            assert 0 in ts and 500 in ts

    def test_fig3_theta_sweep(self):
        tables = figure_data("fig3")
        assert len(tables) == 4
        assert all(t.meta["t"] == 150 for t in tables)
        thetas = [t.meta["theta"] for t in tables]
        assert thetas == sorted(thetas)

    def test_unknown_figure(self):
        with pytest.raises(ValueError):
            figure_data("fig10")

    def test_labels_unique_within_figure(self):
        for fig in ("fig1", "fig2", "fig3", "fig4", "fig8"):
            labels = [t.label for t in figure_data(fig)]
            assert len(labels) == len(set(labels))


class TestComposedTables:
    def test_half_line_exact_table_matches_components(self, pi4_coin):
        table = route_table("exact", WalkKind.HALF_LINE, pi4_coin, 14, "x")
        total = sum(r[3] for r in table.rows)
        assert total == approx(1.0, abs=1e-12)
        for x, p0, p1, p in table.rows:
            assert p == approx(p0 + p1, abs=1e-12)

    @pytest.mark.parametrize("route, walk, build", [
        ("evolve", WalkKind.LINE,
         lambda coin, t: distribution(evolve(WalkKind.LINE, coin, t))),
        ("evolve", WalkKind.HALF_LINE,
         lambda coin, t: distribution(evolve(WalkKind.HALF_LINE, coin, t))),
        ("exact", WalkKind.LINE, line_exact),
        ("exact", WalkKind.HALF_LINE, half_line_exact),
        ("oracle", WalkKind.LINE,
         lambda coin, t: q2_oracle_distribution(WalkKind.LINE, t)),
        ("oracle", WalkKind.HALF_LINE,
         lambda coin, t: q2_oracle_distribution(WalkKind.HALF_LINE, t)),
    ], ids=["evolve-line", "evolve-halfline", "exact-line", "exact-halfline",
            "oracle-line", "oracle-halfline"])
    def test_route_table_is_the_route_distribution(self, route, walk, build):
        coins = ((make_coin_pi(Fraction(1, 4)), make_coin_pi(Fraction(9, 4)))
                 if route == "oracle"
                 else (make_coin_pi(Fraction(1, 3)), make_coin(1.0)))
        for coin in coins:
            for t in (1, 2, 15):
                assert route_table(route, walk, coin, t, "x") == \
                    table_from_distribution(build(coin, t), route, coin.theta,
                                            "x")

    @pytest.mark.parametrize("route, walk", [
        ("fourier", WalkKind.HALF_LINE), ("limit", WalkKind.LINE),
        ("approx", WalkKind.LINE)])
    def test_route_table_refuses_unknown_route_and_line_approx(
            self, pi4_coin, route, walk):
        with pytest.raises(ValueError):
            route_table(route, walk, pi4_coin, 5)

    @pytest.mark.parametrize("coin", [
        make_coin_pi(Fraction(1, 3)), make_coin_pi(Fraction(-1, 4)),
        make_coin_pi(Fraction(3, 4)), make_coin(math.pi / 4)],
        ids=["pi/3", "-pi/4", "3pi/4", "float pi/4"])
    def test_oracle_table_refuses_every_angle_but_pi4(self, coin):
        for walk in WalkKind:
            with pytest.raises(ValueError, match="theta = pi/4 only"):
                route_table("oracle", walk, coin, 5)

    @pytest.mark.parametrize("route", ROUTES)
    def test_route_table_takes_the_walk_by_value(self, pi4_coin, route):
        walks = ((WalkKind.HALF_LINE,) if route == "approx"
                 else tuple(WalkKind))
        for walk in walks:
            assert route_table(route, walk.value, pi4_coin, 3) == \
                route_table(route, walk, pi4_coin, 3)
        with pytest.raises(ValueError):
            route_table(route, "ring", pi4_coin, 3)

    def test_approx_table_columns(self, pi4_coin):
        table = route_table("approx", WalkKind.HALF_LINE, pi4_coin, 50, "x")
        assert table.columns == ("x", "p0", "p1", "p")
        assert len(table.rows) == 51

    @pytest.mark.parametrize("coin", [
        make_coin_pi(Fraction(1, 2)), make_coin_pi(Fraction(0)),
        make_coin_pi(Fraction(1)), make_coin(0.0), make_coin(math.pi / 2)],
        ids=["pi/2", "0", "pi", "0.0", "float pi/2"])
    def test_approx_table_rejects_degenerate_coin(self, coin):
        with pytest.raises(ValueError, match="multiples of pi/2"):
            route_table("approx", WalkKind.HALF_LINE, coin, 5, "x")

    def test_approx_table_checks_the_coin_once(self, pi4_coin, monkeypatch):
        calls = []
        check = Coin.is_degenerate
        monkeypatch.setattr(Coin, "is_degenerate",
                            lambda self: calls.append(1) or check(self))
        route_table("approx", WalkKind.HALF_LINE, pi4_coin, 50, "x")
        assert len(calls) == 1


# ---------------------------------------------------------------------------
# the walk suites on blocks of times against the same checks on single states


def _padded_line(state):
    """Line amplitudes padded with zeros; position p sits at index p + shift."""
    return (np.pad(state.amps[:, 0], 3), np.pad(state.amps[:, 1], 3),
            3 - state.offset)


def _lemma1_at(coin, line, half):
    t = line.t
    gp, dp, shift = _padded_line(line)
    x = np.arange(0, t + 1)
    ia, ib, ic = x - 1 + shift, -x + shift, -x - 2 + shift
    sgn = 1.0 if t % 2 == 0 else -1.0
    res1 = np.abs(dp[ia] - sgn * dp[ib])
    lhs = coin.s * gp[ia] - coin.c * dp[ia]
    rhs = coin.s * gp[ic] - coin.c * dp[ic]
    return float(max(res1.max(), np.abs(lhs + sgn * rhs).max()))


def _lemma2_at(coin, line, half):
    t = half.t
    gp, dp, shift = _padded_line(line)
    x = np.arange(0, t + 1)
    even = x % 2 == 0
    g_x, d_x = gp[x + shift], dp[x + shift]
    g_m, d_m = gp[-x - 1 + shift], dp[-x - 1 + shift]
    if t % 2 == 0:
        exp_a = np.where(even, g_x - 1j * d_x, d_x + 1j * g_x)
        exp_b = np.where(even, d_m + 1j * g_m, -g_m + 1j * d_m)
    else:
        exp_a = np.where(even, d_x + 1j * g_x, g_x - 1j * d_x)
        exp_b = np.where(even, g_m - 1j * d_m, -d_m - 1j * g_m)
    return float(max(np.abs(half.amps[:, 0] - exp_a).max(),
                     np.abs(half.amps[:, 1] - exp_b).max()))


def _theorem1_at(coin, line, half):
    t = half.t
    p = np.abs(half.amps) ** 2
    lp = np.abs(line.amps) ** 2
    pl = lp[:, 0] + lp[:, 1]
    return float(max(np.abs(p[:, 0] - pl[t + 1:]).max(),
                     np.abs(p[:, 1] - pl[t::-1]).max()))


def _exact_vs_sim_at(coin, line, half):
    t = line.t
    return max(abs(cf - sim)
               for table, state in ((line_exact(coin, t), line),
                                    (half_line_exact(coin, t), half))
               for cf, sim in zip(table.p, distribution(state).p))


def _ks_at(coin, line, half):
    t = half.t
    p = np.abs(half.amps) ** 2
    weights = p[:, 0] + p[:, 1]
    cum = np.cumsum(weights) / float(weights.sum())
    limit = cdf_grid(LimitDensity(coin, DensityKind.HALF_TOTAL),
                     np.arange(t + 1) / t)
    below = np.concatenate(([0.0], cum[:-1]))
    return float(np.max(np.maximum(np.abs(limit - cum),
                                   np.abs(limit - below))))


# suite -> (its residual at one pair of states, as each suite computed it
# from single states, and the least time it checks)
_AT_ONE_TIME = {
    "lemma1": (_lemma1_at, 0),
    "lemma2": (_lemma2_at, 0),
    "theorem1": (_theorem1_at, 0),
    "exactVsSim": (_exact_vs_sim_at, 1),
    "ksConvergence": (_ks_at, 1),
}


def _states(kind, coin, ts):
    """The states at ``ts`` by the complex reference step with the kernel's
    trims, which reads no block."""
    return {state.t: state for state
            in trimmed_reference_states(kind, coin, ts[-1]) if state.t in ts}


def _assert_blocks_hold_the_states(kind, coin, ts):
    states = _states(kind, coin, ts)
    for times, amps in _blocks(kind, coin, ts):
        assert amps.size // 2 <= max(_BLOCK_SITES, 2 * times[-1] + 2)
        first = _offset(kind, times[-1])
        for row, t in zip(amps, times):
            a = states[t].offset - first
            b = a + len(states[t].amps)
            assert row[a:b].tolist() == states[t].amps.tolist()
            assert not row[:a].any() and not row[b:].any()


def _assert_suites_match_the_states(coin, ts, suites=tuple(_AT_ONE_TIME)):
    """Each suite's residuals on the blocks equal its residuals on the
    single states; returns the checks of each suite."""
    line = _states(WalkKind.LINE, coin, ts)
    half = _states(WalkKind.HALF_LINE, coin, ts)
    out = {}
    for suite in suites:
        at, min_t = _AT_ONE_TIME[suite]
        suite_ts = [t for t in ts if t >= min_t and (
            suite != "exactVsSim" or t <= EXACT_VS_SIM_MAX_T)]
        if not suite_ts:
            continue
        checks = out[suite] = run_checks(suite, [coin], suite_ts).checks
        assert [c.t for c in checks] == suite_ts
        for check in checks:
            if check.error in {_sin_zero(coin), _degenerate(coin)} - {None}:
                continue
            # a residual, or the message of a closed form that refuses
            got = check.max_residual if check.error is None else check.error
            assert got == _attempt(at, coin, line[check.t], half[check.t]), (
                suite, check)
    return out


class TestBlocks:
    @seed(2016)
    @settings(max_examples=80, deadline=None)
    @given(theta=st.floats(-math.pi, math.pi, exclude_min=True,
                           exclude_max=True),
           ts=st.sets(st.integers(1, 400), max_size=8).map(
               lambda ts: sorted(ts | {0})),
           kind=st.sampled_from(list(WalkKind)))
    @example(theta=1e-3, ts=[0, 1, 64, 65, 400], kind=WalkKind.LINE)
    @example(theta=-1e-3, ts=[0, 2, 399], kind=WalkKind.HALF_LINE)
    @example(theta=math.pi / 2 - 1e-9, ts=[0, 63, 128, 400],
             kind=WalkKind.HALF_LINE)
    @example(theta=3.1415, ts=[0, 1, 2, 300], kind=WalkKind.LINE)
    def test_drawn_blocks_equal_the_states(self, theta, ts, kind):
        """Each block row is its time's state, zero-padded, each walk
        suite's residuals equal its residuals on the single states, and
        every lemma1, lemma2 and theorem1 check PASSes at the suites'
        tolerances, bar the error entries of an excluded angle. KS is left
        out: its tolerance ignores the angle, and it FAILs at ordinary
        angles."""
        coin = make_coin(theta)
        _assert_blocks_hold_the_states(kind, coin, ts)
        checks = _assert_suites_match_the_states(coin, ts)
        excluded = {_sin_zero(coin), _degenerate(coin)} - {None}
        for suite in ("lemma1", "lemma2", "theorem1"):
            assert all(c.passed if c.error is None else c.error in excluded
                       for c in checks[suite]), suite

    def test_a_window_past_the_cap_is_a_block_of_one(self, pi3_coin):
        big = _BLOCK_SITES // 2 + 3
        ts = [0, 5, big]
        for kind in WalkKind:
            assert [times for times, _ in _blocks(kind, pi3_coin, ts)] == [
                [0, 5], [big]]
            _assert_blocks_hold_the_states(kind, pi3_coin, ts)
        _assert_suites_match_the_states(
            pi3_coin, ts, ("lemma1", "lemma2", "theorem1", "ksConvergence"))

    @pytest.mark.parametrize("rows, at", [
        (lambda coin, ts, line, half: _lemma1_rows(coin, ts, line), _lemma1_at),
        (_lemma2_rows, _lemma2_at),
        (_theorem1_rows, _theorem1_at),
        (lambda coin, ts, line, half: _ks_rows(coin, ts, half), _ks_at),
    ], ids=["lemma1", "lemma2", "theorem1", "ksConvergence"])
    def test_each_row_reads_its_own_window_alone(self, rows, at):
        """On random amplitudes, where no identity holds past a window, a
        block row's residual is still that of its time's state."""
        rng = np.random.default_rng(2016)
        coin = make_coin(1.0)
        ts = [1, 2, 5, 6, 9]
        states = {}
        for kind in WalkKind:
            states[kind] = []
            for t in ts:
                n = t + 1 - _offset(kind, t)
                amps = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
                # lemma1 reads position t only past x = t
                amps[-1] *= 1e3
                states[kind].append(State(kind, t, amps))
        blocks = []
        for kind in (WalkKind.LINE, WalkKind.HALF_LINE):
            first = _offset(kind, ts[-1])
            block = np.zeros((len(ts), ts[-1] + 1 - first, 2), complex)
            for row, state in zip(block, states[kind]):
                row[state.offset - first:state.t + 1 - first] = state.amps
            blocks.append(block)
        assert rows(coin, np.array(ts), *blocks) == [
            at(coin, line, half) for line, half in
            zip(states[WalkKind.LINE], states[WalkKind.HALF_LINE])]


# ---------------------------------------------------------------------------
# faults injected into the half-line walk, and the walk suites that catch them


def _faulted_half_line_step(state, coin, boundary):
    """The complex half-line step of `evolution.step`, with post0 at x = 0
    multiplied by ``boundary`` where the boundary turns it into inner 1."""
    amps = state.amps
    post0 = coin.c * amps[:, 0] + coin.s * amps[:, 1]
    post1 = coin.s * amps[:, 0] - coin.c * amps[:, 1]
    n = len(amps)
    out = np.zeros((n + 1, 2), np.complex128)
    out[:n - 1, 0] = post0[1:]
    out[0, 1] = boundary * post0[0]
    out[1:, 1] = post1
    return State(WalkKind.HALF_LINE, state.t + 1, out)


def _paper_start(coin):
    return initial(WalkKind.HALF_LINE, coin).amps


# fault -> (the half line's amplitudes at t = 0, the factor on post0 at the
# boundary, the suites that FAIL)
_FAULTS = {
    "none": (_paper_start, 1, set()),
    "boundary sends post0 to -post0": (_paper_start, -1, {"lemma2"}),
    "boundary sends post0 to i post0": (
        _paper_start, 1j, {"lemma2", "theorem1", "exactVsSim"}),
    "half line starts at (1, 0)": (
        lambda coin: np.array([[1, 0]], complex), 1,
        {"lemma2", "theorem1", "exactVsSim"}),
    "half line times a global i": (
        lambda coin: 1j * _paper_start(coin), 1, {"lemma2"}),
}


@pytest.mark.parametrize("coin", [make_coin(1.0), make_coin_pi(Fraction(1, 3))],
                         ids=["1.0", "pi/3"])
@pytest.mark.parametrize("fault", list(_FAULTS))
def test_the_walk_suites_catch_a_faulted_half_line(fault, coin):
    """At t = 60 each fault of the half-line walk FAILs exactly the walk
    suites named, by a wide margin, at the suites' tolerances; the line
    walk is the unfaulted `evolve`, so lemma1, which reads the line alone,
    never FAILs. lemma2 alone sees the faults that leave every probability
    unchanged.

    One fault is caught by none of them and is not asserted: evolving at
    theta (1 + 1e-13) instead of theta. lemma1 and exactVsSim rise about
    160 and 1,700 times over their clean values, to 2.9e-14 and 1.9e-13 at
    theta = 1.0, but stay below their constant tolerances.
    """
    start, boundary, fails = _FAULTS[fault]
    t = 60
    half = State(WalkKind.HALF_LINE, 0, start(coin))
    for _ in range(t):
        half = _faulted_half_line_step(half, coin, boundary)
    times = np.array([t])
    line, half = evolve(WalkKind.LINE, coin, t).amps[None], half.amps[None]
    residuals = {
        "lemma1": _lemma1_rows(coin, times, line)[0],
        "lemma2": _lemma2_rows(coin, times, line, half)[0],
        "theorem1": _theorem1_rows(coin, times, line, half)[0],
        "exactVsSim": _exact_vs_sim_rows(coin, times, line, half)[0],
    }
    assert {suite for suite, res in residuals.items()
            if not res <= TOLERANCES[suite]} == fails
    assert all(residuals[suite] > 1e-2 for suite in fails)
