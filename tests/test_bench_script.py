import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_script_tiny(tmp_path):
    out = tmp_path / "bench.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench.py"), "--tiny",
         "--runs", "2", "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["size"] == "tiny" and doc["runs"] == 2
    assert set(doc["git"]) == {"sha", "dirty"}
    assert doc["python"] and doc["numpy"] and doc["machine"]["cpus"]
    walks = {f"{k}@{c}" for k in ("halfline", "line") for c in ("pi/4", "1.0")}
    results = doc["results"]
    assert set(results) == {
        "evolve_t200.ns_per_site_step", "evolve_t20.ms", "iter_states_t20.ms",
        "ks_distance_t50.ms", "ks_suite_t10-12.s", "lemma1_suite_t1-12.s",
        "lemma2_suite_t1-12.s", "theorem1_suite_t1-12.s",
        "exactVsSim_suite_t1-6.s", "total_mass.ms",
        "cdf_grid_t20.us_per_point", "cdf_grid_t50.us_per_point",
        "oracle_t20.us_per_site_step", "to_fraction_t20.us_per_call",
        "line_exact_values_t10.ms", "half_line_exact_values_t10.ms",
        "line_exact_values_t20.ms", "half_line_exact_values_t20.ms",
        "line_exact_values_t30.ms", "half_line_exact_values_t30.ms",
        "line_exact_values_t40.ms", "half_line_exact_values_t40.ms",
        "render_csv_t50.ms", "render_json_t50.ms", "read_table_json_t50.ms",
        "emit_overwrite_t50.ms", "table_round_trip_t50.ms",
        "figure_fig2.ms"}
    for metric in ("evolve_t200.ns_per_site_step", "evolve_t20.ms",
                   "iter_states_t20.ms"):
        assert set(results[metric]) == walks
    for suite in ("ks_suite_t10-12.s", "lemma1_suite_t1-12.s",
                  "lemma2_suite_t1-12.s", "theorem1_suite_t1-12.s",
                  "exactVsSim_suite_t1-6.s"):
        assert set(results[suite]) == {"canonical_coins"}
    assert set(results["total_mass.ms"]) == {
        f"{k}@{theta}" for k in ("lineTotal", "halfInner0", "halfInner1",
                                 "halfTotal")
        for theta in ("5e-5", "1e-3", "1.0")}
    assert set(results["cdf_grid_t20.us_per_point"]) == {"halfTotal@1.0"}
    assert set(results["cdf_grid_t50.us_per_point"]) == {"lineTotal@1.0"}
    assert set(results["oracle_t20.us_per_site_step"]) == {"halfline", "line"}
    assert set(results["to_fraction_t20.us_per_call"]) == {"dd@pi/4"}
    for fn in ("line_exact_values", "half_line_exact_values"):
        for t in (10, 20):
            assert set(results[f"{fn}_t{t}.ms"]) == {
                "dd@pi/4", "exact@pi/4", "double@1.0", "dd@1.0", "dd@pi/3"}
        # the long closed-form entries, t = 1000 and 3000 at full size
        assert set(results[f"{fn}_t30.ms"]) == {"double@1.0", "dd@1.0"}
        assert set(results[f"{fn}_t40.ms"]) == {"double@pi/3", "dd@pi/3"}
    for fn in ("render_csv", "render_json", "read_table_json",
               "emit_overwrite", "table_round_trip"):
        assert set(results[f"{fn}_t50.ms"]) == {"line@1.0"}
    assert set(results["figure_fig2.ms"]) == {"halfline@pi/4"}
    for per_key in results.values():
        for entry in per_key.values():
            assert set(entry) == {"median", "q1", "q3", "kernel_ms"}
            assert 0 <= entry["q1"] <= entry["median"] <= entry["q3"]
            assert entry["kernel_ms"] > 0


def test_every_traced_name_resolves():
    """perfbench's tracer wraps qwalk functions by name; each must exist."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for home, name, *_ in tracing._TARGETS:
        assert callable(getattr(home, name)), (home.__name__, name)
