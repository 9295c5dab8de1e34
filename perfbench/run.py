#!/usr/bin/env python3
"""qwalk benchmark: one workload per run, every metric with its unit.

    python3 perfbench/run.py --workload verify-grid --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout (it imports `src/qwalk`). One
process, one thread: numeric-library pools are pinned to 1 and nothing here
starts a thread or process pool; only the setup_s probes run, one at a
time, in fresh interpreters. Passes of the workload repeat until the next
one would overrun --seconds (at least one runs). README.md explains how
times are taken on a shared host.

--trace 0 prints the end-to-end metrics named in BENCHMARK.json. --trace 1
runs half the time untraced and half traced, and prints the per-layer
metrics, derived from in-memory spans written to .perfbench_out/ at the end.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics. Exit code 2 means the benchmark could not run.
"""
from __future__ import annotations

import os

# before anything imports numpy
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "QWALK_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR_NAME = ".perfbench_out"
SETUP_REPEATS = 9

# imports qwalk and builds the workload inputs in a fresh interpreter; the
# clock starts before the first import
_SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import qwalk
import workloads
workloads.build(sys.argv[3], int(sys.argv[4]))
print(repr(time.perf_counter() - t0))
"""


def measure_setup(root: Path, workload: str, seed: int) -> float:
    """Median seconds to import qwalk and build the inputs, fresh each time.

    Importing is interpreter work, so each fresh interpreter's time is
    scaled by a run of the interpreter kernel just before it.
    """
    import workloads

    kernel, k_ref = workloads.INTERPRETER
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        kernel()
        k = perf_counter() - t0
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(root / "src"),
             str(BENCH_DIR), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True, cwd=root,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]) * k_ref / k)
    return statistics.median(samples)


def timed_passes(wl, rec, out_dir: Path, seconds: float) -> None:
    """Run whole passes until the next would end after `seconds`."""
    start = perf_counter()
    while True:
        rec.run_pass(wl, out_dir)
        typical = statistics.median(p[2] for p in rec.passes)
        if perf_counter() - start + typical > seconds:
            return


def latency_summary(latencies: list[float]) -> dict:
    """p50 and the top percentile (90, or lower) that keeps 10 samples above.

    The top percentile never drops below 50. Percentiles interpolate
    linearly between order statistics, as
    ``statistics.quantiles(method="inclusive")`` does.
    """
    xs = sorted(latencies)
    n = len(xs)
    top = max(50, min(90, math.floor(100 * (n - 10) / n)))

    def pct(p: float) -> float:
        pos = p / 100 * (n - 1)
        lo = math.floor(pos)
        hi = min(lo + 1, n - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

    return {"samples": n, "top_percentile": top,
            "p50_s": pct(50), "top_s": pct(top)}


def end_to_end(rec, setup_s: float) -> tuple[dict, dict]:
    """End-to-end metrics; times are scaled to the reference host."""
    passes = rec.pass_seconds()
    wall = statistics.median(passes)
    lat = latency_summary(rec.item_seconds())
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "work_per_s": rec.work / len(passes) / wall,
        "item_p50_ms": lat["p50_s"] * 1e3,
        "item_p90_ms": lat["top_s"] * 1e3,
        "ok_frac": (rec.attempted - rec.failed) / rec.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, {"passes": len(passes),
        "median_pass_s_unscaled": statistics.median(p[2] for p in rec.passes),
        "median_kernel_s": statistics.median(k for _, k in rec.kernels),
        "kernel_runs": len(rec.kernels),
        "latency": lat, "failed_frac": rec.failed / rec.attempted}


def per_layer(tr, untraced, traced) -> dict:
    """Layer metrics of the traced pass of median scaled length.

    Its span times are scaled like the pass. Counts are the same in every
    pass (the caller checks).
    """
    import tracing

    scaled = traced.pass_seconds()
    order = sorted(range(len(scaled)), key=scaled.__getitem__)
    chosen = order[(len(order) - 1) // 2]
    factor = scaled[chosen] / traced.passes[chosen][2]
    lo, hi = traced.span_ranges[chosen]
    seconds = {k: v * factor for k, v in tracing.layer_times(tr, lo, hi).items()}
    out = _layer_row(defaultdict(float, seconds), traced.pass_counts[chosen])
    out["trace.overhead_s"] = (statistics.median(scaled)
                               - statistics.median(untraced.pass_seconds()))
    return out


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def _layer_row(lt, c) -> dict:
    from qwalk.harness import SUITES

    row = {}
    evo_steps_s = lt["evolution.busy_s"] - lt["evolution.distribution_s"]
    row["evolution.site_steps"] = c["evolution.site_steps"]
    row["evolution.busy_s"] = lt["evolution.busy_s"]
    row["evolution.self_s"] = lt["evolution.self_s"]
    row["evolution.ns_per_site_step"] = _ratio(evo_steps_s, c["evolution.site_steps"], 1e9)
    row["evolution.bytes_computed"] = c["evolution.bytes_computed"]
    row["evolution.distribution_s"] = lt["evolution.distribution_s"]
    calls = 0
    for prec in ("dd", "exact"):
        n = c[f"closed_form.calls.{prec}"]
        calls += n
        row[f"closed_form.calls.{prec}"] = n
        row[f"closed_form.busy_s.{prec}"] = lt[f"closed_form.busy_s.{prec}"]
        row[f"closed_form.ns_per_term.{prec}"] = _ratio(
            lt[f"closed_form.busy_s.{prec}"], c[f"closed_form.terms.{prec}"], 1e9)
    row["closed_form.self_s"] = lt["closed_form.self_s"]
    row["closed_form.terms"] = sum(v for k, v in c.items()
                                   if k.startswith("closed_form.terms."))
    row["closed_form.raised"] = c["closed_form.raised"]
    row["closed_form.wrong"] = c["closed_form.wrong"]
    row["closed_form.ok_ratio"] = _ratio(
        calls - c["closed_form.raised"] - c["closed_form.wrong"], calls)
    row["qfield.steps"] = c["qfield.steps"]
    row["qfield.site_steps"] = c["qfield.site_steps"]
    row["qfield.busy_s"] = lt["qfield.busy_s"]
    row["qfield.self_s"] = lt["qfield.self_s"]
    row["qfield.us_per_site_step"] = _ratio(lt["qfield.busy_s"], c["qfield.site_steps"], 1e6)
    row["asymptotics.ks_calls"] = c["asymptotics.ks_calls"]
    row["asymptotics.ks_ms"] = _ratio(lt["asymptotics.ks_distance_s"],
                                      c["asymptotics.ks_calls"], 1e3)
    row["asymptotics.self_s"] = lt["asymptotics.self_s"]
    row["asymptotics.cdf_points"] = c["asymptotics.cdf_points"]
    row["asymptotics.cdf_us_per_point"] = _ratio(lt["asymptotics.cdf_grid_s"],
                                                 c["asymptotics.cdf_points"], 1e6)
    for suite in SUITES:
        row[f"harness.suite_s.{suite}"] = lt[f"harness.suite_s.{suite}"]
        row[f"harness.checks.{suite}"] = c[f"harness.checks.{suite}"]
    row["harness.self_s"] = lt["harness.self_s"]
    row["harness.emit_bytes"] = c["harness.render_csv_bytes"] + c["harness.render_json_bytes"]
    row["harness.render_csv_MBps"] = _ratio(c["harness.render_csv_bytes"],
                                            lt["harness.render_csv_s"], 1e-6)
    row["harness.render_json_MBps"] = _ratio(c["harness.render_json_bytes"],
                                             lt["harness.render_json_s"], 1e-6)
    row["harness.read_json_s"] = lt["harness.read_table_json_s"]
    row["bench.self_s"] = lt["bench.self_s"]
    return row


def run(root: Path, workload: str, seed: int, seconds: float, trace: bool,
        size=None, perturb: bool = False, measure_setup_s: bool = True) -> tuple[dict, dict]:
    """Run one workload; returns the result object and the notes behind it."""
    import tracing
    import workloads

    out_dir = root / OUT_DIR_NAME / workload
    out_dir.mkdir(parents=True, exist_ok=True)
    wl = workloads.build(workload, seed, size or workloads.FULL)
    notes = {"workload": workload, "seed": seed, "seeded_theta": wl.theta,
             "trace": int(trace)}
    rec = workloads.Recorder(wl.calibration, perturb=perturb)
    setup_s = (measure_setup(root, workload, seed)
               if measure_setup_s and not trace else 0.0)
    budget = seconds / 2 if trace else seconds
    timed_passes(wl, rec, out_dir, budget)
    metrics, e2e_notes = end_to_end(rec, setup_s)
    notes.update(e2e_notes)
    consistent = True
    if trace:
        tr = tracing.Tracer()
        trec = workloads.Recorder(wl.calibration, tracer=tr, perturb=perturb)
        restore = tracing.instrument(tr)
        try:
            timed_passes(wl, trec, out_dir, budget)
        finally:
            restore()
        # computed counts must repeat exactly: every pass has the same inputs
        consistent = all(c == trec.pass_counts[0] for c in trec.pass_counts)
        notes["traced_passes"] = len(trec.passes)
        notes["counts_repeat"] = consistent
        metrics = per_layer(tr, rec, trec)
        tr.write(root / OUT_DIR_NAME / f"{workload}-seed{seed}-spans.jsonl")
        rec.attempted += trec.attempted
        rec.failed += trec.failed
        rec.unexpected += trec.unexpected
    notes["unexpected_failures"] = rec.unexpected[:20]
    return {
        "correct": not rec.unexpected and consistent,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": metrics,
    }, notes


def load_spec(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))


def format_result(spec: dict, trace: bool, result: dict, notes: dict) -> tuple[str, str]:
    """Human-readable table and the final JSON line, units from BENCHMARK.json."""
    declared = spec["per_layer" if trace else "end_to_end"]
    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": result["metrics"][m["name"]], "unit": m["unit"]}
    lines = [f"# {k}: {v}" for k, v in notes.items()]
    lines += [f"{name:40s} {m['value']!r:>24} {m['unit']}"
              for name, m in metrics.items()]
    if not trace:
        lat = notes["latency"]
        lines.append(f"{'failed_frac':40s} {notes['failed_frac']!r:>24} 1")
        lines.append(f"# item_p90_ms is p{lat['top_percentile']} of {lat['samples']} samples")
    doc = dict(result, metrics=metrics)
    return "\n".join(lines), json.dumps(doc)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "qwalk" / "__init__.py").is_file():
        print("perfbench: no src/qwalk here; run from a qwalk source checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = load_spec(root)
    result, notes = run(root, args.workload, args.seed, args.seconds, bool(args.trace))
    table, line = format_result(spec, bool(args.trace), result, notes)
    (root / OUT_DIR_NAME / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({"result": json.loads(line), "notes": notes}, indent=1),
                  encoding="utf-8")
    print(table)
    print(line, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
