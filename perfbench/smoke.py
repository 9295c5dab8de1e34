#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny sizes; exits 1 on any failure.

    python3 perfbench/smoke.py

Run from the repository root. For every workload it checks that the
untraced and the traced run print every metric BENCHMARK.json names, with
its unit; that two runs with the same seed give identical computed counts;
that a deliberately perturbed reference value counts as a failed item;
that the layer map covers every per-layer metric; and that, run outside a
source checkout, the benchmark exits non-zero without printing a result.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import run  # sibling module; pins numeric threads before numpy loads

ROOT = Path.cwd()
COUNT_UNITS = ("count", "B")


def _check(cond: bool, msg: str, errors: list) -> None:
    if not cond:
        errors.append(msg)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    spec = run.load_spec(ROOT)
    layer_map = json.loads((run.BENCH_DIR / "layer_map.json").read_text())
    errors: list[str] = []
    for m in spec["per_layer"]:
        _check(m["name"] in layer_map["per_layer"],
               f"layer_map.json lacks {m['name']}", errors)
    _check({w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS),
           "BENCHMARK.json workloads differ from workloads.WORKLOADS", errors)

    for name in workloads.WORKLOADS:
        def once(trace: bool, perturb: bool = False):
            return run.run(ROOT, name, 7, 0.01, trace, size=workloads.TINY,
                           perturb=perturb, measure_setup_s=False)

        for trace in (False, True):
            result, notes = once(trace)
            table, line = run.format_result(spec, trace, result, notes)
            doc = json.loads(line)
            declared = spec["per_layer" if trace else "end_to_end"]
            for m in declared:
                got = doc["metrics"].get(m["name"])
                _check(got is not None and got["unit"] == m["unit"]
                       and isinstance(got["value"], (int, float)),
                       f"{name} trace={int(trace)}: {m['name']} missing or unitless",
                       errors)
                _check(m["name"] in table, f"{name}: {m['name']} not printed", errors)
            _check(trace or "failed_frac" in table, f"{name}: failed_frac not printed",
                   errors)
            _check(set(doc) == {"correct", "attempted", "failed", "metrics"},
                   f"{name}: result keys {sorted(doc)}", errors)
            _check(doc["correct"] and doc["failed"] == 0,
                   f"{name} trace={int(trace)}: failures {notes['unexpected_failures']}",
                   errors)

        # computed counts: identical across two runs with the same seed
        a, _ = once(True)
        b, _ = once(True)
        for m in spec["per_layer"]:
            if m["unit"] in COUNT_UNITS:
                _check(a["metrics"][m["name"]] == b["metrics"][m["name"]],
                       f"{name}: count {m['name']} differs between runs", errors)

        # a perturbed reference must surface as a failed item
        bad, _ = once(False, perturb=True)
        _check(bad["failed"] >= 1 and not bad["correct"],
               f"{name}: perturbed reference not counted as failed", errors)

    # outside a source checkout the benchmark refuses to run, printing nothing
    bare = ROOT / run.OUT_DIR_NAME / "bare-checkout"
    bare.mkdir(parents=True, exist_ok=True)
    (bare / "BENCHMARK.json").write_text(json.dumps(spec))
    proc = subprocess.run([sys.executable, str(run.BENCH_DIR / "run.py"),
                           "--workload", "verify-grid", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    _check(proc.returncode != 0 and proc.stdout == "",
           "a checkout without src/qwalk did not fail cleanly", errors)

    for e in errors:
        print("FAIL", e)
    print(f"smoke: {len(errors)} failures")
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
