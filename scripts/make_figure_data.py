#!/usr/bin/env python3
"""Emit the numeric content behind all nine reproduction figures.

Writes one CSV (or JSON) file per table into the output directory; file
names restate the walk, angle, time, and route so the directory is
self-describing.
"""
import argparse
from pathlib import Path

from qwalk.harness import FIGURES, emit, figure_data


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="data/figures", help="output directory")
    ap.add_argument("--format", choices=("csv", "json"), default="csv")
    ap.add_argument("--only", choices=FIGURES, default=None,
                    help="emit a single figure instead of all nine")
    args = ap.parse_args()

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    figures = (args.only,) if args.only else FIGURES
    for fig in figures:
        for table in figure_data(fig):
            path = outdir / f"{table.label}.{args.format}"
            emit(table, args.format, path)
            print(f"wrote {path} ({len(table.values[0])} rows)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
