#!/usr/bin/env python3
"""Distills a results directory of per-figure JSON files into one
bench_summary.json: per figure, the wall-clock cost and the headline metric
(mean over the last grid row's curves, the natural "biggest size" point).
The summary is what a human (or a regression diff) eyeballs after a sweep
without opening fifteen files.

Usage: make_bench_summary.py RESULTS_DIR [-o OUT.json]
"""

import argparse
import json
import pathlib
import sys

EXPECTED_KIND = "omcast-figure-results"


def summarize_figure(doc):
    """One summary record from a parsed results document."""
    rows = doc.get("rows", [])
    cols = doc.get("cols", [])
    metric = doc.get("headline_metric", "")
    last_row = rows[-1] if rows else None

    # Mean of the headline metric at the last row, one entry per curve --
    # plus the whole per-row trajectory, so a summary diff shows the full
    # perf curve (bench/scale_sweep commits this as BENCH_scale_sweep.json).
    headline = {}
    trajectory = {row: {} for row in rows}
    for agg in doc.get("aggregates", []):
        if agg.get("metric") != metric or agg.get("col") not in cols:
            continue
        if agg.get("row") == last_row:
            headline[agg["col"]] = agg.get("mean")
        if agg.get("row") in trajectory:
            trajectory[agg["row"]][agg["col"]] = agg.get("mean")

    cells = doc.get("cells", [])
    return {
        "figure": doc.get("figure", "?"),
        "title": doc.get("title", ""),
        "scale": doc.get("scale", ""),
        "git_sha": doc.get("git_sha", ""),
        "base_seed": doc.get("base_seed"),
        "grid": {
            "rows": len(rows),
            "cols": len(cols),
            "reps": doc.get("reps"),
            "cells": len(cells),
        },
        "wall_ms": doc.get("wall_ms_total"),
        "max_cell_wall_ms": max(
            (c.get("wall_ms", 0.0) for c in cells), default=0.0
        ),
        "headline_metric": metric,
        "headline_row": last_row,
        "headline": headline,
        "headline_trajectory": trajectory,
    }


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("results_dir", type=pathlib.Path)
    parser.add_argument("-o", "--output", type=pathlib.Path, default=None)
    args = parser.parse_args(argv)

    if not args.results_dir.is_dir():
        print(f"error: {args.results_dir} is not a directory", file=sys.stderr)
        return 1

    figures = []
    skipped = []
    for path in sorted(args.results_dir.glob("*.json")):
        if path.name == "bench_summary.json":
            continue
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as err:
            skipped.append(f"{path.name}: {err}")
            continue
        if doc.get("kind") != EXPECTED_KIND:
            skipped.append(f"{path.name}: not a figure-results file")
            continue
        figures.append(summarize_figure(doc))

    summary = {
        "schema_version": 1,
        "kind": "omcast-bench-summary",
        "figures": figures,
        "total_wall_ms": sum(f["wall_ms"] or 0.0 for f in figures),
        "skipped": skipped,
    }
    text = json.dumps(summary, indent=1)
    if args.output:
        args.output.write_text(text + "\n")
        print(
            f"wrote {args.output} ({len(figures)} figures, "
            f"{summary['total_wall_ms'] / 1000.0:.1f}s total)",
            file=sys.stderr,
        )
    else:
        print(text)
    if skipped:
        for line in skipped:
            print(f"skipped {line}", file=sys.stderr)
    return 0 if figures or not skipped else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
