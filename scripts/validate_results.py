#!/usr/bin/env python3
"""Validates a runner results JSON (the --out file every grid bench
writes) against the schema src/runner/results.cc emits: the pinned kind
and schema_version, consistent grid axes, one well-formed record per
cell, and aggregates that reference real rows/cols/metrics. CI runs it
over every fresh grid export so a schema drift fails the push that caused
it, not the next resume. With --resumed-from FIRST.json, RESULTS.json must
also be a --resume=true rerun of FIRST.json: no cell executed, and every
cell equal to FIRST's apart from wall_ms and resumed.

Usage: validate_results.py RESULTS.json [--require-metric NAME ...]
                           [--resumed-from FIRST.json]
"""

import argparse
import json
import pathlib
import sys

EXPECTED_KIND = "omcast-figure-results"
# The runner writes v3 only (kResultsSchemaVersion) and resumes from v3
# only; its optional "timeseries" and "incidents" blocks are shape-checked
# when present.
SCHEMA_VERSION = 3

TIMESERIES_KINDS = (0, 1)  # 0 = counter-rate, 1 = gauge

REQUIRED_TOP_LEVEL = {
    "schema_version": (int,),
    "kind": (str,),
    "figure": (str,),
    "rows": (list,),
    "cols": (list,),
    "reps": (int,),
    "headline_metric": (str,),
    "cells": (list,),
    "aggregates": (list,),
}

REQUIRED_CELL = {
    "row": (str,),
    "col": (str,),
    "rep": (int,),
    "seed": (int,),
    "wall_ms": (int, float),
    "metrics": (dict,),
}

REQUIRED_AGGREGATE = {
    "row": (str,),
    "col": (str,),
    "metric": (str,),
    "n": (int,),
    "mean": (int, float),
}


def check_fields(obj, required, where, errors):
    for name, types in required.items():
        if name not in obj:
            errors.append(f"{where}: missing field '{name}'")
        elif not isinstance(obj[name], types):
            errors.append(
                f"{where}: field '{name}' has type "
                f"{type(obj[name]).__name__}, expected "
                f"{'/'.join(t.__name__ for t in types)}"
            )


def check_timeseries(block, where, errors):
    """v3 recovery curves: {name: {kind, window_s, points: [[t, v], ...]}}
    with window-aligned, strictly increasing timestamps."""
    if not isinstance(block, dict):
        errors.append(f"{where}: 'timeseries' is not an object")
        return
    for name, entry in block.items():
        w = f"{where}: timeseries '{name}'"
        if not isinstance(entry, dict):
            errors.append(f"{w}: not an object")
            continue
        kind = entry.get("kind")
        window = entry.get("window_s")
        points = entry.get("points")
        if kind not in TIMESERIES_KINDS:
            errors.append(f"{w}: kind {kind!r} not in {TIMESERIES_KINDS}")
        if not isinstance(window, (int, float)) or window <= 0:
            errors.append(f"{w}: window_s {window!r} is not a positive number")
            continue
        if not isinstance(points, list):
            errors.append(f"{w}: points is not an array")
            continue
        prev_t = None
        for j, point in enumerate(points):
            if (
                not isinstance(point, list)
                or len(point) != 2
                or not all(isinstance(x, (int, float)) for x in point)
            ):
                errors.append(f"{w}: points[{j}] is not a [t, v] number pair")
                break
            t = point[0]
            if prev_t is not None and t <= prev_t:
                errors.append(
                    f"{w}: points[{j}] t={t} does not increase past {prev_t}"
                )
                break
            prev_t = t


def check_incidents(block, where, errors):
    """v3 per-disruption lifecycle stats: flat {name: number} with
    non-negative counts and phase latencies."""
    if not isinstance(block, dict):
        errors.append(f"{where}: 'incidents' is not an object")
        return
    for name, value in block.items():
        if not isinstance(value, (int, float)):
            errors.append(f"{where}: incident stat '{name}' is not a number")
        elif value < 0:
            # Counts and phase latencies (suspect/detect/reattach/recover
            # seconds) are non-negative by construction; a negative value
            # means the stitcher mis-ordered a lifecycle.
            errors.append(f"{where}: incident stat '{name}' is negative")


def validate(doc, require_metrics=()):
    errors = []
    check_fields(doc, REQUIRED_TOP_LEVEL, "document", errors)
    if errors:
        return errors

    if doc["kind"] != EXPECTED_KIND:
        errors.append(f"kind is '{doc['kind']}', expected '{EXPECTED_KIND}'")
    if doc["schema_version"] != SCHEMA_VERSION:
        errors.append(
            f"schema_version is {doc['schema_version']}, expected "
            f"{SCHEMA_VERSION}"
        )

    rows, cols, reps = set(doc["rows"]), set(doc["cols"]), doc["reps"]
    if not rows or not cols or reps < 1:
        errors.append("grid axes are empty")
        return errors

    expected_cells = len(doc["rows"]) * len(doc["cols"]) * reps
    if len(doc["cells"]) != expected_cells:
        errors.append(
            f"cells: {len(doc['cells'])} records for a "
            f"{len(doc['rows'])}x{len(doc['cols'])}x{reps} grid "
            f"(expected {expected_cells})"
        )

    seen = set()
    for i, cell in enumerate(doc["cells"]):
        where = f"cells[{i}]"
        if not isinstance(cell, dict):
            errors.append(f"{where}: not an object")
            continue
        check_fields(cell, REQUIRED_CELL, where, errors)
        if not REQUIRED_CELL.keys() <= cell.keys():
            continue
        if cell["row"] not in rows:
            errors.append(f"{where}: unknown row '{cell['row']}'")
        if cell["col"] not in cols:
            errors.append(f"{where}: unknown col '{cell['col']}'")
        key = (cell["row"], cell["col"], cell["rep"])
        if key in seen:
            errors.append(f"{where}: duplicate cell {key}")
        seen.add(key)
        for name, value in cell["metrics"].items():
            if not isinstance(value, (int, float)):
                errors.append(f"{where}: metric '{name}' is not a number")
        if "timeseries" in cell:
            check_timeseries(cell["timeseries"], where, errors)
        if "incidents" in cell:
            check_incidents(cell["incidents"], where, errors)

    metric_names = set()
    for i, agg in enumerate(doc["aggregates"]):
        where = f"aggregates[{i}]"
        if not isinstance(agg, dict):
            errors.append(f"{where}: not an object")
            continue
        check_fields(agg, REQUIRED_AGGREGATE, where, errors)
        if not REQUIRED_AGGREGATE.keys() <= agg.keys():
            continue
        if agg["row"] not in rows:
            errors.append(f"{where}: unknown row '{agg['row']}'")
        if agg["col"] not in cols:
            errors.append(f"{where}: unknown col '{agg['col']}'")
        metric_names.add(agg["metric"])

    if doc["headline_metric"] and doc["headline_metric"] not in metric_names:
        errors.append(
            f"headline_metric '{doc['headline_metric']}' never appears in "
            "aggregates"
        )
    for name in require_metrics:
        if name not in metric_names:
            errors.append(
                f"required metric '{name}' never appears in aggregates"
            )
    return errors


def check_resumed(first, rerun):
    """Errors unless `rerun` executed no cell and reproduced every cell of
    `first`, ignoring the per-run wall_ms and resumed fields."""
    def cells(doc):
        return [{k: v for k, v in c.items() if k not in ("wall_ms", "resumed")}
                for c in doc.get("cells", [])]

    errors = []
    if rerun.get("executed") != 0:
        errors.append(f"resumed rerun executed {rerun.get('executed')} cells")
    if cells(first) != cells(rerun):
        errors.append("resumed cells differ from the first run")
    return errors


def load(path):
    """The JSON object in `path`, or None after saying why there is none."""
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as err:
        print(f"error: {path}: {err}", file=sys.stderr)
        return None
    if not isinstance(doc, dict):
        print(f"error: {path}: top level is not an object", file=sys.stderr)
        return None
    return doc


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("results", type=pathlib.Path)
    parser.add_argument(
        "--require-metric",
        action="append",
        default=[],
        help="additionally require this metric in the aggregates "
        "(repeatable)",
    )
    parser.add_argument(
        "--resumed-from",
        type=pathlib.Path,
        help="first run's results: RESULTS must be its --resume=true rerun",
    )
    args = parser.parse_args(argv)

    doc = load(args.results)
    if doc is None:
        return 1
    errors = validate(doc, args.require_metric)
    if args.resumed_from and not errors:
        first = load(args.resumed_from)
        if first is None:
            return 1
        errors = check_resumed(first, doc)
    for line in errors:
        print(f"INVALID {args.results}: {line}", file=sys.stderr)
    if not errors:
        print(
            f"{args.results}: valid {doc['kind']} v{doc['schema_version']} "
            f"({doc['figure']}, {len(doc['cells'])} cells)"
        )
        if args.resumed_from:
            print(f"resume OK: {doc.get('resumed')} cells resumed, none executed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
