#!/usr/bin/env python3
"""Diffs a fresh grid-bench results JSON against the committed BENCH_*
trajectory so CI catches silent regressions, not just crashes.

Three classes of check, strictest first:

  * gate metrics (--gate, repeatable; default the chaos health triad
    wedged_leases / reentries_pending / unrooted_members) must match the
    committed per-(row, col) aggregate mean EXACTLY -- these are small
    integers that the protocol guarantees, so any drift is a bug;

  * the headline metric's per-(row, col) aggregate mean must stay within
    --abs-tol OR --rel-tol of the committed value -- floating-point results
    diverge across libm versions, so exact comparison would be flaky across
    environments while a loose band still catches real QoE regressions;

  * every cell of the CURRENT run must carry a non-empty v3 "timeseries"
    block (each series with >= 1 point) and a non-empty "incidents" block --
    the flight recorder must not silently fall off the benches.

The grids must agree on figure, rows, cols, and reps; a renamed or dropped
row is a failure, not a skip.

Usage:
  check_bench_regression.py CURRENT.json COMMITTED.json \
      [--abs-tol 0.05] [--rel-tol 0.5] [--gate METRIC]...
"""

import argparse
import pathlib
import sys

from validate_results import load

DEFAULT_GATES = ("wedged_leases", "reentries_pending", "unrooted_members")


def aggregate_means(doc, metric):
    """(row, col) -> mean for one metric, from the aggregates array."""
    out = {}
    for agg in doc.get("aggregates", []):
        if isinstance(agg, dict) and agg.get("metric") == metric:
            out[(agg["row"], agg["col"])] = agg["mean"]
    return out


def check_axes(current, committed, errors):
    for field in ("figure", "rows", "cols", "reps"):
        if current.get(field) != committed.get(field):
            errors.append(
                f"grid axis mismatch: {field} is {current.get(field)!r}, "
                f"committed {committed.get(field)!r}"
            )


def check_gates(current, committed, gates, errors):
    for metric in gates:
        cur = aggregate_means(current, metric)
        ref = aggregate_means(committed, metric)
        if not ref:
            continue  # the committed grid never recorded this gate
        for key, ref_mean in sorted(ref.items()):
            if key not in cur:
                errors.append(f"gate {metric} {key}: missing from current run")
            elif cur[key] != ref_mean:
                errors.append(
                    f"gate {metric} {key}: {cur[key]} != committed {ref_mean}"
                )


def check_headline(current, committed, abs_tol, rel_tol, errors):
    metric = committed.get("headline_metric")
    if not metric:
        return
    cur = aggregate_means(current, metric)
    ref = aggregate_means(committed, metric)
    for key, ref_mean in sorted(ref.items()):
        if key not in cur:
            errors.append(f"headline {metric} {key}: missing from current run")
            continue
        diff = abs(cur[key] - ref_mean)
        if diff <= abs_tol or diff <= rel_tol * abs(ref_mean):
            continue
        errors.append(
            f"headline {metric} {key}: {cur[key]:.6g} drifted from committed "
            f"{ref_mean:.6g} (|diff| {diff:.6g} > abs {abs_tol:g} and > "
            f"{rel_tol:g} * |ref|)"
        )


def check_flight_recorder(current, errors):
    for i, cell in enumerate(current.get("cells", [])):
        if not isinstance(cell, dict):
            continue
        where = f"cells[{i}] ({cell.get('row')}/{cell.get('col')})"
        series = cell.get("timeseries")
        if not isinstance(series, dict) or not series:
            errors.append(f"{where}: no timeseries block")
        else:
            for name, entry in sorted(series.items()):
                if not entry.get("points"):
                    errors.append(f"{where}: timeseries '{name}' is empty")
        if not cell.get("incidents"):
            errors.append(f"{where}: no incidents block")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", type=pathlib.Path)
    parser.add_argument("committed", type=pathlib.Path)
    parser.add_argument("--abs-tol", type=float, default=0.05)
    parser.add_argument("--rel-tol", type=float, default=0.5)
    parser.add_argument(
        "--gate",
        action="append",
        default=None,
        help=f"exact-match metric (repeatable; default {DEFAULT_GATES})",
    )
    args = parser.parse_args(argv)
    gates = tuple(args.gate) if args.gate else DEFAULT_GATES

    current, committed = load(args.current), load(args.committed)
    if current is None or committed is None:
        return 1

    errors = []
    check_axes(current, committed, errors)
    if not errors:
        check_gates(current, committed, gates, errors)
        check_headline(current, committed, args.abs_tol, args.rel_tol, errors)
        check_flight_recorder(current, errors)

    for line in errors:
        print(f"REGRESSION {args.current}: {line}", file=sys.stderr)
    if not errors:
        print(
            f"{args.current}: matches {args.committed} "
            f"(gates {', '.join(gates)} exact; headline "
            f"'{committed.get('headline_metric')}' within tolerance; "
            f"flight recorder present in all {len(current.get('cells', []))} "
            "cells)"
        )
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
