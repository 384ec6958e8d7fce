#!/usr/bin/env python3
"""Paired A/B comparison of two commits on the host-cost benchmark.

    python3 scripts/perf_ab.py --base HEAD~1 --workload paper_stack_10k \\
        --seeds 801-810 --seconds 25

Run from the repository root. Exports the base commit and the change (a
commit given with --change, or else this working tree's tracked and
untracked, not ignored, files) into two checkouts under --workdir, each
with its own benchmark build, and runs perfbench/run.py on both,
interleaved: one pair per workload and seed, the side that goes first
alternating from pair to pair. A pass of a workload at a seed runs the
same inputs on both sides, so cells pair by (workload, seed, trace, pass,
cell). The script reports

  * per cell: the paired wall-time ratios (change / base) and how many
    pairs the change won;
  * per metric run.py printed (end-to-end, or per-layer with --trace 1):
    each side's median and quartiles over the runs, the median paired
    ratio and the change's wins (ties count for neither);
  * a block for CHANGES.md with every pair's values.

It exits 1 when a paired cell digest differs, a run fails its own checks,
or, with --same-code, a workload's median paired run_s ratio is outside
[1/2, 2] (a --tiny run is one pass, so one noisy cell moves it); 2 when a
side cannot be exported or built. It only drives run.py, through its
command line and its build step, and reads the results files it leaves.
"""
import argparse
import json
import pathlib
import shutil
import statistics
import subprocess
import sys

ROOT = pathlib.Path.cwd()
SAME_CODE_RATIO = 2.0


def fail(message):
    print(f"perf_ab: {message}", file=sys.stderr)
    sys.exit(2)


def git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True).stdout


def export_commit(rev, dest):
    """Extracts `rev` into dest once; later calls reuse the checkout and its build."""
    marker = dest / ".perf_ab_commit"
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    if marker.exists() and marker.read_text() == sha:
        return sha
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", sha],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    marker.write_text(sha)
    return sha


def export_worktree(dest):
    """Mirrors the working tree into dest, touching only files that changed,
    so the benchmark build there stays incremental."""
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    files = sorted({f for f in listed.decode().split("\0")
                    if f and (ROOT / f).is_file()})
    manifest = dest / ".perf_ab_files"
    old = set(manifest.read_text().split("\n")) if manifest.exists() else set()
    dest.mkdir(parents=True, exist_ok=True)
    for f in files:
        src, dst = ROOT / f, dest / f
        if dst.exists() and dst.read_bytes() == src.read_bytes():
            continue
        dst.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(src, dst)  # a fresh mtime, so the build sees the edit
    for f in old - set(files):
        if f:
            (dest / f).unlink(missing_ok=True)
    manifest.write_text("\n".join(files))
    return "working tree"


def build(checkout):
    """Builds the side's benchmark through run.py's own build step and
    returns run.py's build tree for that checkout, where its results go."""
    code = ("import sys; sys.path.insert(0, 'perfbench'); import run; "
            "run.build(); print(run.build_dir().resolve())")
    proc = subprocess.run([sys.executable, "-c", code], cwd=checkout,
                          stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    if proc.returncode != 0:
        fail(f"building the benchmark in {checkout} failed")
    return pathlib.Path(proc.stdout.strip().split("\n")[-1])


def run_once(checkout, build_dir, workload, seed, seconds, trace, tiny, log):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if tiny:
        cmd.append("--tiny")
    results = (build_dir / ("results-tiny" if tiny else "results") /
               f"{workload}.seed{seed}.trace{trace}.json")
    results.unlink(missing_ok=True)  # an earlier run's file must not pair
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    log.parent.mkdir(parents=True, exist_ok=True)
    log.write_text(proc.stdout)
    lines = proc.stdout.strip().split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stderr.write(proc.stdout + proc.stderr)
        fail(f"{' '.join(cmd)} in {checkout} exited {proc.returncode} with no result")
    if not results.exists():
        fail(f"{' '.join(cmd)} in {checkout} left no results file {results}")
    doc = json.loads(results.read_text())
    cells = {}
    for key, traced in (("cells", False), ("traced_cells", True)):
        for c in doc.get(key, []):
            cells[(traced, c["pass"], c["name"])] = c
    return {"exit": proc.returncode, "result": result, "cells": cells}


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def fmt(v):
    return f"{v:.4g}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="the parent commit")
    parser.add_argument("--change", help="the changed commit (default: the working tree)")
    parser.add_argument("--workload", action="append", required=True,
                        help="a BENCHMARK.json workload; repeat for several")
    parser.add_argument("--seeds", default="1-10", help="e.g. 801-810 or 1,5,9")
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--workdir", default=".perf_ab",
                        help="checkouts, their builds, each run's report "
                             "(logs/) and the pairs (pairs.*.json)")
    parser.add_argument("--same-code", action="store_true",
                        help="both sides build the same code: also require "
                             "run_s ratios near 1")
    args = parser.parse_args()

    if not (ROOT / "BENCHMARK.json").exists():
        fail("run from the repository root (no BENCHMARK.json here)")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    workdir = pathlib.Path(args.workdir).resolve()
    sides = {}
    for side, rev in (("base", args.base), ("change", args.change)):
        if rev is None:
            dest = workdir / "change-worktree"
            label = export_worktree(dest)
        else:
            dest = workdir / f"{side}-{rev.replace('/', '_')}"
            label = export_commit(rev, dest)
        sides[side] = (dest, label, build(dest))
    print(f"base {sides['base'][1]}, change {sides['change'][1]}", flush=True)

    seeds = parse_seeds(args.seeds)
    pairs = []
    problems = []
    for i, seed in enumerate(seeds):
        for j, workload in enumerate(args.workload):
            order = ("base", "change") if (i + j) % 2 == 0 else ("change", "base")
            runs = {}
            for side in order:
                log = (workdir / "logs" /
                       f"{workload}.seed{seed}.trace{args.trace}.{side}.txt")
                runs[side] = run_once(sides[side][0], sides[side][2], workload,
                                      seed, args.seconds, args.trace, args.tiny,
                                      log)
                if runs[side]["exit"] != 0 or not runs[side]["result"]["correct"]:
                    problems.append(f"{workload} seed {seed}: the {side} run "
                                    "failed its checks")
            b, c = runs["base"], runs["change"]
            cells = []
            for key in sorted(set(b["cells"]) & set(c["cells"])):
                cb, cc = b["cells"][key], c["cells"][key]
                if cb["digest"] != cc["digest"]:
                    problems.append(f"{workload} seed {seed} pass {key[1]} "
                                    f"{key[2]}: digest {cc['digest']} != base "
                                    f"{cb['digest']}")
                if cb["failure"] or cc["failure"] or key[0]:
                    continue
                cells.append({"pass": key[1], "name": key[2],
                              "ratio": cc["wall_s"] / cb["wall_s"]})
            metrics = {name: (b["result"]["metrics"][name]["value"],
                              c["result"]["metrics"][name]["value"])
                       for name in b["result"]["metrics"]
                       if name in c["result"]["metrics"]}
            pairs.append({"workload": workload, "seed": seed, "first": order[0],
                          "metrics": metrics, "cells": cells,
                          "paired_cells": len(set(b["cells"]) & set(c["cells"]))})
            run_s = metrics.get("run_s")
            print(f"pair {workload} seed {seed} ({order[0]} first): "
                  f"{len(pairs[-1]['cells'])} cells paired"
                  + (f", run_s {fmt(run_s[0])} -> {fmt(run_s[1])}" if run_s else ""),
                  flush=True)

    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / f"pairs.seeds{args.seeds}.trace{args.trace}.json").write_text(json.dumps(
        {"base": sides["base"][1], "change": sides["change"][1],
         "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
         "pairs": pairs}, indent=1) + "\n")

    block = [f"perf_ab: base {sides['base'][1]} vs change {sides['change'][1]}, "
             f"--seconds {args.seconds} --trace {args.trace}"
             + (" --tiny" if args.tiny else "") + f", seeds {args.seeds}"]
    for workload in args.workload:
        of_workload = [p for p in pairs if p["workload"] == workload]
        print(f"\n== {workload}: {len(of_workload)} pairs ==")
        by_cell = {}
        for p in of_workload:
            for cell in p["cells"]:
                by_cell.setdefault(cell["name"], []).append(cell["ratio"])
        print(f"{'cell':40} {'pairs':>5} {'median':>7} {'q1':>7} {'q3':>7} {'wins':>5}")
        for name, ratios in sorted(by_cell.items()):
            q1, med, q3 = quartiles(ratios)
            wins = sum(r < 1.0 for r in ratios)
            print(f"{name:40} {len(ratios):5} {med:7.3f} {q1:7.3f} {q3:7.3f} "
                  f"{wins:3}/{len(ratios)}")
        print(f"{'metric':24} {'base median [q1, q3]':>28} "
              f"{'change median [q1, q3]':>28} {'ratio':>7} {'wins':>6}")
        for name in (of_workload[0]["metrics"] if of_workload else {}):
            base = [p["metrics"][name][0] for p in of_workload]
            change = [p["metrics"][name][1] for p in of_workload]
            ratios = [c / b for b, c in zip(base, change) if b != 0]
            lower = better.get(name, "lower") == "lower"
            wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
            bq, cq = quartiles(base), quartiles(change)
            ratio = statistics.median(ratios) if ratios else float("nan")
            print(f"{name:24} {fmt(bq[1]):>10} [{fmt(bq[0])}, {fmt(bq[2])}]"
                  f"{'':2} {fmt(cq[1]):>10} [{fmt(cq[0])}, {fmt(cq[2])}]"
                  f" {ratio:7.3f} {wins:3}/{len(of_workload)}")
            block.append(f"  {workload} {name}: base {fmt(bq[1])} [{fmt(bq[0])}, "
                         f"{fmt(bq[2])}], change {fmt(cq[1])} [{fmt(cq[0])}, "
                         f"{fmt(cq[2])}], median ratio {ratio:.3f}, change "
                         f"better in {wins}/{len(of_workload)}; pairs "
                         + ", ".join(f"{fmt(b)}/{fmt(c)}" for b, c in zip(base, change)))
            if args.same_code and name == "run_s" and ratios and not (
                    1 / SAME_CODE_RATIO <= ratio <= SAME_CODE_RATIO):
                problems.append(f"{workload}: median run_s ratio {ratio:.3f} of "
                                "one code against itself")
        digests = sum(p["paired_cells"] for p in of_workload)
        block.append(f"  {workload}: {digests} paired cell digests compared")

    print("\n--- CHANGES.md block ---")
    print("\n".join(block))
    for p in problems:
        print(f"FAILED {p}")
    print("perf_ab " + ("FAILED" if problems else "passed"))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
