"""Command-line interface.

Exit codes:
  0 -- clean (or selftest passed)
  1 -- findings, or selftest failures
  2 -- usage error (no inputs, unknown path)

An audited exception is silenced in place with an
`omcast-lint: allow(<rule>)` comment; there is no other suppression path.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import sarif as sarif_mod
from .engine import lint_paths
from .registry import all_rule_descriptions, Finding
from .selftest import run_selftest


def _repo_root(start: Path) -> Path:
    """Nearest ancestor containing a .git directory; falls back to cwd so
    fingerprints and SARIF URIs are repo-relative when possible."""
    for parent in [start, *start.parents]:
        if (parent / ".git").exists():
            return parent
    return start


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omcast-lint",
        description="Static determinism/concurrency/protocol lint for the "
                    "omcast simulator (see scripts/omcast_lint/).")
    parser.add_argument("paths", nargs="*",
                        help="files or directories to lint")
    parser.add_argument("--selftest", metavar="DIR",
                        help="run the expect()-marker fixture selftest over "
                             "DIR instead of linting")
    parser.add_argument("--sarif", metavar="FILE",
                        help="also write findings as SARIF 2.1.0 to FILE")
    parser.add_argument("--sarif-selftest", action="store_true",
                        help="emit a SARIF document for a synthetic finding "
                             "and structurally validate it")
    parser.add_argument("--list-rules", action="store_true",
                        help="list registered rules and exit")
    parser.add_argument("--no-stale-allow", action="store_true",
                        help="disable stale-suppression detection")
    return parser


def _run_sarif_selftest(root: Path) -> int:
    probe = Finding(root / "scripts" / "omcast_lint" / "cli.py", 1,
                    "wallclock", "synthetic finding for schema validation")
    doc = sarif_mod.render([probe], root)
    # Round-trip through JSON: the validator must accept what a consumer
    # would actually parse from disk.
    problems = sarif_mod.validate(json.loads(json.dumps(doc)))
    empty_problems = sarif_mod.validate(json.loads(
        json.dumps(sarif_mod.render([], root))))
    for p in problems + empty_problems:
        print(f"sarif-selftest: {p}", file=sys.stderr)
    if problems or empty_problems:
        return 1
    print("sarif-selftest: emitted documents are structurally valid "
          "SARIF 2.1.0")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    root = _repo_root(Path.cwd())

    if args.list_rules:
        for name, summary in all_rule_descriptions():
            print(f"{name:16s} {summary}")
        return 0

    if args.sarif_selftest:
        return _run_sarif_selftest(root)

    if args.selftest:
        failures = run_selftest(args.selftest)
        return 0 if failures == 0 else 1

    if not args.paths:
        print("error: no paths given (or use --selftest DIR / --list-rules)",
              file=sys.stderr)
        return 2

    try:
        findings, nfiles = lint_paths(args.paths,
                                      stale_check=not args.no_stale_allow)
    except FileNotFoundError as e:
        print(f"error: no such file or directory: {e}", file=sys.stderr)
        return 2

    findings.sort(key=lambda f: (f.path.as_posix(), f.line, f.rule))

    if args.sarif:
        sarif_mod.write(Path(args.sarif), findings, root)

    for f in findings:
        print(f)
    print(f"omcast-lint: {len(findings)} finding(s) across {nfiles} "
          f"file(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
