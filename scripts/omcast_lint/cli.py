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
import sys

from .engine import lint_paths
from .registry import all_rule_descriptions
from .selftest import run_selftest


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
    parser.add_argument("--list-rules", action="store_true",
                        help="list registered rules and exit")
    parser.add_argument("--no-stale-allow", action="store_true",
                        help="disable stale-suppression detection")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_rules:
        for name, summary in all_rule_descriptions():
            print(f"{name:16s} {summary}")
        return 0

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

    for f in findings:
        print(f)
    print(f"omcast-lint: {len(findings)} finding(s) across {nfiles} "
          f"file(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
