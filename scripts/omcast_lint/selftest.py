"""Fixture-driven selftest: every rule ships a fixture whose `// expect(rule)`
markers pin exactly which (line, rule) pairs must fire.

Semantics:
  * a marker expects a finding on ITS OWN line;
  * the comparison is an exact set match per file -- a missed expectation and
    an unexpected finding are both failures, so rule regressions in either
    direction break the ctest target.
"""

from __future__ import annotations

import re
from pathlib import Path

from .engine import collect_files, lint_file

EXPECT_RE = re.compile(r"//\s*expect\(([a-z\-]+)\)")


def expected_findings(path: Path) -> set[tuple[int, str]]:
    expected: set[tuple[int, str]] = set()
    for i, line in enumerate(
            path.read_text(encoding="utf-8",
                           errors="replace").splitlines(), start=1):
        for m in EXPECT_RE.finditer(line):
            expected.add((i, m.group(1)))
    return expected


def run_selftest(fixture_dir: str) -> int:
    """Returns the number of fixture files that failed (0 = pass)."""
    failures = 0
    files = collect_files([fixture_dir])
    if not files:
        print(f"selftest: no fixtures found under {fixture_dir}")
        return 1
    for path in files:
        expected = expected_findings(path)
        actual = {(f.line, f.rule) for f in lint_file(path)}
        if actual == expected:
            print(f"  PASS {path}")
            continue
        failures += 1
        print(f"  FAIL {path}")
        for line, rule_name in sorted(expected - actual):
            print(f"    missing expected finding: line {line} [{rule_name}]")
        for line, rule_name in sorted(actual - expected):
            print(f"    unexpected finding:       line {line} [{rule_name}]")
    total = len(files)
    print(f"selftest: {total - failures}/{total} fixture files passed")
    return failures
