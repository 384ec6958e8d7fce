"""omcast-lint: repo-specific static analysis for the omcast simulator.

Every figure in this repository is produced by a deterministic seeded
simulation; any source of run-to-run variation (wall clock, unseeded RNG,
hash-order iteration, pointer-valued ties) or any shared mutable state
between cells (a lock is the sign of one) silently invalidates
results. This package scans C++ sources for the hazard patterns we care
about, with:

  * a rule registry (`omcast_lint.registry`) -- each rule is a small
    function over a pre-processed SourceFile, registered by decorator;
  * a shared source model (`omcast_lint.source`) -- comment/string
    stripping, a lightweight C++ tokenizer and brace-matched block/function
    extraction used by the protocol-aware rules;
  * an `omcast-lint: allow(<rule>)` escape hatch with stale-suppression
    detection (an allow() that no longer suppresses anything is itself a
    finding);
  * human and SARIF 2.1.0 output (`omcast_lint.sarif`);
  * per-rule fixtures under `omcast_lint/fixtures/` exercised by
    `--selftest`, run in CI and by ctest.

Entry point: `python3 scripts/omcast-lint` (or `python3 -m omcast_lint`
from scripts/).
"""

from __future__ import annotations

__version__ = "1.0.0"

TOOL_NAME = "omcast-lint"
TOOL_URI = "https://github.com/omcast/omcast"  # repo-internal tool
