"""Rule registry: rules register themselves by decorator at import time.

A rule is a function `check(sf: SourceFile) -> list[tuple[int, str]]`
returning (0-based line index, message) pairs; the engine applies the
allow() escape hatch and converts to 1-based Findings. Keep rules pure:
no I/O besides reading sibling sources (the rost-event-emit taxonomy
cross-reference), no global state.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .source import SourceFile


@dataclass(frozen=True)
class Finding:
    path: Path
    line: int  # 1-based
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass(frozen=True)
class Rule:
    name: str
    summary: str  # one line; --list-rules prints it
    check: Callable[[SourceFile], list[tuple[int, str]]]


RULES: dict[str, Rule] = {}

# Engine-level pseudo-rule: an allow() annotation that suppresses nothing
# (or names a rule that does not exist). Registered so --list-rules
# describes it, but it has no check function -- the engine computes it from
# the suppression bookkeeping.
STALE_ALLOW = "stale-allow"


def rule(name: str, summary: str):
    def decorator(fn: Callable[[SourceFile], list[tuple[int, str]]]):
        if name in RULES:
            raise ValueError(f"duplicate rule name: {name}")
        RULES[name] = Rule(name, summary, fn)
        return fn
    return decorator


def all_rule_descriptions() -> list[tuple[str, str]]:
    """(name, summary) for every rule incl. the stale-allow pseudo-rule."""
    out = [(r.name, r.summary) for r in RULES.values()]
    out.append((STALE_ALLOW,
                "omcast-lint: allow() annotation that no longer suppresses "
                "any finding (stale or misspelled suppression)"))
    return sorted(out)
