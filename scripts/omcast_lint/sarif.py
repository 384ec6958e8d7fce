"""SARIF 2.1.0 output so CI (and editors) can ingest omcast-lint findings.

Only the subset of the schema we emit is modelled; validate() structurally
checks an emitted document against that subset and is what the
`--sarif-selftest` CI step runs.

Each result carries a line-number-free `partialFingerprints` entry so a
consumer can track a finding across unrelated edits above it:

    <repo-relative path>:<rule>:<sha1 of the blanked source line, without
    whitespace>[:<occurrence>]

with <occurrence> disambiguating identical lines within one file (in file
order).
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

from . import TOOL_NAME, TOOL_URI, __version__
from .registry import all_rule_descriptions, Finding
from .source import strip_comments_and_strings

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                "master/Schemata/sarif-schema-2.1.0.json")


def _uri(path: Path, root: Path) -> str:
    p = path.resolve()
    try:
        return p.relative_to(root.resolve()).as_posix()
    except ValueError:
        return p.as_posix()


def _normalized_line(path: Path, line: int) -> str:
    """The blanked (comment/string-free) text of `line` (1-based), with all
    whitespace removed, so reformatting does not change fingerprints."""
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError:
        return ""
    lines = strip_comments_and_strings(text).splitlines()
    if not 1 <= line <= len(lines):
        return ""
    return re.sub(r"\s+", "", lines[line - 1])


def fingerprints(findings: list[Finding], root: Path) -> list[str]:
    """Fingerprint per finding, in order, with occurrence disambiguation."""
    seen: dict[str, int] = {}
    out = []
    for f in findings:
        digest = hashlib.sha1(
            _normalized_line(f.path, f.line).encode()).hexdigest()[:12]
        base = f"{_uri(f.path, root)}:{f.rule}:{digest}"
        n = seen.get(base, 0)
        seen[base] = n + 1
        out.append(base if n == 0 else f"{base}:{n}")
    return out


def render(findings: list[Finding], root: Path) -> dict:
    rules = [{"id": name, "shortDescription": {"text": summary}}
             for name, summary in all_rule_descriptions()]
    results = []
    for f, fp in zip(findings, fingerprints(findings, root)):
        results.append({
            "ruleId": f.rule,
            "level": "error",
            "message": {"text": f.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": _uri(f.path, root)},
                    "region": {"startLine": f.line},
                },
            }],
            "partialFingerprints": {"omcastLintFingerprint/v1": fp},
        })
    return {
        "version": SARIF_VERSION,
        "$schema": SARIF_SCHEMA,
        "runs": [{
            "tool": {
                "driver": {
                    "name": TOOL_NAME,
                    "informationUri": TOOL_URI,
                    "version": __version__,
                    "rules": rules,
                },
            },
            "results": results,
        }],
    }


def write(path: Path, findings: list[Finding], root: Path) -> None:
    path.write_text(json.dumps(render(findings, root), indent=2) + "\n",
                    encoding="utf-8")


def validate(doc: dict) -> list[str]:
    """Structural check of the SARIF subset this tool emits; returns a list
    of problems (empty = valid)."""
    problems: list[str] = []

    def need(cond: bool, what: str) -> bool:
        if not cond:
            problems.append(what)
        return cond

    if not need(isinstance(doc, dict), "document must be an object"):
        return problems
    need(doc.get("version") == SARIF_VERSION,
         f"version must be {SARIF_VERSION!r}")
    need(isinstance(doc.get("$schema"), str), "$schema must be a string")
    runs = doc.get("runs")
    if not need(isinstance(runs, list) and len(runs) == 1,
                "runs must be a single-element array"):
        return problems
    run = runs[0]
    driver = run.get("tool", {}).get("driver", {})
    need(driver.get("name") == TOOL_NAME, "tool.driver.name mismatch")
    need(isinstance(driver.get("informationUri"), str),
         "tool.driver.informationUri must be a string")
    rules = driver.get("rules")
    if need(isinstance(rules, list) and rules, "driver.rules must be "
                                               "a non-empty array"):
        ids = set()
        for r in rules:
            if not need(isinstance(r.get("id"), str), "rule id missing"):
                continue
            ids.add(r["id"])
            need(isinstance(r.get("shortDescription", {}).get("text"), str),
                 f"rule {r['id']}: shortDescription.text missing")
    else:
        ids = set()
    results = run.get("results")
    if not need(isinstance(results, list), "run.results must be an array"):
        return problems
    for i, res in enumerate(results):
        where = f"results[{i}]"
        need(res.get("ruleId") in ids,
             f"{where}: ruleId not declared in driver.rules")
        need(res.get("level") == "error", f"{where}: level must be 'error'")
        need(isinstance(res.get("message", {}).get("text"), str),
             f"{where}: message.text missing")
        locs = res.get("locations")
        if not need(isinstance(locs, list) and len(locs) == 1,
                    f"{where}: locations must be a single-element array"):
            continue
        phys = locs[0].get("physicalLocation", {})
        need(isinstance(phys.get("artifactLocation", {}).get("uri"), str),
             f"{where}: artifactLocation.uri missing")
        start = phys.get("region", {}).get("startLine")
        need(isinstance(start, int) and start >= 1,
             f"{where}: region.startLine must be a positive integer")
        need(isinstance(res.get("partialFingerprints", {})
                        .get("omcastLintFingerprint/v1"), str),
             f"{where}: partialFingerprints missing")
    return problems
