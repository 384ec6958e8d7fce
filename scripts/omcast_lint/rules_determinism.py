"""Reproducibility rules: rand, wallclock, unordered-iter, pointer-sort,
uninit-member and trace-wallclock, plus the protocol-aware unordered-sink
and seed-narrowing rules.

Rationale recap: every figure comes from a deterministic seeded simulation,
so unseeded randomness, host-clock reads, hash-order iteration, pointer-
valued ties, indeterminate members, and silent seed truncation all
invalidate the bit-identical-replay guarantee the digest tests enforce.
"""

from __future__ import annotations

import re

from .registry import rule
from .source import SourceFile, range_for_block

RAND_RE = re.compile(
    r"std::random_device|\brandom_device\b|\bsrand\s*\(|"
    r"(?<![:\w])s?rand\s*\(|\brand_r\s*\(|\bdrand48\s*\(|\blrand48\s*\(|"
    r"\bmrand48\s*\(|\barc4random\b|(?<![:\w.>])\brandom\s*\(\s*\)"
)

WALLCLOCK_RE = re.compile(
    r"std::chrono::(system_clock|steady_clock|high_resolution_clock)|"
    r"\bgettimeofday\s*\(|\bclock_gettime\s*\(|"
    r"(?<![\w.>])(?:std::)?time\s*\(\s*(nullptr|NULL|0)\s*\)|"
    r"\blocaltime\b|\bgmtime\b|"
    # The conventional chrono-clock alias used by the profiler seam.
    r"\bClock::now\s*\(|"
    # Pulling <chrono> into simulation code is the gateway hazard; the two
    # legal seams (obs::SimProfiler, the runner's progress clock) carry the
    # allow annotation on the include itself.
    r"^\s*#\s*include\s*<chrono>"
)

UNORDERED_DECL_RE = re.compile(r"std::unordered_(map|set)\s*<")
UNORDERED_NAME_RE = re.compile(
    r"std::unordered_(?:map|set)\s*<.*>\s*(\w+)\s*[;{=]")
RANGE_FOR_RE = re.compile(r"for\s*\(.*:\s*([\w.\->]+)\s*\)")

POINTER_SORT_RES = [
    re.compile(r"std::less\s*<[^<>]*\*\s*>"),
    re.compile(r"std::(map|set|multimap|multiset)\s*<[^<>,]*\*\s*[,>]"),
    re.compile(r"reinterpret_cast\s*<\s*(std::)?u?intptr_t\s*>"),
]

UNINIT_TYPE = (
    r"(?:const\s+)?"
    r"(?:bool|char|short|int|long|float|double|unsigned|std::size_t|"
    r"std::u?int(?:8|16|32|64|ptr)?_t|size_t|u?int(?:8|16|32|64)_t|"
    r"Time|sim::Time|NodeId|overlay::NodeId|net::HostId|HostId|EventId|"
    r"sim::EventId)"
)
UNINIT_MEMBER_RE = re.compile(
    r"^\s*" + UNINIT_TYPE + r"(?:\s+(?:const\s+)?)"
    r"(?:\s*[\w]+\s*,\s*)*[\w]+\s*;\s*$"
)
STRUCT_OPEN_RE = re.compile(r"\b(struct|class)\s+\w+[^;{]*\{")

TRACE_EMIT_RE = re.compile(r"(?:->|\.)\s*Emit\s*\(")
TRACE_WALLCLOCK_TOKEN_RE = re.compile(
    r"std::chrono|steady_clock|system_clock|high_resolution_clock|"
    r"\bWallMs\s*\(|\bwall_ms\b|\bgettimeofday\b|\bclock_gettime\b|"
    r"(?<![\w.>])(?:std::)?time\s*\(\s*(?:nullptr|NULL|0)\s*\)"
)

# Calls that feed deterministic outputs: trace emissions, registry metrics,
# digest mixing, results fields. Iterating an unordered container to feed
# any of these makes the exported JSONL / registry snapshot / replay digest
# depend on libstdc++ bucket order.
SINK_RE = re.compile(
    r"\b(?:Emit|Count|Observe|SetGauge|MixU64|MixI64|MixDouble|MixBytes|"
    r"Digest)\s*\(|\b(?:metrics|samples|series|registry)\s*\[")

# Narrowing casts on seed/hash derivation lines: a 64-bit seed truncated to
# 32 bits silently collapses distinct grid cells onto one RNG stream.
NARROW_CAST_RE = re.compile(
    r"static_cast<\s*(?:std::)?(?:u?int(?:8|16|32)_t|"
    r"unsigned\s+(?:char|short|int)|unsigned|short|int|float|char)\s*>")
SEED_CTX_RE = re.compile(r"seed|hash|digest", re.IGNORECASE)


@rule("rand",
      "unseeded randomness (rand/srand/random_device/drand48/...) outside "
      "src/rand; route through the seeded rnd::Rng substrate")
def find_rand(sf: SourceFile):
    if "src/rand" in sf.path.as_posix():
        return []  # the seeded substrate itself
    hits = []
    for i, line in enumerate(sf.code_lines):
        if RAND_RE.search(line):
            hits.append((i, "unseeded randomness; route through rnd::Rng "
                            "(src/rand/rng.h) so runs stay reproducible"))
    return hits


@rule("wallclock",
      "host-clock reads (or a bare <chrono> include) in simulation code; "
      "simulation time is sim::Simulator::now()")
def find_wallclock(sf: SourceFile):
    hits = []
    for i, line in enumerate(sf.code_lines):
        if WALLCLOCK_RE.search(line):
            hits.append((i, "wall-clock time in simulation code; use "
                            "sim::Simulator::now() (virtual time) instead"))
    return hits


def _unordered_vars(sf: SourceFile) -> set[str]:
    names: set[str] = set()
    for line in sf.code_lines:
        m = UNORDERED_NAME_RE.search(line)
        if m:
            names.add(m.group(1))
    return names


def _iterated_name(line: str) -> str | None:
    m = RANGE_FOR_RE.search(line)
    if not m:
        return None
    return m.group(1).split(".")[-1].split(">")[-1]


@rule("unordered-iter",
      "unordered container declaration or range-for over one: bucket order "
      "is nondeterministic; annotate the documented-safe ones")
def find_unordered_iter(sf: SourceFile):
    hits = []
    unordered_vars = _unordered_vars(sf)
    for i, line in enumerate(sf.code_lines):
        if UNORDERED_DECL_RE.search(line):
            hits.append((i, "unordered container: bucket order is "
                            "nondeterministic; document why iteration order "
                            "never feeds protocol decisions (or use a vector/"
                            "std::map) and annotate with omcast-lint: "
                            "allow(unordered-iter)"))
    for i, line in enumerate(sf.code_lines):
        name = _iterated_name(line)
        if name and name in unordered_vars:
            hits.append((i, f"range-for over unordered container '{name}': "
                            f"iteration order is nondeterministic"))
    return hits


@rule("unordered-sink",
      "range-for over an unordered container whose body feeds a trace/"
      "metrics/digest sink: the exported output inherits bucket order")
def find_unordered_sink(sf: SourceFile):
    hits = []
    unordered_vars = _unordered_vars(sf)
    if not unordered_vars:
        return hits
    for i, line in enumerate(sf.code_lines):
        name = _iterated_name(line)
        if not name or name not in unordered_vars:
            continue
        first, last = range_for_block(sf, i)
        body = " ".join(sf.code_lines[first:last + 1])
        if SINK_RE.search(body):
            hits.append((i, f"iteration over unordered container '{name}' "
                            f"feeds a trace/metrics/digest sink: the "
                            f"emitted order (and so the JSONL export, "
                            f"registry snapshot or replay digest) depends "
                            f"on hash-bucket order; copy into a sorted "
                            f"container first"))
    return hits


@rule("pointer-sort",
      "ordering by raw pointer value (std::less<T*>, pointer-keyed ordered "
      "containers, uintptr_t casts): ASLR breaks replay")
def find_pointer_sort(sf: SourceFile):
    hits = []
    for i, line in enumerate(sf.code_lines):
        for rx in POINTER_SORT_RES:
            if rx.search(line):
                hits.append((i, "ordering by raw pointer value: addresses "
                                "vary run to run under ASLR; key by a stable "
                                "id instead"))
                break
    return hits


@rule("uninit-member",
      "scalar data member without an initializer in a struct/class body: "
      "indeterminate reads are UB and nondeterministic")
def find_uninit_member(sf: SourceFile):
    hits = []
    # Lightweight brace tracking: flag declarations only directly inside a
    # struct/class body (depth == body depth), not locals in member
    # functions. Good enough for this codebase's Google-style layout.
    depth = 0
    struct_depths: list[int] = []
    for i, line in enumerate(sf.code_lines):
        opens_struct = bool(STRUCT_OPEN_RE.search(line))
        in_struct_body = bool(struct_depths) and depth == struct_depths[-1] + 1
        if (in_struct_body and not opens_struct
                and UNINIT_MEMBER_RE.match(line)
                and "typedef" not in line and "using" not in line):
            hits.append((i, "scalar member without initializer: reads of "
                            "indeterminate values are UB and nondeterministic;"
                            " add `= 0` / `{}`"))
        for c in line:
            if c == "{":
                if opens_struct:
                    struct_depths.append(depth)
                    opens_struct = False  # first brace belongs to the struct
                depth += 1
            elif c == "}":
                depth -= 1
                if struct_depths and depth == struct_depths[-1]:
                    struct_depths.pop()
    return hits


@rule("trace-wallclock",
      "wall-clock value inside a trace Emit(): trace payloads must be "
      "replay-deterministic (sim time and stable ids only)")
def find_trace_wallclock(sf: SourceFile):
    hits = []
    for i, line in enumerate(sf.code_lines):
        if not TRACE_EMIT_RE.search(line):
            continue
        # An Emit call's argument list often wraps; scan the call line plus
        # the next two continuation lines for a wall-clock token.
        window = " ".join(sf.code_lines[i:i + 3])
        if TRACE_WALLCLOCK_TOKEN_RE.search(window):
            hits.append((i, "wall-clock value in a trace emission: trace "
                            "payloads must be replay-deterministic (sim time "
                            "and stable ids only); host timing belongs in "
                            "obs::SimProfiler"))
    return hits


@rule("seed-narrowing",
      "narrowing cast on a seed/hash/digest derivation line: truncating a "
      "64-bit seed collapses distinct cells onto one RNG stream")
def find_seed_narrowing(sf: SourceFile):
    hits = []
    for i, line in enumerate(sf.code_lines):
        if NARROW_CAST_RE.search(line) and SEED_CTX_RE.search(line):
            hits.append((i, "narrowing conversion in a seed/hash derivation "
                            "path: keep the full 64 bits (std::uint64_t) "
                            "end to end -- hash-derived per-cell seeds rely "
                            "on every bit (util/hash.h)"))
    return hits
