"""Concurrency rule: raw standard-library locking primitives are banned
outside the capability-annotated wrapper (src/util/mutex.h).

clang's -Wthread-safety cannot see through std::mutex / std::lock_guard /
std::unique_lock (they carry no capability attributes), so any code using
them silently opts out of the static lock-discipline analysis the clang
preset enforces. util::Mutex / util::MutexLock are the annotated
equivalents; this rule keeps the analyzable world closed.
"""

from __future__ import annotations

import re

from .registry import rule
from .source import SourceFile

RAW_MUTEX_RE = re.compile(
    r"std::(?:recursive_|timed_|recursive_timed_|shared_)?mutex\b|"
    r"std::condition_variable(?:_any)?\b|"
    r"std::(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b|"
    r"\bpthread_mutex\w*")

# The one legal home of the raw primitives: the wrapper itself.
WRAPPER_SUFFIX = "util/mutex.h"


@rule("raw-mutex",
      "raw std::mutex/condition_variable/lock_guard outside util/mutex.h: "
      "invisible to clang -Wthread-safety; use util::Mutex + MutexLock")
def find_raw_mutex(sf: SourceFile):
    if sf.path.as_posix().endswith(WRAPPER_SUFFIX):
        return []
    hits = []
    for i, line in enumerate(sf.code_lines):
        if RAW_MUTEX_RE.search(line):
            hits.append((i, "raw standard-library mutex/lock outside the "
                            "annotated wrapper: use util::Mutex and "
                            "util::MutexLock "
                            "(src/util/mutex.h) with OMCAST_GUARDED_BY "
                            "annotations so clang -Wthread-safety checks "
                            "the lock discipline"))
    return hits
