"""Concurrency rule: no standard-library locking primitive anywhere under
src/.

The program takes no locks. RunGrid's cells share only immutable inputs
(the bench's topology, the grid spec) and RunGrid's atomics; each cell
writes only its own result slot. A lock would mean mutable state shared
between cells, which this design rules out; the TSan job and the
serial-vs-parallel digest tests check that none exists.
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


@rule("raw-mutex",
      "std::mutex/condition_variable/lock_guard under src/: cells share "
      "only immutable inputs and RunGrid's atomics")
def find_raw_mutex(sf: SourceFile):
    return [(i, "lock in src/: the program takes no locks; cells share "
                "only immutable inputs and RunGrid's atomics, and each "
                "writes only its own slot")
            for i, line in enumerate(sf.code_lines)
            if RAW_MUTEX_RE.search(line)]
