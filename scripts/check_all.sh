#!/usr/bin/env bash
# Full correctness gate: builds and tests every supported configuration,
# then runs the repo's static checks. This is what CI runs; run it locally
# before sending a PR that touches src/.
#
# Usage:
#   scripts/check_all.sh [--quick] [--jobs N]
#
#   --quick   skip the ThreadSanitizer configuration (the one check on the
#             threads RunGrid runs cells on)
#   --jobs N  parallel build/test jobs (default: nproc)
#
# Configurations (see CMakePresets.json):
#   release     RelWithDebInfo, -Werror, no sanitizers
#   clang       clang++, -Werror (when clang++ installed)
#   asan-ubsan  AddressSanitizer + UndefinedBehaviorSanitizer, DCHECK tier on
#   tsan        ThreadSanitizer, DCHECK tier on
#
# Static checks:
#   scripts/omcast-lint                  repo-specific determinism/concurrency/
#                                        protocol lint (+ fixture selftests,
#                                        src/ clean)
#   clang-tidy / clang-format            only when installed (check-only)
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"
QUICK=0
for arg in "$@"; do
  case "$arg" in
    --quick) QUICK=1 ;;
    --jobs) ;; # value handled below
    [0-9]*) JOBS="$arg" ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

export ASAN_OPTIONS="detect_leaks=1:strict_string_checks=1"
export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"

failures=()

run_config() {
  local preset="$1"
  echo "==== [$preset] configure + build + ctest ===="
  if cmake --preset "$preset" >/dev/null \
      && cmake --build --preset "$preset" -j "$JOBS" \
      && ctest --preset "$preset" -j "$JOBS"; then
    echo "==== [$preset] OK ===="
  else
    echo "==== [$preset] FAILED ===="
    failures+=("$preset")
  fi
}

run_config release
if command -v clang++ >/dev/null 2>&1; then
  run_config clang
else
  echo "==== [clang] clang++ not installed, skipping the clang build ===="
fi
run_config asan-ubsan
if [[ "$QUICK" -eq 0 ]]; then
  run_config tsan
fi

echo "==== [lint] omcast-lint (selftests + src/) ===="
if python3 scripts/omcast-lint --selftest scripts/omcast_lint/fixtures \
    && python3 scripts/omcast-lint src/; then
  echo "==== [lint] OK ===="
else
  echo "==== [lint] FAILED ===="
  failures+=(lint)
fi

if command -v clang-tidy >/dev/null 2>&1; then
  echo "==== [clang-tidy] src/ (compile db: build-release) ===="
  if find src -name '*.cc' -print0 \
      | xargs -0 -P "$JOBS" -n 8 clang-tidy -p build-release --quiet; then
    echo "==== [clang-tidy] OK ===="
  else
    echo "==== [clang-tidy] FAILED ===="
    failures+=(clang-tidy)
  fi
else
  echo "==== [clang-tidy] not installed, skipping ===="
fi

if command -v clang-format >/dev/null 2>&1; then
  echo "==== [clang-format] check only ===="
  if find src tests bench examples \( -name '*.cc' -o -name '*.h' -o -name '*.cpp' \) -print0 \
      | xargs -0 clang-format --dry-run --Werror; then
    echo "==== [clang-format] OK ===="
  else
    echo "==== [clang-format] FAILED ===="
    failures+=(clang-format)
  fi
else
  echo "==== [clang-format] not installed, skipping ===="
fi

if [[ "${#failures[@]}" -gt 0 ]]; then
  echo "check_all: FAILED configurations: ${failures[*]}" >&2
  exit 1
fi
echo "check_all: all configurations passed"
