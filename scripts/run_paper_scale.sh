#!/bin/bash
# Regenerates every paper figure at the full Section 5 scale through the
# parallel experiment runner into results/paper/ (.txt tables + .json
# per-cell results). Measured with THREADS=4 on a 4-core VM (g++ 12,
# RelWithDebInfo): the tree-size sweep (fig04_disruptions, which prints
# Figs. 4, 7, 8 and 10) took 86 s with 3 reps. Its critical path is the
# centralized relaxed-TO/BO cells, which scan the whole tree per join: 29 s
# and 21 s at 14000 members in a 1-rep run, where no other cell took over
# 2.5 s. Fig. 12 took 14 s and Fig. 14 3.3 s, each with 1 rep. The sweep
# is resumable: rerun with RESUME=1 after an interruption and
# already-computed cells are reused from the .json files (seed-checked, so
# stale caches re-run instead of poisoning the figures).
#
# Environment knobs:
#   THREADS=N   worker threads per bench (default: all cores)
#   RESUME=1    reuse per-cell results from a previous partial sweep
set -u
cd "$(dirname "$0")/.."

BUILD=${BUILD:-build}
OUT=results/paper
THREADS=${THREADS:-0}
RESUME=${RESUME:-0}
mkdir -p "$OUT"

OMCAST_GIT_SHA=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
export OMCAST_GIT_SHA

common=(--scale=paper --threads="$THREADS" --out="$OUT")
if [ "$RESUME" = "1" ]; then common+=(--resume=true); fi

status=0
run() {
  local name=$1 reps=$2
  echo "=== START $name (reps=$reps) $(date +%H:%M:%S) ==="
  if ! ./"$BUILD"/bench/"$name" "${common[@]}" --reps="$reps" \
      > "$OUT/$name.txt"; then
    echo "FAILED: $name" >&2
    status=1
  fi
  echo "=== DONE  $name $(date +%H:%M:%S) ==="
}

# Multi-rep everywhere: the runner parallelizes across (size x algorithm x
# rep) cells, so the sweep figures now afford reps=3 (mean +/- CI in the
# JSON aggregates) where the serial harness capped them at reps=1.
run fig04_disruptions 3          # Figs. 4, 7, 8 and 10 from one sweep
run fig05_disruption_cdf 3
run fig11_switch_interval 3
run fig12_group_size 3
run fig13_buffer_size 3
run fig14_rost_cer 5
run fig06_member_disruptions 1   # Figs. 6 and 9: one tagged-member trace
run ablation_btp 3
run ablation_mlc 3
run ablation_gossip 3

python3 scripts/make_bench_summary.py "$OUT" -o "$OUT/bench_summary.json" \
  || status=1

if [ "$status" -eq 0 ]; then echo ALL-PAPER-BENCHES-DONE; fi
exit "$status"
