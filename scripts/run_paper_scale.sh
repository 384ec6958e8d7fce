#!/bin/bash
# Regenerates every paper figure at the full Section 5 scale through the
# parallel experiment runner into results/paper/ (.txt tables + .json
# per-cell results). Measured with THREADS=4 on a 4-core VM (g++ 12,
# RelWithDebInfo), the whole sweep took 12 min 2 s of wall time (45 min of
# CPU). The tree-size sweep (fig04_disruptions, which prints Figs. 4, 7, 8
# and 10 from 75 cells) took 244 s; its critical path was the centralized
# relaxed-BO/TO cells, which then scanned the whole tree per join (the
# longest, at 14000 members, took 94 s). They now merge cached per-branch
# summaries instead, so that path is shorter; the sweep has not been
# re-timed since. Fig. 12 took 143 s, Fig. 13 123 s, and every other bench
# 62 s or less, so an interrupted sweep is simply rerun.
#
# Environment knobs:
#   THREADS=N   worker threads per bench (default: all cores)
set -u
cd "$(dirname "$0")/.."

BUILD=${BUILD:-build}
OUT=results/paper
THREADS=${THREADS:-0}
mkdir -p "$OUT"

OMCAST_GIT_SHA=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
export OMCAST_GIT_SHA

common=(--scale=paper --threads="$THREADS" --out="$OUT")

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

if [ "$status" -eq 0 ]; then echo ALL-PAPER-BENCHES-DONE; fi
exit "$status"
