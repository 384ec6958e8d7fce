#!/bin/bash
# Regenerates every figure at the fast default scale through the parallel
# experiment runner. Each bench writes:
#   results/small/<name>.txt    -- the aligned text tables (stdout)
#   results/small/<name>.json   -- versioned per-cell results + run manifest
# and the sweep finishes by distilling results/small/bench_summary.json
# (per-figure wall-clock + headline metric) for regression eyeballing.
#
# Environment knobs:
#   THREADS=N   worker threads per bench (default: all cores)
#   RESUME=1    reuse per-cell results from a previous partial sweep
set -u
cd "$(dirname "$0")/.."

BUILD=${BUILD:-build}
OUT=results/small
THREADS=${THREADS:-0}
RESUME=${RESUME:-0}
mkdir -p "$OUT"

# Stamped into every results manifest so a JSON file is traceable to a tree.
OMCAST_GIT_SHA=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
export OMCAST_GIT_SHA

common=(--threads="$THREADS" --out="$OUT")
if [ "$RESUME" = "1" ]; then common+=(--resume=true); fi

status=0
# fig04_disruptions prints Figs. 4, 7, 8 and 10 from one tree-size sweep;
# fig06_member_disruptions prints Figs. 6 and 9 from one tagged-member trace.
for name in fig04_disruptions fig05_disruption_cdf fig06_member_disruptions \
    fig11_switch_interval fig12_group_size fig13_buffer_size fig14_rost_cer \
    ablation_btp ablation_gossip ablation_mlc; do
  echo "=== $name ==="
  # Tables go to the .txt; progress/ETA lines stay on stderr (the console).
  if ! "$BUILD/bench/$name" "${common[@]}" > "$OUT/$name.txt"; then
    echo "FAILED: $name" >&2
    status=1
  fi
done

python3 scripts/make_bench_summary.py "$OUT" -o "$OUT/bench_summary.json" \
  || status=1

if [ "$status" -eq 0 ]; then echo ALL-SMALL-BENCHES-DONE; fi
exit "$status"
