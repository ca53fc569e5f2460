#!/usr/bin/env bash
# Reproduces every paper figure/table at the default (scaled-down) sizes and
# writes one .txt per binary to results/. Extra flags go to the 21 binaries
# that share bench_common.h's flags (see any of them with --help), e.g.:
#   scripts/run_all_figures.sh --search-keys 10000000
# scaling_threads takes flags of its own, so it always runs the fixed small
# sweep below and gets none of the extra flags.
# Assumes the tree is built in build/ (cmake --preset release && cmake --build build -j).
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=${BUILD_DIR:-build}
OUT_DIR=${OUT_DIR:-results}
mkdir -p "$OUT_DIR"

binaries=(
  fig3_search_throughput fig4_fetched_blocks fig5_write_throughput
  fig6_write_breakdown fig7_bulkload fig8_hybrid_search fig9_hybrid_write
  fig10_storage fig11_block_size fig12_tail_latency fig13_buffer_size
  fig14_overall table3_profiling table4_block_breakdown table5_hybrid_blocks
  ablation_alex_layout ablation_fiting_error ablation_storage_reuse
  scaling_threads buffer_policy_sweep update_buffer_sweep recovery_sweep
)

# A missing binary means the build is incomplete: fail loudly up front
# instead of silently producing a partial result set.
missing=()
for b in "${binaries[@]}"; do
  [[ -x "$BUILD_DIR/bench/$b" ]] || missing+=("$b")
done
if (( ${#missing[@]} > 0 )); then
  echo "error: bench binaries not built: ${missing[*]}" >&2
  echo "build first: cmake --preset release && cmake --build $BUILD_DIR -j" >&2
  exit 1
fi

for b in "${binaries[@]}"; do
  exe="$BUILD_DIR/bench/$b"
  echo "== $b =="
  extra=()
  passed=("$@")
  if [[ "$b" == scaling_threads ]]; then
    extra=(--threads 1,2,4 --shards 1,4 --bulk 60000 --ops 12000)
    passed=()
  fi
  if [[ "$b" == buffer_policy_sweep ]]; then
    # Policy x budget x write-back on the two featured datasets.
    extra=(--datasets fb,ycsb --write-bulk 60000 --write-ops 30000)
  fi
  if [[ "$b" == update_buffer_sweep ]]; then
    # Out-of-place vs in-place update path on the two featured datasets.
    extra=(--datasets fb,ycsb --write-bulk 60000 --write-ops 30000)
  fi
  if [[ "$b" == recovery_sweep ]]; then
    # Durability policy x budget x checkpoint cadence; fb carries the story.
    extra=(--datasets fb --write-bulk 60000 --write-ops 30000)
  fi
  "$exe" "${extra[@]}" "${passed[@]}" | tee "$OUT_DIR/$b.txt"
  echo
done

echo "results written to $OUT_DIR/"
