#!/usr/bin/env bash
# Appends one JSONL record per checksummed bench run to
# BENCH_TRAJECTORY.jsonl at the repo root — the in-repo performance
# trajectory (ROADMAP: "record the JSONL trajectory in-repo").
#
# Each record wraps the bench's own stdout JSONL rows:
#   {"commit":..., "dirty":..., "src_sha256":..., "bench":..., "args":...,
#    "ok":0|1, "elapsed_s":..., "rows":[<the bench's JSON-lines rows>]}
#
# The stamp describes the source tree the build directory was configured
# from (CMAKE_HOME_DIRECTORY in its CMakeCache.txt), which need not be
# this checkout: pass a parent commit's build directory to record the
# parent's rows beside the change's. `commit` is that tree's HEAD,
# `dirty` whether `git status --porcelain` lists anything there (null
# without git), and `src_sha256` the SHA-256 over each file of its src/
# in sorted path order, path then bytes, so rows recorded before a
# commit still name the sources they measured. The lint and tidy rows
# run in that tree too.
#
# Sample counts are pinned (200 samples, batch 64, 2 threads) so rows are
# comparable across commits. Checksummed benches exit non-zero on a serial/parallel divergence, and
# that failure is recorded (ok:0) rather than swallowed.
#
# Usage: bench/run_trajectory.sh [build-dir]   (default: build)

set -u
cd "$(dirname "$0")/.."
OUT="$PWD/BENCH_TRAJECTORY.jsonl"
BUILD="$(cd "${1:-build}" && pwd)" || exit 2
SRC="$(sed -n 's/^CMAKE_HOME_DIRECTORY:INTERNAL=//p' "$BUILD/CMakeCache.txt")"
if [ -z "$SRC" ] || ! cd "$SRC"; then
  echo "error: $BUILD has no configured source tree" >&2
  exit 2
fi
COMMIT="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
if STATUS="$(git status --porcelain 2>/dev/null)"; then
  DIRTY=$([ -n "$STATUS" ] && echo true || echo false)
else
  DIRTY=null
fi
SRC_SHA256="$(find src -type f | LC_ALL=C sort |
  while IFS= read -r f; do printf '%s' "$f"; cat "$f"; done |
  sha256sum | cut -d' ' -f1)"
STAMP="$(printf '"commit":"%s","dirty":%s,"src_sha256":"%s"' \
  "$COMMIT" "$DIRTY" "$SRC_SHA256")"

run_bench() {
  local bench="$1"
  shift
  local bin="$BUILD/bench/$bench"
  if [ ! -x "$bin" ]; then
    echo "skip: $bin not built" >&2
    return
  fi
  local start end ok rows elapsed
  start=$(date +%s.%N)
  rows="$("$bin" "$@" 2>/dev/null)"
  ok=$([ $? -eq 0 ] && echo 1 || echo 0)
  end=$(date +%s.%N)
  elapsed=$(awk -v a="$start" -v b="$end" 'BEGIN { printf "%.3f", b - a }')
  # The bench rows are one JSON object per line; join them into an array.
  local joined
  joined="$(printf '%s' "$rows" | paste -sd, -)"
  printf '{%s,"bench":"%s","args":"%s","ok":%s,"elapsed_s":%s,"rows":[%s]}\n' \
    "$STAMP" "$bench" "$*" "$ok" "$elapsed" "$joined" >> "$OUT"
  echo "recorded: $bench $* (ok=$ok, ${elapsed}s)" >&2
}

# Static-analysis tooling wall time rides along in the same trajectory:
# if the determinism lint or the tidy driver creeps from seconds to
# minutes it shows up here next to the bench rows. `tool` rows carry no
# bench rows; tidy is recorded even when clang-tidy is absent (exit 3 →
# ok:0 with skipped:1, so local GCC-only records are distinguishable
# from real findings).
run_tool() {
  local name="$1"
  shift
  local start end rc ok skipped elapsed
  start=$(date +%s.%N)
  "$@" > /dev/null 2>&1
  rc=$?
  end=$(date +%s.%N)
  ok=$([ "$rc" -eq 0 ] && echo 1 || echo 0)
  skipped=$([ "$rc" -eq 3 ] && echo 1 || echo 0)
  elapsed=$(awk -v a="$start" -v b="$end" 'BEGIN { printf "%.3f", b - a }')
  printf '{%s,"tool":"%s","args":"%s","ok":%s,"skipped":%s,"elapsed_s":%s}\n' \
    "$STAMP" "$name" "$*" "$ok" "$skipped" "$elapsed" >> "$OUT"
  echo "recorded: tool $name (ok=$ok, skipped=$skipped, ${elapsed}s)" >&2
}

PIN="--num_samples=200 --batch_size=64 --num_threads=2"

run_tool lint_determinism python3 tools/lint_determinism.py --root .
run_tool clang_tidy bash tools/run_clang_tidy.sh "$BUILD"

run_bench bench_batched_sampling $PIN
run_bench bench_batched_sampling --num_samples=200 --batch_size=64 --num_threads=1
run_bench bench_expr_compile $PIN
run_bench bench_montecarlo_sweep $PIN
# Columnar join scale check: rows x worlds, serial and threaded.
# --num_samples is the world count here; the row sweep is built in.
run_bench bench_columnar_worlds --num_samples=8 --batch_size=64 --num_threads=2
run_bench bench_session_server --num_samples=200 --num_threads=2 --num_sessions=4
