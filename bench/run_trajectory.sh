#!/usr/bin/env bash
# Appends one JSONL record per checksummed bench run to
# BENCH_TRAJECTORY.jsonl at the repo root — the in-repo performance
# trajectory (ROADMAP: "record the JSONL trajectory in-repo").
#
# Each record wraps the bench's own stdout JSONL rows:
#   {"commit":..., "bench":..., "args":..., "ok":0|1, "elapsed_s":...,
#    "rows":[<the bench's JSON-lines rows>]}
#
# Sample counts are pinned (200 samples, batch 64, 2 threads) so rows are
# comparable across commits. Checksummed benches exit non-zero on a serial/parallel divergence, and
# that failure is recorded (ok:0) rather than swallowed.
#
# Usage: bench/run_trajectory.sh [build-dir]   (default: build)

set -u
cd "$(dirname "$0")/.."
BUILD="${1:-build}"
OUT="BENCH_TRAJECTORY.jsonl"
COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"

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
  printf '{"commit":"%s","bench":"%s","args":"%s","ok":%s,"elapsed_s":%s,"rows":[%s]}\n' \
    "$COMMIT" "$bench" "$*" "$ok" "$elapsed" "$joined" >> "$OUT"
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
  printf '{"commit":"%s","tool":"%s","args":"%s","ok":%s,"skipped":%s,"elapsed_s":%s}\n' \
    "$COMMIT" "$name" "$*" "$ok" "$skipped" "$elapsed" >> "$OUT"
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
