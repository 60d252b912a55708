#!/usr/bin/env sh
# scripts/bench.sh — run the compile benchmarks and extend the perf
# trajectory BENCH_compile.json: one benchjson snapshot (ns/op, B/op,
# allocs/op, shuttles/op) is APPENDED per run, so the file records the
# repo's per-PR performance history instead of only the latest numbers.
# After appending, the last two entries are diffed (cmd/benchdiff): ns/op,
# B/op and allocs/op deltas side by side, with B/op or allocs/op rises past
# 5% and ns/op rises past 10% flagged. The diff here never fails the
# script; CI gates on the B/op and allocs/op columns (benchdiff -gate).
#
# Usage:
#   scripts/bench.sh                 # append a snapshot to BENCH_compile.json
#   BENCH_PATTERN='.' scripts/bench.sh        # run everything
#   BENCH_OUT=/tmp/b.json scripts/bench.sh    # alternate trajectory path
#   BENCH_TIME=5x scripts/bench.sh            # alternate -benchtime
#   BENCH_NOTE='...' scripts/bench.sh         # context embedded in the entry
#
# The default selection is the compile-path benchmarks whose trajectory the
# repo tracks: the Table II/III compiles (the paper artifacts) and the public
# Pipeline entry points. CI runs this, uploads the JSON as an artifact and
# gates on B/op and allocs/op against the committed trajectory; ns/op from
# different hosts is comparable only to itself.
set -eu

cd "$(dirname "$0")/.."

PATTERN="${BENCH_PATTERN:-BenchmarkTableII$|BenchmarkTableIIRandom|BenchmarkTableIII|BenchmarkPipelineCompileQFT16|BenchmarkFig2DAGBuild}"
OUT="${BENCH_OUT:-BENCH_compile.json}"
TIME="${BENCH_TIME:-3x}"

TXT="$(mktemp)"
SNAP="$(mktemp)"
trap 'rm -f "$TXT" "$SNAP"' EXIT

go test -run '^$' -bench "$PATTERN" -benchmem -benchtime "$TIME" . | tee "$TXT"
go run ./cmd/benchjson -note "${BENCH_NOTE:-}" < "$TXT" > "$SNAP"
go run ./cmd/benchdiff -append "$SNAP" "$OUT"
# Non-gating trajectory diff against the previous entry, if there is one.
go run ./cmd/benchdiff "$OUT" || true
echo "wrote $OUT"
