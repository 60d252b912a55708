#!/usr/bin/env bash
# Builds the perfbench program from the checkout's sources and runs it with
# the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload paper-suite --seed 1 --seconds 10 --trace 0
#
# Every build artifact (binary, Go build cache, temporary files) stays under
# $CARGO_TARGET_DIR, default .bench_build, inside the checkout. The build
# needs the repository's own go.mod one directory up; without it the build
# fails and the script exits non-zero.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$(pwd)/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off
command -v go >/dev/null || export PATH="$PATH:/usr/local/go/bin"

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
