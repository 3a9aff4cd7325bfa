#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload session --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. The build cache, the binary and the result
# files stay under ${CARGO_TARGET_DIR:-.bench_build}; nothing outside the
# checkout is written and no network is used.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
build="${CARGO_TARGET_DIR:-$root/.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/perfbench" "$build/tmp"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
export GOTELEMETRY=off

(cd "$here" && go build -o "$build/perfbench/perfbench" .)
exec "$build/perfbench/perfbench" --out "$build/perfbench" "$@"
