#!/usr/bin/env bash
# Builds the serving benchmark from the checkout it sits in and runs one
# workload. Run from the checkout root:
#
#   bash sgperf/run.sh --workload point-json-d3l5 --seed 1 --seconds 10 --trace 0
#
# Build products, the Go build cache, scratch grids and span dumps all
# stay under $CARGO_TARGET_DIR (default .bench_build) in the checkout.
# Compiler output goes to stderr so the last stdout line is the result.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command keeps telemetry under the user config directory.
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off

(cd "$here" && go build -o "$out/sgperf" .) >&2
exec "$out/sgperf" -out "$out" "$@"
