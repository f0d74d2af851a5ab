#!/usr/bin/env bash
# Repository benchmark entry point. Run from the repository root:
#
#   bash perfbench/run.sh --workload build-select --seed 1 --seconds 30 --trace 0
#
# It builds the benchmark program and cmd/guiserve from the checkout's own
# sources, then hands every argument to the program. Build outputs, the Go
# build cache and all temporary inputs and state directories stay under
# $CARGO_TARGET_DIR (default .bench_build), so a run writes nothing outside
# the checkout. Outside a full checkout the build fails and the script exits
# non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" . && go build -o "$out/guiserve" repro/cmd/guiserve)
exec "$out/perfbench" -guiserve "$out/guiserve" -tmp "$out/tmp" "$@"
