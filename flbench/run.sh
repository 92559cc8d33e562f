#!/usr/bin/env bash
# Builds the flbench benchmark from source and runs it, forwarding every
# argument. Run from the repository root:
#
#   bash flbench/run.sh --workload r18-fleet --seed 1 --seconds 15 --trace 0
#
# Everything the build and the runs write stays under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build): the Go build cache,
# temporary files, the binary, trajectory files and span logs. Build
# output goes to stderr, so the last stdout line is the result.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
out=$build/flbench
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/work"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd flbench && go build -o "$out/flbench" .) >&2
exec "$out/flbench" -dir "$out/work" "$@"
