#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload steady-benign --seed 42 --seconds 12 --trace 0
#
# The Go build cache, the binary, saved ensembles, checkpoints and span
# dumps all live under .bench_build/ in the current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -dir "$out/perfbench.d" "$@"
