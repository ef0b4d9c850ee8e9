#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Invoke from the repository
# root:  bash perfbench/run.sh --workload peak --seed 7 --seconds 25 --trace 0
# The build cache, the binary and trace files stay under .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS= \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
