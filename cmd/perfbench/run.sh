#!/usr/bin/env bash
# Builds cmd/perfbench from source and runs it with the given arguments:
#
#   bash cmd/perfbench/run.sh --workload serve --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. The build cache, the binary and every
# file the benchmark writes stay under .bench_build/ in that directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
(
	cd "$root/cmd/perfbench"
	GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
		XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= \
		go build -o "$out/perfbench" .
)
exec "$out/perfbench" "$@"
