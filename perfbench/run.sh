#!/usr/bin/env bash
# Builds the benchmark from the checkout and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload paper-repro --seed 1 --seconds 15 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout, including the Go build cache.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal/registry || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root; the simulator sources are missing here" >&2
	exit 2
fi

out="$PWD/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/go-mod"
export GOFLAGS= GOTOOLCHAIN=local GOWORK=off GOPROXY=off CGO_ENABLED=0
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
