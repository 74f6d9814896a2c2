#!/usr/bin/env bash
# Builds zlb-node and the perfbench harness from the checkout in the
# current directory, then runs one workload:
#
#   bash perfbench/run.sh --workload tcp-saturate --seed 1 --seconds 45 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout (Go build cache included). Build output goes to stderr; the
# last line of stdout is the result JSON.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/zlb-node" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a zlb checkout" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
go build -o "$build/bin/zlb-node" ./cmd/zlb-node >&2
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" -root "$root" "$@"
