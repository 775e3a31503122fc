#!/usr/bin/env bash
# Builds starperfd and the load benchmark from this checkout, then runs
# the benchmark with the given arguments (see main.go for the flags):
#
#   bash perfbench/run.sh --workload hit-mix --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Every build product, the Go build
# cache and the daemons' journals stay under .bench_build/ (or
# $CARGO_TARGET_DIR when set) inside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/starperfd" ]]; then
	echo "run.sh: $root is not a starperf checkout (no go.mod or cmd/starperfd)" >&2
	exit 2
fi
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/gocache" "$build/gotmp"

export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" TMPDIR="$build/gotmp" GOMODCACHE="$build/gomodcache"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOPROXY=off

go build -o "$build/starperfd" ./cmd/starperfd
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" -daemon "$build/starperfd" -workdir "$build" "$@"
