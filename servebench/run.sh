#!/usr/bin/env bash
# Builds tivd and the serving benchmark from the sources of the checkout
# it is run in, then runs one workload:
#
#   bash servebench/run.sh --workload mono-uncached --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ in that root; build output goes to stderr so the
# last line of stdout is the benchmark's JSON result.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/tivd" ] || [ ! -f "$root/servebench/go.mod" ]; then
	echo "servebench: run from the repository root (needs go.mod, cmd/tivd and servebench/)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" HOME="$build/home"
export GOPATH="$build/home/go" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOWORK=off
unset GOOS GOARCH CGO_ENABLED

go build -o "$build/bin/tivd" ./cmd/tivd >&2
(cd "$root/servebench" && go build -o "$build/bin/servebench" .) >&2

exec "$build/bin/servebench" -tivd "$build/bin/tivd" -workdir "$build/tmp" "$@"
