#!/usr/bin/env bash
# Builds potbench from the checkout it is run in and runs it with the
# given arguments, e.g.
#
#   bash bench/potbench/run.sh --workload sim-8x8 --seed 1 --seconds 12 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write (Go build cache, temporary files, traced runs' spans) stays
# under .bench_build/ in that directory.
set -euo pipefail

bench=bench/potbench
if [[ ! -f go.mod || ! -f $bench/go.mod ]] || ! grep -q '^module potsim$' go.mod; then
	echo "potbench: run from the root of a potsim checkout (need go.mod and $bench/go.mod)" >&2
	exit 2
fi

out=$PWD/.bench_build
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath \
	XDG_CONFIG_HOME=$out/config TMPDIR=$out/tmp GOTOOLCHAIN=local GOPROXY=off
(cd "$bench" && go build -o "$out/potbench" .)
exec "$out/potbench" "$@"
