#!/usr/bin/env bash
# Judges the checkout's speed against a base revision with potbench:
# seed-paired runs of sim-8x8 and mesh-32x32 (seeds 1-10), alternating
# by seed which tree runs first, then `potbench compare`. It exits
# non-zero when a run fails (an output check included) or when a metric's
# median is worse than the base's by more than its BENCHMARK.json bound.
#
#   bash bench/pairs.sh BASE     # BASE is a git revision, e.g. HEAD~1
#
# Run it from the repository root of a git checkout. BASE is checked out
# as a detached worktree under .bench_build/pairs/, which gets the
# checkout's bench/potbench and BENCHMARK.json, so both sides run the
# same benchmark code; the worktree is removed on exit. The runs files
# stay in .bench_build/pairs/ (base.json, head.json).
set -euo pipefail

if [[ $# -ne 1 ]]; then
	echo "usage: bash bench/pairs.sh BASE" >&2
	exit 2
fi
if [[ ! -f BENCHMARK.json || ! -f bench/potbench/run.sh ]]; then
	echo "pairs: run from the repository root (need BENCHMARK.json and bench/potbench)" >&2
	exit 2
fi
base=$(git rev-parse --verify --quiet "$1^{commit}") || {
	echo "pairs: $1 is not a commit" >&2
	exit 2
}
seconds=$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' BENCHMARK.json)
if [[ -z $seconds ]]; then
	echo "pairs: BENCHMARK.json has no run_seconds" >&2
	exit 2
fi

out=$PWD/.bench_build/pairs
wt=$out/base
cleanup() {
	{
		git worktree remove --force "$wt" 2>/dev/null || rm -rf "$wt"
		git worktree prune
	} || true
}
cleanup
trap cleanup EXIT
mkdir -p "$out"
git worktree add --quiet --detach "$wt" "$base"
rm -rf "$wt/bench/potbench"
mkdir -p "$wt/bench"
cp -R bench/potbench "$wt/bench/potbench"
cp BENCHMARK.json "$wt/BENCHMARK.json"

declare -A runs=([base]="" [head]="")
for seed in $(seq 1 10); do
	order="base head"
	if ((seed % 2 == 0)); then
		order="head base"
	fi
	for workload in sim-8x8 mesh-32x32; do
		for side in $order; do
			dir=$PWD
			if [[ $side == base ]]; then
				dir=$wt
			fi
			echo "== $side $workload seed=$seed"
			if ! res=$(cd "$dir" && bash bench/potbench/run.sh --workload "$workload" \
				--seed "$seed" --seconds "$seconds" --trace 0); then
				printf '%s\n' "$res"
				echo "pairs: $side $workload seed $seed failed" >&2
				exit 1
			fi
			printf '%s\n' "$res"
			rec="{\"set\":\"$side\",\"workload\":\"$workload\",\"seed\":$seed,\"trace\":false,\"result\":${res##*$'\n'}}"
			runs[$side]+="${runs[$side]:+,}$rec"
		done
	done
done

runsfile() { printf '{"label":"%s","seconds":%s,"runs":[%s]}\n' "$1" "$seconds" "$2"; }
runsfile "base $(git rev-parse --short "$base")" "${runs[base]}" >"$out/base.json"
runsfile "head $(git describe --always --dirty)" "${runs[head]}" >"$out/head.json"
bash bench/potbench/run.sh compare -base "$out/base.json" -head "$out/head.json"
