#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it.
#
#   bash perfbench/run.sh --workload browse --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. The workload is browse, feed,
# supplier-sync, or "all", which runs each workload in its own process so
# peak memory and set-up time are never carried from one to the next.
# Everything the build and the runs write stays under the checkout:
# .bench_build (Go build cache, binary) and .perfbench_out (spans,
# profiles, scratch WAL directories).
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (needs go.mod and perfbench/go.mod)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)

args=("$@")
workload=""
for ((i = 0; i < ${#args[@]}; i++)); do
	if [ "${args[i]}" = "--workload" ] && [ $((i + 1)) -lt ${#args[@]} ]; then
		workload=${args[i + 1]}
		wi=$((i + 1))
	fi
done

if [ "$workload" != "all" ]; then
	exec "$build/perfbench" "$@"
fi

status=0
for w in browse feed supplier-sync; do
	args[wi]=$w
	"$build/perfbench" "${args[@]}" || status=1
done
exit "$status"
