#!/usr/bin/env bash
# Builds and runs the repository benchmark from the repository root:
#
#   bash perfbench/run.sh --workload kron --seed 1 --seconds 40 --trace 0
#
# --workload all runs every workload in turn. Everything the build and
# the runs write stays under .bench_build/ (Go build cache included).
set -euo pipefail

root=$(pwd)
bench="$root/perfbench"
out="$root/.bench_build"
if [[ ! -f "$bench/go.mod" || ! -f "$root/go.mod" ]]; then
	echo "perfbench: run from the repository root (perfbench/go.mod and go.mod are needed)" >&2
	exit 2
fi
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off
(cd "$bench" && go build -o "$out/bin/perfbench" .) >&2

args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
	if [[ "${args[i]}" == "--workload" && "${args[i + 1]:-}" == "all" ]]; then
		for w in kron urand; do
			args[i + 1]=$w
			"$out/bin/perfbench" "${args[@]}"
		done
		exit 0
	fi
done
exec "$out/bin/perfbench" "$@"
