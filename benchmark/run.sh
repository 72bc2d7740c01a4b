#!/usr/bin/env bash
# Acceptance-driver entry point, run from the repository root:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Builds nabench from source into .bench_build/ (build cache included, so
# nothing is written outside the checkout) and runs it with the arguments
# given. Without arguments it is the full run: go run -C benchmark ./cmd/nabench.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/benchmark/cmd/nabench" ]; then
	echo "run.sh: start me from the repository root (no go.mod or benchmark/cmd/nabench here)" >&2
	exit 2
fi
mkdir -p "$root/.bench_build"
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local GOWORK=off
go build -C "$root/benchmark" -o "$root/.bench_build/nabench" ./cmd/nabench
exec "$root/.bench_build/nabench" "$@"
