#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload fig10-sens --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOWORK=off GOTOOLCHAIN=local GOFLAGS=
# The commit is recorded beside each run's metrics; outside a git
# checkout it reads "unknown".
PERFBENCH_COMMIT=$(git rev-parse HEAD 2>/dev/null || echo unknown)
export PERFBENCH_COMMIT
go -C perfbench build -buildvcs=false -o "$out/perfbench" .
exec "$out/perfbench" "$@"
