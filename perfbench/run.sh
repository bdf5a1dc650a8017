#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs one workload, e.g.
#
#   bash perfbench/run.sh --workload train --seed 1 --seconds 20 --trace 0
#
# The binary and the Go build cache live under .bench_build, so a run
# writes nothing outside the checkout. The build needs the repository
# around perfbench/; without it, it fails and the run exits non-zero.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
mkdir -p .bench_build/perfbench
go -C perfbench build -o "$root/.bench_build/perfbench/perfbench" .
exec .bench_build/perfbench/perfbench "$@"
