#!/usr/bin/env bash
# Builds the dvperf harness and runs it from the repository root; every
# argument is passed through, e.g.
#
#   bash bench/run.sh --workload check-direct --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files, binaries, the fixture cache and
# traces all live under .bench_build/ in the repository, so a run touches
# nothing outside it. The first run compiles the standard library into
# that cache (about 20 s on 2 CPUs) and trains the fixture (about 10 s).
set -euo pipefail
cd "$(dirname "$0")/.."
work="$PWD/.bench_build"
mkdir -p "$work/tmp"
export GOCACHE="$work/gocache" GOTMPDIR="$work/tmp" TMPDIR="$work/tmp" GOTOOLCHAIN=local GOWORK=off
(cd bench && go build -o "$work/dvperf" ./dvperf)
exec "$work/dvperf" -work "$work" "$@"
