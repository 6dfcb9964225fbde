#!/bin/sh
# Runs the benchmark from the root of a checkout:
#
#   sh benchmarks/run.sh --workload scan-cold --seed 7 --seconds 10 --trace 0
#
# Everything the run writes — the Go build cache, the built binaries, the
# generated trace, the server's store — stays under .bench_build in the
# checkout. Without the program's source around it (go.mod, cmd/, internal/)
# the build below fails and the script exits non-zero without a result.
set -e
build="$(pwd)/.bench_build"
mkdir -p "$build/bin" "$build/gotmp" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" TMPDIR="$build/tmp"
go build -o "$build/bin/e2e" ./benchmarks/e2e
exec "$build/bin/e2e" "$@"
