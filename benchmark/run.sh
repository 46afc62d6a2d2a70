#!/usr/bin/env bash
# Builds the benchmark inside the checkout it is run from and runs it;
# every argument passes through. Run from the repository root:
#
#   bash benchmark/run.sh --workload file_serial --seed 12 --seconds 10 --trace 0
#
# The build cache, the binary and the run's temporary files all live
# under .bench_build/ in the current directory, so nothing is read or
# written outside the checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTOOLCHAIN=local
(cd "$(dirname "$0")" && go build -o "$build/perfq-benchmark" .)
exec "$build/perfq-benchmark" -tmp "$build" "$@"
