#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it from the repository
# root. Everything the build leaves behind — binary and Go build cache —
# goes under .bench_build/, so nothing outside the checkout is written.
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash benchmark/run.sh --compare <A> <B>
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOWORK=off GOTOOLCHAIN=local
go build -C benchmark -o "$build/rapilog-benchmark" .
exec "$build/rapilog-benchmark" "$@"
