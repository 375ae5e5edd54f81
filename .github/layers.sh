#!/usr/bin/env bash
# Host-clock layer table. Profiles four go test targets — a TPC-B and a
# TPC-C run on the rig, a three-node cluster that loses its leader, and
# power-cut trials — and folds their CPU and allocated-bytes samples into
# each layer's share with `rapilog-trace -layers`: a sample is charged to the
# innermost repro/internal/<pkg> frame of its stack. Each target also gets a
# CPU column of its own, so the longest run does not set the pooled shares
# alone. Run it from the module root:
#
#   bash .github/layers.sh
#
# It uses the rapilog-trace on PATH when there is one (CI's instrumented
# build, so the coverage gate sees the fold entered), else `go run`. Host
# time is noisy: the table is for attribution, never a gate.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# name, package, test: each CPU profile's column is headed by its name.
targets=(
	"tpcb internal/rig ^TestRunOneDomainIsRunClients$"
	"tpcc internal/rig ^TestWorkloadTransactionAllocBound$/^tpcc$"
	"failover internal/rig ^TestClusterFailoverPowerCut$"
	"powercut internal/faultinject ^TestRunTrialReleasesItsSimulation$"
)
for t in "${targets[@]}"; do
	read -r name pkg run <<<"$t"
	go test -count=1 -run "$run" -o "$out/$name.test" \
		-cpuprofile "$out/$name.cpu" -memprofile "$out/$name.mem" -memprofilerate 4096 \
		"./$pkg" >/dev/null
	go tool pprof -traces "$out/$name.cpu" >"$out/$name.cpu.txt" 2>/dev/null
	go tool pprof -traces -sample_index=alloc_space "$out/$name.mem" >"$out/$name.mem.txt" 2>/dev/null
done

trace=(go run ./cmd/rapilog-trace)
if command -v rapilog-trace >/dev/null; then
	trace=(rapilog-trace)
fi
"${trace[@]}" -layers "$out"/*.txt
