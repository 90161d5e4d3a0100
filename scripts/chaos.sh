#!/bin/sh
# Full chaos sweep: replay every registered fault point (safeio pipeline,
# v3 trace writer, reader, FileSink finalization) against real workload
# runs in both output modes — callgrind dumps and sigil event files — and
# assert the survival contracts: a typed injected error with the previous
# artifact intact, or a salvageable stream whose recovered events are a
# prefix-with-gaps of the fault-free run with the loss exactly accounted.
set -eu
cd "$(dirname "$0")/.."

FUZZTIME="${FUZZTIME:-10s}"

echo "== chaos sweep (all workloads, all fault points)"
go test -count=1 -run TestChaos -v ./internal/chaos

echo "== chaos sweep under the race detector"
go test -race -count=1 -run TestChaos ./internal/chaos

echo "== degraded-mode and retry tests under the race detector"
go test -race -count=1 -run 'TestDegraded|TestRetry|TestStrictWriter|TestSalvageQuarantine' ./internal/trace

echo "== quarantine fuzz smoke ($FUZZTIME)"
go test -run '^$' -fuzz FuzzQuarantineReader -fuzztime "$FUZZTIME" ./internal/trace

echo "== chaos sweep passed"
