#!/bin/sh
# Full pre-merge check: vet, build, race-enabled tests, the benchmark's
# smoke test, shakeouts of the classification worker, the parallel
# experiments suite and the parallel event-file decoder, and a short fuzz
# smoke over every fuzz target (scripts/fuzz.sh).
set -eu
cd "$(dirname "$0")/.."

FUZZTIME="${FUZZTIME:-5s}"

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed:"
    echo "$unformatted"
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== sigil-lint (5 analyzers incl. hotalloc/goleak)"
go run ./cmd/sigil-lint ./...

echo "== sigil-lint -vm (static program verifier over checked-in assembly)"
go run ./cmd/sigil-lint -vm examples/asm/*.sasm

echo "== vm verify (every registry workload at every class)"
go test -count=1 -run 'TestAllWorkloadsVerify' ./internal/workloads

echo "== go test -race"
go test -race ./...

echo "== perfbench smoke (its own module: profile and event-file digests of every workload)"
(cd perfbench && go test ./...)

echo "== classification worker shakeout (-race: worker = inline, joined on every exit)"
go test -race -count=10 -run 'TestWorkerMatchesInline|TestWorkerJoinedOnEveryExit' ./internal/core

echo "== reference differentials on both schedules (GOMAXPROCS 1 inline, 2 worker)"
go test -cpu 1,2 -run 'TestDifferentialAgainstReference|TestBatchedMatchesScalarOnWorkloads|TestCommunicationIndependentOfSubstrate' ./internal/core

echo "== experiments worker-pool shakeout (-race, uncached)"
go test -race -count=1 -run 'TestProfileSingleflight|TestParallelSuite|TestRunPool' ./internal/experiments

echo "== parallel decode shakeout (-race: frame buffers recycled between merge and workers)"
go test -race -count=10 -run 'TestV3MultiFrameRoundTrip|TestParallelCorruptFrame' ./internal/trace

echo "== chaos sweep (short; scripts/chaos.sh runs the full matrix)"
go test -short -count=1 -run TestChaos ./internal/chaos

echo "== fuzz smoke ($FUZZTIME each, every target)"
FUZZTIME="$FUZZTIME" sh scripts/fuzz.sh

echo "== bench smoke (scratch output; committed BENCH_N.json untouched)"
OUT="$(mktemp)" BENCHTIME=1x sh scripts/bench.sh 'AblationTelemetry' > /dev/null

echo "== all checks passed"
