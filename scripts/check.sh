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

# Ten runs in five test binaries: one count takes about 100 s under -race
# with the substrate-profile oracle, so ten in one binary would outlast go
# test's default 10-minute timeout.
echo "== classification worker shakeout (-race, 5 x 2 runs: worker = inline, joined on every exit, sink panics on both schedules, substrate profile = Callgrind alone, chunk buffers stocked across goroutines)"
for part in 1 2 3 4 5; do
    go test -race -count=2 -run 'TestWorkerMatchesInline|TestWorkerJoinedOnEveryExit|TestOpsConservedAtCallBoundaries|TestProfileMatchesCallgrind|TestStockedChunks' ./internal/core
done

echo "== reference differentials on both schedules (GOMAXPROCS 1 inline, 2 worker)"
go test -cpu 1,2 -run 'TestDifferentialAgainstReference|TestWrappingAccessClassified|TestCommunicationIndependentOfSubstrate|TestProfileMatchesCallgrind' ./internal/core

echo "== experiments worker-pool shakeout (-race, uncached: every counter's run-span delta reconciled with the final snapshot at -p 1 and -p 4)"
go test -race -count=1 -run 'TestProfileSingleflight|TestParallelSuite|TestRunPool|TestSpanTreesReconcile' ./internal/experiments

echo "== parallel decode shakeout (-race: frame slots recycled between the fetch loop and the workers, for ReadAll and Salvage)"
go test -race -count=10 -run 'TestV3MultiFrameRoundTrip|TestParallelCorruptFrame|TestSalvageQuarantinesCorruptMidStreamFrame|TestSalvageQuarantineThenTruncation' ./internal/trace

echo "== chaos sweep (short, inline and on the worker; scripts/chaos.sh runs the full matrix)"
go test -short -count=1 -cpu 1,2 -run TestChaos ./internal/chaos

echo "== fuzz smoke ($FUZZTIME each, every target)"
FUZZTIME="$FUZZTIME" sh scripts/fuzz.sh

echo "== bench smoke (scratch output; committed BENCH_N.json untouched)"
OUT="$(mktemp)" BENCHTIME=1x sh scripts/bench.sh 'AblationTelemetry' > /dev/null

echo "== all checks passed"
