#!/bin/sh
# Run the performance benchmarks and write a BENCH_N.json: a map from
# benchmark name to ns/op and bytes/op, so successive PRs can be diffed.
# Covers the ablation benches (root package), the shadow-memory hot-path
# microbenches (internal/core), and the event-file emit/decode
# microbenches (internal/trace). The raw native/callgrind/sigil costs are
# the perfbench ladder's (perfbench/README.md).
#
# Usage:
#   scripts/bench.sh [regexp]              run benches (default pattern below),
#                                          write $OUT (default
#                                          .bench_build/bench.json, which git
#                                          ignores; name a BENCH_N.json in OUT
#                                          to record a committed entry)
#   scripts/bench.sh compare OLD NEW       diff two bench JSON files; exits 1
#                                          if any shared benchmark regressed
#                                          >10% in ns/op or >25% in bytes/op
#                                          (allocation bloat regressions —
#                                          e.g. scratch buffers falling out
#                                          of a pool — fail the gate even
#                                          when ns/op still passes); a name
#                                          in one file only is not compared,
#                                          and gets an "only in OLD: NAME"
#                                          or "only in NEW: NAME" line
#
# When the run covers the BenchmarkAblationTracing pair, the script also
# gates the tracing overhead: the spans-enabled run must land within
# TRACING_GATE_PCT (default 3) percent of the spans-disabled run.
set -eu
cd "$(dirname "$0")/.."

if [ "${1:-}" = "compare" ]; then
    old="${2:?usage: bench.sh compare OLD.json NEW.json}"
    new="${3:?usage: bench.sh compare OLD.json NEW.json}"
    awk -v oldfile="$old" -v newfile="$new" '
    function parse(file, arr, barr, ord,    line, name, ns, by, n) {
        n = 0
        while ((getline line < file) > 0) {
            if (match(line, /"[^"]+": \{"ns_per_op": [0-9.]+/)) {
                split(line, parts, "\"")
                name = parts[2]
                match(line, /"ns_per_op": [0-9.]+/)
                ns = substr(line, RSTART + 13, RLENGTH - 13)
                arr[name] = ns + 0
                ord[++n] = name
                if (match(line, /"bytes_per_op": [0-9.]+/)) {
                    by = substr(line, RSTART + 16, RLENGTH - 16)
                    barr[name] = by + 0
                }
            }
        }
        close(file)
        return n
    }
    BEGIN {
        nold = parse(oldfile, oldns, oldby, oldord)
        nnew = parse(newfile, newns, newby, neword)
        for (i = 1; i <= nold; i++)
            if (!(oldord[i] in newns)) print "only in OLD: " oldord[i]
        for (i = 1; i <= nnew; i++)
            if (!(neword[i] in oldns)) print "only in NEW: " neword[i]
        shared = 0; regressed = 0
        printf "%-60s %12s %12s %8s\n", "benchmark", "old ns/op", "new ns/op", "delta"
        for (name in newns) {
            if (!(name in oldns)) continue
            shared++
            delta = (newns[name] - oldns[name]) / oldns[name] * 100
            flag = ""
            if (delta > 10) { flag = "  REGRESSION"; regressed++ }
            printf "%-60s %12.0f %12.0f %+7.1f%%%s\n", name, oldns[name], newns[name], delta, flag
            # Allocation gate: bytes/op regressions past 25% (on benches
            # big enough for the delta to mean something) fail even when
            # ns/op holds — pooled buffers leaving the pool show up here
            # long before they cost visible time.
            if ((name in oldby) && (name in newby) && oldby[name] >= 1024) {
                bdelta = (newby[name] - oldby[name]) / oldby[name] * 100
                if (bdelta > 25) {
                    printf "%-60s %12.0f %12.0f %+7.1f%%  ALLOC REGRESSION (bytes/op)\n", name, oldby[name], newby[name], bdelta
                    regressed++
                }
            }
        }
        if (shared == 0) {
            print "no shared benchmarks between " oldfile " and " newfile
            exit 1
        }
        if (regressed > 0) {
            print regressed " benchmark(s) regressed (>10% ns/op or >25% bytes/op)"
            exit 1
        }
        print "no regressions across " shared " shared benchmark(s) (ns/op and bytes/op)"
    }'
    exit $?
fi

PATTERN="${1:-Ablation|MemRead|MemWrite|Shadow|TraceEmit|TraceDecode}"
BENCHTIME="${BENCHTIME:-1x}"
OUT="${OUT:-.bench_build/bench.json}"
mkdir -p "$(dirname "$OUT")"

raw=$(go test -run '^$' -bench "$PATTERN" -benchtime "$BENCHTIME" . ./internal/core ./internal/trace)
echo "$raw"

echo "$raw" | awk '
BEGIN { print "{"; n = 0 }
$1 ~ /^Benchmark/ {
    name = $1
    ns = ""; bytes = ""
    for (i = 2; i <= NF; i++) {
        if ($(i) == "ns/op")  ns = $(i - 1)
        if ($(i) == "B/op")   bytes = $(i - 1)
    }
    if (ns == "") next
    if (n > 0) printf ",\n"
    printf "  \"%s\": {\"ns_per_op\": %s", name, ns
    if (bytes != "") printf ", \"bytes_per_op\": %s", bytes
    printf "}"
    n++
}
END { print "\n}" }
' > "$OUT"

echo "wrote $OUT"

# Lint-runtime budget: the full-tree analyzer suite (per-function CFG
# construction and all) must stay fast enough to sit in the pre-commit
# loop. Budget in seconds, wall clock, including the driver
# build.
LINT_BUDGET_S="${LINT_BUDGET_S:-30}"
lint_start=$(date +%s)
go run ./cmd/sigil-lint ./... > /dev/null
lint_end=$(date +%s)
lint_elapsed=$((lint_end - lint_start))
echo "lint runtime: ${lint_elapsed}s (budget ${LINT_BUDGET_S}s)"
if [ "$lint_elapsed" -gt "$LINT_BUDGET_S" ]; then
    echo "LINT RUNTIME BUDGET EXCEEDED"
    exit 1
fi

# Tracing-overhead gate: when this run measured the AblationTracing pair,
# require the spans-enabled ablation within TRACING_GATE_PCT of disabled.
TRACING_GATE_PCT="${TRACING_GATE_PCT:-3}"
echo "$raw" | awk -v gate="$TRACING_GATE_PCT" '
$1 ~ /^BenchmarkAblationTracing\/tracing=false/ { for (i = 2; i <= NF; i++) if ($(i) == "ns/op") off = $(i - 1) }
$1 ~ /^BenchmarkAblationTracing\/tracing=true/  { for (i = 2; i <= NF; i++) if ($(i) == "ns/op") on = $(i - 1) }
END {
    if (off == "" || on == "") exit 0  # pair not in this run
    delta = (on - off) / off * 100
    printf "tracing overhead: %.0f ns/op -> %.0f ns/op (%+.2f%%, gate %s%%)\n", off, on, delta, gate
    if (delta > gate + 0) {
        print "TRACING OVERHEAD GATE FAILED"
        exit 1
    }
}'
