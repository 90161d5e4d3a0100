#!/bin/sh
# Fuzz every target in the tree for FUZZTIME each (default 5s): the
# untrusted-input parsers (event files, profiles, .sasm programs), the
# classifier against the map-based reference in every mode (byte, re-use,
# line, and re-use and line under FIFO chunk eviction, each with events),
# and the critical-path analysis against its map-based reference on
# synthetic event streams, with the scheduler's invariants. scripts/check.sh
# and `make fuzz` both run this list, so a new fuzz target is added here
# once.
#
# While `go test -fuzz` minimizes an input that found new coverage, the
# classifier target's exec counter can stay still for many seconds; that
# is not a hang.
set -eu
cd "$(dirname "$0")/.."

FUZZTIME="${FUZZTIME:-5s}"

fuzz() {
    echo "-- $1 ($2)"
    go test -run '^$' -fuzz "^$1\$" -fuzztime "$FUZZTIME" "$2"
}

fuzz FuzzReader ./internal/trace
fuzz FuzzFrameReader ./internal/trace
fuzz FuzzQuarantineReader ./internal/trace
fuzz FuzzReadProfile ./internal/core
fuzz FuzzClassifierAgainstReference ./internal/core
fuzz FuzzAnalyze ./internal/critpath
fuzz FuzzAssemble ./internal/vm
