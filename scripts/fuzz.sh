#!/bin/sh
# Fuzz every target in the tree for FUZZTIME each (default 5s): the
# untrusted-input parsers (event files, profiles, .sasm programs), the
# batched classifier against its scalar reference, and the streaming
# critical-path analyzer. scripts/check.sh and `make fuzz` both run this
# list, so a new fuzz target is added here once.
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
fuzz FuzzBatchedClassifier ./internal/core
fuzz FuzzAnalyzeReader ./internal/critpath
fuzz FuzzAssemble ./internal/vm
