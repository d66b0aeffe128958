#!/bin/sh
# fuzz_short.sh - short fuzzing pass over the decoders users feed and the
# checkpoint round trip.  Each target runs for 10 seconds.  The fuzzer
# first replays its corpus ("gathering baseline coverage: N/N completed")
# and only then tries mutated inputs, so a target fails here not only when
# it finds a crash but also when its last "execs:" count is not above N:
# it spent its whole budget on the baseline.  Run from the repo root (make
# fuzz-short does).
set -eu

log=$(mktemp)
trap 'rm -f "$log"' EXIT

while read -r pkg target; do
    if ! go test "$pkg" -run '^$' -fuzz "^$target\$" -fuzztime 10s >"$log" 2>&1; then
        cat "$log"
        echo "fuzz-short: $target failed" >&2
        exit 1
    fi
    base=$(sed -n 's/.*gathering baseline coverage: \([0-9]*\)\/\1 completed.*/\1/p' "$log" | tail -1)
    execs=$(sed -n 's/.*execs: \([0-9]*\) .*/\1/p' "$log" | tail -1)
    if [ -z "$base" ] || [ -z "$execs" ] || [ "$execs" -le "$base" ]; then
        cat "$log"
        echo "fuzz-short: $target tried no mutated input (baseline ${base:-unfinished}, execs ${execs:-none})" >&2
        exit 1
    fi
    echo "fuzz-short: $target: baseline $base, execs $execs"
done <<EOF
./internal/cxl FuzzParseFaultPlan
./internal/workload FuzzReadTrace
./internal/obs FuzzReadBundle
./internal/core FuzzDecodeDigest
./internal/perf FuzzParseSpec
./internal/chaos FuzzParseReplaySpec
./internal/sim FuzzCheckpointRoundTrip
EOF
