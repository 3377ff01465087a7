#!/usr/bin/env bash
# Smoke test of the trace-driven workload engine (bin/workload.exe).
#
# Three parts:
#   1. determinism: a small three-arm study run twice with the same seed must
#      produce byte-identical CSV comparison tables;
#   2. trace round-trip: --save-trace followed by --replay of the written
#      file must reproduce the direct run's CSV byte-for-byte;
#   3. worker independence: the same study with --jobs 3 must not change a
#      single byte of the CSV.
#
# Binaries are expected to be built already (make workload-smoke builds
# first).
set -euo pipefail
SMOKE_PREFIX="workload-smoke: "
. "$(dirname "$0")/smoke_lib.sh"

WORKLOAD=_build/default/bin/workload.exe

PROFILE=mixed:jobs=24,tenants=3,rate=0.08,seed=11
ARMS=delta,hcpa,packing

run() { # $1 = csv path, extra args follow
    local csv=$1
    shift
    "$WORKLOAD" --cluster grillon --profile "$PROFILE" --arms "$ARMS" \
        --queue-limit 16 --tenant-limit 8 --deadline 400 \
        --csv "$csv" "$@" > /dev/null
}

# --- 1. same seed, same bytes --------------------------------------------- #

run "$WORK/a.csv"
run "$WORK/b.csv"
same_bytes "$WORK/a.csv" "$WORK/b.csv" "same-seed reruns differ"
grep -q '^profile,arm,jobs,' "$WORK/a.csv" || fail "CSV header missing"
for arm in delta hcpa packing; do
    grep -q ",$arm," "$WORK/a.csv" || fail "no $arm row in the CSV"
done

# --- 2. save-trace / replay round-trip ------------------------------------ #

run "$WORK/direct.csv" --save-trace "$WORK/trace.jsonl"
run "$WORK/replayed.csv" --replay "$WORK/trace.jsonl"
same_bytes "$WORK/direct.csv" "$WORK/replayed.csv" \
    "replayed trace changed the study result"

# --- 3. worker count never affects results -------------------------------- #

run "$WORK/j3.csv" --jobs 3
same_bytes "$WORK/a.csv" "$WORK/j3.csv" "--jobs 3 changed the study result"

echo "workload-smoke: OK (determinism, trace round-trip, worker independence)"
