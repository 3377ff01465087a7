#!/usr/bin/env bash
# Smoke test of the trace-driven workload engine (bin/workload.exe).
#
# Four parts:
#   1. determinism: a small three-arm study run twice with the same seed must
#      produce byte-identical CSV comparison tables;
#   2. trace round-trip: --save-trace followed by --replay of the written
#      file (ratsd's journal records, one submission per line) must
#      reproduce the direct run's CSV byte-for-byte; replaying a trace with
#      a negative share must be a one-line error (exit 2) naming the file
#      and the job, and one with a generated job of width 2 a one-line
#      error naming the file and the line, each before any arm runs; a
#      saved poisson:jobs=40 trace whose tenants are all renamed alice
#      must report all 40 jobs, in an alice row;
#   3. worker independence: the same study with --jobs 3 must not change a
#      single byte of the CSV;
#   4. output paths: --csv and --save-trace create missing parent
#      directories, and a parent that is a plain file is a one-line error
#      (exit 2) before any arm runs; --queue-limit 0 is a usage error
#      (exit 124) that writes no CSV.
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

sed '2s/"procs":[0-9]*/"procs":-5/' "$WORK/trace.jsonl" > "$WORK/procs.jsonl"
RC=0
run "$WORK/procs.csv" --replay "$WORK/procs.jsonl" 2> "$WORK/procs.err" || RC=$?
[ "$RC" -eq 2 ] || fail "replay of a negative share: exit $RC, not 2"
[ "$(wc -l < "$WORK/procs.err")" -eq 1 ] \
    && grep -q "^workload: $WORK/procs.jsonl: job 2 (.*): procs must be non-negative" \
        "$WORK/procs.err" \
    || fail "a negative share was not a one-line workload: error naming the job"
[ ! -e "$WORK/procs.csv" ] || fail "an arm ran on a trace with a bad job"

LINE=$(grep -n -m1 '"kind":"\(layered\|irregular\)"' "$WORK/trace.jsonl" | cut -d: -f1)
[ -n "$LINE" ] || fail "the saved trace holds no layered or irregular job"
sed "${LINE}s/\"width\":[^,]*/\"width\":2/" "$WORK/trace.jsonl" > "$WORK/width.jsonl"
RC=0
run "$WORK/width.csv" --replay "$WORK/width.jsonl" 2> "$WORK/width.err" || RC=$?
[ "$RC" -eq 2 ] || fail "replay of a width-2 shape: exit $RC, not 2"
[ "$(cat "$WORK/width.err")" = \
    "workload: $WORK/width.jsonl:$LINE: Shape.make: width outside (0,1]" ] \
    || fail "a width-2 shape was not one workload: error naming file and line"
[ ! -e "$WORK/width.csv" ] || fail "an arm ran on a trace with a bad shape"

# Tenants the profile does not name still get counted, in their own rows.
"$WORKLOAD" --profile poisson:jobs=40 --save-trace "$WORK/p40.jsonl" \
    > /dev/null
sed 's/"tenant":"[^"]*"/"tenant":"alice"/' "$WORK/p40.jsonl" > "$WORK/alice.jsonl"
"$WORKLOAD" --profile poisson:jobs=40 --arms hcpa --replay "$WORK/alice.jsonl" \
    --csv "$WORK/alice.csv" > "$WORK/alice.out"
[ "$(cut -d, -f3 "$WORK/alice.csv" | tail -n 1)" = 40 ] \
    || fail "a replay with renamed tenants did not count its 40 jobs"
grep -q '^  alice  *submitted  40 ' "$WORK/alice.out" \
    || fail "a replay with renamed tenants printed no alice row"

# --- 3. worker count never affects results -------------------------------- #

run "$WORK/j3.csv" --jobs 3
same_bytes "$WORK/a.csv" "$WORK/j3.csv" "--jobs 3 changed the study result"

# --- 4. output files in directories that do not exist yet ---------------- #

"$WORKLOAD" --profile poisson:jobs=4 --arms hcpa --csv "$WORK/a/b/w.csv" \
    > /dev/null
[ -s "$WORK/a/b/w.csv" ] || fail "--csv did not create its directories"
"$WORKLOAD" --profile poisson:jobs=4 --arms hcpa \
    --save-trace "$WORK/c/d/t.jsonl" > /dev/null
[ -s "$WORK/c/d/t.jsonl" ] || fail "--save-trace did not create its directories"
touch "$WORK/plain"
RC=0
"$WORKLOAD" --profile poisson:jobs=4 --arms hcpa --csv "$WORK/plain/w.csv" \
    > "$WORK/plain.out" 2> "$WORK/plain.err" || RC=$?
[ "$RC" -eq 2 ] || fail "--csv under a plain file: exit $RC, not 2"
[ "$(cat "$WORK/plain.err")" = "workload: $WORK/plain: Not a directory" ] \
    || fail "--csv under a plain file was not one workload: line"
[ ! -s "$WORK/plain.out" ] || fail "an arm ran before the --csv path was checked"
RC=0
"$WORKLOAD" --profile poisson:jobs=2 --arms hcpa --queue-limit 0 \
    --csv "$WORK/q.csv" > /dev/null 2> "$WORK/q.err" || RC=$?
[ "$RC" -eq 124 ] || fail "--queue-limit 0: exit $RC, not 124"
grep -q '^workload: --queue-limit: ' "$WORK/q.err" \
    || fail "--queue-limit 0 was not a usage error"
[ ! -e "$WORK/q.csv" ] || fail "--queue-limit 0 wrote a CSV"

echo "workload-smoke: OK (determinism, trace round-trip, worker independence, output paths, admission flags)"
