#!/usr/bin/env bash
# Smoke test of crash-resumable sweeps and of bench's exit status under
# faults (bench/main.exe).
#
# Two parts:
#   1. resume: a cold smoke fig2 (cache off, so the journal is the only
#      persistence) is slowed by a delay fault on every unit, so the
#      SIGKILL at 4 s always lands mid-sweep; `fig2 --resume` must then
#      replay some but not all of the 149 configurations from the journal
#      (0 < resumed < 149) and write bench_results/naive_grillon.csv byte
#      for byte;
#   2. exit status: under a crash on every unit, `ablations` and `table4`
#      must complete and exit 1 with their faults: line, never die with an
#      uncaught exception (125).
#
# Runs in a temp directory, so the committed BENCH_runtime.json, cache,
# journal and CSVs stay untouched. Binaries are expected to be built
# already (make bench-resume-smoke builds first).
set -euo pipefail
SMOKE_PREFIX="resume-smoke: "
. "$(dirname "$0")/smoke_lib.sh"

BENCH=$PWD/_build/default/bench/main.exe
GOLDEN=$PWD/bench_results/naive_grillon.csv
cd "$WORK"

# --- 1. kill mid-sweep, then resume ---------------------------------------- #

# Every unit sleeps 0.2 s before it computes, so two workers finish at most
# 40 of the 149 configurations in 4 s, however fast the machine is. The
# group's stderr hides the shell's "Killed" notice.
status=0
{
    RATS_SCALE=smoke RATS_CACHE=off RATS_FAULT=delay@worker=1,delay_s=0.2 \
        timeout -s KILL 4 "$BENCH" fig2 -j 2 >killed.log 2>&1 || status=$?
} 2>/dev/null
[ "$status" = 137 ] || fail "the slowed fig2 run was not killed (exit $status)"

RATS_SCALE=smoke RATS_CACHE=off "$BENCH" fig2 --resume -j 2 \
    >resumed.log 2>/dev/null || fail "the resumed fig2 run failed"
resumed=$(sed -n 's/^faults: 0 failed, 0 retried, \([0-9]*\) resumed$/\1/p' \
    resumed.log)
[ -n "$resumed" ] || fail "the resumed run reports no resumed records"
[ "$resumed" -gt 0 ] && [ "$resumed" -lt 149 ] ||
    fail "resumed $resumed of 149 records; expected some but not all"
same_bytes bench_results/naive_grillon.csv "$GOLDEN" \
    "the resumed run's CSV differs from $GOLDEN"

# --- 2. a crash on every unit exits 1 -------------------------------------- #

for target in ablations table4; do
    status=0
    RATS_SCALE=smoke RATS_CACHE=off RATS_JOURNAL=off RATS_FAULT=crash@worker=1 \
        "$BENCH" "$target" >"$target.log" 2>&1 || status=$?
    [ "$status" = 1 ] ||
        fail "$target under crash@worker=1 exited $status, expected 1"
    grep -q '^faults: [1-9][0-9]* failed' "$target.log" ||
        fail "$target under crash@worker=1 printed no faults: line"
done

echo "resume-smoke: ok ($resumed of 149 configurations resumed)"
