#!/usr/bin/env bash
# Chaos soak test of the ratsd scheduling service: fault injection, kill -9
# mid-trace, overload shedding, queue-wait deadlines and slow-client
# eviction, all against one determinism oracle.
#
# Six phases (docs/SERVER.md "Failure semantics" documents the semantics
# each one exercises):
#   1. reference: an unfaulted daemon plays a Poisson load trace to
#      completion and answers stats; its event log (which must hold the
#      submitted/admitted/started/completed lifecycle) is the oracle for
#      phases 2 and 3;
#   2. chaos kill/resume: the same trace against a daemon with every delay
#      site armed at p=1 (journal.append, engine.step, replay.task), killed
#      -9 halfway through submission, restarted with --resume over the stale
#      socket, fed the rest of the trace — the final event log must be
#      byte-identical to the reference (delay faults stall the wall clock
#      only; simulated time must not notice);
#   3. slow-client isolation: a watcher that subscribes and then reads
#      nothing, against a daemon with a tiny --client-buffer; the load must
#      drain undisturbed (log again byte-identical), the watcher must be
#      evicted (health reports it) and exit cleanly;
#   4. overload + deadlines: a burst (rate 50) against queue-limit 4 with a
#      0.5 shed watermark and a 1 s queue-wait deadline — the log must show
#      overloaded rejections carrying retry_after hints and expired events;
#   5. hostile faults: corrupt@server.read + crash@server.client at p=0.3 —
#      individual connections die (clients see clean failures, not hangs),
#      the daemon itself must survive and still answer health;
#   6. load driver: ratsd --selftest (120 jobs from 4 tenants under both
#      RATS and HCPA) must pass its determinism check and report throughput;
#      a bad load parameter (--rate nan) must be a one-line usage error.
# Plus socket-claim checks woven in: a second daemon against a live socket
# must refuse to start, a stale socket after kill -9 must be reclaimed, and
# a non-socket path must never be unlinked.
#
# Binaries are expected to be built already (make chaos-smoke builds first).
set -euo pipefail
SMOKE_PREFIX="chaos-smoke: "
. "$(dirname "$0")/smoke_lib.sh"

RATSD=_build/default/bin/ratsd.exe
CLIENT=_build/default/bin/rats_client.exe
S=$WORK/ratsd.sock
DPID=0
WPID=0
JOBS=40
# Never pass pid 0 to kill: that signals the whole process group.
cleanup() {
    [ "$DPID" -gt 0 ] && kill -9 "$DPID" 2>/dev/null || true
    [ "$WPID" -gt 0 ] && kill -9 "$WPID" 2>/dev/null || true
}

wait_ready() { # wait for the daemon to answer a ping on its socket
    for _ in $(seq 1 100); do
        if [ -S "$S" ] && "$CLIENT" --socket "$S" --op ping --timeout 2 \
            >/dev/null 2>&1; then
            return 0
        fi
        sleep 0.1
    done
    fail "ratsd did not come up on $S"
}

# --- 1. reference run (the determinism oracle) ---------------------------- #

"$RATSD" --socket "$S" --journal-dir "$WORK/jref" &
DPID=$!
wait_ready
"$CLIENT" --socket "$S" --op load --load-jobs $JOBS --timeout 30 >/dev/null
"$CLIENT" --socket "$S" --op drain --timeout 60 | grep -q drained
"$CLIENT" --socket "$S" --op log --json --timeout 30 > "$WORK/ref.jsonl"
"$CLIENT" --socket "$S" --op stats --timeout 10 | grep -q '"completed"' \
    || fail "reference daemon did not answer stats"
"$CLIENT" --socket "$S" --op shutdown >/dev/null
wait $DPID 2>/dev/null || true
[ -s "$WORK/ref.jsonl" ] || fail "reference log is empty"
for ev in submitted admitted started completed; do
    grep -q "\"ev\":\"$ev\"" "$WORK/ref.jsonl" \
        || fail "no $ev event in the reference log"
done
echo "chaos-smoke: reference log captured ($(wc -l < "$WORK/ref.jsonl") events)"

# --- 2. chaos kill/resume under delay faults ------------------------------ #

# Every delay site fires on every visit; delay_s is small so the soak stays
# fast. Delay faults stall the daemon's wall clock only — if any of them
# leaked into simulated time, the diff below would catch it.
DELAYS="seed=5,delay_s=0.002,delay@journal.append=1,delay@engine.step=1"
DELAYS="$DELAYS,delay@replay.task=0.3"

rm -f "$S"
RATS_FAULT="$DELAYS" "$RATSD" --socket "$S" --journal-dir "$WORK/jchaos" \
    > "$WORK/chaos1.log" 2>&1 &
DPID=$!
wait_ready
grep -q "fault injection armed" "$WORK/chaos1.log" \
    || fail "daemon did not announce its fault spec"
"$CLIENT" --socket "$S" --op load --load-jobs $JOBS \
    --load-to $((JOBS / 2)) --timeout 30 >/dev/null

kill -9 $DPID
wait $DPID 2>/dev/null || true
[ -S "$S" ] || fail "expected a stale socket after kill -9"

# Restart over the stale socket: the claim probe must unlink and rebind.
RATS_FAULT="$DELAYS" "$RATSD" --socket "$S" --journal-dir "$WORK/jchaos" \
    --resume > "$WORK/chaos2.log" 2>&1 &
DPID=$!
wait_ready
grep -q "resumed $((JOBS / 2)) journaled submission" "$WORK/chaos2.log" \
    || fail "resume did not reload the journaled half of the trace"

# While it serves: a second daemon against the live socket must back off.
if "$RATSD" --socket "$S" --journal-dir "$WORK/jdup" 2> "$WORK/dup.err"; then
    fail "second daemon started over a live socket"
fi
grep -q "live daemon" "$WORK/dup.err" \
    || fail "live-socket refusal gave the wrong reason"

"$CLIENT" --socket "$S" --op load --load-jobs $JOBS \
    --load-from $((JOBS / 2)) --timeout 30 >/dev/null
"$CLIENT" --socket "$S" --op drain --timeout 120 | grep -q drained
"$CLIENT" --socket "$S" --op log --json --timeout 30 > "$WORK/chaos.jsonl"
"$CLIENT" --socket "$S" --op health --timeout 10 \
    | grep -q '"journal_writable":true' \
    || fail "journal died under delay faults"
"$CLIENT" --socket "$S" --op shutdown >/dev/null
wait $DPID 2>/dev/null || true

same_bytes "$WORK/ref.jsonl" "$WORK/chaos.jsonl" \
    "faulted kill/resume log differs from the reference"
echo "chaos-smoke: kill -9 + resume under delay faults is bit-exact"

# --- 3. slow-client isolation --------------------------------------------- #

rm -f "$S"
"$RATSD" --socket "$S" --journal-dir "$WORK/jslow" --client-buffer 4096 \
    2> "$WORK/slow.err" &
DPID=$!
wait_ready

# Subscribe, then read nothing: the event stream must back up against this
# client alone until its buffer budget evicts it.
"$CLIENT" --socket "$S" --op watch --stall 5 > "$WORK/watch.out" 2>&1 &
WPID=$!
sleep 0.5

"$CLIENT" --socket "$S" --op load --load-jobs $JOBS --timeout 30 >/dev/null
"$CLIENT" --socket "$S" --op drain --timeout 60 | grep -q drained
"$CLIENT" --socket "$S" --op log --json --timeout 30 > "$WORK/slow.jsonl"
"$CLIENT" --socket "$S" --op health --timeout 10 > "$WORK/health.json"
grep -q '"evicted":[1-9]' "$WORK/health.json" \
    || fail "stalled watcher was not evicted"
grep -q "evicting client" "$WORK/slow.err" \
    || fail "daemon did not log the eviction"
if ! wait $WPID; then
    fail "evicted watcher exited non-zero"
fi
WPID=0
"$CLIENT" --socket "$S" --op shutdown >/dev/null
wait $DPID 2>/dev/null || true

same_bytes "$WORK/ref.jsonl" "$WORK/slow.jsonl" \
    "a stalled watcher perturbed the event log"
echo "chaos-smoke: stalled watcher evicted; other tenants undisturbed"

# --- 4. overload shedding and queue-wait deadlines ------------------------ #

rm -f "$S"
"$RATSD" --socket "$S" --journal-dir "$WORK/jshed" --queue-limit 4 \
    --shed-watermark 0.5 --retry-after 2 --deadline 1 &
DPID=$!
wait_ready
"$CLIENT" --socket "$S" --op load --load-jobs 30 --rate 50 --timeout 30 \
    >/dev/null
"$CLIENT" --socket "$S" --op drain --timeout 60 | grep -q drained
"$CLIENT" --socket "$S" --op log --json --timeout 30 > "$WORK/shed.jsonl"
grep -q '"reason":"overloaded"' "$WORK/shed.jsonl" \
    || fail "burst load produced no overloaded rejections"
grep -q '"retry_after"' "$WORK/shed.jsonl" \
    || fail "overloaded rejections carry no retry_after hint"
grep -q '"ev":"expired"' "$WORK/shed.jsonl" \
    || fail "queue-wait deadline produced no expired events"
"$CLIENT" --socket "$S" --op stats --timeout 10 | grep -q '"expired":' \
    || fail "stats do not report expirations"
"$CLIENT" --socket "$S" --op shutdown >/dev/null
wait $DPID 2>/dev/null || true
echo "chaos-smoke: overload shedding and deadlines fire under burst load"

# --- 5. hostile faults: the daemon outlives its connections ---------------- #

# A non-socket path must never be claimed (checked here where no daemon is
# running; nothing to clean up afterwards).
echo "not a socket" > "$WORK/decoy"
if "$RATSD" --socket "$WORK/decoy" --journal-dir "$WORK/jdecoy" \
    2> "$WORK/decoy.err"; then
    fail "daemon started over a non-socket path"
fi
grep -q "not a socket" "$WORK/decoy.err" \
    || fail "non-socket refusal gave the wrong reason"
[ -f "$WORK/decoy" ] || fail "daemon unlinked a non-socket path"

rm -f "$S"
RATS_FAULT="seed=7,corrupt@server.read=0.3,crash@server.client=0.3" \
    "$RATSD" --socket "$S" --journal-dir "$WORK/jhostile" \
    2> "$WORK/hostile.err" &
DPID=$!
wait_ready

# Individual connections get corrupted or force-disconnected; each attempt
# must fail fast (the 5 s timeout converts a hang into a failure) and the
# daemon must keep serving the survivors.
OK=0
for i in $(seq 1 20); do
    if "$CLIENT" --socket "$S" --op ping --timeout 5 >/dev/null 2>&1; then
        OK=$((OK + 1))
    fi
done
[ "$OK" -ge 1 ] || fail "no ping survived the hostile fault spec"
[ "$OK" -lt 20 ] || fail "hostile fault spec injected nothing"
kill -0 $DPID 2>/dev/null || fail "daemon died under hostile faults"

HEALTHY=0
for i in $(seq 1 10); do
    if "$CLIENT" --socket "$S" --op health --timeout 5 2>/dev/null \
        | grep -q '"ready":true'; then
        HEALTHY=1
        break
    fi
done
[ "$HEALTHY" -eq 1 ] || fail "daemon stopped answering health checks"
echo "chaos-smoke: daemon survived hostile faults ($OK/20 pings got through)"
kill -9 $DPID 2>/dev/null || true
wait $DPID 2>/dev/null || true
DPID=0

# --- 6. selftest load driver ---------------------------------------------- #

"$RATSD" --selftest > "$WORK/selftest.out"
grep -q 'selftest: OK' "$WORK/selftest.out" || fail "selftest did not pass"
grep -q 'throughput' "$WORK/selftest.out" \
    || fail "selftest reported no throughput"
sed 's/^/  /' "$WORK/selftest.out"
if "$RATSD" --selftest --rate nan > /dev/null 2> "$WORK/nan.err"; then
    fail "selftest accepted --rate nan"
fi
[ "$(wc -l < "$WORK/nan.err")" -eq 1 ] && grep -q '^ratsd: rate' "$WORK/nan.err" \
    || fail "--rate nan was not a one-line usage error"

echo "chaos-smoke: OK"
