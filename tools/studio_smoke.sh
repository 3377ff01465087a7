#!/usr/bin/env bash
# Smoke test of the experiment studio (bin/studio.exe).
#
# Five parts:
#   1. report: a cold traced smoke-scale fig2 bench run (fresh cache
#      directory, so every bench counter moves); `studio check
#      --require-bench-counters` must validate its trace and metrics, then
#      `studio report` over its BENCH_runtime.json + trace + metrics must
#      produce one self-contained HTML file: at least one inline SVG, the
#      trace timeline, the counter table, the per-target breakdown, and no
#      external fetches (no script/link/src; the only URLs allowed are SVG
#      xmlns declarations);
#   2. workload table: a small study CSV must render with the fairness and
#      p99 columns highlighted;
#   3. diff: a second (warm) run of the same target diffs against the
#      first — per-target deltas print and the exit status is 0;
#   4. scale guard: diffing runs whose `scale` fields differ must print a
#      scale-mismatch warning (docs/PERFORMANCE.md);
#   5. serve: `studio serve --max-requests 1` answers one HTTP request
#      with the live monitor page and exits.
#
# Binaries are expected to be built already (make studio-smoke builds
# first).
set -euo pipefail
SMOKE_PREFIX="studio-smoke: "
. "$(dirname "$0")/smoke_lib.sh"

BENCH=$PWD/_build/default/bench/main.exe
STUDIO=$PWD/_build/default/bin/studio.exe
WORKLOAD=$PWD/_build/default/bin/workload.exe

# Bench runs execute in $WORK so the repo's committed BENCH_runtime.json,
# cache and journal stay untouched.
cd "$WORK"

run_bench() { # $1 = output directory
    mkdir -p "$1"
    (cd "$1" &&
        RATS_SCALE=smoke RATS_JOURNAL=off RATS_CACHE_DIR="$WORK/cache" \
            "$BENCH" fig2 --trace trace.json --metrics metrics.json >bench.log)
}

# --- 1. self-contained report --------------------------------------------- #

run_bench a
"$STUDIO" check --trace a/trace.json --metrics a/metrics.json \
    --require-bench-counters

"$WORKLOAD" --cluster grillon --profile poisson:jobs=12,tenants=2,seed=5 \
    --arms delta,hcpa --csv a/study.csv > /dev/null

"$STUDIO" report --bench a/BENCH_runtime.json --trace a/trace.json \
    --metrics a/metrics.json --workload a/study.csv \
    --title "studio smoke" --out a/report.html

[ -s a/report.html ] || fail "report.html missing"

require() { # $1 = pattern, $2 = description
    grep -q "$1" a/report.html || fail "report lacks $2"
}
require '<svg'                    'an inline SVG figure'
require 'Trace timeline'          'the trace timeline section'
require 'fig2'                    'the fig2 target row'
require 'wall time per target'    'the per-target wall-time chart'
require 'rats_sim_events_total'   'the counter table'
require 'class="hl"'              'highlighted fairness/p99 columns'

# Self-containment: nothing that fetches. SVG xmlns declarations are
# namespace identifiers, not fetches, and are the only URLs allowed.
if grep -q '<script\|<link\| src=' a/report.html; then
    fail "report contains a script/link/src reference"
fi
if grep -o 'https\?://[^"< ]*' a/report.html | grep -qv 'www.w3.org'; then
    fail "report references an external URL"
fi

# --- 3. diff of a warm rerun ---------------------------------------------- #

run_bench b
"$STUDIO" diff a/BENCH_runtime.json b/BENCH_runtime.json > diff.txt
grep -q '^target\|^fig2' diff.txt || {
    cat diff.txt >&2
    fail "diff printed no per-target rows"
}

# --- 4. scale-mismatch warning -------------------------------------------- #

sed 's/"scale": "smoke"/"scale": "paper"/' a/BENCH_runtime.json > rescaled.json
"$STUDIO" diff a/BENCH_runtime.json rescaled.json > rescaled.txt
grep -q 'scale mismatch' rescaled.txt || {
    cat rescaled.txt >&2
    fail "diff of differently-scaled runs did not warn"
}

# --- 5. one-shot serve ----------------------------------------------------- #

PORT=8473
"$STUDIO" serve --bench a/BENCH_runtime.json --metrics a/metrics.json \
    --port $PORT --max-requests 1 > serve.log &
SERVE_PID=$!
probe() { # one GET /; sets ok=1 when the monitor page comes back
    exec 3<>"/dev/tcp/127.0.0.1/$PORT" || return 1
    printf 'GET / HTTP/1.1\r\nHost: smoke\r\n\r\n' >&3
    if grep -q 'live sweep monitor' <&3; then ok=1; fi
    exec 3<&- 3>&-
}
ok=0
for _ in $(seq 1 50); do
    if probe 2>/dev/null; then break; fi
    sleep 0.1
done
wait "$SERVE_PID"
[ "$ok" = 1 ] || fail "serve did not answer"

echo "studio-smoke: OK (validated trace, self-contained report, diff + scale guard, one-shot serve)"
