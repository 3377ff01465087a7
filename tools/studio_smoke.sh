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
#      xmlns declarations). On the same cache, `bench sweep --csv` must
#      replay fig2's naive suite (0 misses) into a CSV byte-identical to
#      fig2's, and bad runtime options or a mistyped target must exit
#      non-zero without touching the resumable journal;
#   2. workload table: a small study CSV must render with the fairness and
#      p99 columns highlighted;
#   3. diff: a second (warm) run of the same target diffs against the
#      first — per-target deltas print and the exit status is 0;
#   4. scale guard: diffing runs whose `scale` fields differ must print a
#      scale-mismatch warning (docs/PERFORMANCE.md);
#   5. serve: `studio serve --max-requests 1` answers one HTTP request
#      with the report page of part 1's run — its targets row and a
#      counter from its metrics snapshot — and exits.
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

# The default sweep is fig2's naive suite: all cache hits, same CSV.
mkdir -p s
(cd s &&
    RATS_SCALE=smoke RATS_JOURNAL=off RATS_CACHE_DIR="$WORK/cache" \
        "$BENCH" sweep --csv sweep.csv >sweep.log)
same_bytes s/sweep.csv a/bench_results/naive_grillon.csv \
    "bench sweep --csv differs from fig2's naive_grillon.csv"
grep -q '^cache: [0-9]* hits, 0 misses' s/sweep.log || {
    cat s/sweep.log >&2
    fail "bench sweep missed the cache fig2 filled"
}

# A command-line error must exit non-zero before the journal is opened
# (opening it without --resume would discard it).
planted=j/bench_results/.journal/bench-smoke.journal
mkdir -p "$(dirname "$planted")"
printf 'planted journal: must survive a rejected command line\n' >"$planted"
cp "$planted" j/planted
for args in "fig2 -j 0" "fig2 --timeout 0" "fig2 --retries -1" "fgi2"; do
    if (cd j && RATS_SCALE=smoke RATS_CACHE_DIR="$WORK/cache" \
        "$BENCH" $args >/dev/null 2>&1); then
        fail "bench $args must exit non-zero"
    fi
    same_bytes j/planted "$planted" "bench $args rewrote the journal"
done

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
probe() { # one GET /; the response lands in served.html
    exec 3<>"/dev/tcp/127.0.0.1/$PORT" || return 1
    printf 'GET / HTTP/1.1\r\nHost: smoke\r\n\r\n' >&3
    cat <&3 >served.html
    exec 3<&- 3>&-
}
for _ in $(seq 1 50); do
    if probe 2>/dev/null; then break; fi
    sleep 0.1
done
wait "$SERVE_PID"
grep -q 'live sweep monitor' served.html || fail "serve did not answer"
grep -q '"rats_sim_events_total"' a/metrics.json ||
    fail "a/metrics.json lacks rats_sim_events_total"
for frag in '<td>fig2</td>' '<td>rats_sim_events_total</td>'; do
    grep -q "$frag" served.html || fail "served page lacks $frag"
done

echo "studio-smoke: OK (validated trace, self-contained report, sweep replay, CLI errors spare the journal, diff + scale guard, one-shot serve)"
