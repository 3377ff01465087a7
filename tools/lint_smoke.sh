#!/usr/bin/env bash
# Lint smoke: the whole-program analyzer must stay fast and deterministic.
#
#   1. cold run (no summary cache) over the real tree under the 2s budget;
#   2. warm (cached) run byte-identical to the cold one;
#   3. baseline ratchet: fixture findings are all fresh against the empty
#      committed baseline (exit 1) and all accepted against a baseline
#      written from the same run (exit 0);
#   4. --graph emits a DOT call graph.
#
# Run from the repo root (or via `make lint-smoke`, which builds first).
set -euo pipefail
SMOKE_PREFIX="lint_smoke: FAIL: "
. "$(dirname "$0")/smoke_lib.sh"

LINT="dune exec --no-build bin/lint.exe --"

rm -f bench_results/.lintcache
start_ns=$(date +%s%N)
cold_out=$($LINT 2>/dev/null) || fail "cold whole-tree run found findings or errored"
end_ns=$(date +%s%N)
elapsed_ms=$(( (end_ns - start_ns) / 1000000 ))
echo "lint_smoke: cold whole-tree run ${elapsed_ms}ms"
[ "$elapsed_ms" -lt 2000 ] || fail "cold run over budget: ${elapsed_ms}ms >= 2000ms"

warm_out=$($LINT 2>/dev/null) || fail "warm (cached) run found findings or errored"
[ "$cold_out" = "$warm_out" ] || fail "warm (cached) output differs from cold run"

# Baseline ratchet, both directions, driven by the deliberately dirty
# fixture tree.
if $LINT --no-cache --root test/lint_fixtures --baseline tools/lint_baseline.txt lib >/dev/null 2>&1; then
  fail "fixture findings must be fresh against the empty committed baseline"
fi
tmp=$WORK/baseline.txt
$LINT --no-cache --root test/lint_fixtures --write-baseline "$tmp" lib >/dev/null 2>&1 \
  || fail "--write-baseline must exit 0"
$LINT --no-cache --root test/lint_fixtures --baseline "$tmp" lib >/dev/null 2>&1 \
  || fail "baselined fixture findings must not fail the run"

$LINT --graph - 2>/dev/null | grep -q "digraph rats_callgraph" \
  || fail "--graph did not emit a DOT digraph"

echo "lint_smoke: OK (cold ${elapsed_ms}ms; cache, baseline ratchet and graph export verified)"
