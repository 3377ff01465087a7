#!/usr/bin/env bash
# Lint smoke: the whole-program analyzer must stay fast and deterministic.
#
#   1. cold run over the real tree under the 2s budget;
#   2. a second run byte-identical to the first (determinism);
#   3. the deliberately dirty fixture tree fails (exit 1) with exactly the
#      golden findings of test/lint_fixtures/expected.txt;
#   4. --graph emits a DOT call graph, and --json writes its report into
#      directories that do not exist yet.
#
# Run from the repo root (or via `make lint-smoke`, which builds first).
set -euo pipefail
SMOKE_PREFIX="lint_smoke: FAIL: "
. "$(dirname "$0")/smoke_lib.sh"

LINT="dune exec --no-build bin/lint.exe --"

start_ns=$(date +%s%N)
cold_out=$($LINT 2>/dev/null) || fail "cold whole-tree run found findings or errored"
end_ns=$(date +%s%N)
elapsed_ms=$(( (end_ns - start_ns) / 1000000 ))
echo "lint_smoke: cold whole-tree run ${elapsed_ms}ms"
[ "$elapsed_ms" -lt 2000 ] || fail "cold run over budget: ${elapsed_ms}ms >= 2000ms"

second_out=$($LINT 2>/dev/null) || fail "second run found findings or errored"
[ "$cold_out" = "$second_out" ] || fail "second run's output differs from the first"

rc=0
$LINT --root test/lint_fixtures lib > "$WORK/fixtures.txt" 2>/dev/null || rc=$?
[ "$rc" -eq 1 ] || fail "fixture tree: exit $rc, not 1"
same_bytes test/lint_fixtures/expected.txt "$WORK/fixtures.txt" \
  "fixture findings differ from test/lint_fixtures/expected.txt"

$LINT --graph - 2>/dev/null | grep -q "digraph rats_callgraph" \
  || fail "--graph did not emit a DOT digraph"

$LINT --json "$WORK/a/b/lint.json" > /dev/null 2>&1 \
  || fail "--json into two missing directory levels failed"
grep -q '"findings"' "$WORK/a/b/lint.json" \
  || fail "--json into two missing directory levels wrote no report"

echo "lint_smoke: OK (cold ${elapsed_ms}ms; determinism, fixture golden, graph and JSON export verified)"
