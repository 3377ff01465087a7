#!/usr/bin/env bash
# Cache-salt discipline: cache keys name parameters (Suite.name,
# Cluster.signature), not code, so a diff that touches any code feeding a
# cached result must bump the Cache.version salt in lib/runtime/cache.ml in
# the same range — otherwise a warm cache replays results computed by the
# old code and the "bit-identical reruns" guarantee silently inverts into
# "bit-identical wrong reruns". That code is simulation and scheduling
# (lib/sim, lib/core, lib/dag, lib/redist), the DAG generator and its RNG
# (lib/daggen, lib/util), routing (lib/platform) and the experiment layer
# (lib/exp): its shared problem setup and the arms whose cells its records
# store (Runner.run_cells). No cached computation links lib/server.
#
# Usage: salt_check.sh [--strict] [--base REF]
#
#   --base REF   diff range base (default: $SALT_BASE, else origin/main,
#                else main; if that still equals HEAD, HEAD~1 so a freshly
#                committed tree checks its last commit). The range always
#                includes uncommitted changes.
#   --strict     exit 1 on a violation. Without it the rule is advisory
#                (printed, exit 0) because comment/doc-only edits to those
#                directories are legal and this script cannot tell.
set -euo pipefail
cd "$(dirname "$0")/.."

strict=0
base="${SALT_BASE:-}"
while [ $# -gt 0 ]; do
    case "$1" in
        --strict) strict=1 ;;
        --base) shift; base="${1:?--base needs a ref}" ;;
        *) echo "salt-check: unknown argument $1" >&2; exit 2 ;;
    esac
    shift
done

auto_base=0
if [ -z "$base" ]; then
    auto_base=1
    for candidate in origin/main main; do
        if git rev-parse --verify --quiet "$candidate^{commit}" >/dev/null; then
            base=$candidate
            break
        fi
    done
fi
if [ -z "$base" ]; then
    echo "salt-check: no base ref (origin/main or main) — nothing to check" >&2
    exit 0
fi
if [ "$auto_base" -eq 1 ] \
   && [ "$(git rev-parse "$base")" = "$(git rev-parse HEAD)" ]; then
    if git rev-parse --verify --quiet HEAD~1 >/dev/null; then
        base=HEAD~1
    else
        echo "salt-check: single-commit repo — nothing to check" >&2
        exit 0
    fi
fi

salted_paths='^lib/(sim|core|dag|redist|daggen|platform|util|exp)/'

touched=$(git diff --name-only "$base" -- | grep -E "$salted_paths" || true)
if [ -z "$touched" ]; then
    echo "salt-check: ok — no code feeding cached results touched since $base"
    exit 0
fi

if git diff "$base" -- lib/runtime/cache.ml | grep -qE '^[+-].*let version'; then
    echo "salt-check: ok — cached-result code touched and Cache.version bumped since $base"
    exit 0
fi

cat >&2 <<EOF
salt-check: code feeding cached results (lib/{sim,core,dag,redist,
daggen,platform,util,exp}) changed since $base
without a Cache.version bump in lib/runtime/cache.ml:
$(printf '%s\n' "$touched" | sed 's/^/  /')

Rule: any change that can alter a cached result must also change the
cache salt (the 'let version = ...' line in lib/runtime/cache.ml), or a
warm bench_results/.cache will replay results computed by the old
code. If the change cannot alter a cached result (comments, docs, a
refactor that keeps every key and payload byte-identical), this warning
is safe to ignore (that is why it is advisory without --strict).
EOF
[ "$strict" -eq 1 ] && exit 1
exit 0
