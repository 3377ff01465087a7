# Shared by the smoke scripts; source it after setting SMOKE_PREFIX:
#   SMOKE_PREFIX="chaos-smoke: "; . "$(dirname "$0")/smoke_lib.sh"
# Moves to the repo root and makes a temp dir $WORK, removed on exit after
# the caller's `cleanup` function, when it defines one.
cd "$(dirname "${BASH_SOURCE[0]}")/.."
WORK=$(mktemp -d)
trap 'if declare -F cleanup >/dev/null; then cleanup; fi; rm -rf "$WORK"' EXIT

fail() {
    echo "$SMOKE_PREFIX$*" >&2
    exit 1
}

same_bytes() { # $1 $2 = files, $3 = what it means when they differ
    cmp -s "$1" "$2" && return 0
    echo "$SMOKE_PREFIX$3" >&2
    diff "$1" "$2" >&2 || true
    exit 1
}
