#!/usr/bin/env bash
# Diff README.md's consolidated CLI flag table against each binary's --help.
#
# Two directions:
#   1. every (flag, binary) cell in the table must match reality: a flag
#      marked ✓ must appear in that binary's --help, a flag marked — must
#      not;
#   2. every option of bench/main.exe, bin/rats_run.exe, bin/ratsd.exe,
#      bin/rats_client.exe, bin/workload.exe and bin/studio.exe must have a
#      table row (these binaries are documented exhaustively, so a flag
#      added to any of them without a table edit fails the check).
#      bench and studio are subcommand binaries: their "help" is the
#      concatenation of the top-level help and every subcommand's; bench's
#      subcommands are read from its top-level COMMANDS section.
#
# Binaries are expected to be built already (make check builds first).
set -euo pipefail
cd "$(dirname "$0")/.."

readme=README.md
fail=0

bench_top=$(dune exec --no-build bench/main.exe -- --help=plain 2>&1)
bench_subs=$(sed -n 's/^       \([a-z][a-z0-9]*\) \[OPTION\].*/\1/p' <<< "$bench_top")
if [ -z "$bench_subs" ]; then
    echo "flags-check: no subcommands found in bench/main.exe --help" >&2
    exit 1
fi
bench_help=$(printf '%s\n' "$bench_top"
             for sub in $bench_subs; do
                 dune exec --no-build bench/main.exe -- "$sub" --help=plain 2>&1
             done)
run_help=$(dune exec --no-build bin/rats_run.exe -- --help=plain 2>&1)
ratsd_help=$(dune exec --no-build bin/ratsd.exe -- --help=plain 2>&1)
client_help=$(dune exec --no-build bin/rats_client.exe -- --help=plain 2>&1)
workload_help=$(dune exec --no-build bin/workload.exe -- --help=plain 2>&1)
studio_help=$(dune exec --no-build bin/studio.exe -- --help=plain 2>&1
              for sub in report diff serve check; do
                  dune exec --no-build bin/studio.exe -- "$sub" --help=plain 2>&1
              done)

# Flag table rows: lines between the markers that start with '| `'.
rows=$(sed -n '/<!-- flags-check:begin -->/,/<!-- flags-check:end -->/p' "$readme" | grep '^| `' || true)
if [ -z "$rows" ]; then
    echo "flags-check: no flag table found between flags-check markers in $readme" >&2
    exit 1
fi

has_flag() { # $1 = help text, $2 = long flag (e.g. --jobs)
    # Here-string, not a pipeline: under pipefail, `printf | grep -q` races —
    # grep exits on the first match, printf takes a SIGPIPE, and the pipeline
    # (and so this function) reports a flag as missing when it is present.
    grep -qE -- "(^|[^-A-Za-z0-9])$2([^-A-Za-z0-9]|$)" <<< "$1"
}

check_cell() { # $1 = flag, $2 = mark, $3 = binary name, $4 = help text
    local flag=$1 mark=$2 name=$3 help=$4
    case "$mark" in
        *✓*)
            if ! has_flag "$help" "$flag"; then
                echo "flags-check: README claims $name supports $flag, but its --help does not mention it" >&2
                fail=1
            fi ;;
        *)
            if has_flag "$help" "$flag"; then
                echo "flags-check: $name's --help mentions $flag, but README marks it unsupported" >&2
                fail=1
            fi ;;
    esac
}

table_flags=""
while IFS='|' read -r _ cell bench run ratsd client workload studio _rest; do
    # First long flag named in the row's flag cell.
    flag=$(printf '%s' "$cell" | grep -oE -- '--[a-z][a-z-]*' | head -n1)
    [ -z "$flag" ] && continue
    table_flags="$table_flags $flag"
    check_cell "$flag" "$bench" "bench/main.exe" "$bench_help"
    check_cell "$flag" "$run" "bin/rats_run.exe" "$run_help"
    check_cell "$flag" "$ratsd" "bin/ratsd.exe" "$ratsd_help"
    check_cell "$flag" "$client" "bin/rats_client.exe" "$client_help"
    check_cell "$flag" "$workload" "bin/workload.exe" "$workload_help"
    check_cell "$flag" "$studio" "bin/studio.exe" "$studio_help"
done <<EOF
$rows
EOF

# Reverse direction: every option of these binaries must be documented in
# the table.
check_documented() { # $1 = binary name, $2 = help text
    local name=$1 help=$2
    for flag in $(printf '%s\n' "$help" | grep -oE -- '--[a-z][a-z-]*' | sort -u); do
        case " $table_flags " in
            *" $flag "*) ;;
            *)
                echo "flags-check: $name --help lists $flag, but the README flag table has no row for it" >&2
                fail=1 ;;
        esac
    done
}
check_documented "bench/main.exe" "$bench_help"
check_documented "bin/rats_run.exe" "$run_help"
check_documented "bin/ratsd.exe" "$ratsd_help"
check_documented "bin/rats_client.exe" "$client_help"
check_documented "bin/workload.exe" "$workload_help"
check_documented "bin/studio.exe" "$studio_help"

# The lint driver has its own table (lint-flags-check markers), checked in
# the same two directions: every documented flag must exist, every flag in
# --help must be documented.
lint_help=$(dune exec --no-build bin/lint.exe -- --help 2>&1)
lint_rows=$(sed -n '/<!-- lint-flags-check:begin -->/,/<!-- lint-flags-check:end -->/p' "$readme" | grep '^| `' || true)
if [ -z "$lint_rows" ]; then
    echo "flags-check: no lint flag table found between lint-flags-check markers in $readme" >&2
    exit 1
fi
lint_table_flags=""
while IFS='|' read -r _ cell _rest; do
    flag=$(printf '%s' "$cell" | grep -oE -- '--[a-z][a-z-]*' | head -n1)
    [ -z "$flag" ] && continue
    lint_table_flags="$lint_table_flags $flag"
    if ! has_flag "$lint_help" "$flag"; then
        echo "flags-check: README documents $flag for bin/lint.exe, but its --help does not mention it" >&2
        fail=1
    fi
done <<EOF
$lint_rows
EOF
for flag in $(printf '%s\n' "$lint_help" | grep -oE -- '--[a-z][a-z-]*' | sort -u); do
    case " $lint_table_flags " in
        *" $flag "*) ;;
        *)
            echo "flags-check: bin/lint.exe --help lists $flag, but the README lint flag table has no row for it" >&2
            fail=1 ;;
    esac
done

if [ "$fail" -ne 0 ]; then
    echo "flags-check: FAILED — update the tables in $readme (flags-check / lint-flags-check markers) or the binary" >&2
    exit 1
fi
echo "flags-check: README flag tables match all seven binaries' --help"
