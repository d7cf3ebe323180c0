#!/usr/bin/env bash
# Line counts a simplicity PR quotes: per crate `src/` the total and the
# non-test lines (every line of a file before its first `#[cfg(test)]`), the
# same for the root package's `src/`, and the total Rust under
# `crates src tests examples`. Run it on the parent and on the change.
#
#   ./scripts/loc.sh [repo-root]
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

# Prints "<total> <non-test>" over every .rs file under the given directory.
count() {
    find "$1" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { in_tests = 0 }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        { total++ }
        !in_tests { code++ }
        END { print total + 0, code + 0 }'
}

printf '%-22s %8s %9s\n' "directory" "total" "non-test"
sum_total=0
sum_code=0
for dir in crates/*/src src; do
    read -r total code < <(count "$dir")
    printf '%-22s %8d %9d\n' "$dir" "$total" "$code"
    sum_total=$((sum_total + total))
    sum_code=$((sum_code + code))
done
printf '%-22s %8d %9d\n' "crates/*/src + src" "$sum_total" "$sum_code"
all=$(find crates src tests examples -name '*.rs' -print0 | xargs -0 cat | wc -l)
printf '%-22s %8d\n' "crates src tests examples" "$all"
