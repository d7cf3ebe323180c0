#!/usr/bin/env bash
# Reproduction pin (ROADMAP 4(d)): regenerate the figure and ablation data
# and compare it byte for byte with the checked-in results/*.tsv.
#
# The four figure binaries and ablation_params (every policy kind, the
# threshold and EWMA brakes included) run from a temporary working directory (write_tsv
# writes results/ relative to the cwd), so the checked-in files are never
# overwritten. Any difference fails with the first differing line. Files the
# binaries write that are not checked in (fig9's two large traffic dumps) are
# not compared. Needs the release bench binaries:
#   cargo build --release -p aqs-bench --bins
#
#   ./scripts/check_results.sh
set -euo pipefail
cd "$(dirname "$0")/.."

ROOT="$PWD"
BINS=(fig6_nas fig7_namd fig8_pareto fig9_scaleout ablation_params)
for bin in "${BINS[@]}"; do
    if [ ! -x "$ROOT/target/release/$bin" ]; then
        echo "check_results: target/release/$bin missing (cargo build --release -p aqs-bench --bins)" >&2
        exit 2
    fi
done

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
for bin in "${BINS[@]}"; do
    (cd "$WORK" && "$ROOT/target/release/$bin" >"$bin.out" 2>&1) || {
        echo "check_results: $bin failed:" >&2
        tail -n 20 "$WORK/$bin.out" >&2
        exit 1
    }
done

status=0
for want in results/*.tsv; do
    got="$WORK/$want"
    if [ ! -f "$got" ]; then
        echo "check_results: $want was not regenerated" >&2
        status=1
    elif ! cmp -s "$want" "$got"; then
        echo "check_results: $want differs from the regenerated file; first difference (checked-in <, regenerated >):" >&2
        diff "$want" "$got" | head -n 4 >&2 || true
        status=1
    fi
done
[ "$status" -eq 0 ] && echo "check_results: $(ls results/*.tsv | wc -l) files byte-identical"
exit "$status"
