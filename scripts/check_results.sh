#!/usr/bin/env bash
# Reproduction pin (ROADMAP 4(d)): rerun the whole reproduction suite and
# compare what it prints and writes byte for byte with what is checked in:
# its stdout with repro_output.txt, and the figure and ablation data with
# results/*.tsv (every policy kind, the threshold and EWMA brakes included).
#
# `aqs repro` runs every figure, ablation and extension at its default scale
# from a temporary working directory (the figures write results/ relative to
# the cwd), so the checked-in files are never overwritten. Any difference
# fails with the first differing lines. Files it writes that are not checked
# in (fig9's two large traffic dumps) are not compared. Needs the release
# build:
#   cargo build --release
#
#   ./scripts/check_results.sh
set -euo pipefail
cd "$(dirname "$0")/.."

ROOT="$PWD"
if [ ! -x "$ROOT/target/release/aqs" ]; then
    echo "check_results: target/release/aqs missing (cargo build --release)" >&2
    exit 2
fi

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
(cd "$WORK" && "$ROOT/target/release/aqs" repro >repro.out 2>repro.err) || {
    echo "check_results: aqs repro failed:" >&2
    tail -n 20 "$WORK/repro.err" >&2
    exit 1
}

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
if ! cmp -s repro_output.txt "$WORK/repro.out"; then
    echo "check_results: aqs repro's stdout differs from repro_output.txt; first difference (checked-in <, regenerated >):" >&2
    diff repro_output.txt "$WORK/repro.out" | head -n 4 >&2 || true
    status=1
fi
[ "$status" -eq 0 ] && echo "check_results: repro_output.txt and $(ls results/*.tsv | wc -l) files byte-identical"
exit "$status"
