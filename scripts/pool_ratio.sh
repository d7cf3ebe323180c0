#!/usr/bin/env bash
# What a worker pool of two costs against one, per engine, on one scenario:
# runs `aqs scenario run <scenario.toml>` N times and prints, for every
# engine the scenario runs at both m=1 and m=2, each invocation's
# m=2 ÷ m=1 wall-clock ratio, then their min / median / max.
#
#   scripts/pool_ratio.sh <scenario.toml> [--runs N] [--aqs PATH]
#
# The wall times are the scenario report's (microsecond resolution); a run
# whose m=1 wall reads 0 s has no ratio and prints `n/a`. --aqs picks
# the binary (default: target/release/aqs, built first), so two builds can
# be measured in alternation. Asserts nothing: a ratio is evidence, not a
# gate.
set -euo pipefail

usage() {
    sed -n '2,8p' "$0" >&2
    exit 2
}

[ $# -ge 1 ] || usage
scenario=$1
shift
runs=12
aqs=
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || usage
    case $1 in
        --runs) runs=$2 ;;
        --aqs) aqs=$2 ;;
        *) usage ;;
    esac
    shift 2
done
[[ $runs =~ ^[1-9][0-9]*$ ]] || usage
[ -f "$scenario" ] || { echo "pool_ratio: no scenario $scenario" >&2; exit 2; }
if [ -z "$aqs" ]; then
    root=$(cd "$(dirname "$0")/.." && pwd)
    cargo build --release -q --manifest-path "$root/Cargo.toml" --bin aqs
    aqs=$root/target/release/aqs
fi
[ -x "$aqs" ] || { echo "pool_ratio: $aqs is not an executable" >&2; exit 2; }

# One `run engine m=1 m=2` line per engine and invocation.
for run in $(seq "$runs"); do
    "$aqs" scenario run "$scenario" | awk -v run="$run" '
        $1 == "run" && $4 ~ /^m=[12]$/ {
            wall = $NF
            sub(/s$/, "", wall)
            w[$3, $4] = wall
            if ($4 == "m=1") order[++n] = $3
        }
        END {
            for (i = 1; i <= n; i++) {
                e = order[i]
                if ((e, "m=2") in w) print run, e, w[e, "m=1"], w[e, "m=2"]
            }
        }'
done | awk -v scenario="$scenario" -v runs="$runs" '
    function median(v, k,    i, j, t) {
        for (i = 2; i <= k; i++)
            for (j = i; j > 1 && v[j - 1] > v[j]; j--) {
                t = v[j]; v[j] = v[j - 1]; v[j - 1] = t
            }
        return k % 2 ? v[(k + 1) / 2] : (v[k / 2] + v[k / 2 + 1]) / 2
    }
    {
        if (!($2 in count)) engines[++ne] = $2
        count[$2]++
        line[$2, count[$2]] = $0
    }
    END {
        printf "pool_ratio: %s, %d run(s), m=2 / m=1 wall\n", scenario, runs
        printf "%-18s %4s %10s %10s %7s\n", "engine", "run", "m=1 s", "m=2 s", "ratio"
        for (i = 1; i <= ne; i++) {
            e = engines[i]
            k = 0
            delete v
            for (c = 1; c <= count[e]; c++) {
                split(line[e, c], f, " ")
                if (f[3] + 0 > 0) {
                    r = f[4] / f[3]
                    v[++k] = r
                    shown = sprintf("%7.2f", r)
                } else {
                    shown = sprintf("%7s", "n/a")
                }
                printf "%-18s %4d %10.6f %10.6f %s\n", e, f[1], f[3], f[4], shown
            }
            if (k == 0) {
                printf "%-18s no ratio (every m=1 wall read 0)\n", e
                continue
            }
            lo = hi = v[1]
            for (j = 2; j <= k; j++) { if (v[j] < lo) lo = v[j]; if (v[j] > hi) hi = v[j] }
            printf "%-18s min %.2f  median %.2f  max %.2f  (%d ratios)\n", e, lo, median(v, k), hi, k
        }
    }'
