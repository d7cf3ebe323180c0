#!/usr/bin/env bash
# Paired comparison of two builds of the benchmark — steps 2–3 of
# perf/README.md "Comparing two commits".
#
#   scripts/perf_pairs.sh <parent-aqs-perf> <change-aqs-perf> \
#       [--workload W] [--pairs N] [--seconds S] [--seed-base K]
#
# Runs N pairs per workload, alternating which side goes first
# (A B  B A  A B …), pair k on seed K + k, and prints every run. Then, per
# end-to-end metric: each side's median and quartiles, the pairs the change
# won (ties count for neither side), and a verdict:
#
#   gain        change won >= 9/10 of the pairs and the medians are apart by
#               more than the parent's own quartile distance
#   unchanged   no gain, change's median within the bound of the parent's,
#               and both sides' quartile distance within the bound
#   unresolved  as unchanged, but a side's spread is wider than the bound
#   WORSE       change's median worse than the parent's by more than the bound
#
# Build the two executables from identical perf/ sources first (step 1):
#   CARGO_TARGET_DIR=/root/scratch/a cargo build --release --offline \
#       --manifest-path perf/Cargo.toml
set -euo pipefail

usage() {
    sed -n '2,8p' "$0" >&2
    exit 2
}

[ $# -ge 2 ] || usage
parent=$1
change=$2
shift 2
workloads="burst_1k incast_256k rollback_mixed paper_sweep serve_jobs"
pairs=10
seconds=15
seed_base=0
# How far a median may worsen before it is a regression: the `bound` every
# end-to-end metric carries in BENCHMARK.json.
bound=0.25
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || usage
    case $1 in
        --workload) workloads=$2 ;;
        --pairs) pairs=$2 ;;
        --seconds) seconds=$2 ;;
        --seed-base) seed_base=$2 ;;
        *) usage ;;
    esac
    shift 2
done
for bin in "$parent" "$change"; do
    [ -x "$bin" ] || { echo "perf_pairs: $bin is not an executable" >&2; exit 2; }
done

metrics="wall_s packets_per_s setup_s peak_rss_mb"

# One run → "wall_s packets_per_s setup_s peak_rss_mb failed_ops".
run_once() {
    "$1" run --workload "$2" --seed "$3" --seconds "$seconds" | awk '
        $2 == "=" { v[$1] = $3 }
        END {
            print v["wall_s"], v["packets_per_s"], v["setup_s"], v["peak_rss_mb"], v["failed_ops"]
        }'
}

for w in $workloads; do
    echo "== $w: $pairs pairs, --seconds $seconds, seeds $((seed_base + 1))..$((seed_base + pairs))"
    echo "pair side seed $metrics failed_ops"
    runs=$(mktemp)
    for k in $(seq 1 "$pairs"); do
        seed=$((seed_base + k))
        if [ $((k % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
        for side in $order; do
            if [ "$side" = parent ]; then bin=$parent; else bin=$change; fi
            echo "$k $side $seed $(run_once "$bin" "$w" "$seed")" | tee -a "$runs"
        done
    done
    awk -v metrics="$metrics" -v bound="$bound" -v w="$w" '
        function sorted(src, n, dst,    i, j, t) {
            for (i = 1; i <= n; i++) dst[i] = src[i]
            for (i = 2; i <= n; i++) {
                t = dst[i]
                for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]
                dst[j + 1] = t
            }
        }
        # Linear interpolation between order statistics.
        function quantile(s, n, q,    h, lo) {
            h = (n - 1) * q + 1
            lo = int(h)
            return lo >= n ? s[n] : s[lo] + (h - lo) * (s[lo + 1] - s[lo])
        }
        { for (c = 4; c <= 8; c++) val[$2, c, $1] = $c; if ($1 > n) n = $1 }
        END {
            nm = split(metrics, name, " ")
            print "workload metric parent_median [q1 q3] change_median [q1 q3] delta won verdict"
            for (c = 4; c < 4 + nm; c++) {
                higher = name[c - 3] == "packets_per_s"
                won = 0
                for (k = 1; k <= n; k++) {
                    p[k] = val["parent", c, k]; ch[k] = val["change", c, k]
                    if (p[k] != ch[k] && (ch[k] > p[k]) == higher) won++
                }
                sorted(p, n, sp); sorted(ch, n, sc)
                pm = quantile(sp, n, 0.5); p1 = quantile(sp, n, 0.25); p3 = quantile(sp, n, 0.75)
                cm = quantile(sc, n, 0.5); c1 = quantile(sc, n, 0.25); c3 = quantile(sc, n, 0.75)
                delta = higher ? cm - pm : pm - cm    # > 0: change better
                # Every run of the change better than every run of the parent?
                clear = higher ? sc[1] > sp[n] : sc[n] < sp[1]
                if (won >= 0.9 * n && delta > p3 - p1) verdict = "gain"
                else if (-delta > bound * pm) verdict = "WORSE"
                else if (!clear && (p3 - p1 > bound * pm || c3 - c1 > bound * cm)) verdict = "unresolved"
                else verdict = "unchanged"
                printf "%s %s %.6g [%.6g %.6g] %.6g [%.6g %.6g] %+.1f%% %d/%d %s\n", \
                    w, name[c - 3], pm, p1, p3, cm, c1, c3, \
                    pm ? 100 * (cm - pm) / pm : 0, won, n, verdict
            }
            failed = 0
            for (k = 1; k <= n; k++) failed += val["parent", 8, k] + val["change", 8, k]
            printf "%s failed_ops %d over %d runs\n", w, failed, 2 * n
        }' "$runs"
    rm -f "$runs"
done
