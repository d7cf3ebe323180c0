#!/usr/bin/env bash
# Full local verification — the gate list. CI runs this script and nothing
# else, so a new gate is added here, once. `set -e` stops at the first
# failing gate and leaves what it wrote (`conformance.log.jsonl`,
# `rollback.log.jsonl`, the `*-artifacts/` directories) for CI to upload.
#
#   ./scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Runs one test gate under a wall-clock bound in seconds. A worker-pool test
# that strands a peer at the barrier never exits; under the bound it fails
# its gate by name instead of stalling CI. Each bound is at least 3x the
# gate's measured time and never under 600 s (CHANGES.md lists both);
# timeout signals the whole process group, test binaries included.
bounded() {
    local secs=$1 start=$SECONDS status=0
    shift
    timeout -k 30 "$secs" "$@" || status=$?
    if [ "$status" -eq 124 ] || [ "$status" -eq 137 ]; then
        echo "verify: '$*' did not finish within ${secs}s (a hung test?)" >&2
    fi
    echo "    ($((SECONDS - start)) s of ${secs} s: $*)"
    return "$status"
}

# Every script parses before anything runs: serve_smoke.sh and
# check_results.sh would otherwise first be parsed minutes in, by the gates
# that execute them, and perf_pairs.sh / loc.sh are never executed here.
echo "==> bash -n scripts/*.sh"
for f in scripts/*.sh; do bash -n "$f"; done

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings
# The feature-gated code the mutation and schedule-fuzz tiers build.
cargo clippy -p aqs-cluster -p aqs-check --all-targets --features aqs-cluster/fault-inject,aqs-check/fault-inject -- -D warnings
cargo clippy -p aqs-cluster -p aqs-check --all-targets --features aqs-cluster/schedule-fuzz,aqs-check/schedule-fuzz -- -D warnings

echo "==> cargo doc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release
bounded 600 cargo test -q

echo "==> workspace tests"
bounded 900 cargo test --workspace -q
# The footprint gate by name: per-node allocation and byte bounds of a
# 16k-node sharded run, counted by a test-only allocator.
bounded 600 cargo test -p aqs-cluster --test footprint -q

# The mutation tier (fault-inject) arms seeded faults — including the four
# rollback-substrate faults: stale checkpoint restore, GVT from one shard,
# skipped mailbox unwind, lossy hybrid mode switch — and proves each is
# detected and shrunk.
echo "==> conformance harness: mutation + schedule-fuzz tiers"
bounded 600 cargo test -p aqs-check --features fault-inject -q
bounded 600 cargo test -p aqs-check --features schedule-fuzz -q
# The sharded engine's own proof that the batch shuffle reaches its take path.
bounded 600 cargo test -p aqs-cluster --features schedule-fuzz --lib -q

# Differential smoke gate: 200 seeded cases through every engine with
# invariant oracles, hard wall-clock budget. Failures are shrunk to minimal
# reproducers and left beside the JSONL run log.
echo "==> conformance smoke gate: 200 cases x every engine"
cargo run --release -q --bin aqs -- check \
    --cases 200 --seed 0xA5 --time-budget 300 \
    --log conformance.log.jsonl --artifacts conformance-artifacts
rm -f conformance.log.jsonl
rm -rf conformance-artifacts

# The same generator pointed at the sharded-optimistic and hybrid engines
# only, with the rollback oracles armed (cascade depth within bound, recorded
# windows tiling the run, shard lanes summing to the totals, exactness of
# undegraded runs) across every configured shard count.
echo "==> rollback-property smoke gate: 200 cases, sharded-optimistic + hybrid"
cargo run --release -q --bin aqs -- check \
    --cases 200 --seed 0xB0117 --engines sharded-optimistic,hybrid \
    --time-budget 300 \
    --log rollback.log.jsonl --artifacts rollback-artifacts
rm -f rollback.log.jsonl
rm -rf rollback-artifacts

# The scenario corpus, chaos enabled: every scenario must pass its own
# assertions (bit-identity across engines × worker counts, packet
# conservation), every malformed file must be rejected nonzero.
echo "==> scenario gate: corpus with chaos on, bit-identical across engines"
for f in scenarios/*.toml; do
    cargo run --release -q --bin aqs -- scenario run "$f"
done
for f in scenarios/malformed/*.toml; do
    if cargo run --release -q --bin aqs -- scenario run "$f" 2>/dev/null; then
        echo "malformed scenario $f was accepted" >&2
        exit 1
    fi
done

# The pool-ratio evidence tool still parses what `aqs scenario run` prints;
# one run, no ratio asserted.
echo "==> pool ratio smoke: m=2 / m=1 wall per engine"
./scripts/pool_ratio.sh scenarios/hybrid_allreduce.toml --runs 1

# The resident job server's fault envelope over real TCP: a healthy job
# completes; a panicking job is retried then fails typed while the server
# survives; a deadline-blowing job fails typed; an over-quota burst is shed
# with typed rejections; and a SIGKILL mid-job is resumed from the write-ahead
# snapshot journal, bit-identical to an uninterrupted run. The second argument
# is the directory CI uploads when this gate fails.
echo "==> job-server smoke gate: panic/deadline/quota envelope + SIGKILL resume"
./scripts/serve_smoke.sh 127.0.0.1:17171 serve-smoke-artifacts

# `aqs repro` (built by the tier-1 gate) reruns the whole suite in a
# temporary directory: its stdout and every checked-in results/*.tsv must
# come back byte for byte (the modelled host clock is deterministic, so any
# difference is a change in simulated behaviour, not noise).
echo "==> reproduction pin: aqs repro stdout and figure data vs repro_output.txt and results/*.tsv"
./scripts/check_results.sh

# The benchmark (perf/, its own workspace) builds against ../crates/* and pins
# seed-42 counters in perf/golden.json: a public-API removal or a changed
# counter fails here, before the PR is measured.
echo "==> benchmark build gate: perf/ against ../crates/* (path deps + golden.json pins)"
bounded 600 cargo test --offline -q --manifest-path perf/Cargo.toml

echo "verify: OK"
