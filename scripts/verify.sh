#!/usr/bin/env bash
# Full local verification — the same gates CI runs.
#
#   ./scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> bash -n scripts/perf_pairs.sh scripts/loc.sh"
bash -n scripts/perf_pairs.sh
bash -n scripts/loc.sh

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "==> workspace tests"
cargo test --workspace -q
# The footprint gate by name: per-node allocation and byte bounds of a
# 16k-node sharded run, counted by a test-only allocator.
cargo test -p aqs-cluster --test footprint -q

echo "==> conformance harness: mutation + schedule-fuzz tiers"
cargo test -p aqs-check --features fault-inject -q
cargo test -p aqs-check --features schedule-fuzz -q

echo "==> conformance smoke gate: 200 cases x every engine"
cargo run --release -q -p aqs-check --bin conformance -- \
    --cases 200 --seed 0xA5 --time-budget 300 \
    --log conformance.log.jsonl --artifacts conformance-artifacts
rm -f conformance.log.jsonl
rm -rf conformance-artifacts

echo "==> rollback-property smoke gate: 200 cases, sharded-optimistic + hybrid"
cargo run --release -q -p aqs-check --bin conformance -- \
    --cases 200 --seed 0xB0117 --engines sharded-optimistic,hybrid \
    --time-budget 300 \
    --log rollback.log.jsonl --artifacts rollback-artifacts
rm -f rollback.log.jsonl
rm -rf rollback-artifacts

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

echo "==> job-server smoke gate: panic/deadline/quota envelope + SIGKILL resume"
./scripts/serve_smoke.sh

echo "==> reproduction pin: regenerated figure data vs checked-in results/*.tsv"
cargo build --release -p aqs-bench --bins
./scripts/check_results.sh

echo "==> benchmark build gate: perf/ against ../crates/* (path deps + golden.json pins)"
cargo test --offline -q --manifest-path perf/Cargo.toml

echo "verify: OK"
