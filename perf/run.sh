#!/usr/bin/env bash
# Builds the benchmark offline and forwards its arguments, e.g.
#   perf/run.sh run --workload burst_1k --seed 7
#   perf/run.sh stability --sets 2 --runs 5
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
