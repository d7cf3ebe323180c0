#!/usr/bin/env bash
# Job-server smoke gate — the fault envelope end to end, over real TCP:
#
#   1. a healthy job completes;
#   2. a panicking job is retried, fails typed, and the server survives;
#   3. a job past its deadline fails with a typed deadline error;
#   4. an over-quota burst is shed with typed quota/overload rejections;
#   5. the server is SIGKILLed mid-job and the restarted server resumes
#      the job from its journaled snapshot, bit-identical to an
#      uninterrupted run;
#   6. that restarted server listens on 0.0.0.0:<port>, and `aqs job
#      shutdown` must end the process within 2 s: the accept thread blocks
#      in accept(2), and shutdown wakes it by connecting to the server's
#      own address — over loopback when the bind address is a wildcard.
#
# Artifacts (server logs + journal) land in $ARTIFACTS on failure.
#
#   ./scripts/serve_smoke.sh [addr] [artifacts-dir]
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=./target/release/aqs
ADDR="${1:-127.0.0.1:17171}"
BIND="$ADDR" # what the server listens on; clients always use $ADDR
ARTIFACTS="${2:-serve-smoke-artifacts}"
rm -rf "$ARTIFACTS"
mkdir -p "$ARTIFACTS"
JOURNAL="$ARTIFACTS/serve.journal"
SERVER_PID=""

fail() {
    echo "serve_smoke: FAIL: $*" >&2
    echo "serve_smoke: artifacts kept in $ARTIFACTS" >&2
    [ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null || true
    exit 1
}

cleanup() {
    [ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null || true
}
trap cleanup EXIT

start_server() { # args: log-file, extra flags...
    local log="$1"; shift
    "$BIN" serve --addr "$BIND" --journal "$JOURNAL" "$@" >"$log" 2>&1 &
    SERVER_PID=$!
    for _ in $(seq 1 100); do
        if "$BIN" job stats --addr "$ADDR" >/dev/null 2>&1; then
            return 0
        fi
        kill -0 "$SERVER_PID" 2>/dev/null || fail "server died on startup (see $log)"
        sleep 0.1
    done
    fail "server at $ADDR never became reachable (see $log)"
}

stop_server() { # args: [max seconds from `job shutdown` to process exit]
    "$BIN" job shutdown --addr "$ADDR" >/dev/null 2>&1 || true
    if [ -n "${1:-}" ]; then
        local deadline=$(( $(date +%s%N) + $1 * 1000000000 ))
        while kill -0 "$SERVER_PID" 2>/dev/null; do
            [ "$(date +%s%N)" -lt "$deadline" ] ||
                fail "server on $BIND still running $1 s after \`job shutdown\`"
            sleep 0.05
        done
    fi
    wait "$SERVER_PID" 2>/dev/null || true
    SERVER_PID=""
}

expect() { # args: description, needle, haystack
    case "$3" in
        *"$2"*) ;;
        *) fail "$1: expected \`$2\` in: $3" ;;
    esac
}

# Pulls the flat `"outcome":{...}` object out of a job record.
outcome_of() {
    printf '%s' "$1" | sed -E 's/.*"outcome":(\{[^}]*\}).*/\1/'
}

echo "==> serve_smoke: fault envelope on $ADDR"
rm -f "$JOURNAL"
start_server "$ARTIFACTS/server-1.log" --workers 2 --tenant-cap 2 --queue-cap 3 --chunk-quanta 20000

# 1. Healthy job.
OUT=$("$BIN" submit --addr "$ADDR" --workload pingpong --nodes 2 --policy dyn1 --seed 7 --wait 1)
expect "healthy job" '"state":"done"' "$OUT"

# 2. Panicking job: retried to the attempt budget, typed failure, server up.
OUT=$("$BIN" submit --addr "$ADDR" --workload pingpong --nodes 2 --inject-panic 1 --wait 1)
expect "panicking job" '"state":"failed"' "$OUT"
expect "panicking job" '"kind":"panicked"' "$OUT"
expect "panicking job" '"attempts":3' "$OUT"

# 3. Deadline job: full-scale ground truth cannot finish in 50 ms.
OUT=$("$BIN" submit --addr "$ADDR" --workload cg --nodes 8 --policy truth \
    --scale full --deadline-ms 50 --wait 1)
expect "deadline job" '"kind":"deadline_exceeded"' "$OUT"

# 4. Over-quota burst: tenant-cap 2, queue-cap 3. Slow jobs hold the queue.
slow_submit() { # args: tenant
    "$BIN" submit --addr "$ADDR" --workload cg --nodes 8 --policy truth \
        --scale full --tenant "$1" --deadline-ms 10000 2>&1 || true
}
slow_submit a >/dev/null
slow_submit a >/dev/null
OUT=$(slow_submit a)
expect "tenant quota" '"kind":"quota_exceeded"' "$OUT"
SHED=""
for t in b c d e f; do
    OUT=$(slow_submit "$t")
    case "$OUT" in
        *'"kind":"overloaded"'*) SHED=yes; break ;;
    esac
done
[ -n "$SHED" ] || fail "burst across tenants was never shed as overloaded"
OUT=$("$BIN" job stats --addr "$ADDR")
expect "server alive after burst" '"ok":true' "$OUT"
stop_server

# 5. Crash recovery: SIGKILL mid-job, restart, resume must finish the job
# bit-identically to an uninterrupted run of the same spec.
rm -f "$JOURNAL"
start_server "$ARTIFACTS/server-2.log" --workers 1 --chunk-quanta 20000
OUT=$("$BIN" submit --addr "$ADDR" --workload cg --nodes 16 --policy truth \
    --scale full --seed 11 --deadline-ms 600000)
expect "crash-test submit" '"ok":true' "$OUT"
JOB=$(printf '%s' "$OUT" | sed -E 's/.*"job":([0-9]+).*/\1/')
# Let a few quantum-edge snapshots reach the journal, then kill -9.
sleep 0.6
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""
[ -s "$JOURNAL" ] || fail "journal is empty after SIGKILL"

BIND="0.0.0.0:${ADDR##*:}"
start_server "$ARTIFACTS/server-3.log" --workers 1 --chunk-quanta 20000
OUT=$("$BIN" job wait --addr "$ADDR" --id "$JOB")
expect "resumed job" '"state":"done"' "$OUT"
RESUMED=$(outcome_of "$OUT")

OUT=$("$BIN" submit --addr "$ADDR" --workload cg --nodes 16 --policy truth \
    --scale full --seed 11 --deadline-ms 600000 --wait 1)
expect "baseline job" '"state":"done"' "$OUT"
BASELINE=$(outcome_of "$OUT")
if [ "$RESUMED" != "$BASELINE" ]; then
    fail "resumed outcome diverged: resumed=$RESUMED baseline=$BASELINE"
fi
# 6. Idle server on a wildcard bind: shutdown → exit is prompt.
stop_server 2

rm -rf "$ARTIFACTS"
echo "serve_smoke: OK"
