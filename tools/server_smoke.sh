#!/usr/bin/env bash
# Loopback smoke test for the transaction service: start `next700_run serve`
# on an ephemeral port, drive it with next700_loadgen (one thread per
# connection, then 16 connections over 2 threads), and assert each run
# committed work with no transport errors (loadgen --check). Used by CI.
#
# usage: server_smoke.sh <build-dir> [extra serve flags...]
set -euo pipefail

BUILD_DIR="${1:?usage: server_smoke.sh <build-dir> [serve flags...]}"
shift || true

RUN="$BUILD_DIR/tools/next700_run"
LOADGEN="$BUILD_DIR/tools/next700_loadgen"
LOG="$(mktemp -d /tmp/next700_smoke.XXXXXX.logd)"
OUT="$(mktemp /tmp/next700_smoke.XXXXXX.out)"

cleanup() {
  [[ -n "${SERVER_PID:-}" ]] && kill "$SERVER_PID" 2>/dev/null || true
  [[ -n "${SERVER_PID:-}" ]] && wait "$SERVER_PID" 2>/dev/null || true
  rm -rf "$LOG" "$OUT"
}
trap cleanup EXIT

"$RUN" serve --port=0 --workers=2 --records=20000 \
  --logging=value --log-sync=fdatasync --log-dir="$LOG" "$@" > "$OUT" &
SERVER_PID=$!

# Wait for the "listening on HOST:PORT" line (the port is ephemeral).
PORT=""
for _ in $(seq 1 100); do
  PORT="$(sed -n 's/^listening on [^:]*:\([0-9]*\).*$/\1/p' "$OUT" | head -n1)"
  [[ -n "$PORT" ]] && break
  kill -0 "$SERVER_PID" 2>/dev/null || { cat "$OUT"; echo "server died"; exit 1; }
  sleep 0.1
done
[[ -n "$PORT" ]] || { cat "$OUT"; echo "server never started listening"; exit 1; }

"$LOADGEN" --port="$PORT" --connections=4 --pipeline=8 --seconds=2 \
  --records=20000 --get=0.5 --put=0.25 --rmw-keys=2 --check
# The same driver multiplexing 8 connections on each of 2 threads.
"$LOADGEN" --port="$PORT" --connections=16 --threads=2 --pipeline=4 \
  --seconds=1 --records=20000 --check

kill -INT "$SERVER_PID"
wait "$SERVER_PID"
SERVER_PID=""
cat "$OUT"
echo "server smoke OK"
