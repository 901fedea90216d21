#!/usr/bin/env bash
# Daemon command-line test for mecsc_serve and mecsc_route: bad flag values
# are usage errors (exit 2, the flag named on stderr), and a router in
# front of a server answers, drains on request or signal, and writes its
# artifacts.
# Usage: daemon_flags.sh /path/to/mecsc_serve /path/to/mecsc_route
set -eu

SERVE="$1"
ROUTE="$2"
DIR="$(mktemp -d)"
pids=()
cleanup() {
  for pid in "${pids[@]}"; do kill -KILL "$pid" 2>/dev/null || true; done
  rm -rf "$DIR"
}
trap cleanup EXIT

# expect_usage_error <flag named in the message> <binary> <args...>
expect_usage_error() {
  local flag="$1"
  shift
  local status=0
  "$@" 2> "$DIR/stderr" || status=$?
  if [ "$status" -ne 2 ]; then
    echo "expected exit 2 from: $*  (got $status)" >&2
    cat "$DIR/stderr" >&2
    exit 1
  fi
  if ! head -n 1 "$DIR/stderr" | grep -q -- "$flag"; then
    echo "usage error does not name $flag: $*" >&2
    cat "$DIR/stderr" >&2
    exit 1
  fi
}

wait_for_file() {
  for _ in $(seq 1 200); do
    [ -s "$1" ] && return 0
    sleep 0.05
  done
  echo "timed out waiting for $1" >&2
  exit 1
}

"$SERVE" --help 2>/dev/null
"$ROUTE" --help 2>/dev/null

for bin in "$SERVE" "$ROUTE --backend b1=tcp:127.0.0.1:1"; do
  # shellcheck disable=SC2086
  set -- $bin
  expect_usage_error --flight-recorder "$@" --tcp-port 0 --flight-recorder -1
  expect_usage_error --flight-recorder "$@" --tcp-port 0 --flight-recorder x
  expect_usage_error --trace-sample-rate "$@" --tcp-port 0 \
      --trace-sample-rate 2
  expect_usage_error --tcp-port "$@" --tcp-port 70000
  expect_usage_error --tcp-port "$@" --tcp-port abc
  expect_usage_error --admin-port "$@" --tcp-port 0 --admin-port -3
  expect_usage_error --telemetry-window-ms "$@" --tcp-port 0 \
      --telemetry-window-ms 0
  expect_usage_error --slow-request-ms "$@" --tcp-port 0 \
      --slow-request-ms 5ms
  expect_usage_error --log-level "$@" --tcp-port 0 --log-level loud
  expect_usage_error --admin-port-file "$@" --tcp-port 0 \
      --admin-port-file "$DIR/x"
  expect_usage_error --unix-socket "$@"
done
expect_usage_error --threads "$SERVE" --tcp-port 0 --threads x
expect_usage_error --threads "$SERVE" --tcp-port 0 --threads -1
expect_usage_error --threads "$SERVE" --tcp-port 0 --threads 0
expect_usage_error --queue-capacity "$SERVE" --tcp-port 0 \
    --queue-capacity 1.5
expect_usage_error --cache-capacity "$SERVE" --tcp-port 0 \
    --cache-capacity -8
expect_usage_error --default-deadline-ms "$SERVE" --tcp-port 0 \
    --default-deadline-ms soon
expect_usage_error --backend "$ROUTE" --tcp-port 0
expect_usage_error --probe-failures "$ROUTE" --tcp-port 0 \
    --backend b1=tcp:127.0.0.1:1 --probe-failures -1
expect_usage_error --spill-queue-fraction "$ROUTE" --tcp-port 0 \
    --backend b1=tcp:127.0.0.1:1 --spill-queue-fraction x

# A router in front of one server: health through the router, a shutdown
# request drains the router, SIGTERM drains the server; both exit 0 and
# write their metrics and manifests.
"$SERVE" --tcp-port 0 --threads 1 --port-file "$DIR/serve.port" \
    --metrics-out "$DIR/serve.metrics.json" 2> "$DIR/serve.log" &
serve_pid=$!
pids+=("$serve_pid")
wait_for_file "$DIR/serve.port"
"$ROUTE" --tcp-port 0 --port-file "$DIR/route.port" \
    --backend "b1=tcp:127.0.0.1:$(cat "$DIR/serve.port")" \
    --health-interval-ms 0 --metrics-out "$DIR/route.metrics.json" \
    2> "$DIR/route.log" &
route_pid=$!
pids+=("$route_pid")
wait_for_file "$DIR/route.port"

exec 3<>"/dev/tcp/127.0.0.1/$(cat "$DIR/route.port")"
printf '{"id": 1, "type": "health"}\n{"id": 2, "type": "shutdown"}\n' >&3
IFS= read -r health <&3
IFS= read -r shutdown <&3
exec 3>&- 3<&-
case "$health" in
  *'"role":"router"'*) ;;
  *) echo "unexpected health answer: $health" >&2; exit 1 ;;
esac
case "$shutdown" in
  *'"draining":true'*) ;;
  *) echo "unexpected shutdown answer: $shutdown" >&2; exit 1 ;;
esac
wait "$route_pid"
kill -TERM "$serve_pid"
wait "$serve_pid"
pids=()

grep -q "drained: 2 requests" "$DIR/route.log"
grep -q "drained: 0 requests" "$DIR/serve.log"
for role in serve route; do
  test -s "$DIR/$role.metrics.json"
  grep -q "\"tool\": \"mecsc_$role\"" "$DIR/$role.metrics.json.manifest.json"
done
grep -q '"--backend": "b1=tcp:' "$DIR/route.metrics.json.manifest.json"

echo "daemon_flags OK"
