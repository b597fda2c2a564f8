#!/usr/bin/env bash
# Daemon soak smoke: builds nothing itself — expects an existing build
# directory (default ./build, override with $1) containing
# examples/campus_monitor and examples/zpm_query.
#
# Runs the continuous-operation daemon for ~30 s on an endlessly looped
# replay of a simulated campus trace (paced so epochs rotate on packet
# count several times), sends one SIGHUP mid-run with a config change,
# then SIGTERM, and asserts:
#   * the daemon exits 0 on SIGTERM (graceful drain),
#   * at least 3 epochs rotated (report files on disk, all parseable
#     framing: non-empty, "ZPME" magic),
#   * the SIGHUP reload was acknowledged,
#   * the final health line reports zero dropped records,
#   * a snapshot exists and no write/source errors were logged,
#   * zpm_query --dir --stats over the drained report directory exits 0,
#     counts one epoch per epoch file, finds no corrupt record and
#     reads the sealed journal segment through its index.
set -euo pipefail

BUILD_DIR="${1:-build}"
MONITOR="$BUILD_DIR/examples/campus_monitor"
QUERY="$BUILD_DIR/examples/zpm_query"
for bin in "$MONITOR" "$QUERY"; do
  if [[ ! -x "$bin" ]]; then
    echo "error: $bin not built" >&2
    exit 2
  fi
done

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

echo "=== generating soak trace ==="
"$MONITOR" --make-trace "$WORK/soak.pcap" \
  --minutes 5 --meetings 50 --background 0.05 --seed 42

mkdir -p "$WORK/reports"
cat > "$WORK/daemon.conf" <<'EOF'
# applied on SIGHUP: shrink epochs so the reload is visible in rotation
epoch_packets = 60000
EOF

echo "=== starting daemon (30s soak) ==="
"$MONITOR" --daemon --replay "$WORK/soak.pcap" --loops 0 \
  --pace-pps 20000 --epoch-packets 100000 \
  --snapshot "$WORK/snapshot.bin" --report-dir "$WORK/reports" \
  --config "$WORK/daemon.conf" --watchdog-seconds 5 \
  2> "$WORK/daemon.log" &
PID=$!

sleep 12
echo "--- SIGHUP (config reload) ---"
kill -HUP "$PID"
sleep 18
echo "--- SIGTERM (graceful drain) ---"
kill -TERM "$PID"

EXIT=0
wait "$PID" || EXIT=$?
echo "=== daemon log ==="
cat "$WORK/daemon.log"

fail() { echo "SOAK FAIL: $1" >&2; exit 1; }

[[ "$EXIT" -eq 0 ]] || fail "daemon exited $EXIT, expected 0"

EPOCHS=$(ls "$WORK/reports"/epoch-*.bin 2>/dev/null | wc -l)
[[ "$EPOCHS" -ge 3 ]] || fail "only $EPOCHS epochs rotated, expected >= 3"
for f in "$WORK/reports"/epoch-*.bin; do
  [[ -s "$f" ]] || fail "empty epoch report $f"
  [[ "$(head -c 4 "$f")" == "ZPME" ]] || fail "bad magic in $f"
done

grep -q "config reloaded from" "$WORK/daemon.log" \
  || fail "SIGHUP reload not acknowledged"
grep -q "health: 0 dropped records (all clear)" "$WORK/daemon.log" \
  || fail "unexpected health drops"
grep -q "graceful shutdown" "$WORK/daemon.log" \
  || fail "no graceful-shutdown line"
[[ -s "$WORK/snapshot.bin" ]] || fail "no snapshot written"
[[ "$(head -c 4 "$WORK/snapshot.bin")" == "ZPMS" ]] \
  || fail "bad snapshot magic"
! grep -qE "write failed|source error|cannot read config" "$WORK/daemon.log" \
  || fail "daemon logged I/O or source errors"

echo "=== zpm_query --dir --stats ==="
QEXIT=0
"$QUERY" --dir "$WORK/reports" --stats > "$WORK/query.out" \
  2> "$WORK/query.err" || QEXIT=$?
cat "$WORK/query.err" "$WORK/query.out"
[[ "$QEXIT" -eq 0 ]] || fail "zpm_query exited $QEXIT, expected 0"
grep -q "^epochs=$EPOCHS " "$WORK/query.out" \
  || fail "zpm_query did not count $EPOCHS epochs"
grep -q " corrupt=0\$" "$WORK/query.out" \
  || fail "zpm_query found corrupt records"
[[ "$(wc -l < "$WORK/query.err")" -eq 1 ]] \
  || fail "expected one journal segment in the --stats accounting"
grep -q " indexed corrupt=0 skipped_bytes=0\$" "$WORK/query.err" \
  || fail "the sealed journal segment was not read through its index"

echo "SOAK OK: $EPOCHS epochs, clean reload, clean drain, clean query"
