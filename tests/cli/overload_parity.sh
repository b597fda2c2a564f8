#!/bin/sh
# zpm_analyze --overload-inject must shed exactly what the daemon sheds
# for the same schedule and observation window, on a mapped file and on
# a streamed (FIFO) input alike: all three surfaces observe the governor
# at the same packet-exact global-index boundaries.
#
# Usage: overload_parity.sh <zpm_analyze> <campus_monitor>
set -eu
analyze=$1
monitor=$2
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

# zpm_analyze over a FIFO fed from the trace (the streaming ingest
# path); a writer the analyzer never released is killed, not waited on.
via_fifo() {
  rm -f "$tmp/fifo"
  mkfifo "$tmp/fifo"
  cat "$tmp/m.pcap" > "$tmp/fifo" &
  writer=$!
  "$analyze" "$tmp/fifo" "$@" || true
  kill "$writer" 2>/dev/null || true
  wait "$writer" 2>/dev/null || true
}

"$monitor" --make-trace "$tmp/m.pcap" --minutes 4 --background 0.02 \
  --meetings 20 --seed 3 > /dev/null
schedule=20000-90000:0.99
status=0

for window in 1000 2048; do
  "$monitor" --daemon --replay "$tmp/m.pcap" --epoch-packets 100000000 \
    --epoch-seconds 0 --no-journal --report-dir "$tmp/state$window" \
    --overload-inject "$schedule" --overload-window "$window" \
    2> "$tmp/daemon.err" > /dev/null
  want=$(sed -n 's/^zpm-daemon: epoch 0 \(overload: .*\)$/\1/p' "$tmp/daemon.err")
  if [ -z "$want" ]; then
    echo "FAIL window $window: daemon printed no epoch 0 overload line"
    status=1
    continue
  fi

  mapped=$("$analyze" "$tmp/m.pcap" --overload-inject "$schedule" \
    --overload-window "$window" | grep '^overload: ' || true)

  streamed=$(via_fifo --overload-inject "$schedule" \
    --overload-window "$window" | grep '^overload: ' || true)

  for run in mapped streamed; do
    eval got=\$$run
    if [ "$got" = "$want" ]; then
      echo "ok   window $window $run: $got"
    else
      echo "FAIL window $window $run: got '$got', daemon '$want'"
      status=1
    fi
  done
done
exit $status
