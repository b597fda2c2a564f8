#!/bin/sh
# CLI identity matrix: serial == sharded and feature on == feature off
# on the release CLIs' stdout. Every zpm_analyze variant below must
# print the default run's report byte-for-byte; the CSV exports must
# match between serial and sharded; the --demo inputs must not depend
# on the shard count; campus_monitor --pcap must not depend on the
# capture front end (apart from its banner line, which names it); and
# --stats prints the same section on zpm_analyze and campus_monitor;
# and zpm_query answers the same whether a journal is named once or
# several times.
#
# Usage: identity_matrix.sh <zpm_analyze> <campus_monitor> <zpm_query>
set -eu
analyze=$1
monitor=$2
query=$3
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM
status=0

same() {  # label, expected file, actual file
  if cmp -s "$2" "$3"; then
    echo "ok   $1"
  else
    echo "FAIL $1"
    diff "$2" "$3" | head -20
    status=1
  fi
}

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

"$analyze" "$tmp/m.pcap" > "$tmp/default.out"
for n in 1 2 3; do
  "$analyze" "$tmp/m.pcap" --threads 4 > "$tmp/threads4.out"
  same "--threads 4 (run $n)" "$tmp/default.out" "$tmp/threads4.out"
done
"$analyze" "$tmp/m.pcap" --no-frontend > "$tmp/nofe.out"
same "--no-frontend" "$tmp/default.out" "$tmp/nofe.out"
"$analyze" "$tmp/m.pcap" --no-sketch > "$tmp/nosketch.out"
same "--no-sketch" "$tmp/default.out" "$tmp/nosketch.out"
"$analyze" "$tmp/m.pcap" --overload > "$tmp/overload.out"
same "--overload" "$tmp/default.out" "$tmp/overload.out"

via_fifo --threads 2 > "$tmp/fifo.out"
same "FIFO --threads 2" "$tmp/default.out" "$tmp/fifo.out"

"$analyze" "$tmp/m.pcap" --csv "$tmp/serial" > /dev/null
"$analyze" "$tmp/m.pcap" --threads 4 --csv "$tmp/sharded" > /dev/null
for table in streams seconds meetings; do
  same "--csv ${table} serial vs --threads 4" \
    "$tmp/serial_$table.csv" "$tmp/sharded_$table.csv"
done

"$analyze" --demo --threads 1 > "$tmp/demo1.out"
"$analyze" --demo --threads 3 > "$tmp/demo3.out"
same "--demo --threads 1 vs 3" "$tmp/demo1.out" "$tmp/demo3.out"
"$analyze" --demo --corrupt 5 --threads 1 > "$tmp/corrupt1.out"
"$analyze" --demo --corrupt 5 --threads 3 > "$tmp/corrupt3.out"
same "--demo --corrupt 5 --threads 1 vs 3" "$tmp/corrupt1.out" "$tmp/corrupt3.out"

# --stats appends one section, the same text on both CLIs, and leaves
# the report above it as it was.
"$analyze" "$tmp/m.pcap" --stats > "$tmp/stats.out"
head -n "$(wc -l < "$tmp/default.out")" "$tmp/stats.out" > "$tmp/stats_report.out"
same "--stats report" "$tmp/default.out" "$tmp/stats_report.out"
"$analyze" "$tmp/m.pcap" --stats --dataplane-offload |
  sed -n '/^== capture front end/,$p' > "$tmp/analyze_stats.out"
"$monitor" --pcap "$tmp/m.pcap" --stats --dataplane-offload |
  sed -n '/^== capture front end/,$p' > "$tmp/monitor_stats.out"
if grep -q '^covered-packets' "$tmp/analyze_stats.out"; then
  same "--stats zpm_analyze vs campus_monitor --pcap" \
    "$tmp/analyze_stats.out" "$tmp/monitor_stats.out"
else
  echo "FAIL --stats printed no offload rows"
  status=1
fi

"$monitor" --pcap "$tmp/m.pcap" | tail -n +2 > "$tmp/monitor.out"
"$monitor" --pcap "$tmp/m.pcap" --no-frontend | tail -n +2 > "$tmp/monitor_nofe.out"
same "campus_monitor --pcap --no-frontend" "$tmp/monitor.out" "$tmp/monitor_nofe.out"

# A journal named twice (directly, as ./J, or through a symlink) is
# read once; zpm_query warns about each repeat on stderr.
mkdir "$tmp/reports"
"$monitor" --daemon --replay "$tmp/m.pcap" --loops 1 --epoch-packets 50000 \
  --report-dir "$tmp/reports" --quiet 2> /dev/null
journal=$(ls "$tmp"/reports/*.zpmj | head -n 1)
ln -s "$journal" "$tmp/link.zpmj"
"$query" "$journal" > "$tmp/query_once.out"
"$query" "$journal" "$journal" > "$tmp/query_twice.out" 2> "$tmp/query_twice.err"
same "zpm_query J J vs J" "$tmp/query_once.out" "$tmp/query_twice.out"
(cd "$(dirname "$journal")" &&
  "$query" "$journal" "./$(basename "$journal")" "$tmp/link.zpmj") \
  > "$tmp/query_alias.out" 2> "$tmp/query_alias.err"
same "zpm_query J ./J link-to-J vs J" "$tmp/query_once.out" "$tmp/query_alias.out"
if [ "$(grep -c 'counted once' "$tmp/query_twice.err")" -ne 1 ] ||
   [ "$(grep -c 'counted once' "$tmp/query_alias.err")" -ne 2 ]; then
  echo "FAIL zpm_query did not warn once per repeated journal"
  status=1
fi

exit $status
