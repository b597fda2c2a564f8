#!/bin/sh
# Malformed or missing option values are usage errors on every surface:
# each case below must exit 2 before any analysis starts (nothing on
# stdout, no daemon status line) and name the flag on stderr, e.g.
# "--epoch-packets wants an unsigned integer".
#
# Usage: option_errors.sh <zpm_analyze> <campus_monitor>
set -u
analyze=$1
monitor=$2
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM
status=0

"$monitor" --make-trace "$tmp/t.pcap" --minutes 0.5 --background 0.02 \
  --meetings 20 --seed 3 > /dev/null || exit 1

check() {  # flag, command...
  flag=$1
  shift
  rc=0
  timeout 30 "$@" > "$tmp/out" 2> "$tmp/err" || rc=$?
  if [ "$rc" -eq 2 ] && [ ! -s "$tmp/out" ] &&
     head -n 1 "$tmp/err" | grep -q -- "^$flag wants " &&
     ! grep -q "^zpm-daemon:" "$tmp/err"; then
    echo "ok   $flag: $(head -n 1 "$tmp/err")"
  else
    echo "FAIL $flag (exit $rc): $*"
    head -n 3 "$tmp/err"
    status=1
  fi
}

check --threads "$analyze" "$tmp/t.pcap" --threads
check --p2p-timeout "$analyze" "$tmp/t.pcap" --p2p-timeout xyz
check --anon-key "$analyze" "$tmp/t.pcap" --anon-key zz
check --flow-memory-budget "$monitor" --pcap "$tmp/t.pcap" --flow-memory-budget
check --epoch-packets "$monitor" --daemon --replay "$tmp/t.pcap" --epoch-packets 1e5
check --threads "$monitor" --daemon --replay "$tmp/t.pcap" --threads abc
check --threads "$monitor" --daemon --replay "$tmp/t.pcap" --threads 0
exit $status
