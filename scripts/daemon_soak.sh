#!/bin/sh
# Daemon soak: one regionsel_daemon serves many short sessions under
# unique tenants, every 4th dropped mid-stream and resumed.  The script
# reads the daemon's memory high-water mark (VmHWM in /proc/<pid>/status),
# the size of its `prom` reply and the ingest buffers' total capacity
# (`slots` on the `status` reply's `ingest` line) after session 100 and
# after the last session, and fails if any of them grew by more than 10%.
# Every Result is also byte-compared with a solo replay of the same
# recording.
#
#   sh scripts/daemon_soak.sh
#
# Run from the repository root on Linux.  Exit 0 = bounded, 1 = grew or
# a session went wrong.
set -eu

sessions=1000
steps=2000
probe=100

dune build bin/regionsel_sim.exe bin/regionsel_daemon.exe bin/regionsel_client.exe
bin=$(pwd)/_build/default/bin
work=$(mktemp -d)
sock=$work/d.sock
state=$work/state
daemon=""
cleanup() {
  if [ -n "$daemon" ]; then
    kill -TERM "$daemon" 2>/dev/null || true
    wait "$daemon" 2>/dev/null || true
  fi
  rm -rf "$work"
}
trap cleanup EXIT

"$bin/regionsel_sim.exe" record -b gzip --seed 7 -n "$steps" --events-out "$work/s.revl" > /dev/null
"$bin/regionsel_sim.exe" replay -b gzip -p net --seed 7 -n "$steps" \
  --events-in "$work/s.revl" --json > "$work/baseline.json"

# A session this short retires about one metrics window, so the retired
# ring must be small enough to fill before the first probe; otherwise
# the probe measures the ring filling up, not the bound.
"$bin/regionsel_daemon.exe" --socket "$sock" --state-dir "$state" --metrics-keep 64 &
daemon=$!
for _ in $(seq 100); do [ -S "$sock" ] && break; sleep 0.1; done
[ -S "$sock" ] || { echo "daemon socket never appeared" >&2; exit 1; }

stream() {
  tenant=$1
  shift
  "$bin/regionsel_client.exe" stream --socket "$sock" --tenant "$tenant" -b gzip -p net \
    --seed 7 -n "$steps" --events-in "$work/s.revl" "$@" 2>/dev/null
}

finish() {
  stream "$1" > "$work/result.json"
  if ! cmp -s "$work/baseline.json" "$work/result.json"; then
    echo "$1: Result differs from the solo replay" >&2
    exit 1
  fi
}

# A dropped session reconnects only once its snapshot is on disk: until
# then the daemon still holds the old connection and answers busy-tenant.
await_snapshot() {
  for _ in $(seq 200); do
    for f in "$state/$1"-*.session; do [ -e "$f" ] && return 0; done
    sleep 0.02
  done
  echo "$1: no snapshot after the drop" >&2
  exit 1
}

# Scrape before reading VmHWM, so both readings include a scrape's peak.
probe_daemon() {
  prom=$("$bin/regionsel_client.exe" ctrl --socket "$sock" prom | wc -c)
  slots=$("$bin/regionsel_client.exe" ctrl --socket "$sock" status \
    | awk '$1 == "ingest" && $6 == "slots" { print $7 }')
  [ -n "$slots" ] || { echo "status lacks the ingest line" >&2; exit 1; }
  hwm=$(awk '/^VmHWM:/ { print $2 }' "/proc/$daemon/status")
  echo "after session $1: VmHWM $hwm kB, prom reply $prom bytes, ingest slots $slots"
}

i=1
while [ "$i" -le "$sessions" ]; do
  tenant=$(printf 'soak%05d' "$i")
  if [ $((i % 4)) -eq 0 ]; then
    stream "$tenant" --truncate-at $((steps / 2)) > /dev/null
    await_snapshot "$tenant"
  fi
  finish "$tenant"
  if [ "$i" -eq "$probe" ]; then
    probe_daemon "$i"
    hwm0=$hwm
    prom0=$prom
    slots0=$slots
  fi
  i=$((i + 1))
done
probe_daemon "$sessions"
"$bin/regionsel_client.exe" ctrl --socket "$sock" status | head -n 3

left=$(find "$state" -name '*.session' | wc -l)
failed=0
if [ "$left" -ne 0 ]; then
  echo "$left session files outlived their finished sessions" >&2
  failed=1
fi
if [ $((hwm * 100)) -gt $((hwm0 * 110)) ]; then
  echo "VmHWM grew more than 10%: $hwm0 -> $hwm kB" >&2
  failed=1
fi
if [ $((prom * 100)) -gt $((prom0 * 110)) ]; then
  echo "prom reply grew more than 10%: $prom0 -> $prom bytes" >&2
  failed=1
fi
if [ $((slots * 100)) -gt $((slots0 * 110)) ]; then
  echo "ingest slots grew more than 10%: $slots0 -> $slots" >&2
  failed=1
fi
"$bin/regionsel_client.exe" ctrl --socket "$sock" shutdown > /dev/null
wait "$daemon" || failed=1
daemon=""
exit "$failed"
