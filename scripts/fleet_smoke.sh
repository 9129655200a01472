#!/bin/sh
# Fleet smoke: the multi-process campaign fleet must be a pure scheduling
# change. Run a paper figure solo and as a 3-worker fleet whose first worker
# SIGKILLs itself right after its first lease claim (the abandoned lease is
# re-issued at the next epoch), then require:
#
#   0. the fleet's stderr reports exactly that one crash, and no quarantine,
#   1. byte-identical CSV stdout between the solo and fleet runs,
#   2. byte-identical shard records between the solo and fleet stores
#      (sorted + deduplicated: re-run shards are byte-duplicates by the
#      determinism contract),
#   3. `report --summary` reads the fleet store and reports it complete,
#   4. `report --figure fig1` regenerates the solo CSV byte-identically
#      from the fleet store's records, and `report --watch --once` renders
#      a dashboard frame over it,
#   5. compaction drops every (superseded) lease, leaves a store that
#      fsck_store calls clean, is idempotent (a second pass leaves the file
#      untouched), and the compacted store still resumes to the same CSV,
#   6. fleet_worker rejects a negative --lease-ms and a negative --poison
#      shard with usage (exit 2) instead of wrapping them to huge values,
#      and fleet_broker --submit rejects a signed, suffixed or overflowing
#      experiment count, a --flip-width outside 1..64 and a --hang-factor
#      whose faulty-run budget overflows 64 bits the same way, and refuses a count near 2^64, whose cell would have more shards than
#      a fleet can walk, with exit 1 — submitting nothing.
#
#   scripts/fleet_smoke.sh [BUILD_DIR]
#
# BUILD_DIR defaults to ./build; it must contain bench_fig1_single_bit,
# report, compact_store, fsck_store, fleet_worker and fleet_broker (built by
# the default CMake configuration).
set -eu

build=${1:-build}

for tool in bench_fig1_single_bit report compact_store fsck_store \
    fleet_worker fleet_broker; do
  if [ ! -x "$build/$tool" ]; then
    echo "error: $build/$tool not found or not executable; build first" >&2
    echo "  cmake -B $build -S . && cmake --build $build -j" >&2
    exit 1
  fi
done

tmp=$(mktemp -d "${TMPDIR:-/tmp}/onebit_fleet_smoke.XXXXXX")
trap 'rm -rf "$tmp"' EXIT

export ONEBIT_CSV=1
export ONEBIT_EXPERIMENTS=${ONEBIT_EXPERIMENTS:-64}
export ONEBIT_PROGRAMS=${ONEBIT_PROGRAMS:-qsort,crc32}

echo "== solo run (reference)"
ONEBIT_STORE="$tmp/solo.jsonl" \
  "$build/bench_fig1_single_bit" > "$tmp/fig1_solo.csv"

echo "== fleet run: 3 workers, worker 0 SIGKILLed after its first claim"
ONEBIT_STORE="$tmp/fleet.jsonl" \
  ONEBIT_FLEET_WORKERS=3 \
  ONEBIT_FLEET_KILL_AFTER=1 \
  ONEBIT_FLEET_LEASE_MS=2000 \
  "$build/bench_fig1_single_bit" > "$tmp/fig1_fleet.csv" 2> "$tmp/fleet.log"
cat "$tmp/fleet.log"

echo "== the crash hook fired exactly once, and nothing was quarantined"
grep -q '1 crashes (0 chaos), 0 quarantined' "$tmp/fleet.log"

echo "== CSV byte-identity"
diff "$tmp/fig1_solo.csv" "$tmp/fig1_fleet.csv"

echo "== shard-record byte-identity (sorted, deduplicated)"
grep '"kind":"shard"' "$tmp/solo.jsonl" | sort -u > "$tmp/shards_solo.jsonl"
grep '"kind":"shard"' "$tmp/fleet.jsonl" | sort -u > "$tmp/shards_fleet.jsonl"
diff "$tmp/shards_solo.jsonl" "$tmp/shards_fleet.jsonl"

echo "== report --summary on the fleet store"
"$build/report" --summary "$tmp/fleet.jsonl"

echo "== report --figure fig1 regenerates the solo CSV from the fleet store"
"$build/report" --figure fig1 "$tmp/fleet.jsonl" > "$tmp/fig1_report.csv"
diff "$tmp/fig1_solo.csv" "$tmp/fig1_report.csv"

echo "== report --watch --once renders a dashboard frame"
"$build/report" --watch --once "$tmp/fleet.jsonl" > "$tmp/watch.txt"
grep -q 'report --watch' "$tmp/watch.txt"

echo "== compact: every lease of a finished run is superseded"
"$build/compact_store" "$tmp/fleet.jsonl"
if grep -q '"kind":"lease"' "$tmp/fleet.jsonl"; then
  echo "error: compacted store still contains lease records" >&2
  exit 1
fi

echo "== the compacted store fscks clean, and compacting it again is a no-op"
"$build/fsck_store" "$tmp/fleet.jsonl" > "$tmp/fsck.txt" || {
  cat "$tmp/fsck.txt"; exit 1; }
cat "$tmp/fsck.txt"
grep -qx clean "$tmp/fsck.txt"
"$build/compact_store" "$tmp/fleet.jsonl" | tee "$tmp/compact2.txt"
grep -q '(already canonical; file untouched)$' "$tmp/compact2.txt"

echo "== resume from the compacted fleet store matches the solo CSV"
ONEBIT_STORE="$tmp/fleet.jsonl" ONEBIT_RESUME=1 \
  "$build/bench_fig1_single_bit" > "$tmp/fig1_resumed.csv"
diff "$tmp/fig1_solo.csv" "$tmp/fig1_resumed.csv"

echo "== fleet_worker rejects negative numbers with usage (exit 2)"
for flag in "--lease-ms -1" "--poison qsort:-1"; do
  code=0
  # $flag is unquoted on purpose: it is an option and its value.
  "$build/fleet_worker" "$tmp/empty.jsonl" $flag 2> /dev/null || code=$?
  if [ "$code" -ne 2 ]; then
    echo "error: fleet_worker $flag exited $code, want 2" >&2
    exit 1
  fi
done

echo "== fleet_broker rejects malformed counts, flip widths and hang factors (exit 2)"
for args in "-1" "+8" "8x" "18446744073709551616" "8 --flip-width 0" \
    "8 --flip-width 65" "8 --flip-width 4294967297" \
    "8 --hang-factor 18446744073709551615"; do
  code=0
  # $args is unquoted on purpose: the count, then maybe an option and value.
  "$build/fleet_broker" "$tmp/broker.jsonl" --submit qsort read/single $args \
    > /dev/null 2>&1 || code=$?
  if [ "$code" -ne 2 ]; then
    echo "error: fleet_broker --submit qsort read/single $args exited $code, want 2" >&2
    exit 1
  fi
done
echo "== fleet_broker refuses a cell with too many shards (exit 1)"
code=0
"$build/fleet_broker" "$tmp/broker.jsonl" --submit qsort read/single \
  18446744073709551614 > /dev/null 2>&1 || code=$?
if [ "$code" -ne 1 ]; then
  echo "error: fleet_broker --submit of 2^64 - 2 experiments exited $code, want 1" >&2
  exit 1
fi
if grep -q '"kind":"cell"' "$tmp/broker.jsonl" 2> /dev/null; then
  echo "error: a rejected fleet_broker --submit wrote a cell" >&2
  exit 1
fi

echo "fleet smoke: OK"
