#!/bin/sh
# Fleet chaos smoke: the self-healing fleet must converge under fire and
# still be a pure scheduling change. Run a paper figure solo, then as a
# supervised 3-worker fleet where the supervisor SIGKILLs a random worker
# every ONEBIT_CHAOS_MS (default 100 ms; raise it for slow sanitized
# builds — if kills outpace shard completion the fleet starves instead of
# converging) AND shard 1 of every 'qsort' cell is poisoned (the worker
# that claims it dies mid-shard every time). Require:
#
#   1. the supervisor quarantines the poison shard after
#      ONEBIT_POISON_RETRIES crashes and reports it on stderr,
#   2. the built-in final --force pass fills the quarantined shard, so
#      CSV stdout is byte-identical to the solo run anyway,
#   3. fsck finds no corruption in the crash-looped store (byte-identical
#      duplicate lines from re-run shards are benign),
#   4. fsck --repair followed by a resume reproduces the solo CSV from the
#      rewritten store,
#   5. `report --summary` reads the store and counts the quarantine record.
#
#   scripts/fleet_chaos.sh [BUILD_DIR]
#
# BUILD_DIR defaults to ./build; it must contain bench_fig1_single_bit,
# fsck_store, and report (built by the default CMake configuration).
set -eu

build=${1:-build}

for tool in bench_fig1_single_bit fsck_store report; do
  if [ ! -x "$build/$tool" ]; then
    echo "error: $build/$tool not found or not executable; build first" >&2
    echo "  cmake -B $build -S . && cmake --build $build -j" >&2
    exit 1
  fi
done

tmp=$(mktemp -d "${TMPDIR:-/tmp}/onebit_fleet_chaos.XXXXXX")
trap 'rm -rf "$tmp"' EXIT

export ONEBIT_CSV=1
export ONEBIT_EXPERIMENTS=${ONEBIT_EXPERIMENTS:-64}
export ONEBIT_PROGRAMS=${ONEBIT_PROGRAMS:-qsort,crc32}

echo "== solo run (reference)"
ONEBIT_STORE="$tmp/solo.jsonl" \
  "$build/bench_fig1_single_bit" > "$tmp/fig1_solo.csv"

chaos_ms=${ONEBIT_CHAOS_MS:-100}
echo "== supervised fleet: chaos kills every $chaos_ms ms, 'qsort' shard 1 poisoned"
ONEBIT_STORE="$tmp/fleet.jsonl" \
  ONEBIT_FLEET_WORKERS=3 \
  ONEBIT_FLEET_CHAOS_KILL_MS="$chaos_ms" \
  ONEBIT_FLEET_POISON=qsort:1 \
  ONEBIT_POISON_RETRIES=2 \
  ONEBIT_FLEET_LEASE_MS=2000 \
  "$build/bench_fig1_single_bit" > "$tmp/fig1_fleet.csv" 2> "$tmp/fleet.log"
cat "$tmp/fleet.log"

echo "== the poison shard was quarantined and reported"
grep -q "quarantined shard" "$tmp/fleet.log"
grep -q '"kind":"quarantine"' "$tmp/fleet.jsonl"

echo "== CSV byte-identity (the final --force pass fills the quarantine)"
diff "$tmp/fig1_solo.csv" "$tmp/fig1_fleet.csv"

echo "== fsck: the crash-looped store contains no corruption"
"$build/fsck_store" "$tmp/fleet.jsonl"

echo "== fsck --repair + resume reproduces the solo CSV"
"$build/fsck_store" "$tmp/fleet.jsonl" --repair
ONEBIT_STORE="$tmp/fleet.jsonl" ONEBIT_RESUME=1 \
  "$build/bench_fig1_single_bit" > "$tmp/fig1_resumed.csv"
diff "$tmp/fig1_solo.csv" "$tmp/fig1_resumed.csv"

echo "== report --summary reads the store and counts the quarantine"
"$build/report" --summary "$tmp/fleet.jsonl" | tee "$tmp/stats.txt"
grep -q "quarantine record" "$tmp/stats.txt"

echo "fleet chaos smoke: OK"
