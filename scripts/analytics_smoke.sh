#!/bin/sh
# Analytics smoke: the store-backed `report` tool must regenerate paper
# figures from records alone. Run each figure driver against a store, then
# require:
#
#   1. `report --figure figN` stdout is byte-identical to the driver's,
#      in text mode AND in CSV mode (ONEBIT_CSV=1 / --csv), for fig1 and —
#      at 8 experiments per cell — fig2, fig3 and fig4,
#   2. a partial store (driver capped at one shard per cell) exits 3 and
#      every affected cell carries an explicit "incomplete(...)" marker —
#      partial data is marked, never reported as a final value,
#   3. shard records written under different shard sizes are never counted
#      twice: a store holding (0,16), (16,16) and (0,32) is partial (exit
#      3), and once a resume finishes it, `report` equals a fresh run,
#   4. `report --trend` across the partial and the complete snapshot marks
#      the partial column explicitly,
#   5. `report --watch --once` renders one dashboard frame over the store,
#      and `--interval` exits 2 on anything but a positive decimal count,
#   6. `report --summary --json` emits the machine-readable summary.
#
#   scripts/analytics_smoke.sh [BUILD_DIR]
#
# BUILD_DIR defaults to ./build; it must contain the bench_fig* drivers and
# report (built by the default CMake configuration).
set -eu

build=${1:-build}

for tool in bench_fig1_single_bit bench_fig2_same_register \
    bench_fig3_activated_errors bench_fig4_fig5_table3 report; do
  if [ ! -x "$build/$tool" ]; then
    echo "error: $build/$tool not found or not executable; build first" >&2
    echo "  cmake -B $build -S . && cmake --build $build -j" >&2
    exit 1
  fi
done

tmp=$(mktemp -d "${TMPDIR:-/tmp}/onebit_analytics_smoke.XXXXXX")
trap 'rm -rf "$tmp"' EXIT

export ONEBIT_EXPERIMENTS=${ONEBIT_EXPERIMENTS:-64}
export ONEBIT_PROGRAMS=${ONEBIT_PROGRAMS:-qsort,crc32}

echo "== fig1 driver run against a store"
ONEBIT_STORE="$tmp/fig1.jsonl" \
  "$build/bench_fig1_single_bit" > "$tmp/fig1_driver.txt"

echo "== report --figure fig1: byte-identical to the driver (text)"
"$build/report" --figure fig1 "$tmp/fig1.jsonl" > "$tmp/fig1_report.txt"
diff "$tmp/fig1_driver.txt" "$tmp/fig1_report.txt"

echo "== report --figure fig1: byte-identical to the driver (CSV)"
ONEBIT_STORE="$tmp/fig1.jsonl" ONEBIT_RESUME=1 ONEBIT_CSV=1 \
  "$build/bench_fig1_single_bit" > "$tmp/fig1_driver.csv"
"$build/report" --csv --figure fig1 "$tmp/fig1.jsonl" > "$tmp/fig1_report.csv"
diff "$tmp/fig1_driver.csv" "$tmp/fig1_report.csv"

for fig in fig2:fig2_same_register fig3:fig3_activated_errors \
    fig4:fig4_fig5_table3; do
  id=${fig%%:*}
  driver=bench_${fig#*:}
  echo "== report --figure $id: byte-identical to $driver (text, CSV)"
  ONEBIT_EXPERIMENTS=8 ONEBIT_STORE="$tmp/$id.jsonl" \
    "$build/$driver" > "$tmp/${id}_driver.txt"
  ONEBIT_EXPERIMENTS=8 \
    "$build/report" --figure "$id" "$tmp/$id.jsonl" > "$tmp/${id}_report.txt"
  diff "$tmp/${id}_driver.txt" "$tmp/${id}_report.txt"
  ONEBIT_EXPERIMENTS=8 ONEBIT_STORE="$tmp/$id.jsonl" ONEBIT_RESUME=1 \
    ONEBIT_CSV=1 "$build/$driver" > "$tmp/${id}_driver.csv"
  ONEBIT_EXPERIMENTS=8 "$build/report" --csv --figure "$id" \
    "$tmp/$id.jsonl" > "$tmp/${id}_report.csv"
  diff "$tmp/${id}_driver.csv" "$tmp/${id}_report.csv"
done

echo "== partial store: exit 3 + explicit incomplete markers"
ONEBIT_STORE="$tmp/partial.jsonl" ONEBIT_SHARD_SIZE=8 ONEBIT_MAX_SHARDS=1 \
  "$build/bench_fig1_single_bit" > /dev/null
rc=0
"$build/report" --figure fig1 "$tmp/partial.jsonl" > "$tmp/partial.txt" || rc=$?
if [ "$rc" != 3 ]; then
  echo "error: report on a partial store exited $rc, want 3" >&2
  exit 1
fi
grep -q 'incomplete(' "$tmp/partial.txt"

echo "== mixed shard sizes: overlapping records are counted once"
(
  export ONEBIT_PROGRAMS=qsort ONEBIT_CSV=1
  mixed="$tmp/mixed.jsonl"
  ONEBIT_STORE="$mixed" ONEBIT_SHARD_SIZE=16 ONEBIT_MAX_SHARDS=2 \
    "$build/bench_fig1_single_bit" > /dev/null
  ONEBIT_STORE="$mixed" ONEBIT_RESUME=1 ONEBIT_SHARD_SIZE=32 \
    ONEBIT_MAX_SHARDS=1 "$build/bench_fig1_single_bit" > /dev/null
  rc=0
  "$build/report" --figure fig1 "$mixed" > "$tmp/mixed_partial.csv" || rc=$?
  if [ "$rc" != 3 ]; then
    echo "error: report on overlapping partial shards exited $rc, want 3" >&2
    exit 1
  fi
  ONEBIT_STORE="$mixed" ONEBIT_RESUME=1 ONEBIT_SHARD_SIZE=32 \
    "$build/bench_fig1_single_bit" > "$tmp/mixed_driver.csv"
  "$build/bench_fig1_single_bit" > "$tmp/mixed_fresh.csv"
  diff "$tmp/mixed_fresh.csv" "$tmp/mixed_driver.csv"
  "$build/report" --figure fig1 "$mixed" > "$tmp/mixed_report.csv"
  diff "$tmp/mixed_fresh.csv" "$tmp/mixed_report.csv"
)

echo "== trend across the partial and the complete snapshot"
"$build/report" --trend "$tmp/partial.jsonl" "$tmp/fig1.jsonl" \
  > "$tmp/trend.txt"
grep -q 'partial' "$tmp/trend.txt"

echo "== watch dashboard, one frame"
"$build/report" --watch --once "$tmp/fig1.jsonl" > "$tmp/watch.txt"
grep -q 'report --watch' "$tmp/watch.txt"
"$build/report" --watch --once --interval 5 "$tmp/fig1.jsonl" > /dev/null
for bad in 5x 99999999999999999999 0; do
  rc=0
  "$build/report" --watch --once --interval "$bad" "$tmp/fig1.jsonl" \
    > /dev/null 2>&1 || rc=$?
  if [ "$rc" != 2 ]; then
    echo "error: report --interval $bad exited $rc, want 2" >&2
    exit 1
  fi
done

echo "== report --summary --json"
"$build/report" --summary --json "$tmp/fig1.jsonl" > "$tmp/stats.json"
grep -q '"campaigns"' "$tmp/stats.json"

echo "analytics smoke: OK"
