#!/usr/bin/env sh
# Golden-prefix fast-forward benchmark: times the fig1 and fig4 drivers with
# the snapshot cache off (ONEBIT_SNAPSHOT_INTERVAL=0) and on (auto), checks
# the outputs are byte-identical, and writes a BENCH_4.json perf record.
# The drivers prune against the golden snapshots, so "off" turns pruning off
# too: the pair times snapshots plus pruning.
#
# Usage: scripts/bench_snapshots.sh [build-dir] [output-json]
# Knobs (env):
#   BENCH_EXPERIMENTS_FIG1  experiments per fig1 campaign    (default 400)
#   BENCH_EXPERIMENTS_FIG4  experiments per fig4 campaign    (default 48)
#   BENCH_PROGRAMS          ONEBIT_PROGRAMS filter           (default all)
#   ONEBIT_THREADS          worker threads                   (default 1, so
#                           the measurement is pure interpreter time)
set -eu

BUILD_DIR="${1:-build}"
OUT_JSON="${2:-BENCH_4.json}"
FIG1_N="${BENCH_EXPERIMENTS_FIG1:-400}"
FIG4_N="${BENCH_EXPERIMENTS_FIG4:-48}"
THREADS="${ONEBIT_THREADS:-1}"
PROGRAMS="${BENCH_PROGRAMS:-}"

[ -x "$BUILD_DIR/bench_fig1_single_bit" ] || {
  echo "error: $BUILD_DIR/bench_fig1_single_bit not built" >&2
  exit 1
}

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

now_ms() {
  # POSIX date has no %N; GNU date does. Fall back to second resolution.
  if date +%s%3N | grep -q 'N'; then
    echo "$(( $(date +%s) * 1000 ))"
  else
    date +%s%3N
  fi
}

# run_driver <binary> <experiments> <off|auto> <output-file> -> elapsed ms
run_driver() {
  _bin="$1"; _n="$2"; _mode="$3"; _out="$4"
  if [ "$_mode" = off ]; then
    _snapshots="ONEBIT_SNAPSHOT_INTERVAL=0"
  else
    _snapshots="-u ONEBIT_SNAPSHOT_INTERVAL"  # unset = the default interval
  fi
  _start="$(now_ms)"
  # shellcheck disable=SC2086 # $_snapshots is two words or one
  env $_snapshots ONEBIT_EXPERIMENTS="$_n" ONEBIT_CSV=1 \
      ONEBIT_THREADS="$THREADS" ONEBIT_PROGRAMS="$PROGRAMS" \
      "$_bin" > "$_out" 2> /dev/null
  _end="$(now_ms)"
  echo "$(( _end - _start ))"
}

bench_one() {
  _name="$1"; _bin="$2"; _n="$3"
  echo "== $_name (n=$_n, threads=$THREADS) ==" >&2
  _off_ms="$(run_driver "$_bin" "$_n" off "$TMP/$_name.off")"
  _on_ms="$(run_driver "$_bin" "$_n" auto "$TMP/$_name.on")"
  if ! diff -q "$TMP/$_name.off" "$TMP/$_name.on" > /dev/null; then
    echo "error: $_name output differs between snapshots off and on" >&2
    diff "$TMP/$_name.off" "$TMP/$_name.on" >&2 || true
    exit 1
  fi
  echo "   off: ${_off_ms} ms   on: ${_on_ms} ms" >&2
  printf '%s %s %s\n' "$_name" "$_off_ms" "$_on_ms" >> "$TMP/rows"
}

: > "$TMP/rows"
bench_one fig1_single_bit "$BUILD_DIR/bench_fig1_single_bit" "$FIG1_N"
bench_one fig4_fig5_table3 "$BUILD_DIR/bench_fig4_fig5_table3" "$FIG4_N"

# Assemble BENCH_4.json (no jq dependency).
{
  printf '{\n'
  printf '  "bench": "PR4 golden-prefix fast-forward",\n'
  printf '  "metric": "wall-clock ms, snapshots and pruning off (ONEBIT_SNAPSHOT_INTERVAL=0) vs on (auto)",\n'
  printf '  "threads": %s,\n' "$THREADS"
  printf '  "experiments": {"fig1_single_bit": %s, "fig4_fig5_table3": %s},\n' \
         "$FIG1_N" "$FIG4_N"
  printf '  "outputs_byte_identical": true,\n'
  printf '  "drivers": {\n'
  _first=1
  while read -r _name _off _on; do
    [ "$_first" = 1 ] || printf ',\n'
    _first=0
    _speedup="$(awk "BEGIN { printf \"%.2f\", $_off / ($_on > 0 ? $_on : 1) }")"
    printf '    "%s": {"off_ms": %s, "on_ms": %s, "speedup": %s}' \
           "$_name" "$_off" "$_on" "$_speedup"
  done < "$TMP/rows"
  printf '\n  }\n}\n'
} > "$OUT_JSON"

echo "wrote $OUT_JSON:" >&2
cat "$OUT_JSON"
