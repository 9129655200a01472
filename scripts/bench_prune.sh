#!/usr/bin/env sh
# Outcome-equivalence pruning benchmark: times the fig1 and fig4 drivers with
# pruning off (ONEBIT_PRUNE=0) and on (ONEBIT_PRUNE=1), checks the CSV outputs
# are byte-identical, parses the golden-hit counters from the drivers' stderr
# summary line, and writes a perf record in the BENCH_6.json schema.
#
# Usage: scripts/bench_prune.sh [build-dir] [output-json]
# Knobs (env):
#   BENCH_EXPERIMENTS_FIG1  experiments per fig1 campaign    (default 400)
#   BENCH_EXPERIMENTS_FIG4  experiments per fig4 campaign    (default 48)
#   BENCH_PROGRAMS          ONEBIT_PROGRAMS filter           (default all)
#   ONEBIT_THREADS          worker threads                   (default 1, so
#                           the measurement is pure interpreter time)
set -eu

BUILD_DIR="${1:-build}"
OUT_JSON="${2:-BENCH_6.json}"
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

# run_driver <binary> <experiments> <0|1> <output-file> <stderr-file>
#   -> elapsed ms
run_driver() {
  _bin="$1"; _n="$2"; _prune="$3"; _out="$4"; _err="$5"
  _start="$(now_ms)"
  env ONEBIT_EXPERIMENTS="$_n" ONEBIT_CSV=1 ONEBIT_THREADS="$THREADS" \
      ONEBIT_PROGRAMS="$PROGRAMS" ONEBIT_PRUNE="$_prune" \
      "$_bin" > "$_out" 2> "$_err"
  _end="$(now_ms)"
  echo "$(( _end - _start ))"
}

# counter <stderr-file> <name> -> value from the "[prune] ..." summary line
counter() {
  sed -n "s/.*\[prune\].*$2=\([0-9][0-9]*\).*/\1/p" "$1" | tail -n 1
}

bench_one() {
  _name="$1"; _bin="$2"; _n="$3"
  echo "== $_name (n=$_n, threads=$THREADS) ==" >&2
  _off_ms="$(run_driver "$_bin" "$_n" 0 "$TMP/$_name.off" "$TMP/$_name.off.err")"
  _on_ms="$(run_driver "$_bin" "$_n" 1 "$TMP/$_name.on" "$TMP/$_name.on.err")"
  if ! diff -q "$TMP/$_name.off" "$TMP/$_name.on" > /dev/null; then
    echo "error: $_name output differs between pruning off and on" >&2
    diff "$TMP/$_name.off" "$TMP/$_name.on" >&2 || true
    exit 1
  fi
  _golden="$(counter "$TMP/$_name.on.err" golden_hits)"
  _miss="$(counter "$TMP/$_name.on.err" misses)"
  _short="$(counter "$TMP/$_name.on.err" short_circuited)"
  if [ -z "$_short" ]; then
    echo "error: $_name pruned run printed no [prune] summary line" >&2
    cat "$TMP/$_name.on.err" >&2
    exit 1
  fi
  echo "   off: ${_off_ms} ms   on: ${_on_ms} ms" \
       "(golden_hits=$_golden misses=$_miss)" >&2
  printf '%s %s %s %s %s %s\n' \
         "$_name" "$_off_ms" "$_on_ms" "$_golden" "$_miss" "$_short" \
         >> "$TMP/rows"
}

: > "$TMP/rows"
bench_one fig1_single_bit "$BUILD_DIR/bench_fig1_single_bit" "$FIG1_N"
bench_one fig4_fig5_table3 "$BUILD_DIR/bench_fig4_fig5_table3" "$FIG4_N"

# Assemble BENCH_6.json (no jq dependency).
{
  printf '{\n'
  printf '  "bench": "PR6 outcome-equivalence pruning",\n'
  printf '  "metric": "wall-clock ms, pruning off (ONEBIT_PRUNE=0) vs on (ONEBIT_PRUNE=1)",\n'
  printf '  "threads": %s,\n' "$THREADS"
  printf '  "experiments": {"fig1_single_bit": %s, "fig4_fig5_table3": %s},\n' \
         "$FIG1_N" "$FIG4_N"
  printf '  "outputs_byte_identical": true,\n'
  printf '  "drivers": {\n'
  _first=1
  while read -r _name _off _on _golden _miss _short; do
    [ "$_first" = 1 ] || printf ',\n'
    _first=0
    _speedup="$(awk "BEGIN { printf \"%.2f\", $_off / ($_on > 0 ? $_on : 1) }")"
    _rate="$(awk "BEGIN { _t = $_short + $_miss; printf \"%.3f\", (_t > 0 ? $_short / _t : 0) }")"
    printf '    "%s": {"off_ms": %s, "on_ms": %s, "speedup": %s, "golden_hits": %s, "misses": %s, "short_circuit_rate": %s}' \
           "$_name" "$_off" "$_on" "$_speedup" "$_golden" "$_miss" "$_rate"
  done < "$TMP/rows"
  printf '\n  }\n}\n'
} > "$OUT_JSON"

echo "wrote $OUT_JSON:" >&2
cat "$OUT_JSON"
