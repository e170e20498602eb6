#!/usr/bin/env bash
# Flag-contract checks: the command line that every `dblayout` subcommand
# shares, asserting that:
#
#   1. `dblayout` with no subcommand, or with an unknown one, prints one
#      usage that lists all five subcommands, and exits 2
#   2. a numeric flag value that does not parse completely exits 2 with a
#      message naming the flag and the value (one case per subcommand)
#      instead of running with a truncated or zero value
#   3. every subcommand reads `--flag value` and `--flag=value` alike: the
#      same exit code and the same output
#   4. a number that parses but does not fit its flag (a negative --seed, a
#      --throttle-ms or --tpch scale whose conversion would overflow, a NaN
#      scale) exits 2 with a message naming the flag and the value
#   5. a --time-budget-ms the clock cannot hold means no budget: advise
#      prints what it prints with no budget
#
# Usage: tools/run_flags.sh --bin PATH_TO_dblayout
set -euo pipefail

SOURCE_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
DATA="${SOURCE_DIR}/examples/data"
FIXTURES="${SOURCE_DIR}/tests/testdata"
BIN=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --bin) BIN="$2"; shift 2 ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done
[[ -n "${BIN}" && -x "${BIN}" ]] || { echo "usage: $0 --bin PATH_TO_dblayout" >&2; exit 2; }

log()  { printf '\n== %s ==\n' "$*"; }
fail() { echo "FLAGS CHECK FAILED: $*" >&2; exit 1; }

INPUTS=(--schema "${DATA}/schema.sql" --workload "${DATA}/workload.sql"
        --disks "${DATA}/disks.txt")
STREAM=(--schema "${DATA}/schema.sql" --disks "${DATA}/disks.txt"
        --stream "${DATA}/serve/stream.txt" --max-move 0.6 --seed 7)
COMPARE=(--compare "${FIXTURES}/report_base.json" "${FIXTURES}/report_regressed.json")

log "no subcommand or an unknown one: one usage listing all five, exit 2"
for args in "" "bogus"; do
  rc=0
  # shellcheck disable=SC2086  # "" must expand to no argument at all
  err="$("${BIN}" ${args} 2>&1 >/dev/null)" || rc=$?
  [[ ${rc} -eq 2 ]] || fail "'dblayout ${args}' exited ${rc}, want 2"
  [[ "$(grep -c '^usage:' <<<"${err}")" -eq 1 ]] \
    || fail "'dblayout ${args}' does not print exactly one usage: ${err}"
  for sub in advise lint serve report check; do
    grep -q "^  ${sub} " <<<"${err}" \
      || fail "'dblayout ${args}' usage does not list ${sub}: ${err}"
  done
done

# malformed message args... — `dblayout args...` must exit 2 and say
# `message` on stderr.
malformed() {
  local message="$1"; shift
  local err rc=0
  err="$("${BIN}" "$@" 2>&1 >/dev/null)" || rc=$?
  [[ ${rc} -eq 2 ]] || fail "exited ${rc}, want 2: dblayout $*"
  grep -qF -- "${message}" <<<"${err}" \
    || fail "stderr lacks \"${message}\": dblayout $*: ${err}"
}

log "numeric values must parse completely"
malformed "--greedy-k expects an integer, got 'abc'" \
  advise --tpch 0.05 --disks "${DATA}/disks.txt" --greedy-k abc
malformed "--max-move expects a number, got 'oops'" \
  lint "${INPUTS[@]}" --max-move oops
malformed "--checkpoint-every expects an integer, got 'x'" \
  serve "${STREAM[@]}" --checkpoint-every x
malformed "--threshold-pct expects a number, got '5x'" \
  report "${COMPARE[@]}" --threshold-pct 5x
malformed "--jobs expects an integer, got '4x'" \
  check --jobs=4x "${SOURCE_DIR}/src/common"

# both_forms flag value args... — `dblayout args... flag value` and
# `dblayout args... flag=value` must exit alike and print the same.
both_forms() {
  local flag="$1" value="$2"; shift 2
  local spaced joined rc_spaced=0 rc_joined=0
  spaced="$("${BIN}" "$@" "${flag}" "${value}" 2>&1)" || rc_spaced=$?
  joined="$("${BIN}" "$@" "${flag}=${value}" 2>&1)" || rc_joined=$?
  [[ ${rc_spaced} -eq ${rc_joined} ]] \
    || fail "${flag} ${value} exited ${rc_spaced}, ${flag}=${value} ${rc_joined}: dblayout $*"
  [[ "${spaced}" == "${joined}" ]] \
    || fail "${flag} ${value} and ${flag}=${value} print differently: dblayout $*"
}

log "--flag value and --flag=value read alike"
both_forms --greedy-k 2 advise "${INPUTS[@]}"
both_forms --evaluate "${DATA}/lint/striped_coaccess.csv" lint "${INPUTS[@]}"
both_forms --window 4 serve "${STREAM[@]}"
both_forms --threshold-pct 20 report "${COMPARE[@]}"
both_forms --jobs 2 check "${SOURCE_DIR}/src/common"

log "numbers must fit their flag"
malformed "--seed expects a non-negative integer, got '-1'" \
  advise --tpch 0.05 --disks "${DATA}/disks.txt" --seed -1
malformed "--throttle-ms must be below 2^63 microseconds, got 1e+300" \
  serve "${STREAM[@]}" --throttle-ms 1e300
malformed "--tpch scale must be positive and give tables below 2^63 rows, got nan" \
  advise --tpch nan --disks "${DATA}/disks.txt"
malformed "--tpch scale must be positive and give tables below 2^63 rows, got 1e+300" \
  advise --tpch 1e300 --disks "${DATA}/disks.txt"

log "a budget the clock cannot hold is no budget"
TPCH=(--tpch 0.1 --disks "${DATA}/disks.txt")
unbudgeted="$("${BIN}" advise "${TPCH[@]}")"
budgeted="$("${BIN}" advise "${TPCH[@]}" --time-budget-ms 1e300)"
[[ "${unbudgeted}" == "${budgeted}" ]] \
  || fail "advise --time-budget-ms 1e300 prints differently from no budget"

printf '\nFLAGS CHECK OK\n'
