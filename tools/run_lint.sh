#!/usr/bin/env bash
# Lint checks: runs `dblayout lint` over the example data and the
# seeded-pathology fixtures under examples/data/lint/, asserting the
# expected verdicts and exit codes:
#
#   1. examples/data is clean at the default --fail-on=error  (exit 0)
#   2. the fully-striped layout fixture trips
#      layout-coaccess-shared-disk (with a fix-it) and exits 1
#      under --fail-on=warn
#   3. the undersized-mirror fleet fixture trips
#      constraint-colocation-capacity and exits 1 at --fail-on=error
#   4. --format=sarif and --format=json emit well-formed JSON
#      (checked when python3 is available)
#
# Usage: tools/run_lint.sh --bin PATH_TO_dblayout
set -euo pipefail

DATA="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)/examples/data"
BIN=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --bin) BIN="$2"; shift 2 ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done
[[ -n "${BIN}" && -x "${BIN}" ]] || { echo "usage: $0 --bin PATH_TO_dblayout" >&2; exit 2; }

log()  { printf '\n== %s ==\n' "$*"; }
fail() { echo "LINT DRIVER FAILED: $*" >&2; exit 1; }

# run_lint expected_exit grep_pattern args... — runs `dblayout lint`,
# checks the exit code, and greps the output for the expected diagnostic.
run_lint() {
  local expected="$1" pattern="$2"; shift 2
  local out rc=0
  out="$("${BIN}" lint "$@" 2>&1)" || rc=$?
  if [[ "${rc}" -ne "${expected}" ]]; then
    echo "${out}"
    fail "expected exit ${expected}, got ${rc}: ${BIN} lint $*"
  fi
  if [[ -n "${pattern}" ]] && ! grep -q "${pattern}" <<<"${out}"; then
    echo "${out}"
    fail "output does not mention '${pattern}': ${BIN} lint $*"
  fi
}

COMMON=(--schema "${DATA}/schema.sql" --workload "${DATA}/workload.sql")

log "examples/data lints clean at --fail-on=error"
run_lint 0 "0 error(s)" "${COMMON[@]}" --disks "${DATA}/disks.txt"

log "fully-striped co-access fixture fails at --fail-on=warn"
run_lint 1 "layout-coaccess-shared-disk" "${COMMON[@]}" \
  --disks "${DATA}/disks.txt" \
  --evaluate "${DATA}/lint/striped_coaccess.csv" --fail-on=warn
run_lint 1 "fix: place 'orders' and 'order_lines' in disjoint filegroups" \
  "${COMMON[@]}" --disks "${DATA}/disks.txt" \
  --evaluate "${DATA}/lint/striped_coaccess.csv" --fail-on=warn

log "infeasible co-location fixture fails at --fail-on=error"
run_lint 1 "constraint-colocation-capacity" "${COMMON[@]}" \
  --disks "${DATA}/lint/constrained_disks.txt" \
  --co-locate orders,order_lines --avail orders=mirroring

if command -v python3 >/dev/null 2>&1; then
  log "sarif and json renderers emit well-formed JSON"
  "${BIN}" lint "${COMMON[@]}" --disks "${DATA}/disks.txt" \
      --evaluate "${DATA}/lint/striped_coaccess.csv" --format=sarif \
    | python3 -c 'import json,sys; d=json.load(sys.stdin); assert d["version"]=="2.1.0"; assert d["runs"][0]["results"]' \
    || fail "sarif output is not valid JSON"
  "${BIN}" lint "${COMMON[@]}" --disks "${DATA}/disks.txt" --format=json \
    | python3 -c 'import json,sys; json.load(sys.stdin)' \
    || fail "json output is not valid JSON"
else
  log "python3 not found — skipping JSON well-formedness checks"
fi

log "lint pass complete"
