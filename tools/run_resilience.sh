#!/usr/bin/env bash
# Resilience driver: exercises the failure-resilience surface of
# `dblayout advise` end to end on the synthetic TPC-H metadata and the example
# fleet, asserting that:
#
#   1. --resilience-report enumerates every single-drive-failure scenario
#      and names the worst drive
#   2. --fault-plan reports a degraded workload cost >= the healthy cost
#      (the fault model only ever slows drives down)
#   3. --evacuate produces a plan that advise re-validates on its own: the
#      failed drive ends empty and the movement stays within budget
#   4. a movement budget below the forced eviction is refused (exit 1)
#   5. an expired search budget (--time-budget-ms 0) still yields a valid
#      recommendation, flagged as best-so-far rather than converged
#   6. unusable inputs (missing or malformed fault plans) exit 2 with
#      file:line context, before anything is printed to stdout
#
# Usage: tools/run_resilience.sh --bin PATH_TO_dblayout
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
fail() { echo "RESILIENCE DRIVER FAILED: $*" >&2; exit 1; }

PLAN="${DATA}/resilience/fault_plan.txt"
[[ -f "${PLAN}" ]] || fail "missing fault-plan fixture ${PLAN}"

log "resilience report enumerates every drive and names the worst"
out="$("${BIN}" advise --tpch 0.1 --disks "${DATA}/disks.txt" --resilience-report 2>&1)" \
  || fail "--resilience-report run exited non-zero"
grep -q "resilience of recommended layout:" <<<"${out}" \
  || fail "no resilience report in output"
for drive in data1 data2 data3 data4 data5 safe1; do
  grep -q "${drive}" <<<"${out}" || fail "scenario for ${drive} missing"
done
grep -q "worst single-drive failure" <<<"${out}" || fail "worst-case line missing"

log "fault plan: degraded cost is never below healthy"
out="$("${BIN}" advise --tpch 0.1 --disks "${DATA}/disks.txt" --fault-plan "${PLAN}" 2>&1)" \
  || fail "--fault-plan run exited non-zero"
healthy="$(sed -n 's/.*healthy workload cost \([0-9]*\) ms.*/\1/p' <<<"${out}")"
degraded="$(sed -n 's/.*degraded \([0-9]*\) ms.*/\1/p' <<<"${out}")"
[[ -n "${healthy}" && -n "${degraded}" ]] \
  || fail "could not parse healthy/degraded costs from: ${out}"
[[ "${degraded}" -ge "${healthy}" ]] \
  || fail "degraded cost ${degraded} ms below healthy ${healthy} ms"

log "evacuation plan validates (drive empty, movement within budget)"
out="$("${BIN}" advise --tpch 0.1 --disks "${DATA}/disks.txt" --evacuate data2 2>&1)" \
  || fail "--evacuate run exited non-zero"
grep -q "evacuation plan validates" <<<"${out}" \
  || fail "evacuation plan did not validate"

log "movement budget below the forced eviction is refused"
if "${BIN}" advise --tpch 0.1 --disks "${DATA}/disks.txt" \
     --evacuate data2 --max-move 0.001 >/dev/null 2>&1; then
  fail "an impossible evacuation budget was accepted"
fi

# A zero budget expires before the first iteration on any machine; the
# whole search can finish inside 1 ms, so a 1 ms budget need not expire.
log "expired search budget: best-so-far recommendation, flagged"
out="$("${BIN}" advise --tpch 0.1 --disks "${DATA}/disks.txt" --time-budget-ms 0 2>&1)" \
  || fail "--time-budget-ms run exited non-zero"
grep -q "search wall-clock budget expired" <<<"${out}" \
  || fail "timed-out recommendation not flagged"
grep -qi "recommended layout" <<<"${out}" \
  || fail "no recommendation despite the budget"

log "unusable inputs exit 2"
set +e
"${BIN}" advise --tpch 0.1 --disks "${DATA}/disks.txt" \
  --fault-plan /nonexistent/plan.txt >/dev/null 2>&1
[[ $? -eq 2 ]] || fail "missing fault plan did not exit 2"
bad="$(mktemp)"
# A NaN scale passes a range check written `v < lo || v > hi`; it must not
# pass the reader.
# The plan is read with the other inputs, before the search: a bad one
# prints no recommendation, nothing at all on stdout.
stdout_file="$(mktemp)"
for plan in "data1 wobbly" "data2 degraded transfer=nan"; do
  echo "${plan}" > "${bad}"
  msg="$("${BIN}" advise --tpch 0.1 --disks "${DATA}/disks.txt" --fault-plan "${bad}" \
    2>&1 >"${stdout_file}")"
  code=$?
  [[ ${code} -eq 2 ]] || fail "fault plan '${plan}' did not exit 2"
  grep -q ":1:" <<<"${msg}" || fail "'${plan}' error lacks file:line context: ${msg}"
  [[ ! -s "${stdout_file}" ]] || fail "fault plan '${plan}' printed to stdout before failing"
done
rm -f "${bad}" "${stdout_file}"
set -e

printf '\nRESILIENCE DRIVER OK\n'
