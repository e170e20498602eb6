#!/usr/bin/env bash
# Journal + report driver: exercises the search observatory end to end,
# asserting:
#
#   1. journal determinism — fixed-seed runs at --threads 1 and --threads 4
#      produce byte-identical journals from line 2 on (line 1 is the
#      run_start envelope, the only line allowed to carry the thread count),
#      both for a from-scratch run and for a --max-move run that goes
#      through the migration phase
#   2. a default-mode journal carries no wall-clock field at all
#   3. `dblayout report --journal` renders the funnel/trajectory/run_end
#      sections from a default journal, and phase timings from a
#      --journal-wall-clock journal
#   4. a journal whose integer field is not an integer in range (an
#      iter_end "iter" of 1e300, a run_start "threads" of 2.5) is reported
#      as malformed, with its line and field, and exits 2
#   5. `dblayout report --compare`: a file against itself exits 0; the seeded
#      regression fixture (tests/testdata/report_regressed.json, +16.6% on
#      one estimated_cost_ms) exits 1 and names the regressed metric;
#      malformed input exits 2
#
# Usage: tools/run_report.sh --bin PATH_TO_dblayout [--out DIR]
#   --out keeps the journals in DIR.
set -euo pipefail

SOURCE_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
DATA="${SOURCE_DIR}/examples/data"
FIXTURES="${SOURCE_DIR}/tests/testdata"
BIN=""
OUT="$(mktemp -d)"
trap 'rm -rf "${OUT}"' EXIT

while [[ $# -gt 0 ]]; do
  case "$1" in
    --bin) BIN="$2"; shift 2 ;;
    --out) rm -rf "${OUT}"; OUT="$2"; trap - EXIT; shift 2 ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done
[[ -n "${BIN}" && -x "${BIN}" ]] || { echo "usage: $0 --bin PATH_TO_dblayout" >&2; exit 2; }
mkdir -p "${OUT}"

log()  { printf '\n== %s ==\n' "$*"; }
fail() { echo "REPORT DRIVER FAILED: $*" >&2; exit 1; }

J1="${OUT}/journal_t1.jsonl"
J4="${OUT}/journal_t4.jsonl"
M1="${OUT}/journal_migrate_t1.jsonl"
M4="${OUT}/journal_migrate_t4.jsonl"
JW="${OUT}/journal_wall.jsonl"

log "journal byte-identity: --threads 1 vs --threads 4, seed 42"
"${BIN}" advise --tpch 0.1 --disks "${DATA}/disks.txt" --seed 42 --threads 1 \
                --journal-out "${J1}" >/dev/null || fail "threads-1 run exited non-zero"
"${BIN}" advise --tpch 0.1 --disks "${DATA}/disks.txt" --seed 42 --threads 4 \
                --journal-out "${J4}" >/dev/null || fail "threads-4 run exited non-zero"
[[ -s "${J1}" && -s "${J4}" ]] || fail "journal files missing or empty"
head -1 "${J1}" | grep -q '"ev":"run_start"' || fail "line 1 is not the run_start envelope"
head -1 "${J1}" | grep -q '"threads":1' || fail "envelope does not record threads=1"
head -1 "${J4}" | grep -q '"threads":4' || fail "envelope does not record threads=4"
# The envelope is the only line allowed to differ between equivalent runs.
cmp <(tail -n +2 "${J1}") <(tail -n +2 "${J4}") \
  || fail "journals differ past the envelope: thread count leaked into events"

grep -q '"t_us"' "${J1}" && fail "default-mode journal carries wall-clock t_us"
grep -q '"eval_ns"' "${J1}" && fail "default-mode journal carries eval_ns"

log "journal byte-identity through the migration phase: --max-move 0.2"
for t in 1 4; do
  "${BIN}" advise --tpch 0.1 --disks "${DATA}/disks.txt" --seed 42 --threads "${t}" \
                  --max-move 0.2 --journal-out "${OUT}/journal_migrate_t${t}.jsonl" >/dev/null \
    || fail "--max-move threads-${t} run exited non-zero"
done
grep -q '"phase":"migrate"' "${M1}" || fail "--max-move run never entered the migration phase"
cmp <(tail -n +2 "${M1}") <(tail -n +2 "${M4}") \
  || fail "migration journals differ past the envelope: thread count leaked into events"

log "run report over the default journal"
out="$("${BIN}" report --journal "${J1}")" || fail "report over default journal exited non-zero"
grep -q "acceptance funnel" <<<"${out}" || fail "no acceptance funnel in report"
grep -q "cost trajectory" <<<"${out}" || fail "no cost trajectory in report"
grep -q "run_end: status ok" <<<"${out}" || fail "no run_end summary in report"
grep -q "n/a" <<<"${out}" || fail "default journal should render phases as n/a"

log "run report over journals with a malformed integer field exits 2"
for edit in 's/"ev":"iter_end","iter":0,/"ev":"iter_end","iter":1e300,/' \
            's/"threads":1,/"threads":2.5,/'; do
  sed "${edit}" "${J1}" > "${OUT}/malformed.jsonl"
  cmp -s "${J1}" "${OUT}/malformed.jsonl" && fail "edit ${edit} changed nothing"
  set +e
  err="$("${BIN}" report --journal "${OUT}/malformed.jsonl" 2>&1 >/dev/null)"
  rc=$?
  set -e
  [[ ${rc} -eq 2 ]] || fail "malformed journal (${edit}) exited ${rc}, want 2"
  grep -q "journal line [0-9]*: .*field '\(iter\|threads\)'" <<<"${err}" \
    || fail "malformed journal error does not name the line and field: ${err}"
done

log "run report over a wall-clock journal (--journal-wall-clock --report)"
"${BIN}" advise --tpch 0.1 --disks "${DATA}/disks.txt" --seed 42 \
                --journal-out "${JW}" --journal-wall-clock --report >/dev/null \
  || fail "wall-clock run exited non-zero"
grep -q '"t_us"' "${JW}" || fail "wall-clock journal carries no t_us"
out="$("${BIN}" report --journal "${JW}")" || fail "report over wall-clock journal exited non-zero"
grep -q "cost attribution" <<<"${out}" || fail "no attribution tables in report"
grep -Eq "search +[0-9.]+ ms" <<<"${out}" || fail "no timed search phase in report"

log "--compare: self vs self exits 0"
"${BIN}" report --compare "${FIXTURES}/report_base.json" "${FIXTURES}/report_base.json" \
  || fail "self-comparison regressed"

log "--compare: seeded regression fixture exits 1"
set +e
out="$("${BIN}" report --compare "${FIXTURES}/report_base.json" \
                          "${FIXTURES}/report_regressed.json")"
rc=$?
set -e
[[ ${rc} -eq 1 ]] || fail "regression fixture exited ${rc}, want 1"
grep -q "REGRESSED" <<<"${out}" || fail "no REGRESSED verdict in compare output"
grep -q "estimated_cost_ms" <<<"${out}" || fail "regressed metric not named"

log "--compare: malformed input exits 2"
echo 'not json' > "${OUT}/bad.json"
set +e
"${BIN}" report --compare "${OUT}/bad.json" "${FIXTURES}/report_base.json" >/dev/null 2>&1
rc=$?
set -e
[[ ${rc} -eq 2 ]] || fail "malformed input exited ${rc}, want 2"

log "OK: journal identity + report + compare contracts hold"
