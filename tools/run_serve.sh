#!/usr/bin/env bash
# Service checks: exercise the continuous-advisor loop of `dblayout serve`
# end to end on the phased fixture stream (examples/data/serve/stream.txt),
# asserting that:
#
#   1. the guardrail lifecycle runs on the phased stream: a candidate is
#      observed, promoted only after K consecutive qualifying windows, and
#      auto-rolled-back when the shifted workload's realized cost regresses
#      past the tolerance
#   2. thread invariance: the baseline run at --threads 4 writes the same
#      journal (from line 2 on) and the same final layouts
#   3. --observe-only journals the promotion decision (serve_would_promote)
#      but never moves data: every session's final layout is still the
#      full-striping starting point and serve_promote never appears
#   4. crash recovery: kill -9 mid-stream, restart with --resume, and the
#      final layouts + per-session guardrail counters are byte-identical to
#      the uninterrupted baseline
#   5. an unusable service configuration (movement budget below the largest
#      object) is refused at startup with exit 2 and the
#      service-config-sane diagnostic
#   6. a corrupted checkpoint is rejected with a clear error (exit 2)
#   7. graceful degradation: an over-budget session (compressed profile past
#      --max-profile-statements) sheds to observe-only while the other
#      tenant keeps advising — degradation is per-session, never global
#
# Usage: tools/run_serve.sh --bin PATH_TO_dblayout
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
fail() { echo "SERVE DRIVER FAILED: $*" >&2; exit 1; }

STREAM="${DATA}/serve/stream.txt"
[[ -f "${STREAM}" ]] || fail "missing stream fixture ${STREAM}"

WORK="$(mktemp -d)"
trap 'rm -rf "${WORK}"' EXIT

COMMON=(--schema "${DATA}/schema.sql" --disks "${DATA}/disks.txt"
        --stream "${STREAM}" --window 4 --max-move 0.6 --seed 7)

log "guardrail lifecycle: observe, promote after K windows, roll back on regression"
"${BIN}" serve "${COMMON[@]}" \
  --journal-out "${WORK}/baseline.jsonl" \
  --final-layout "${WORK}/baseline_layout.csv" \
  > "${WORK}/baseline.out" || fail "baseline serve run exited non-zero"
grep -q '"ev":"serve_candidate"' "${WORK}/baseline.jsonl" \
  || fail "no candidate was ever observed"
grep -q '"ev":"serve_promote"' "${WORK}/baseline.jsonl" \
  || fail "the qualifying candidate was never promoted"
grep -q '"ev":"serve_rollback"' "${WORK}/baseline.jsonl" \
  || fail "the realized regression did not trigger a rollback"
# Promotion must come strictly after the candidate first appeared (the
# observe-only staging window), and the rollback after the promotion.
awk '/"ev":"serve_(candidate|promote|rollback)"/ {
       if (/serve_candidate/) c=NR
       if (/serve_promote/)  { if (!c) exit 1; p=NR }
       if (/serve_rollback/) { if (!p) exit 1 }
     }' "${WORK}/baseline.jsonl" \
  || fail "guardrail events out of lifecycle order"
grep -q 'session 1: .* 1 promotions, 1 rollbacks' "${WORK}/baseline.out" \
  || fail "session summary does not report the promotion + rollback"
grep -q 'session 2: .* 0 promotions, 0 rollbacks' "${WORK}/baseline.out" \
  || fail "the light tenant's layout should never have moved"

log "thread invariance: --threads 4 journals and lands exactly as the baseline"
"${BIN}" serve "${COMMON[@]}" --threads 4 \
  --journal-out "${WORK}/threads4.jsonl" \
  --final-layout "${WORK}/threads4_layout.csv" \
  > /dev/null || fail "--threads 4 serve run exited non-zero"
# Line 1 is the run header, which records the thread count.
cmp <(tail -n +2 "${WORK}/baseline.jsonl") <(tail -n +2 "${WORK}/threads4.jsonl") \
  || fail "--threads 4 journal differs from the 1-thread baseline"
cmp "${WORK}/baseline_layout.csv" "${WORK}/threads4_layout.csv" \
  || fail "--threads 4 final layouts differ from the 1-thread baseline"

log "observe-only mode journals decisions but never moves data"
"${BIN}" serve "${COMMON[@]}" --observe-only \
  --journal-out "${WORK}/observe.jsonl" \
  --final-layout "${WORK}/observe_layout.csv" \
  > /dev/null || fail "observe-only run exited non-zero"
grep -q '"ev":"serve_would_promote"' "${WORK}/observe.jsonl" \
  || fail "observe-only run never recorded the promotion decision"
grep -q '"ev":"serve_promote"' "${WORK}/observe.jsonl" \
  && fail "observe-only run promoted a layout"
# Every per-object row must still be the uniform capacity-weighted striping
# the sessions started from: no object may deviate from session 2's (never
# advised) rows. Compare the two session blocks of the CSV.
s1="$(sed -n '/# session 1/,/# session 2/p' "${WORK}/observe_layout.csv" | grep -v '^#' )"
s2="$(sed -n '/# session 2/,$p' "${WORK}/observe_layout.csv" | grep -v '^#' )"
[[ "${s1}" == "${s2}" ]] \
  || fail "observe-only run moved data (session layouts diverge)"

log "crash recovery: kill -9 mid-stream, --resume converges to the baseline"
"${BIN}" serve "${COMMON[@]}" \
  --checkpoint "${WORK}/ck.json" --checkpoint-every 1 --throttle-ms 50 \
  --journal-out "${WORK}/crash.jsonl" \
  > "${WORK}/crash.out" 2>&1 &
victim=$!
sleep 1
kill -9 "${victim}" 2>/dev/null || fail "the victim finished before the kill"
wait "${victim}" 2>/dev/null || true
[[ -f "${WORK}/ck.json" ]] || fail "no checkpoint was written before the kill"
"${BIN}" serve "${COMMON[@]}" \
  --checkpoint "${WORK}/ck.json" --resume \
  --journal-out "${WORK}/resumed.jsonl" \
  --final-layout "${WORK}/resumed_layout.csv" \
  > "${WORK}/resumed.out" || fail "resumed run exited non-zero"
grep -q 'resumed from' "${WORK}/resumed.out" \
  || fail "restart did not resume from the checkpoint"
diff "${WORK}/baseline_layout.csv" "${WORK}/resumed_layout.csv" \
  || fail "resumed final layouts differ from the uninterrupted baseline"
base_summary="$(grep '^  session' "${WORK}/baseline.out")"
resumed_summary="$(grep '^  session' "${WORK}/resumed.out")"
[[ "${base_summary}" == "${resumed_summary}" ]] \
  || fail "resumed guardrail counters differ from the baseline:
${base_summary}
vs
${resumed_summary}"

log "unusable service configuration is refused at startup"
set +e
msg="$("${BIN}" serve --schema "${DATA}/schema.sql" --disks "${DATA}/disks.txt" \
        --stream "${STREAM}" --max-move 0.1 2>&1)"
code=$?
set -e
[[ ${code} -eq 2 ]] || fail "movement budget below the largest object did not exit 2"
grep -q 'service-config-sane' <<<"${msg}" \
  || fail "refusal lacks the service-config-sane diagnostic: ${msg}"

log "corrupted checkpoint is rejected with a clear error"
head -c 40 "${WORK}/ck.json" > "${WORK}/ck_truncated.json"
set +e
msg="$("${BIN}" serve "${COMMON[@]}" \
        --checkpoint "${WORK}/ck_truncated.json" --resume 2>&1)"
code=$?
set -e
[[ ${code} -eq 2 ]] || fail "truncated checkpoint did not exit 2 (got ${code})"
grep -qi 'corrupted or truncated' <<<"${msg}" \
  || fail "truncated-checkpoint error is not clear: ${msg}"

log "over-budget session degrades to observe-only without blocking the other tenant"
"${BIN}" serve "${COMMON[@]}" --max-profile-statements 1 \
  --journal-out "${WORK}/degrade.jsonl" \
  > "${WORK}/degrade.out" || fail "degradation run exited non-zero"
grep -q '"ev":"serve_degrade".*profile-budget' "${WORK}/degrade.jsonl" \
  || fail "the over-budget session never recorded a profile-budget degradation"
grep -q 'session 1: .*mode degraded: profile-budget' "${WORK}/degrade.out" \
  || fail "session 1 should be degraded with reason profile-budget"
grep -q 'session 2: .*mode active' "${WORK}/degrade.out" \
  || fail "session 2 must keep advising while session 1 is degraded"
grep -q 'session 1: 28 statements' "${WORK}/degrade.out" \
  || fail "the degraded session must keep ingesting its full stream"

printf '\nSERVE DRIVER OK\n'
