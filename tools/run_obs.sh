#!/usr/bin/env bash
# Telemetry checks: run `dblayout advise` with the full observability surface
# switched on over the example data and the synthetic TPC-H metadata,
# asserting that:
#
#   1. an advised run with --progress/--trace-out/--metrics-out succeeds and
#      reports a trace summary plus the artifact paths
#   2. the trace file is well-formed Chrome trace_event JSON (loadable in
#      Perfetto / chrome://tracing) carrying the seed in its metadata
#      (checked when python3 is available)
#   3. the metrics file is Prometheus text exposition containing the search
#      move counters and the cost-model latency histogram
#   4. --seed is deterministic: two identical seeded runs produce
#      byte-identical metrics files
#
# Usage: tools/run_obs.sh --bin PATH_TO_dblayout [--out DIR]
#   --out keeps the trace, metrics and journals in DIR.
set -euo pipefail

DATA="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)/examples/data"
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
fail() { echo "OBS DRIVER FAILED: $*" >&2; exit 1; }

TRACE="${OUT}/trace.json"
METRICS="${OUT}/metrics.prom"

log "TPC-H sf=0.1 advised run with telemetry on"
out="$("${BIN}" advise --tpch 0.1 --disks "${DATA}/disks.txt" --seed 42 --progress \
        --trace-out "${TRACE}" --metrics-out "${METRICS}" 2>&1)" \
  || fail "telemetry run exited non-zero"
grep -q "trace summary:" <<<"${out}" || fail "no trace summary in output"
grep -q "progress:" <<<"${out}" || fail "no --progress lines in output"
[[ -s "${TRACE}" ]] || fail "trace file missing or empty: ${TRACE}"
[[ -s "${METRICS}" ]] || fail "metrics file missing or empty: ${METRICS}"

log "metrics file carries search counters and cost-model histogram"
grep -q "dblayout_search_moves_considered_widen_total" "${METRICS}" \
  || fail "search move counters missing from ${METRICS}"
grep -q "dblayout_cost_model_workload_cost_us_bucket" "${METRICS}" \
  || fail "cost-model latency histogram missing from ${METRICS}"

log "metrics file carries evaluation-engine counters"
# The search runs on LayoutEvaluator delta costing, so an advised run must
# record delta evaluations, commits, and at least one full Bind().
for counter in dblayout_evaluator_full_evals_total \
               dblayout_evaluator_delta_evals_total \
               dblayout_evaluator_commits_total \
               dblayout_cost_model_workload_evals_total; do
  grep -q "^${counter} [1-9]" "${METRICS}" \
    || fail "evaluator counter ${counter} missing or zero in ${METRICS}"
done

if command -v python3 >/dev/null 2>&1; then
  log "trace file is well-formed Chrome trace JSON with seed metadata"
  python3 - "${TRACE}" <<'PY' || fail "trace JSON validation failed"
import json, sys
with open(sys.argv[1]) as f:
    d = json.load(f)
events = d["traceEvents"]
assert events, "no trace events"
for ev in events:
    assert ev["ph"] == "X" and "ts" in ev and "dur" in ev, ev
assert d["otherData"]["seed"] == "42", d["otherData"]
names = {ev["name"] for ev in events}
assert "search/run" in names, sorted(names)
PY
else
  log "python3 not found — skipping trace JSON validation"
fi

log "seeded runs are deterministic (identical counters)"
"${BIN}" advise --tpch 0.1 --disks "${DATA}/disks.txt" --seed 42 \
  --metrics-out "${OUT}/metrics2.prom" >/dev/null 2>&1 \
  || fail "second seeded run exited non-zero"
# Latency histograms carry wall-clock sums that legitimately vary between
# runs; every counter (move tallies, evaluation counts) must match exactly.
grep ' [0-9]*$' "${METRICS}" | grep '_total ' > "${OUT}/counters1.txt"
grep ' [0-9]*$' "${OUT}/metrics2.prom" | grep '_total ' > "${OUT}/counters2.txt"
cmp -s "${OUT}/counters1.txt" "${OUT}/counters2.txt" \
  || { diff "${OUT}/counters1.txt" "${OUT}/counters2.txt" || true; \
       fail "counters differ between identical seeded runs"; }

log "example schema/workload run with telemetry on"
"${BIN}" advise --schema "${DATA}/schema.sql" --workload "${DATA}/workload.sql" \
  --disks "${DATA}/disks.txt" --trace-out "${OUT}/trace_examples.json" \
  >/dev/null 2>&1 || fail "example-data telemetry run exited non-zero"
[[ -s "${OUT}/trace_examples.json" ]] || fail "example trace file missing"

log "metrics carry the build/run info metric"
grep -q '^dblayout_build_info{' "${METRICS}" \
  || fail "dblayout_build_info metric missing from ${METRICS}"
grep '^dblayout_build_info{' "${METRICS}" | grep -q 'seed="42"' \
  || fail "info metric does not carry the run seed"

log "decision journal: envelope + run_end, byte-identical re-run"
JOURNAL="${OUT}/journal.jsonl"
"${BIN}" advise --tpch 0.1 --disks "${DATA}/disks.txt" --seed 42 \
  --journal-out "${JOURNAL}" >/dev/null 2>&1 \
  || fail "journal run exited non-zero"
[[ -s "${JOURNAL}" ]] || fail "journal file missing or empty: ${JOURNAL}"
head -1 "${JOURNAL}" | grep -q '"ev":"run_start"' \
  || fail "journal does not open with the run_start envelope"
tail -1 "${JOURNAL}" | grep -q '"ev":"run_end"' \
  || fail "journal does not close with the run_end envelope"
"${BIN}" advise --tpch 0.1 --disks "${DATA}/disks.txt" --seed 42 \
  --journal-out "${OUT}/journal2.jsonl" >/dev/null 2>&1 \
  || fail "second journal run exited non-zero"
cmp -s "${JOURNAL}" "${OUT}/journal2.jsonl" \
  || fail "identical seeded runs produced different journals"

log "obs pass complete"
