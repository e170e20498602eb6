#!/usr/bin/env bash
# Correctness-tooling driver: runs the repo's whole static/dynamic analysis
# pass with one command, locally or in CI.
#
#   1. -Werror build          (-Wall -Wextra promoted to errors)
#   2. clang-tidy             over the compile database (skipped with a
#                             warning when clang-tidy is not installed)
#   3. layout lint            (tools/run_lint.sh over examples/data and the
#                             pathology fixtures, via the werror build's
#                             dblayout)
#   3b. dblayout check        (determinism & concurrency rules over src/ and
#                             bench/; zero unsuppressed findings required)
#   4. ASan+UBSan build+ctest (DBLAYOUT_SANITIZE=address,undefined,
#                             float-cast-overflow; the AUTO
#                             dcheck policy also enables the runtime
#                             invariant audits in this pass)
#   5. TSan build+ctest       (optional, --thread; preset for the future
#                             parallel search work)
#
# Usage: tools/run_analysis.sh [--source DIR] [--build-root DIR]
#                              [--tidy-only] [--no-tidy] [--thread] [-j N]
set -euo pipefail

SOURCE_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_ROOT=""
RUN_TIDY=1
TIDY_ONLY=0
RUN_THREAD=0
JOBS="$(nproc 2>/dev/null || echo 2)"

while [[ $# -gt 0 ]]; do
  case "$1" in
    --source)     SOURCE_DIR="$2"; shift 2 ;;
    --build-root) BUILD_ROOT="$2"; shift 2 ;;
    --tidy-only)  TIDY_ONLY=1; shift ;;
    --no-tidy)    RUN_TIDY=0; shift ;;
    --thread)     RUN_THREAD=1; shift ;;
    -j)           JOBS="$2"; shift 2 ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done
BUILD_ROOT="${BUILD_ROOT:-${SOURCE_DIR}/build-analysis}"

log()  { printf '\n== %s ==\n' "$*"; }
fail() { echo "ANALYSIS FAILED: $*" >&2; exit 1; }

configure_and_build() {  # name, extra cmake args...
  local name="$1"; shift
  local dir="${BUILD_ROOT}/${name}"
  log "configure+build ${name}"
  cmake -B "${dir}" -S "${SOURCE_DIR}" -DDBLAYOUT_WERROR=ON "$@" \
    || fail "${name}: configure"
  cmake --build "${dir}" -j "${JOBS}" || fail "${name}: build"
}

run_tests() {  # name
  local dir="${BUILD_ROOT}/$1"
  log "ctest ${1}"
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" \
    || fail "${1}: tests"
}

run_clang_tidy() {
  local dir="${BUILD_ROOT}/werror"
  local tidy=""
  for cand in clang-tidy clang-tidy-19 clang-tidy-18 clang-tidy-17 \
              clang-tidy-16 clang-tidy-15; do
    if command -v "${cand}" >/dev/null 2>&1; then tidy="${cand}"; break; fi
  done
  if [[ -z "${tidy}" ]]; then
    log "clang-tidy not found — SKIPPING the tidy gate (install clang-tidy to enable)"
    return 0
  fi
  log "clang-tidy (${tidy}) over src/ and tools/"
  local runner=""
  for cand in run-clang-tidy "run-clang-tidy-${tidy##*-}"; do
    if command -v "${cand}" >/dev/null 2>&1; then runner="${cand}"; break; fi
  done
  if [[ -n "${runner}" ]]; then
    "${runner}" -clang-tidy-binary "${tidy}" -p "${dir}" -quiet \
      "${SOURCE_DIR}/src/.*" "${SOURCE_DIR}/tools/.*" \
      || fail "clang-tidy diagnostics"
  else
    # No run-clang-tidy wrapper: iterate the translation units ourselves.
    local files
    files="$(find "${SOURCE_DIR}/src" "${SOURCE_DIR}/tools" -name '*.cc')"
    # shellcheck disable=SC2086
    "${tidy}" -p "${dir}" -quiet ${files} || fail "clang-tidy diagnostics"
  fi
}

# 1. Warning-clean gate (also produces the compile database for clang-tidy).
configure_and_build werror
# 2. clang-tidy gate.
if [[ "${RUN_TIDY}" -eq 1 ]]; then run_clang_tidy; fi
if [[ "${TIDY_ONLY}" -eq 1 ]]; then log "tidy-only: done"; exit 0; fi

# 3. Layout lint gate: example data plus the seeded-pathology fixtures.
log "layout lint (tools/run_lint.sh)"
bash "${SOURCE_DIR}/tools/run_lint.sh" \
  --bin "${BUILD_ROOT}/werror/tools/dblayout" || fail "layout lint"

# 3b. dblayout check gate: the repo's own sources must carry zero
# unsuppressed determinism/concurrency findings. The tool distinguishes
# "findings at the error threshold" (exit 1) from "could not run at all"
# (exit 2: bad flags, unreadable input); keep the two failure modes apart
# so a broken invocation is never mistaken for a dirty tree.
log "dblayout check over src/ and bench/"
check_rc=0
"${BUILD_ROOT}/werror/tools/dblayout" check \
  --baseline "${SOURCE_DIR}/tools/staticcheck_baseline.txt" --stats \
  --jobs "${JOBS}" \
  "${SOURCE_DIR}/src" "${SOURCE_DIR}/bench" || check_rc=$?
case "${check_rc}" in
  0) ;;
  1) fail "dblayout check: unsuppressed findings (fix, suppress inline, or baseline)" ;;
  2) fail "dblayout check: usage or I/O error (tool did not complete a scan)" ;;
  *) fail "dblayout check: unexpected exit status ${check_rc}" ;;
esac

# 4. AddressSanitizer + UndefinedBehaviorSanitizer, with invariant audits on.
configure_and_build asan-ubsan "-DDBLAYOUT_SANITIZE=address,undefined,float-cast-overflow"
run_tests asan-ubsan

# 5. ThreadSanitizer preset (opt-in until the search goes parallel).
if [[ "${RUN_THREAD}" -eq 1 ]]; then
  configure_and_build tsan "-DDBLAYOUT_SANITIZE=thread"
  run_tests tsan
fi

log "analysis pass complete: werror OK, tidy $([[ ${RUN_TIDY} -eq 1 ]] && echo run || echo skipped), sanitizers OK"
