// One monotonic clock for every observe-only timing: trace spans, the
// journal's wall-clock mode and its per-candidate "eval_ns", step 1's
// partition_ms, the advisor's phase breakdown and the cost model's
// workload_cost_us histogram. None of these feeds a decision, and the
// obs layer is where dblayout check's determinism-taint rule expects such
// reads. TsGreedySearch's wall-clock budget is a decision input and reads
// its own clock.

#ifndef DBLAYOUT_OBS_CLOCK_H_
#define DBLAYOUT_OBS_CLOCK_H_

#include <cstdint>

namespace dblayout::obs {

/// Monotonic nanoseconds since an arbitrary epoch (the steady clock), or
/// the test clock while one is installed.
uint64_t MonotonicNowNs();

/// Deterministic-clock hook for golden tests: `clock` returns absolute
/// nanoseconds; nullptr restores the steady clock.
void SetClockForTest(uint64_t (*clock)());

}  // namespace dblayout::obs

#endif  // DBLAYOUT_OBS_CLOCK_H_
