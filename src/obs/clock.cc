#include "obs/clock.h"

#include <atomic>
#include <chrono>

namespace dblayout::obs {

namespace {

std::atomic<uint64_t (*)()> g_test_clock{nullptr};

}  // namespace

uint64_t MonotonicNowNs() {
  if (uint64_t (*const clock)() = g_test_clock.load(std::memory_order_relaxed)) {
    return clock();
  }
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void SetClockForTest(uint64_t (*clock)()) {
  g_test_clock.store(clock, std::memory_order_relaxed);
}

}  // namespace dblayout::obs
