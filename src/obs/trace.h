// Trace spans: nested, scoped wall-clock regions over the advisor pipeline
// (plan analysis -> access graph -> partitioning -> greedy search -> cost
// model), serialized as Chrome trace_event JSON (loadable in
// chrome://tracing and Perfetto) or aggregated into a flat text summary.
//
// Usage:
//   void TsGreedySearch::GreedyWiden(...) {
//     DBLAYOUT_TRACE_SPAN("search/greedy_widen");
//     ...
//   }
//
// Spans nest lexically: the macro creates an RAII object that records one
// complete ("ph":"X") event when the scope exits. Recording is active only
// while the Tracer is enabled; a disabled span costs an inline relaxed load
// of one atomic bool and makes no call. The tracer's switch is its own, not
// obs::Enabled(): the CLI and pipebench set the two separately. Timestamps
// come from obs::MonotonicNowNs (obs/clock.h). Events are buffered in
// memory and flushed once at exit time by whoever owns the run (the CLI's
// --trace-out, a test, a bench), so the hot path never touches the
// filesystem.

#ifndef DBLAYOUT_OBS_TRACE_H_
#define DBLAYOUT_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/mutex.h"

namespace dblayout::obs {

/// One completed span.
struct TraceEvent {
  std::string name;     ///< hierarchical slash-path, e.g. "search/greedy_iteration"
  uint64_t start_ns = 0;  ///< nanoseconds since the tracer epoch
  uint64_t dur_ns = 0;
  uint32_t tid = 0;     ///< small sequential per-thread id
  uint32_t depth = 0;   ///< nesting depth within the thread (1 = outermost)
};

/// Aggregated per-name statistics for the text summary.
struct SpanStats {
  std::string name;
  int64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t min_ns = 0;
  uint64_t max_ns = 0;
};

class Tracer {
 public:
  /// The process-wide tracer used by DBLAYOUT_TRACE_SPAN, and the only one.
  static Tracer& Global();

  /// Whether spans record. An inline relaxed load, so a disabled span makes
  /// no call; static because the global tracer is the only instance.
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }
  /// Enabling (re)starts the epoch so event timestamps begin near zero.
  void SetEnabled(bool enabled);

  /// Drops all buffered events and metadata.
  void Clear();

  /// Key/value metadata serialized into the trace ("seed", "workload", ...).
  void SetMetadata(const std::string& key, const std::string& value);

  /// Records one completed span. Usually called by ScopedSpan, not directly.
  void RecordComplete(const char* name, uint64_t start_ns, uint64_t end_ns,
                      uint32_t depth);

  /// Nanoseconds since the epoch, by obs::MonotonicNowNs.
  uint64_t NowNs() const;

  /// Snapshot of the buffered events, in completion order.
  std::vector<TraceEvent> Events() const;

  /// Chrome trace_event JSON object format: {"traceEvents": [...],
  /// "displayTimeUnit": "ms", "otherData": {metadata...}}. Timestamps are
  /// microseconds with sub-us precision, as the format requires.
  std::string ToChromeJson() const;

  /// Flat text summary: one row per span name (count, total/mean/min/max
  /// ms), sorted by total time descending then name, plus metadata lines.
  std::string Summary() const;

 private:
  Tracer() = default;

  static inline std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> epoch_ns_{0};
  mutable Mutex mu_;
  std::vector<TraceEvent> events_ DBLAYOUT_GUARDED_BY(mu_);
  std::map<std::string, std::string> metadata_ DBLAYOUT_GUARDED_BY(mu_);
};

/// RAII span. Inactive (and free apart from the inline switch check) when
/// the tracer is disabled at construction time; a span started while
/// enabled still records even if tracing is switched off before it closes,
/// keeping the JSON balanced.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) {
    if (Tracer::enabled()) Begin(name);
  }
  ~ScopedSpan() {
    if (name_ != nullptr) End();
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  void Begin(const char* name);
  void End();

  const char* name_ = nullptr;  ///< null when inactive
  uint64_t start_ns_ = 0;
  uint32_t depth_ = 0;
};

}  // namespace dblayout::obs

#define DBLAYOUT_TRACE_CONCAT_IMPL_(a, b) a##b
#define DBLAYOUT_TRACE_CONCAT_(a, b) DBLAYOUT_TRACE_CONCAT_IMPL_(a, b)
#define DBLAYOUT_TRACE_SPAN(name)                               \
  ::dblayout::obs::ScopedSpan DBLAYOUT_TRACE_CONCAT_(           \
      dblayout_obs_span_, __LINE__)(name)

#endif  // DBLAYOUT_OBS_TRACE_H_
