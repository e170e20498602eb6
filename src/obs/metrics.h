// Telemetry metrics: a process-wide registry of named counters, gauges and
// fixed-bucket latency histograms instrumenting the advisor pipeline.
//
// Design goals (mirroring AutoAdmin's advisor tooling and Hyrise's
// plugin-backed meta tables):
//   - lock-free fast path: once a handle is resolved, recording is one
//     relaxed atomic op; registration (name -> handle) takes a mutex but
//     happens once per call site via a function-local static;
//   - stable handles: the registry never deletes or reallocates a metric,
//     so cached Counter*/Gauge*/Histogram* pointers stay valid for the
//     process lifetime (ResetForTest zeroes values, it does not invalidate);
//   - kill switch: every instrumentation macro first checks
//     obs::Enabled(), an inline relaxed load of one atomic bool, so a run
//     with telemetry off pays a load and a branch per site and makes no
//     call. Sites stay out of the hottest kernels (CostModel::SubplanCost
//     has none; its callers count sub-plans in bulk).
//
// Metric names are hierarchical slash-paths ("search/moves_considered/jump");
// RenderPrometheus() maps them to the Prometheus exposition format
// (dblayout_search_moves_considered_jump_total ...).

#ifndef DBLAYOUT_OBS_METRICS_H_
#define DBLAYOUT_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"

namespace dblayout::obs {

namespace internal {
/// Backing flag of Enabled(); inline so every site reads it without a call.
inline std::atomic<bool> g_metrics_enabled{false};
}  // namespace internal

/// Global runtime kill switch for metric recording. Defaults to off. Span
/// tracing has its own switch, Tracer::SetEnabled.
inline bool Enabled() {
  return internal::g_metrics_enabled.load(std::memory_order_relaxed);
}
inline void SetEnabled(bool enabled) {
  internal::g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

/// Monotonically increasing event count. Thread-safe, lock-free.
class Counter {
 public:
  void Add(int64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Last-write-wins instantaneous value. Thread-safe, lock-free.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0};
};

/// Fixed-bucket histogram (cumulative rendering à la Prometheus). Bucket
/// upper bounds are set at registration and never change; Observe() is a
/// linear scan over a handful of bounds plus two relaxed atomic updates.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void Observe(double value);

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const;
  const std::vector<double>& upper_bounds() const { return upper_bounds_; }
  /// Per-bucket (non-cumulative) counts; the last entry is the overflow
  /// (+Inf) bucket.
  std::vector<int64_t> bucket_counts() const;
  /// Estimated q-quantile (q in [0,1]) linearly interpolated within the
  /// fixed buckets, à la Prometheus histogram_quantile: observations are
  /// assumed uniform inside a bucket, the overflow bucket clamps to the
  /// last finite bound, and an empty histogram reports 0.
  double Quantile(double q) const;
  /// One-line text summary: "count=N sum=S p50=A p95=B p99=C" (quantiles in
  /// the unit the histogram observes, typically microseconds).
  std::string SummaryString() const;
  void Reset();

 private:
  std::vector<double> upper_bounds_;  ///< ascending; +Inf bucket implicit
  std::unique_ptr<std::atomic<int64_t>[]> buckets_;  ///< size() + 1 slots
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_scaled_{0};  ///< sum in fixed point, scaled by 1e3
};

/// Default latency buckets in microseconds: 1us .. ~8s, powers of four.
std::vector<double> DefaultLatencyBucketsUs();

/// One metric with its metadata, as rendered/snapshotted.
struct MetricInfo {
  enum class Kind { kCounter, kGauge, kHistogram, kInfo };
  std::string name;
  std::string help;
  Kind kind = Kind::kCounter;
};

class MetricsRegistry {
 public:
  /// The process-wide registry used by the DBLAYOUT_OBS_* macros.
  static MetricsRegistry& Global();

  /// Returns the metric with `name`, registering it on first use. Handles
  /// are stable for the registry's lifetime. Registering the same name with
  /// a different kind aborts (programmer error).
  Counter* GetCounter(const std::string& name, const std::string& help = "");
  Gauge* GetGauge(const std::string& name, const std::string& help = "");
  Histogram* GetHistogram(const std::string& name,
                          std::vector<double> upper_bounds = DefaultLatencyBucketsUs(),
                          const std::string& help = "");

  /// Registers (or replaces the labels of) an *info metric*: a constant
  /// gauge `<name>{k1="v1",...} 1` whose labels carry build/run metadata —
  /// the Prometheus idiom for attributing a scrape to a build. Labels render
  /// in the given order with standard label-value escaping.
  void SetInfo(const std::string& name, const std::string& help,
               std::vector<std::pair<std::string, std::string>> labels);

  /// Prometheus text exposition (0.0.4): # HELP / # TYPE headers, counters
  /// suffixed _total, histograms as cumulative _bucket{le=...}/_sum/_count,
  /// info metrics as constant-1 labeled gauges.
  /// Deterministic: metrics render in name order.
  std::string RenderPrometheus() const;

  /// Flat text summary (one row per metric, name order); histogram rows
  /// carry interpolated p50/p95/p99. For --progress output and debugging.
  std::string RenderTextSummary() const;

  /// Zeroes every registered value (handles stay valid). Test isolation.
  void ResetForTest();

  /// Names of all registered metrics, sorted. For tests and debugging.
  std::vector<MetricInfo> Metrics() const;

 private:
  struct Entry {
    MetricInfo info;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    /// kInfo only: ordered label pairs rendered as {k="v",...}.
    std::vector<std::pair<std::string, std::string>> labels;
  };

  /// Looks up (default-constructing on first use) the entry for `name`.
  /// Callers hold mu_ for the lookup *and* for however long they touch the
  /// returned reference; the handles handed out by GetCounter & co. are the
  /// owned pointees, which are themselves lock-free and stable.
  Entry& GetEntryLocked(const std::string& name) DBLAYOUT_REQUIRES(mu_);

  mutable Mutex mu_;
  std::map<std::string, Entry> entries_ DBLAYOUT_GUARDED_BY(mu_);
};

}  // namespace dblayout::obs

// --- Instrumentation macros -------------------------------------------------

/// Adds `n` to the counter `name` (string literal). Steady-state cost: one
/// branch + one relaxed fetch_add; the handle resolves once per site.
#define DBLAYOUT_OBS_COUNT(name, n)                                            \
  do {                                                                         \
    if (::dblayout::obs::Enabled()) {                                          \
      static ::dblayout::obs::Counter* const dblayout_obs_counter_ =           \
          ::dblayout::obs::MetricsRegistry::Global().GetCounter(name);         \
      dblayout_obs_counter_->Add(n);                                           \
    }                                                                          \
  } while (0)

/// Sets the gauge `name` to `v`.
#define DBLAYOUT_OBS_GAUGE_SET(name, v)                                        \
  do {                                                                         \
    if (::dblayout::obs::Enabled()) {                                          \
      static ::dblayout::obs::Gauge* const dblayout_obs_gauge_ =               \
          ::dblayout::obs::MetricsRegistry::Global().GetGauge(name);           \
      dblayout_obs_gauge_->Set(v);                                             \
    }                                                                          \
  } while (0)

/// Records `v` into the histogram `name` (default latency buckets).
#define DBLAYOUT_OBS_OBSERVE(name, v)                                          \
  do {                                                                         \
    if (::dblayout::obs::Enabled()) {                                          \
      static ::dblayout::obs::Histogram* const dblayout_obs_hist_ =            \
          ::dblayout::obs::MetricsRegistry::Global().GetHistogram(name);       \
      dblayout_obs_hist_->Observe(v);                                          \
    }                                                                          \
  } while (0)

#endif  // DBLAYOUT_OBS_METRICS_H_
