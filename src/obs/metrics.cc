#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/strutil.h"

namespace dblayout::obs {

namespace {

constexpr double kSumScale = 1e3;

/// Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*. Slash-paths and
/// dots/dashes map to underscores.
std::string PrometheusName(const std::string& name) {
  std::string out = "dblayout_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

/// Renders a double the way Prometheus expects: integral values without a
/// fractional tail, +Inf spelled out.
std::string PrometheusNumber(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    return StrFormat("%lld", static_cast<long long>(v));
  }
  return StrFormat("%g", v);
}

/// Label values escape backslash, double quote, and newline (exposition
/// format rules); label *names* come from our own call sites and are
/// assumed well-formed.
std::string PrometheusLabelValue(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

}  // namespace

Histogram::Histogram(std::vector<double> upper_bounds)
    : upper_bounds_(std::move(upper_bounds)) {
  DBLAYOUT_CHECK(std::is_sorted(upper_bounds_.begin(), upper_bounds_.end()));
  buckets_ = std::make_unique<std::atomic<int64_t>[]>(upper_bounds_.size() + 1);
  for (size_t i = 0; i <= upper_bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::Observe(double value) {
  // First bucket whose upper bound admits `value`; the slot past the last
  // bound is the +Inf overflow bucket.
  size_t b = 0;
  while (b < upper_bounds_.size() && value > upper_bounds_[b]) ++b;
  buckets_[b].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_scaled_.fetch_add(static_cast<int64_t>(value * kSumScale),
                        std::memory_order_relaxed);
}

double Histogram::sum() const {
  return static_cast<double>(sum_scaled_.load(std::memory_order_relaxed)) /
         kSumScale;
}

std::vector<int64_t> Histogram::bucket_counts() const {
  std::vector<int64_t> out(upper_bounds_.size() + 1);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

double Histogram::Quantile(double q) const {
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  const std::vector<int64_t> counts = bucket_counts();
  int64_t total = 0;
  for (int64_t c : counts) total += c;
  if (total == 0) return 0;
  // Target rank in [0, total]; walk cumulative counts to its bucket.
  const double rank = q * static_cast<double>(total);
  int64_t cumulative = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const int64_t next = cumulative + counts[i];
    if (static_cast<double>(next) >= rank) {
      // Overflow bucket has no upper bound: clamp to the last finite bound
      // (the histogram_quantile convention — the estimate is a floor, not a
      // fabrication of mass beyond the largest bucket).
      if (i >= upper_bounds_.size()) {
        return upper_bounds_.empty() ? 0 : upper_bounds_.back();
      }
      const double lo = i == 0 ? 0 : upper_bounds_[i - 1];
      const double hi = upper_bounds_[i];
      const double within =
          (rank - static_cast<double>(cumulative)) /
          static_cast<double>(counts[i]);
      return lo + (hi - lo) * within;
    }
    cumulative = next;
  }
  return upper_bounds_.empty() ? 0 : upper_bounds_.back();
}

std::string Histogram::SummaryString() const {
  return StrFormat("count=%lld sum=%s p50=%s p95=%s p99=%s",
                   static_cast<long long>(count()),
                   PrometheusNumber(sum()).c_str(),
                   PrometheusNumber(Quantile(0.50)).c_str(),
                   PrometheusNumber(Quantile(0.95)).c_str(),
                   PrometheusNumber(Quantile(0.99)).c_str());
}

void Histogram::Reset() {
  for (size_t i = 0; i <= upper_bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_scaled_.store(0, std::memory_order_relaxed);
}

std::vector<double> DefaultLatencyBucketsUs() {
  // 1us .. ~4.2s in powers of four: 12 bounds + overflow covers everything
  // from a single SubplanCost call to a full TS-GREEDY run.
  std::vector<double> bounds;
  double b = 1.0;
  for (int i = 0; i < 12; ++i) {
    bounds.push_back(b);
    b *= 4.0;
  }
  return bounds;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* const registry = new MetricsRegistry();
  return *registry;
}

MetricsRegistry::Entry& MetricsRegistry::GetEntryLocked(const std::string& name) {
  return entries_[name];
}

Counter* MetricsRegistry::GetCounter(const std::string& name, const std::string& help) {
  MutexLock lock(mu_);
  Entry& e = GetEntryLocked(name);
  if (e.info.name.empty()) {
    e.info = MetricInfo{name, help, MetricInfo::Kind::kCounter};
    e.counter = std::make_unique<Counter>();
  }
  DBLAYOUT_CHECK(e.counter != nullptr);  // name registered with another kind
  return e.counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name, const std::string& help) {
  MutexLock lock(mu_);
  Entry& e = GetEntryLocked(name);
  if (e.info.name.empty()) {
    e.info = MetricInfo{name, help, MetricInfo::Kind::kGauge};
    e.gauge = std::make_unique<Gauge>();
  }
  DBLAYOUT_CHECK(e.gauge != nullptr);
  return e.gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> upper_bounds,
                                         const std::string& help) {
  MutexLock lock(mu_);
  Entry& e = GetEntryLocked(name);
  if (e.info.name.empty()) {
    e.info = MetricInfo{name, help, MetricInfo::Kind::kHistogram};
    e.histogram = std::make_unique<Histogram>(std::move(upper_bounds));
  }
  DBLAYOUT_CHECK(e.histogram != nullptr);
  return e.histogram.get();
}

void MetricsRegistry::SetInfo(
    const std::string& name, const std::string& help,
    std::vector<std::pair<std::string, std::string>> labels) {
  MutexLock lock(mu_);
  Entry& e = GetEntryLocked(name);
  if (e.info.name.empty()) {
    e.info = MetricInfo{name, help, MetricInfo::Kind::kInfo};
  }
  DBLAYOUT_CHECK(e.info.kind == MetricInfo::Kind::kInfo);
  e.labels = std::move(labels);
}

std::string MetricsRegistry::RenderPrometheus() const {
  MutexLock lock(mu_);
  std::string out;
  for (const auto& [name, e] : entries_) {
    const std::string pname = PrometheusName(name);
    // Counters are exposed under <name>_total; HELP/TYPE must carry the
    // exposed name or scrapers attach the metadata to a nonexistent family.
    const std::string exposed =
        e.info.kind == MetricInfo::Kind::kCounter ? pname + "_total" : pname;
    if (!e.info.help.empty()) {
      out += StrFormat("# HELP %s %s\n", exposed.c_str(), e.info.help.c_str());
    }
    switch (e.info.kind) {
      case MetricInfo::Kind::kCounter:
        out += StrFormat("# TYPE %s counter\n", exposed.c_str());
        out += StrFormat("%s %lld\n", exposed.c_str(),
                         static_cast<long long>(e.counter->value()));
        break;
      case MetricInfo::Kind::kGauge:
        out += StrFormat("# TYPE %s gauge\n", pname.c_str());
        out += StrFormat("%s %s\n", pname.c_str(),
                         PrometheusNumber(e.gauge->value()).c_str());
        break;
      case MetricInfo::Kind::kHistogram: {
        out += StrFormat("# TYPE %s histogram\n", pname.c_str());
        const std::vector<int64_t> counts = e.histogram->bucket_counts();
        const std::vector<double>& bounds = e.histogram->upper_bounds();
        int64_t cumulative = 0;
        for (size_t i = 0; i < counts.size(); ++i) {
          cumulative += counts[i];
          const std::string le =
              i < bounds.size() ? PrometheusNumber(bounds[i]) : "+Inf";
          out += StrFormat("%s_bucket{le=\"%s\"} %lld\n", pname.c_str(),
                           le.c_str(), static_cast<long long>(cumulative));
        }
        out += StrFormat("%s_sum %s\n", pname.c_str(),
                         PrometheusNumber(e.histogram->sum()).c_str());
        out += StrFormat("%s_count %lld\n", pname.c_str(),
                         static_cast<long long>(e.histogram->count()));
        break;
      }
      case MetricInfo::Kind::kInfo: {
        out += StrFormat("# TYPE %s gauge\n", pname.c_str());
        std::string labels;
        for (const auto& [k, v] : e.labels) {
          if (!labels.empty()) labels.push_back(',');
          labels += StrFormat("%s=\"%s\"", k.c_str(),
                              PrometheusLabelValue(v).c_str());
        }
        out += StrFormat("%s{%s} 1\n", pname.c_str(), labels.c_str());
        break;
      }
    }
  }
  return out;
}

std::string MetricsRegistry::RenderTextSummary() const {
  MutexLock lock(mu_);
  std::string out;
  for (const auto& [name, e] : entries_) {
    switch (e.info.kind) {
      case MetricInfo::Kind::kCounter:
        out += StrFormat("%s %lld\n", name.c_str(),
                         static_cast<long long>(e.counter->value()));
        break;
      case MetricInfo::Kind::kGauge:
        out += StrFormat("%s %s\n", name.c_str(),
                         PrometheusNumber(e.gauge->value()).c_str());
        break;
      case MetricInfo::Kind::kHistogram:
        out += StrFormat("%s %s\n", name.c_str(),
                         e.histogram->SummaryString().c_str());
        break;
      case MetricInfo::Kind::kInfo: {
        std::string labels;
        for (const auto& [k, v] : e.labels) {
          if (!labels.empty()) labels += ", ";
          labels += StrFormat("%s=%s", k.c_str(), v.c_str());
        }
        out += StrFormat("%s [%s]\n", name.c_str(), labels.c_str());
        break;
      }
    }
  }
  return out;
}

void MetricsRegistry::ResetForTest() {
  MutexLock lock(mu_);
  for (auto& [name, e] : entries_) {
    (void)name;
    if (e.counter) e.counter->Reset();
    if (e.gauge) e.gauge->Reset();
    if (e.histogram) e.histogram->Reset();
  }
}

std::vector<MetricInfo> MetricsRegistry::Metrics() const {
  MutexLock lock(mu_);
  std::vector<MetricInfo> out;
  out.reserve(entries_.size());
  for (const auto& [name, e] : entries_) {
    (void)name;
    out.push_back(e.info);
  }
  return out;
}

}  // namespace dblayout::obs
