#include "obs/trace.h"

#include <algorithm>

#include "common/strutil.h"
#include "obs/clock.h"
#include "obs/journal.h"

namespace dblayout::obs {

namespace {

/// Small sequential per-thread ids (1, 2, ...) so traces are readable and
/// stable-ish run to run, unlike hashed std::thread::id values.
uint32_t ThisThreadId() {
  static std::atomic<uint32_t> next{1};
  thread_local uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

thread_local uint32_t tls_span_depth = 0;

}  // namespace

Tracer& Tracer::Global() {
  static Tracer* const tracer = new Tracer();
  return *tracer;
}

void Tracer::SetEnabled(bool enabled) {
  if (enabled) epoch_ns_.store(MonotonicNowNs(), std::memory_order_relaxed);
  enabled_.store(enabled, std::memory_order_relaxed);
}

void Tracer::Clear() {
  MutexLock lock(mu_);
  events_.clear();
  metadata_.clear();
}

void Tracer::SetMetadata(const std::string& key, const std::string& value) {
  MutexLock lock(mu_);
  metadata_[key] = value;
}

void Tracer::RecordComplete(const char* name, uint64_t start_ns, uint64_t end_ns,
                            uint32_t depth) {
  TraceEvent ev;
  ev.name = name;
  ev.start_ns = start_ns;
  ev.dur_ns = end_ns >= start_ns ? end_ns - start_ns : 0;
  ev.tid = ThisThreadId();
  ev.depth = depth;
  MutexLock lock(mu_);
  events_.push_back(std::move(ev));
}

uint64_t Tracer::NowNs() const {
  const uint64_t now = MonotonicNowNs();
  const uint64_t epoch = epoch_ns_.load(std::memory_order_relaxed);
  return now >= epoch ? now - epoch : 0;
}

std::vector<TraceEvent> Tracer::Events() const {
  MutexLock lock(mu_);
  return events_;
}

std::string Tracer::ToChromeJson() const {
  MutexLock lock(mu_);
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& ev : events_) {
    if (!first) out += ",";
    first = false;
    // Complete events ("ph":"X"): ts/dur in microseconds, fractions allowed.
    out += StrFormat(
        "{\"name\":%s,\"cat\":\"dblayout\",\"ph\":\"X\","
        "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
        "\"args\":{\"depth\":%u}}",
        JsonString(ev.name).c_str(), static_cast<double>(ev.start_ns) / 1e3,
        static_cast<double>(ev.dur_ns) / 1e3, ev.tid, ev.depth);
  }
  out += "],\"displayTimeUnit\":\"ms\",\"otherData\":{";
  first = true;
  for (const auto& [key, value] : metadata_) {
    if (!first) out += ",";
    first = false;
    out += JsonString(key) + ":" + JsonString(value);
  }
  out += "}}";
  return out;
}

std::string Tracer::Summary() const {
  std::vector<TraceEvent> events;
  std::map<std::string, std::string> metadata;
  {
    MutexLock lock(mu_);
    events = events_;
    metadata = metadata_;
  }
  std::map<std::string, SpanStats> by_name;
  for (const TraceEvent& ev : events) {
    SpanStats& s = by_name[ev.name];
    if (s.count == 0) {
      s.name = ev.name;
      s.min_ns = ev.dur_ns;
      s.max_ns = ev.dur_ns;
    }
    ++s.count;
    s.total_ns += ev.dur_ns;
    s.min_ns = std::min(s.min_ns, ev.dur_ns);
    s.max_ns = std::max(s.max_ns, ev.dur_ns);
  }
  std::vector<SpanStats> rows;
  rows.reserve(by_name.size());
  for (auto& [name, s] : by_name) {
    (void)name;
    rows.push_back(std::move(s));
  }
  std::stable_sort(rows.begin(), rows.end(), [](const SpanStats& a, const SpanStats& b) {
    if (a.total_ns != b.total_ns) return a.total_ns > b.total_ns;
    return a.name < b.name;
  });

  std::string out = StrFormat("trace summary: %zu events, %zu span names\n",
                              events.size(), rows.size());
  for (const auto& [key, value] : metadata) {
    out += StrFormat("  meta %s = %s\n", key.c_str(), value.c_str());
  }
  std::vector<std::vector<std::string>> table;
  table.push_back({"span", "count", "total(ms)", "mean(ms)", "min(ms)", "max(ms)"});
  for (const SpanStats& s : rows) {
    table.push_back(
        {s.name, StrFormat("%lld", static_cast<long long>(s.count)),
         StrFormat("%.3f", static_cast<double>(s.total_ns) / 1e6),
         StrFormat("%.3f",
                   static_cast<double>(s.total_ns) / 1e6 / static_cast<double>(s.count)),
         StrFormat("%.3f", static_cast<double>(s.min_ns) / 1e6),
         StrFormat("%.3f", static_cast<double>(s.max_ns) / 1e6)});
  }
  out += RenderTable(table);
  return out;
}

void ScopedSpan::Begin(const char* name) {
  name_ = name;
  depth_ = ++tls_span_depth;
  start_ns_ = Tracer::Global().NowNs();
}

void ScopedSpan::End() {
  Tracer& tracer = Tracer::Global();
  tracer.RecordComplete(name_, start_ns_, tracer.NowNs(), depth_);
  --tls_span_depth;
}

}  // namespace dblayout::obs
