// Shared helpers for the paper-reproduction bench binaries: workload
// simulation, improvement math, and table printing.

#ifndef DBLAYOUT_BENCH_BENCH_UTIL_H_
#define DBLAYOUT_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/strutil.h"
#include "engine/execution_sim.h"
#include "layout/advisor.h"
#include "obs/journal.h"
#include "workload/analyzer.h"

namespace dblayout::bench {

/// Simulated ("actual") execution time of an analyzed workload under a
/// layout, in ms. Aborts the bench on error.
inline double Simulate(const Database& db, const DiskFleet& fleet,
                       const WorkloadProfile& profile, const Layout& layout,
                       const ExecutionOptions& options = {}) {
  ExecutionSimulator sim(db, fleet, options);
  std::vector<WeightedPlan> plans;
  plans.reserve(profile.statements.size());
  for (const auto& s : profile.statements) {
    plans.push_back(WeightedPlan{s.plan.get(), s.weight});
  }
  auto t = sim.ExecutePlans(plans, layout);
  if (!t.ok()) {
    std::fprintf(stderr, "simulation failed: %s\n", t.status().ToString().c_str());
    std::exit(1);
  }
  return t.value();
}

inline double ImprovementPct(double baseline, double improved) {
  return baseline > 0 ? 100.0 * (baseline - improved) / baseline : 0.0;
}

/// Wall-clock seconds of `fn`.
template <typename Fn>
double TimeSeconds(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(end - start).count();
}

inline void PrintTable(const std::string& title,
                       const std::vector<std::vector<std::string>>& rows) {
  std::printf("\n== %s ==\n%s", title.c_str(), RenderTable(rows).c_str());
}

/// Unwraps a Result or aborts with its status.
template <typename T>
T Unwrap(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).value();
}

/// Serializes a search's SearchTelemetry as a JSON object: the fields of
/// kSearchTelemetryFields (search.h) that have a JSON key, in table order,
/// then the cost trajectory.
inline std::string TelemetryJson(const SearchTelemetry& t) {
  std::string out = "{";
  for (const SearchTelemetryField& f : kSearchTelemetryFields) {
    if (f.json_key == nullptr) continue;
    out += obs::JsonString(f.json_key) + ":" +
           (f.count != nullptr ? obs::JsonInt(t.*f.count) : obs::JsonBool(t.*f.flag)) +
           ",";
  }
  out += "\"cost_trajectory\":[";
  for (size_t i = 0; i < t.cost_trajectory.size(); ++i) {
    if (i > 0) out += ',';
    out += StrFormat("%.6g", t.cost_trajectory[i]);
  }
  return out + "]}";
}

/// Serializes a Recommendation's per-phase wall-clock breakdown. Keys end in
/// "_ms" so `dblayout report --compare` treats them as lower-is-better gates.
inline std::string PhasesJson(const PhaseBreakdown& p) {
  return StrFormat(
      "{\"analyze_ms\":%.6g,\"partition_ms\":%.6g,\"search_ms\":%.6g,"
      "\"evaluate_ms\":%.6g}",
      p.analyze_ms, p.partition_ms, p.search_ms, p.evaluate_ms);
}

/// Collects one JSON record per bench case and writes them as a JSON array
/// to BENCH_<name>.json in the working directory. Machine-readable companion
/// of PrintTable: downstream tooling diffs these across runs.
class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_(std::move(name)) {}

  /// `fields` are (key, already-serialized JSON value) pairs — pass numbers
  /// unquoted ("12.5") and use obs::JsonString for strings.
  void Add(const std::string& case_name,
           const std::vector<std::pair<std::string, std::string>>& fields,
           const SearchTelemetry* telemetry = nullptr,
           const PhaseBreakdown* phases = nullptr) {
    std::string rec = StrFormat("{\"case\":%s", obs::JsonString(case_name).c_str());
    for (const auto& [key, value] : fields) {
      rec += StrFormat(",%s:%s", obs::JsonString(key).c_str(), value.c_str());
    }
    if (telemetry != nullptr) {
      rec += StrFormat(",\"telemetry\":%s", TelemetryJson(*telemetry).c_str());
    }
    if (phases != nullptr) {
      rec += StrFormat(",\"phases\":%s", PhasesJson(*phases).c_str());
    }
    rec += '}';
    records_.push_back(std::move(rec));
  }

  /// Writes BENCH_<name>.json; prints the path so runs are discoverable.
  void Write() const {
    const std::string path = StrFormat("BENCH_%s.json", name_.c_str());
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return;
    }
    out << StrFormat("{\"bench\":%s,\"records\":[", obs::JsonString(name_).c_str());
    for (size_t i = 0; i < records_.size(); ++i) {
      if (i > 0) out << ',';
      out << records_[i];
    }
    out << "]}\n";
    std::printf("bench records written to %s\n", path.c_str());
  }

 private:
  std::string name_;
  std::vector<std::string> records_;
};

}  // namespace dblayout::bench

#endif  // DBLAYOUT_BENCH_BENCH_UTIL_H_
