// Tests for the telemetry subsystem (src/obs/): metrics-registry
// concurrency (run under TSan in CI), Prometheus rendering, span nesting
// and ordering under an injected clock, Chrome trace_event JSON structure,
// a golden text summary, and the overhead guard — telemetry on vs. off must
// not change any advisor output.

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "benchdata/tpch.h"
#include "common/rng.h"
#include "layout/advisor.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "workload/analyzer.h"

namespace dblayout {
namespace {

using obs::MetricsRegistry;
using obs::Tracer;

/// Every test starts and ends with telemetry off and all global state
/// zeroed, so suite order cannot leak counts between tests.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override { ResetAll(); }
  void TearDown() override { ResetAll(); }

  static void ResetAll() {
    obs::SetEnabled(false);
    Tracer::Global().SetEnabled(false);
    obs::SetClockForTest(nullptr);
    Tracer::Global().Clear();
    MetricsRegistry::Global().ResetForTest();
  }
};

// --- Metrics registry ------------------------------------------------------

TEST_F(ObsTest, CounterGaugeHistogramBasics) {
  obs::SetEnabled(true);
  MetricsRegistry& reg = MetricsRegistry::Global();

  obs::Counter* c = reg.GetCounter("test/basic_counter", "help text");
  c->Add();
  c->Add(41);
  EXPECT_EQ(c->value(), 42);
  // Handles are stable: re-resolving the name yields the same object.
  EXPECT_EQ(reg.GetCounter("test/basic_counter"), c);

  obs::Gauge* g = reg.GetGauge("test/basic_gauge");
  g->Set(2.5);
  EXPECT_DOUBLE_EQ(g->value(), 2.5);

  obs::Histogram* h = reg.GetHistogram("test/basic_hist", {1.0, 10.0, 100.0});
  h->Observe(0.5);    // bucket le=1
  h->Observe(5.0);    // bucket le=10
  h->Observe(5000.0); // overflow (+Inf)
  EXPECT_EQ(h->count(), 3);
  EXPECT_NEAR(h->sum(), 5005.5, 0.01);
  const std::vector<int64_t> buckets = h->bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(buckets[0], 1);
  EXPECT_EQ(buckets[1], 1);
  EXPECT_EQ(buckets[2], 0);
  EXPECT_EQ(buckets[3], 1);

  reg.ResetForTest();
  EXPECT_EQ(c->value(), 0);       // values zeroed...
  EXPECT_EQ(h->count(), 0);
  EXPECT_EQ(reg.GetCounter("test/basic_counter"), c);  // ...handles intact
}

TEST_F(ObsTest, MacrosAreNoOpsWhenDisabled) {
  ASSERT_FALSE(obs::Enabled());
  DBLAYOUT_OBS_COUNT("test/disabled_counter", 7);
  DBLAYOUT_OBS_OBSERVE("test/disabled_hist", 3.0);
  // Disabled macros must not even register the metric.
  for (const auto& m : MetricsRegistry::Global().Metrics()) {
    EXPECT_NE(m.name, "test/disabled_counter");
    EXPECT_NE(m.name, "test/disabled_hist");
  }
}

TEST_F(ObsTest, RegistryConcurrency) {
  obs::SetEnabled(true);
  MetricsRegistry& reg = MetricsRegistry::Global();
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;

  // All threads race registration of the same names and unique names while
  // hammering the shared handles; under TSan this validates the mutex-guarded
  // registration plus the relaxed-atomic fast paths.
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &reg] {
      obs::Counter* shared = reg.GetCounter("test/conc_shared");
      obs::Histogram* hist = reg.GetHistogram("test/conc_hist");
      obs::Counter* mine =
          reg.GetCounter("test/conc_private_" + std::to_string(t));
      for (int i = 0; i < kIters; ++i) {
        shared->Add();
        mine->Add();
        hist->Observe(static_cast<double>(i % 100));
        DBLAYOUT_OBS_COUNT("test/conc_macro", 1);
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(reg.GetCounter("test/conc_shared")->value(), kThreads * kIters);
  EXPECT_EQ(reg.GetCounter("test/conc_macro")->value(), kThreads * kIters);
  EXPECT_EQ(reg.GetHistogram("test/conc_hist")->count(), kThreads * kIters);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(reg.GetCounter("test/conc_private_" + std::to_string(t))->value(),
              kIters);
  }
}

TEST_F(ObsTest, PrometheusRendering) {
  obs::SetEnabled(true);
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.GetCounter("test/render_count", "how many")->Add(3);
  reg.GetGauge("test/render_gauge")->Set(1.5);
  obs::Histogram* h = reg.GetHistogram("test/render_hist", {1.0, 10.0});
  h->Observe(0.5);
  h->Observe(2.0);
  h->Observe(20.0);

  const std::string text = reg.RenderPrometheus();
  // Counter: dblayout_ prefix, slashes to underscores, _total suffix.
  EXPECT_NE(text.find("# TYPE dblayout_test_render_count_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("dblayout_test_render_count_total 3"), std::string::npos);
  EXPECT_NE(text.find("# HELP dblayout_test_render_count_total how many"),
            std::string::npos);
  EXPECT_NE(text.find("dblayout_test_render_gauge 1.5"), std::string::npos);
  // Histogram: cumulative buckets, +Inf, _sum and _count.
  EXPECT_NE(text.find("dblayout_test_render_hist_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("dblayout_test_render_hist_bucket{le=\"10\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("dblayout_test_render_hist_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("dblayout_test_render_hist_count 3"), std::string::npos);
  EXPECT_NE(text.find("dblayout_test_render_hist_sum 22.5"), std::string::npos);
  // Deterministic: rendering twice gives identical text.
  EXPECT_EQ(text, reg.RenderPrometheus());
}

TEST_F(ObsTest, HistogramQuantiles) {
  obs::SetEnabled(true);
  obs::Histogram* h = MetricsRegistry::Global().GetHistogram(
      "test/quantile_hist", {10.0, 100.0, 1000.0});
  // Empty histogram: all quantiles report 0.
  EXPECT_EQ(h->Quantile(0.5), 0);
  EXPECT_EQ(h->Quantile(0.99), 0);
  // 100 observations uniform in (0, 10]: interpolation within the first
  // bucket makes pN land at bound * N/100.
  for (int i = 0; i < 100; ++i) h->Observe(5.0);
  EXPECT_NEAR(h->Quantile(0.50), 5.0, 1e-9);
  EXPECT_NEAR(h->Quantile(0.95), 9.5, 1e-9);
  // Out-of-range q clamps rather than extrapolating.
  EXPECT_NEAR(h->Quantile(-1), h->Quantile(0), 1e-9);
  EXPECT_NEAR(h->Quantile(2), h->Quantile(1), 1e-9);
  // Mass in the overflow bucket clamps to the last finite bound (the
  // histogram_quantile convention: a floor, not fabricated mass).
  for (int i = 0; i < 900; ++i) h->Observe(5000.0);
  EXPECT_EQ(h->Quantile(0.99), 1000.0);
  // p50 still interpolates: rank 500 of 1000 falls in the overflow bucket
  // only past the first 100 observations.
  EXPECT_EQ(h->Quantile(0.05), 5.0);

  const std::string summary = h->SummaryString();
  EXPECT_NE(summary.find("count=1000"), std::string::npos);
  EXPECT_NE(summary.find("p50="), std::string::npos);
  EXPECT_NE(summary.find("p95="), std::string::npos);
  EXPECT_NE(summary.find("p99=1000"), std::string::npos);
}

TEST_F(ObsTest, InfoMetricRendering) {
  obs::SetEnabled(true);
  MetricsRegistry& reg = MetricsRegistry::Global();
  // Label values with characters needing exposition-format escaping.
  reg.SetInfo("test/build_meta", "build metadata",
              {{"git_sha", "abc123"},
               {"flags", "-O2 \"fast\""},
               {"note", "line\nbreak\\slash"}});
  const std::string text = reg.RenderPrometheus();
  EXPECT_NE(text.find("# TYPE dblayout_test_build_meta gauge"),
            std::string::npos);
  // Labels render in insertion order, value 1, escaped quotes/newlines.
  EXPECT_NE(
      text.find("dblayout_test_build_meta{git_sha=\"abc123\","
                "flags=\"-O2 \\\"fast\\\"\",note=\"line\\nbreak\\\\slash\"} 1"),
      std::string::npos);
  // SetInfo replaces labels in place (a re-stamp with a new seed updates the
  // same family).
  reg.SetInfo("test/build_meta", "build metadata", {{"seed", "7"}});
  const std::string again = reg.RenderPrometheus();
  EXPECT_NE(again.find("dblayout_test_build_meta{seed=\"7\"} 1"),
            std::string::npos);
  EXPECT_EQ(again.find("git_sha"), std::string::npos);
  // And the flat text summary shows the labels too.
  EXPECT_NE(reg.RenderTextSummary().find("test/build_meta [seed=7]"),
            std::string::npos);
}

TEST_F(ObsTest, PrometheusExpositionEdgeCases) {
  obs::SetEnabled(true);
  MetricsRegistry& reg = MetricsRegistry::Global();
  // Name mangling: slashes, dashes, and dots become underscores under the
  // dblayout_ prefix.
  reg.GetCounter("test/sub-system/odd.name")->Add(1);
  const std::string text = reg.RenderPrometheus();
  EXPECT_NE(text.find("dblayout_test_sub_system_odd_name_total 1"),
            std::string::npos);
  // A histogram with no observations still renders a complete family:
  // cumulative buckets all 0, +Inf present, sum and count 0.
  reg.GetHistogram("test/empty_hist", {1.0, 2.0});
  const std::string with_hist = reg.RenderPrometheus();
  EXPECT_NE(with_hist.find("dblayout_test_empty_hist_bucket{le=\"+Inf\"} 0"),
            std::string::npos);
  EXPECT_NE(with_hist.find("dblayout_test_empty_hist_sum 0"),
            std::string::npos);
  EXPECT_NE(with_hist.find("dblayout_test_empty_hist_count 0"),
            std::string::npos);
}

// --- Trace spans -----------------------------------------------------------

/// Installs a fake obs clock that advances `step_ns` per read.
class FakeClock {
 public:
  explicit FakeClock(uint64_t step_ns) {
    now_ns_ = 0;
    step_ns_ = step_ns;
    obs::SetClockForTest(&Advance);
  }
  ~FakeClock() { obs::SetClockForTest(nullptr); }

 private:
  static uint64_t Advance() { return now_ns_ += step_ns_; }
  static inline uint64_t now_ns_ = 0;
  static inline uint64_t step_ns_ = 0;
};

TEST_F(ObsTest, SpanNestingAndOrdering) {
  FakeClock clock(1'000'000);  // 1 ms per clock read
  Tracer::Global().SetEnabled(true);
  {
    DBLAYOUT_TRACE_SPAN("outer");
    {
      DBLAYOUT_TRACE_SPAN("inner_a");
    }
    {
      DBLAYOUT_TRACE_SPAN("inner_b");
    }
  }
  const std::vector<obs::TraceEvent> events = Tracer::Global().Events();
  ASSERT_EQ(events.size(), 3u);
  // Completion order: inner_a, inner_b, outer.
  EXPECT_EQ(events[0].name, "inner_a");
  EXPECT_EQ(events[1].name, "inner_b");
  EXPECT_EQ(events[2].name, "outer");
  EXPECT_EQ(events[0].depth, 2u);
  EXPECT_EQ(events[1].depth, 2u);
  EXPECT_EQ(events[2].depth, 1u);
  // The outer span brackets both inner spans.
  EXPECT_LE(events[2].start_ns, events[0].start_ns);
  EXPECT_GE(events[2].start_ns + events[2].dur_ns,
            events[1].start_ns + events[1].dur_ns);
  // All three events ran on the same (this) thread.
  EXPECT_EQ(events[0].tid, events[2].tid);
}

TEST_F(ObsTest, SpansInactiveWhileTracerDisabled) {
  {
    DBLAYOUT_TRACE_SPAN("never_recorded");
  }
  EXPECT_TRUE(Tracer::Global().Events().empty());
}

/// Minimal structural JSON scan: every brace/bracket balanced outside
/// strings, strings closed, no trailing garbage.
void CheckBalancedJson(const std::string& json) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (char c : json) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(depth, 0);
}

TEST_F(ObsTest, ChromeTraceJsonStructure) {
  FakeClock clock(500'000);
  Tracer& tracer = Tracer::Global();
  tracer.SetEnabled(true);
  tracer.SetMetadata("seed", "42");
  tracer.SetMetadata("workload", "unit \"quoted\" test");
  {
    DBLAYOUT_TRACE_SPAN("search/run");
    DBLAYOUT_TRACE_SPAN("search/greedy_iteration");
  }
  const std::string json = tracer.ToChromeJson();
  CheckBalancedJson(json);
  // The trace_event object-format envelope Perfetto and chrome://tracing load.
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u) << json.substr(0, 40);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  // Complete events with the required keys, in microseconds.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"search/run\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"search/greedy_iteration\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
  // Metadata lands in otherData, with string escaping applied.
  EXPECT_NE(json.find("\"otherData\":{"), std::string::npos);
  EXPECT_NE(json.find("\"seed\":\"42\""), std::string::npos);
  EXPECT_NE(json.find("unit \\\"quoted\\\" test"), std::string::npos);
}

TEST_F(ObsTest, GoldenSummary) {
  FakeClock clock(1'000'000);  // deterministic 1 ms per clock read
  Tracer& tracer = Tracer::Global();
  tracer.SetEnabled(true);
  tracer.SetMetadata("seed", "7");
  {
    DBLAYOUT_TRACE_SPAN("search/run");
    for (int i = 0; i < 3; ++i) {
      DBLAYOUT_TRACE_SPAN("search/greedy_iteration");
    }
  }
  {
    DBLAYOUT_TRACE_SPAN("workload/analyze");
  }
  const std::string summary = tracer.Summary();

  const std::string path =
      std::string(DBLAYOUT_TESTDATA_DIR) + "/obs_summary_golden.txt";
  if (std::getenv("OBS_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path);
    out << summary;
    ASSERT_TRUE(out.good()) << "failed to regenerate " << path;
    return;
  }
  std::ifstream golden(path);
  ASSERT_TRUE(golden.is_open())
      << "missing " << path << " (run with OBS_UPDATE_GOLDEN=1 to create)";
  std::ostringstream expected;
  expected << golden.rdbuf();
  EXPECT_EQ(summary, expected.str());
}

// --- Overhead guard --------------------------------------------------------

Column IntKey(const std::string& name, int64_t distinct) {
  Column c;
  c.name = name;
  c.type = ColumnType::kInt;
  c.distinct_count = distinct;
  c.min_value = 1;
  c.max_value = static_cast<double>(distinct);
  return c;
}

Database MicroDb() {
  Database db("obsmicro");
  for (const char* name : {"big_a", "big_b", "solo"}) {
    Table t;
    t.name = name;
    t.row_count = 300'000;
    t.columns = {IntKey(std::string(name) + "_k", 300'000)};
    Column pay;
    pay.name = std::string(name) + "_p";
    pay.type = ColumnType::kChar;
    pay.declared_length = 120;
    t.columns.push_back(pay);
    t.clustered_key = {t.columns[0].name};
    EXPECT_TRUE(db.AddTable(t).ok());
  }
  return db;
}

Result<Recommendation> RunMicroAdvisor(const Database& db, const DiskFleet& fleet) {
  Workload wl("obsmicro");
  EXPECT_TRUE(
      wl.Add("SELECT COUNT(*) FROM big_a, big_b WHERE big_a_k = big_b_k", 5).ok());
  EXPECT_TRUE(wl.Add("SELECT COUNT(*) FROM solo").ok());
  LayoutAdvisor advisor(db, fleet);
  return advisor.Recommend(wl);
}

TEST_F(ObsTest, TelemetryDoesNotChangeAdvisorResults) {
  Database db = MicroDb();
  DiskFleet fleet = DiskFleet::Uniform(4);

  // Baseline: everything off (the SetUp state).
  auto off = RunMicroAdvisor(db, fleet);
  ASSERT_TRUE(off.ok()) << off.status().ToString();

  // Counters on, tracer off.
  obs::SetEnabled(true);
  auto counters = RunMicroAdvisor(db, fleet);
  ASSERT_TRUE(counters.ok()) << counters.status().ToString();

  // Counters and tracer both on.
  Tracer::Global().SetEnabled(true);
  auto traced = RunMicroAdvisor(db, fleet);
  ASSERT_TRUE(traced.ok()) << traced.status().ToString();

  // Telemetry only observes: layout and costs must match bit-for-bit.
  for (const auto* run : {&counters.value(), &traced.value()}) {
    EXPECT_TRUE(run->layout.ApproxEquals(off->layout, 0.0));
    EXPECT_EQ(run->estimated_cost_ms, off->estimated_cost_ms);
    EXPECT_EQ(run->full_striping_cost_ms, off->full_striping_cost_ms);
    EXPECT_EQ(run->layouts_evaluated, off->layouts_evaluated);
    EXPECT_EQ(run->greedy_iterations, off->greedy_iterations);
  }
  // And the enabled runs actually recorded something.
  EXPECT_GT(MetricsRegistry::Global()
                .GetCounter("cost_model/subplan_evals")
                ->value(),
            0);
  EXPECT_FALSE(Tracer::Global().Events().empty());
}

TEST_F(ObsTest, SearchTelemetryIsConsistent) {
  Database db = MicroDb();
  DiskFleet fleet = DiskFleet::Uniform(4);
  auto rec = RunMicroAdvisor(db, fleet);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  const SearchTelemetry& t = rec->telemetry;

  const int64_t considered = t.widen_considered + t.jump_considered +
                             t.narrow_considered + t.migrate_considered;
  const int64_t accepted = t.widen_accepted + t.jump_accepted +
                           t.narrow_accepted + t.migrate_accepted;
  EXPECT_GT(considered, 0);
  EXPECT_LE(accepted, considered);
  EXPECT_EQ(accepted, rec->greedy_iterations);
  // Every accepted move evaluated the cost model, so the uniform counter
  // dominates the per-move tallies.
  EXPECT_GE(rec->layouts_evaluated, considered);
  // Trajectory: step-1 cost plus one sample per accepted move (plus one if
  // the fallback won), never increasing.
  ASSERT_GE(t.cost_trajectory.size(), 1u);
  EXPECT_GE(static_cast<int64_t>(t.cost_trajectory.size()), accepted + 1);
  for (size_t i = 1; i < t.cost_trajectory.size(); ++i) {
    EXPECT_LE(t.cost_trajectory[i], t.cost_trajectory[i - 1] + 1e-9);
  }
  // Cache-ability stats filled by the advisor.
  EXPECT_EQ(t.statements, 2);
  EXPECT_GT(t.subplans, 0);
  EXPECT_GT(t.distinct_signatures, 0);
  EXPECT_LE(t.distinct_signatures, t.statements);
}

// A metrics-on search publishes every search/* counter equal to its
// SearchTelemetry field (a flag publishes 1 when set). The second run
// migrates under a movement budget on small drives, so the migrate,
// capacity and movement counters are non-zero too.
TEST_F(ObsTest, SearchMetricsEqualTelemetryFields) {
  const Database db = benchdata::MakeTpchDatabase();
  const Result<Workload> wl = benchdata::MakeTpch22Workload(db, 1);
  ASSERT_TRUE(wl.ok()) << wl.status().ToString();
  const Result<WorkloadProfile> profile = AnalyzeWorkload(db, wl.value());
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();

  const DiskFleet roomy = DiskFleet::Heterogeneous(8, 0.3, 42);
  const DiskFleet tight = DiskFleet::Heterogeneous(8, 0.3, 42, 0.3);
  Rng rng(5);
  const Result<Layout> current = RandomLayout(db, tight, &rng);
  ASSERT_TRUE(current.ok()) << current.status().ToString();
  Constraints budgeted;
  budgeted.max_movement_fraction = 0.2;
  budgeted.current_layout = &current.value();

  obs::SetEnabled(true);
  for (const auto& [fleet, constraints] :
       {std::pair<const DiskFleet*, Constraints>{&roomy, Constraints{}},
        std::pair<const DiskFleet*, Constraints>{&tight, budgeted}}) {
    MetricsRegistry::Global().ResetForTest();
    const Result<ResolvedConstraints> rc =
        ResolveConstraints(constraints, db, *fleet);
    ASSERT_TRUE(rc.ok()) << rc.status().ToString();
    const Result<SearchResult> r =
        TsGreedySearch(db, *fleet).Run(profile.value(), rc.value());
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const SearchTelemetry& t = r->telemetry;
    const std::map<std::string, int64_t> counts = {
        {"search/moves_considered/widen", t.widen_considered},
        {"search/moves_considered/jump", t.jump_considered},
        {"search/moves_considered/narrow", t.narrow_considered},
        {"search/moves_considered/migrate", t.migrate_considered},
        {"search/moves_accepted/widen", t.widen_accepted},
        {"search/moves_accepted/jump", t.jump_accepted},
        {"search/moves_accepted/narrow", t.narrow_accepted},
        {"search/moves_accepted/migrate", t.migrate_accepted},
        {"search/candidates_capacity_rejected", t.capacity_rejected},
        {"search/candidates_movement_rejected", t.movement_rejected}};
    const std::map<std::string, bool> flags = {
        {"search/full_striping_fallbacks", t.used_full_striping_fallback},
        {"search/timeouts", t.timed_out}};
    std::map<std::string, int64_t> published;
    for (const obs::MetricInfo& m : MetricsRegistry::Global().Metrics()) {
      if (m.name.rfind("search/", 0) != 0) continue;
      ASSERT_EQ(m.kind, obs::MetricInfo::Kind::kCounter) << m.name;
      published[m.name] = MetricsRegistry::Global().GetCounter(m.name)->value();
    }
    for (const auto& [name, value] : counts) {
      ASSERT_EQ(published.count(name), 1u) << name;
      EXPECT_EQ(published[name], value) << name;
    }
    for (const auto& [name, value] : published) {
      if (counts.count(name) > 0) continue;
      ASSERT_EQ(flags.count(name), 1u) << "unexpected counter " << name;
      EXPECT_EQ(value, flags.at(name) ? 1 : 0) << name;
    }
    for (const auto& [name, set] : flags) {
      if (set) {
        EXPECT_EQ(published.count(name), 1u) << name;
      }
    }
    if (constraints.current_layout != nullptr) {
      EXPECT_GT(t.migrate_considered, 0);
      EXPECT_GT(t.capacity_rejected, 0);
      EXPECT_GT(t.movement_rejected, 0);
    }
  }
}

TEST_F(ObsTest, GlobalSeedRoundTrip) {
  const uint64_t before = GlobalSeed();
  SetGlobalSeed(20260806);
  EXPECT_EQ(GlobalSeed(), 20260806u);
  SetGlobalSeed(before);
}

}  // namespace
}  // namespace dblayout
