// Pipeline benchmark: generated SQL text in, a layout recommendation (the
// three advise workloads) or service windows (the serve workload) out. One
// workload per process:
//
//   bench_pipeline --workload NAME --seed N --seconds S --trace 0|1
//                  [--work-dir DIR]
//
// Advise workloads time the operation a DBA waits for: Workload::Add over
// the SQL text, AnalyzeWorkload, then LayoutAdvisor::RecommendFromProfile
// (one scoring thread, see kTimedThreads). The serve workload times the
// Supervisor::OnStatement calls that close a window. All load is a closed
// loop from the calling thread; the program receives only the SQL text the
// seed generates.
//
// --trace 0 reports the end-to-end metrics; --trace 1 the per-layer ones,
// measured from outside by wrapping calls into public functions in
// obs::ScopedSpan "bench/<layer>.<call>" spans, and writes
// TRACE_<workload>.json (Chrome trace format) to the work directory. The
// last stdout line is the result object
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// and the line before it ("RECORD {...}") adds sample counts, checks and,
// when traced, per-layer self times.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "benchdata/sales.h"
#include "benchdata/tpch.h"
#include "common/strutil.h"
#include "common/thread_pool.h"
#include "engine/execution_sim.h"
#include "graph/partition.h"
#include "layout/advisor.h"
#include "layout/evaluator.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "optimizer/optimizer.h"
#include "service/checkpoint.h"
#include "service/supervisor.h"
#include "workload/analyzer.h"

namespace dblayout::pipebench {
namespace {

using Clock = std::chrono::steady_clock;

/// Scoring threads (SearchOptions / ServiceConfig num_threads) of the
/// reference advises and serve pass and of the traced layer probes; results
/// are bit-identical at any value.
constexpr int kThreads = 4;
/// Scoring threads of the timed advises and serve passes, so every timed
/// repetition is also checked against a kThreads reference. One, because a
/// parallel scoring step lasts a few ms, and on a shared host's vCPUs such
/// short bursts run at the host scheduler's mercy: four 8 ms arithmetic
/// loops started together each took 32 ms (sustained 4-thread load scaled
/// 4x), and 2 of 10 qgen4-m16 runs at 4 threads took twice as long as the
/// rest. The traced run still times TsGreedySearch::Run at kThreads and 1.
constexpr int kTimedThreads = 1;
/// Service windows and checkpoint cadence of every Supervisor pass.
constexpr int kWindow = 16;
constexpr int kCheckpointEvery = 64;

struct WorkloadSpec {
  const char* name;
  bool serve;
  /// Advise workloads: SQL text sets generated from the seed and cycled
  /// through the timed loop; the quality metrics sum over all of them, so
  /// they do not hinge on one draw of query parameters.
  int variants;
  /// Timed operations (advises, or serve passes) between two repetitions
  /// of the set-up, so that set-up samples spread over the run.
  int setup_every;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"tpch22-m8", false, 16, 16},
    {"sales45-m8", false, 16, 4},
    {"qgen4-m16", false, 8, 4},
    {"serve-phased-m8", true, 1, 1},
};

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(v.size() - 1, lo + 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool SameLayout(const Layout& a, const Layout& b) {
  if (a.num_objects() != b.num_objects() || a.num_disks() != b.num_disks()) {
    return false;
  }
  for (int i = 0; i < a.num_objects(); ++i) {
    for (int j = 0; j < a.num_disks(); ++j) {
      if (!SameBits(a.x(i, j), b.x(i, j))) return false;
    }
  }
  return true;
}

bool SameRecommendation(const Recommendation& a, const Recommendation& b) {
  return SameBits(a.estimated_cost_ms, b.estimated_cost_ms) &&
         SameLayout(a.layout, b.layout);
}

/// Peak resident set of this process image, MB. VmHWM, unlike
/// getrusage's ru_maxrss, starts afresh at exec, so the memory of the
/// process that launched the benchmark does not count.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024;  // kB
    }
  }
  return 0;
}

// --- Report --------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  int64_t samples = 1;
};

/// Everything one run prints: metrics, failure accounting, failed checks.
struct Report {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failed_checks;
  std::vector<Metric> metrics;
  /// Printed and recorded, but not part of the result line.
  std::vector<Metric> context;
  std::string layers_json = "{}";

  void Add(const std::string& name, double value, const std::string& unit,
           int64_t samples = 1) {
    AddTo(&metrics, name, value, unit, samples);
  }
  void AddContext(const std::string& name, double value, const std::string& unit,
                  int64_t samples = 1) {
    AddTo(&context, name, value, unit, samples);
  }
  void AddTo(std::vector<Metric>* list, const std::string& name, double value,
             const std::string& unit, int64_t samples) {
    if (!std::isfinite(value)) {
      failed_checks.push_back(StrFormat("metric %s is not finite", name.c_str()));
      value = 0;
    }
    list->push_back(Metric{name, value, unit, samples});
  }
  void Check(bool ok, const std::string& what) {
    if (!ok) failed_checks.push_back(what);
  }
  /// Counts one attempted call and, if it failed, one failure. A failure
  /// never aborts the run.
  bool Count(const Status& st, const char* what) {
    ++attempted;
    if (st.ok()) return true;
    ++failed;
    std::fprintf(stderr, "%s failed: %s\n", what, st.ToString().c_str());
    return false;
  }
};

volatile double g_probe_sink = 0;  // keeps the probe's work observable

/// Fixed CPU work that calls nothing in the library (string formatting,
/// ordered-map updates, a sort: the kind of work the parser and optimizer
/// do). On a shared host other tenants' load slows this kind of
/// allocation- and cache-heavy work by up to 2x, changing within seconds;
/// the probe's time follows that, which is what the timings are scaled by.
double ProbeMs() {
  const auto t0 = Clock::now();
  std::map<std::string, double> totals;
  std::vector<double> values;
  uint64_t x = 0x9E3779B97F4A7C15ull;
  char key[32];
  for (int i = 0; i < 4000; ++i) {
    x ^= x << 13;  // xorshift64
    x ^= x >> 7;
    x ^= x << 17;
    std::snprintf(key, sizeof key, "object_%llu",
                  static_cast<unsigned long long>(x % 512));
    const double v = std::sqrt(static_cast<double>(x % 100000));
    totals[key] += v;
    values.push_back(v);
  }
  std::sort(values.begin(), values.end());
  g_probe_sink = values[values.size() / 2] + totals.begin()->second;
  return MsSince(t0);
}

constexpr int kProbesPerGroup = 3;

/// The probe's time on the reference machine, a lightly loaded 4-vCPU
/// Intel Xeon VM (GCC 12, Release); timings are reported at its speed.
constexpr double kReferenceProbeMs = 0.9;

/// Scales timings to the reference machine's speed. Every timed operation
/// (and set-up) lies between two probe groups, each the median of
/// kProbesPerGroup probes, and is scaled by kReferenceProbeMs / (the mean
/// of the two). The machine's speed changes within seconds, so only a probe
/// taken right next to an operation tells how fast it ran: scaled this way,
/// per operation, a SALES-45 advise's median over a run moved by 4% across
/// runs, against 10% when a run's timings were scaled by its median probe
/// and 18% unscaled.
class SpeedMeter {
 public:
  /// Probes the machine. Returns the scale for what ran since the last
  /// call: kReferenceProbeMs over the mean probe time on its two sides.
  double Next() {
    std::vector<double> group;
    for (int k = 0; k < kProbesPerGroup; ++k) group.push_back(ProbeMs());
    const double probe = Median(group);
    probe_ms_.push_back(probe);
    const double before = std::exchange(last_ms_, probe);
    return kReferenceProbeMs / (before > 0 ? (before + probe) / 2 : probe);
  }

  const std::vector<double>& probe_ms() const { return probe_ms_; }

 private:
  double last_ms_ = 0;
  std::vector<double> probe_ms_;
};

/// Samples of the untraced timed loop, each scaled by its SpeedMeter::Next.
struct Samples {
  std::vector<double> latency_ms;   ///< each timed operation
  std::vector<double> unscaled_ms;  ///< the same, as measured
  std::vector<double> throughput;   ///< statements per second of each advise / pass
  std::vector<double> setup_s;      ///< each repetition of the set-up
};

void AddLoadMetrics(const Samples& s, const SpeedMeter& meter, Report* report) {
  const auto ops = static_cast<int64_t>(s.latency_ms.size());
  report->Add("latency_p50_ms", Median(s.latency_ms), "ms", ops);
  report->Add("latency_p90_ms", Quantile(s.latency_ms, 0.9), "ms", ops);
  report->Add("throughput_stmts_per_sec", Median(s.throughput), "stmt/s",
              static_cast<int64_t>(s.throughput.size()));
  report->Add("setup_s", Median(s.setup_s), "s", static_cast<int64_t>(s.setup_s.size()));
  report->AddContext("machine.probe_ms", Median(meter.probe_ms()), "ms",
                     static_cast<int64_t>(meter.probe_ms().size()));
  report->AddContext("unscaled.latency_p50_ms", Median(s.unscaled_ms), "ms", ops);
}

// --- Inputs --------------------------------------------------------------

struct StreamStatement {
  int tenant = 0;
  std::string sql;
};

struct Inputs {
  Database db;
  DiskFleet fleet;
  /// Advise workloads: the SQL text of each variant. Serve: one entry, the
  /// statements of tenant 1's first phase, on which the traced run probes
  /// the layers below the service.
  std::vector<std::vector<std::string>> variants;
  std::vector<StreamStatement> stream;  ///< serve only
};

std::vector<std::string> Texts(const Workload& workload) {
  std::vector<std::string> out;
  for (const WorkloadStatement& s : workload.statements()) out.push_back(s.sql);
  return out;
}

/// Replaces the year of every `date 'YYYY-` literal in `sql` with one drawn
/// from SALES' 1999-2002 range.
void RedrawYears(std::string* sql, Rng* rng) {
  const std::string kDate = "date '";
  for (size_t at = sql->find(kDate); at != std::string::npos;
       at = sql->find(kDate, at + 1)) {
    sql->replace(at + kDate.size(), 4,
                 StrFormat("%d", static_cast<int>(rng->UniformInt(1999, 2002))));
  }
}

// The serve stream: each tenant rotates through kServePhases phases, each
// drawing its queries from one of three TPC-H query families; every fifth
// statement is a refresh write. Tenants start on different families, so
// their re-advises and guardrail decisions interleave. The statement mix is
// fixed and the seed draws query parameters and write keys, so every seed
// puts the same kind of work in each window.
constexpr int kServeTenants = 3;
constexpr int kServePhases = 6;
constexpr int kPhaseStatements = 96;  // per tenant: 6 windows of 16
constexpr int kRefreshEvery = 5;
constexpr int kQueryFamilies[3][4] = {
    {3, 5, 10, 18},  // joins
    {1, 6, 12, 4},   // lineitem scans
    {2, 11, 16, 20}  // part / supplier
};

std::string RefreshWrite(int kind, Rng* rng) {
  switch (kind) {
    case 0:
      return StrFormat("UPDATE orders SET o_orderstatus = 'F' WHERE o_orderkey < %d",
                       static_cast<int>(rng->UniformInt(1000, 150000)));
    case 1:
      return StrFormat("DELETE FROM lineitem WHERE l_orderkey < %d",
                       static_cast<int>(rng->UniformInt(1000, 60000)));
    default:
      return StrFormat(
          "INSERT INTO orders VALUES (%d, %d, 'O', %d.25, date '1998-08-01', "
          "'1-URGENT', 'Clerk#000000001', 0, 'refresh')",
          static_cast<int>(rng->UniformInt(6000001, 9000000)),
          static_cast<int>(rng->UniformInt(1, 150000)),
          static_cast<int>(rng->UniformInt(900, 500000)));
  }
}

std::vector<StreamStatement> PhasedStream(Rng* rng) {
  std::vector<StreamStatement> stream;
  for (int phase = 0; phase < kServePhases; ++phase) {
    for (int k = 0; k < kPhaseStatements; ++k) {
      const int refreshes = k / kRefreshEvery;  // before statement k
      for (int tenant = 1; tenant <= kServeTenants; ++tenant) {
        const int* family = kQueryFamilies[(phase + tenant - 1) % 3];
        stream.push_back(StreamStatement{
            tenant, k % kRefreshEvery == kRefreshEvery - 1
                        ? RefreshWrite(refreshes % 3, rng)
                        : benchdata::TpchQueryText(family[(k - refreshes) % 4], rng)});
      }
    }
  }
  return stream;
}

DiskFleet ServeFleet() {
  // 4 plain drives, 2 RAID 1 and 2 RAID 5: refresh writes pay redundancy
  // penalties on half the fleet.
  DiskFleet fleet = DiskFleet::Heterogeneous(8, 0.3, 42);
  for (int j = 4; j < 8; ++j) {
    fleet.disk(j).avail = j < 6 ? Availability::kMirroring : Availability::kParity;
  }
  return fleet;
}

Result<Inputs> MakeInputs(const WorkloadSpec& spec, uint64_t seed) {
  using namespace benchdata;
  const std::string name = spec.name;
  Rng rng(seed);
  Inputs in;
  if (name == "tpch22-m8") {
    in.db = MakeTpchDatabase(1.0);
    in.fleet = DiskFleet::Heterogeneous(8, 0.3, 42);
    for (int v = 0; v < spec.variants; ++v) {
      std::vector<std::string> sql;
      for (int q = 1; q <= 22; ++q) sql.push_back(TpchQueryText(q, &rng));
      in.variants.push_back(std::move(sql));
    }
  } else if (name == "sales45-m8") {
    // Which 5 to 10 tables each query joins sets the optimizer's work, and
    // across draws of it an advise's p90 moves by ~12%. So the queries keep
    // the canonical SALES-45 structure (generator seed 11) and the seed
    // draws their date-filter literals.
    in.db = MakeSalesDatabase();
    in.fleet = DiskFleet::Heterogeneous(8, 0.3, 42);
    DBLAYOUT_ASSIGN_OR_RETURN(const Workload sales45, MakeSales45Workload(in.db, 11));
    for (int v = 0; v < spec.variants; ++v) {
      std::vector<std::string> sql = Texts(sales45);
      for (std::string& s : sql) RedrawYears(&s, &rng);
      in.variants.push_back(std::move(sql));
    }
  } else if (name == "qgen4-m16") {
    // TPCH1G-4 with 352 qgen-style queries (16 per template), each
    // re-targeted to a random schema copy, as MakeTpchQgenWorkload does.
    in.db = MakeTpchDatabase(1.0, 4);
    in.fleet = DiskFleet::Heterogeneous(16, 0.3, 42);
    for (int v = 0; v < spec.variants; ++v) {
      std::vector<std::string> sql;
      for (int i = 0; i < 352; ++i) {
        const int copy = static_cast<int>(rng.UniformInt(1, 4));
        sql.push_back(TpchQueryText(i % 22 + 1, &rng, copy));
      }
      in.variants.push_back(std::move(sql));
    }
  } else if (name == "serve-phased-m8") {
    in.db = MakeTpchDatabase(1.0);
    in.fleet = ServeFleet();
    in.stream = PhasedStream(&rng);
    std::vector<std::string> probe;
    for (size_t i = 0; i < in.stream.size() && probe.size() < kPhaseStatements; ++i) {
      if (in.stream[i].tenant == 1) probe.push_back(in.stream[i].sql);
    }
    in.variants.push_back(std::move(probe));
  } else {
    return Status::InvalidArgument("unknown workload " + name);
  }
  return in;
}

// --- Advise ----------------------------------------------------------------

struct Advised {
  Workload workload;
  WorkloadProfile profile;
  Recommendation rec;
};

/// The unit of the advise workloads: SQL text -> parsed workload ->
/// analyzed profile -> recommendation.
Result<Advised> Advise(const Inputs& in, const std::vector<std::string>& sql,
                       int threads, obs::EventJournal* journal) {
  obs::ScopedSpan op("bench/pipeline.advise");
  Advised a;
  {
    obs::ScopedSpan span("bench/sql.parse");
    for (const std::string& s : sql) DBLAYOUT_RETURN_NOT_OK(a.workload.Add(s));
  }
  {
    obs::ScopedSpan span("bench/workload.analyze");
    DBLAYOUT_ASSIGN_OR_RETURN(a.profile, AnalyzeWorkload(in.db, a.workload));
  }
  AdvisorOptions options;
  options.search.num_threads = threads;
  options.search.journal = journal;
  obs::ScopedSpan span("bench/layout.recommend");
  DBLAYOUT_ASSIGN_OR_RETURN(
      a.rec, LayoutAdvisor(in.db, in.fleet, options).RecommendFromProfile(a.profile));
  return a;
}

/// Simulated replay of `profile` under `layout`, ms (0 when it fails).
double Replay(const Inputs& in, const WorkloadProfile& profile, const Layout& layout,
              Report* report) {
  std::vector<WeightedPlan> plans;
  for (const StatementProfile& s : profile.statements) {
    plans.push_back(WeightedPlan{s.plan.get(), s.weight});
  }
  ExecutionSimulator sim(in.db, in.fleet);
  Result<double> ms = sim.ExecutePlans(plans, layout);
  return report->Count(ms.status(), "ExecutionSimulator::ExecutePlans") ? ms.value() : 0;
}

/// Deterministic work counts of one recommendation (per-layer metrics).
struct WorkCounts {
  double statements = 0, subplans = 0, distinct_signatures = 0;
  double iterations = 0, evals = 0, full_evals = 0, delta_evals = 0;
  double considered = 0, accepted = 0, capacity_rejected = 0, movement_rejected = 0;

  void Add(const Recommendation& rec) {
    const SearchTelemetry& t = rec.telemetry;
    statements += static_cast<double>(t.statements);
    subplans += static_cast<double>(t.subplans);
    distinct_signatures += static_cast<double>(t.distinct_signatures);
    iterations += rec.greedy_iterations;
    evals += static_cast<double>(rec.layouts_evaluated);
    full_evals += static_cast<double>(t.full_evals);
    delta_evals += static_cast<double>(t.delta_evals);
    considered += static_cast<double>(t.widen_considered + t.jump_considered +
                                      t.narrow_considered + t.migrate_considered);
    accepted += static_cast<double>(t.widen_accepted + t.jump_accepted +
                                    t.narrow_accepted + t.migrate_accepted);
    capacity_rejected += static_cast<double>(t.capacity_rejected);
    movement_rejected += static_cast<double>(t.movement_rejected);
  }
};

/// One kThreads advise per variant, checked: the cost the advisor reports
/// is the §5 cost of its layout and it never loses to full striping. The
/// timed kTimedThreads repetitions must reproduce it bit for bit. The
/// estimated and simulated costs feed the quality metrics.
struct Reference {
  std::vector<std::optional<Advised>> advised;  ///< per variant
  double est_ms = 0, striped_ms = 0, sim_ms = 0, sim_striped_ms = 0;
  WorkCounts counts;
};

Reference AdviseReference(const Inputs& in, Report* report) {
  Reference ref;
  for (size_t v = 0; v < in.variants.size(); ++v) {
    Result<Advised> a = Advise(in, in.variants[v], kThreads, nullptr);
    if (!report->Count(a.status(), "reference advise")) {
      ref.advised.emplace_back();
      continue;
    }
    const Recommendation& rec = a->rec;
    const std::string tag = StrFormat("variant %zu", v);
    report->Check(SameBits(CostModel(in.fleet).WorkloadCost(a->profile, rec.layout),
                           rec.estimated_cost_ms),
                  tag + ": WorkloadCost(recommended layout) != estimated_cost_ms");
    report->Check(rec.estimated_cost_ms <= rec.full_striping_cost_ms,
                  tag + ": recommendation costs more than full striping");
    ref.sim_ms += Replay(in, a->profile, rec.layout, report);
    ref.sim_striped_ms += Replay(in, a->profile, rec.full_striping, report);
    ref.est_ms += rec.estimated_cost_ms;
    ref.striped_ms += rec.full_striping_cost_ms;
    ref.counts.Add(rec);
    ref.advised.push_back(std::move(a).value());
  }
  return ref;
}

/// Candidates the evaluator probes scored and the sub-plans they re-costed.
struct ScoreCounts {
  int64_t scores = 0;
  int64_t subplans = 0;
};

/// Per-layer probes of one advised workload: each public call below the
/// advisor, called directly under its own bench/ span.
void ProbeLayers(const Inputs& in, const Advised& a, ScoreCounts* scored,
                 Report* report) {
  obs::ScopedSpan root("bench/pipeline.probe");
  const Optimizer optimizer(in.db);
  for (const WorkloadStatement& s : a.workload.statements()) {
    obs::ScopedSpan span("bench/optimizer.plan");
    report->Count(optimizer.Plan(s.parsed).status(), "Optimizer::Plan");
  }
  WeightedGraph graph;
  {
    obs::ScopedSpan span("bench/workload.access_graph");
    graph = BuildAccessGraph(a.profile);
  }
  {
    obs::ScopedSpan span("bench/graph.partition");
    PartitionOptions options;
    options.num_partitions = in.fleet.num_disks();
    const Partitioning part = MaxCutPartition(graph, options);
    report->Check(part.size() == graph.num_nodes(), "partition size mismatch");
  }
  Result<ResolvedConstraints> constraints = ResolveConstraints({}, in.db, in.fleet);
  if (!report->Count(constraints.status(), "ResolveConstraints")) return;
  SearchOptions options;
  options.num_threads = kThreads;
  {
    obs::ScopedSpan span("bench/layout.initial_layout");
    report->Count(TsGreedySearch(in.db, in.fleet, options)
                      .InitialLayout(a.profile, *constraints)
                      .status(),
                  "TsGreedySearch::InitialLayout");
  }
  for (const int threads : {kThreads, 1}) {
    options.num_threads = threads;
    obs::ScopedSpan span(threads == 1 ? "bench/layout.search_t1" : "bench/layout.search");
    report->Count(
        TsGreedySearch(in.db, in.fleet, options).Run(a.profile, *constraints).status(),
        "TsGreedySearch::Run");
  }
  const CostModel cost_model(in.fleet);
  {
    obs::ScopedSpan span("bench/layout.cost_model.workload_cost");
    report->Check(SameBits(cost_model.WorkloadCost(a.profile, a.rec.layout),
                           a.rec.estimated_cost_ms),
                  "probe: WorkloadCost(recommended layout) != estimated_cost_ms");
  }
  LayoutEvaluator evaluator(a.profile, cost_model);
  {
    obs::ScopedSpan span("bench/layout.evaluator.bind");
    evaluator.Bind(a.rec.layout);
  }
  // Candidates: each object alone spread over every drive (one widening
  // step of the search, at its widest).
  std::vector<int> all_disks;
  for (int j = 0; j < in.fleet.num_disks(); ++j) all_disks.push_back(j);
  {
    obs::ScopedSpan span("bench/layout.evaluator.score");
    LayoutEvaluator::Scratch scratch = evaluator.MakeScratch();
    for (int i = 0; i < a.rec.layout.num_objects(); ++i) {
      evaluator.ScoreProportionalMove({i}, all_disks, &scratch);
      scored->subplans += static_cast<int64_t>(scratch.affected.size());
      ++scored->scores;
    }
  }
  obs::ScopedSpan span("bench/engine.replay");
  Replay(in, a.profile, a.rec.layout, report);
}

// --- Service -----------------------------------------------------------------

struct PassResult {
  std::vector<double> window_ms;  ///< OnStatement calls that closed a window
  double seconds = 0;             ///< whole pass, checkpoints included
  int64_t statements = 0;
  std::string final_layouts;  ///< every session's active layout, id order
  std::string final_checkpoint;
  int64_t checkpoint_bytes = 0;
  int windows = 0, advises = 0, promotions = 0, rollbacks = 0, degraded = 0;
  /// Capture passes only: each closed window's statements costed under the
  /// layout active while it was ingested, and under full striping.
  double realized_ms = 0, striped_ms = 0, sim_ms = 0, sim_striped_ms = 0;
};

ServiceConfig MakeServiceConfig(int threads) {
  ServiceConfig config;
  config.window_size = kWindow;
  config.num_threads = threads;
  return config;
}

/// Costs one closed window's statements under `active` and full striping.
void CaptureWindow(const Inputs& in, const std::vector<std::string>& sql,
                   const Layout& active, PassResult* pass, Report* report) {
  Workload workload;
  for (const std::string& s : sql) report->Count(workload.Add(s), "Workload::Add");
  Result<WorkloadProfile> profile = AnalyzeWorkload(in.db, workload);
  if (!report->Count(profile.status(), "AnalyzeWorkload")) return;
  const Layout striped =
      Layout::FullStriping(static_cast<int>(in.db.Objects().size()), in.fleet);
  const CostModel cost_model(in.fleet);
  pass->realized_ms += cost_model.WorkloadCost(*profile, active);
  pass->striped_ms += cost_model.WorkloadCost(*profile, striped);
  pass->sim_ms += Replay(in, *profile, active, report);
  pass->sim_striped_ms += Replay(in, *profile, striped, report);
}

void Checkpoint(const Supervisor& supervisor, const std::string& path, PassResult* pass,
                Report* report) {
  obs::ScopedSpan span("bench/service.checkpoint");
  const ServiceSnapshot snapshot = supervisor.Snapshot();
  if (report->Count(WriteCheckpointAtomic(snapshot, path), "WriteCheckpointAtomic")) {
    pass->final_checkpoint = SerializeCheckpoint(snapshot);
    pass->checkpoint_bytes = static_cast<int64_t>(pass->final_checkpoint.size());
  }
}

/// One pass of `stream` through a fresh Supervisor, checkpointing every
/// kCheckpointEvery statements and once more after the end-of-stream flush.
PassResult ServePass(const Inputs& in, const std::vector<StreamStatement>& stream,
                     int threads, obs::EventJournal* journal, bool capture,
                     const std::string& checkpoint_path, Report* report) {
  PassResult pass;
  const Layout striped =
      Layout::FullStriping(static_cast<int>(in.db.Objects().size()), in.fleet);
  std::map<int, std::vector<std::string>> open_window;  // per tenant
  const auto start = Clock::now();
  {
    obs::ScopedSpan root("bench/service.pass");
    Supervisor supervisor(in.db, in.fleet, MakeServiceConfig(threads), journal);
    for (const StreamStatement& s : stream) {
      std::vector<std::string>& window = open_window[s.tenant];
      window.push_back(s.sql);
      const bool closes = static_cast<int>(window.size()) == kWindow;
      std::optional<Layout> active;
      if (capture && closes) {
        const Session* session = supervisor.FindSession(s.tenant);
        active = session != nullptr ? session->active_layout() : striped;
      }
      ++pass.statements;
      const auto t0 = Clock::now();
      Status st;
      {
        obs::ScopedSpan span(closes ? "bench/service.on_statement.window"
                                    : "bench/service.on_statement");
        st = supervisor.OnStatement(s.tenant, s.sql);
      }
      if (closes) pass.window_ms.push_back(MsSince(t0));
      report->Count(st, "Supervisor::OnStatement");
      if (closes) {
        if (capture) CaptureWindow(in, window, *active, &pass, report);
        window.clear();
      }
      if (pass.statements % kCheckpointEvery == 0) {
        Checkpoint(supervisor, checkpoint_path, &pass, report);
      }
    }
    {
      obs::ScopedSpan span("bench/service.flush");
      report->Count(supervisor.FlushAll(), "Supervisor::FlushAll");
    }
    Checkpoint(supervisor, checkpoint_path, &pass, report);
    std::vector<std::string> names;
    for (const auto& object : in.db.Objects()) names.push_back(object.name);
    for (const auto& [id, session] : supervisor.sessions()) {
      pass.final_layouts += StrFormat("session %d\n", id);
      pass.final_layouts += session->active_layout().ToCsv(names, in.fleet);
      pass.windows += session->windows_closed();
      pass.advises += session->advises();
      pass.promotions += session->promotions();
      pass.rollbacks += session->rollbacks();
      pass.degraded += session->mode() == SessionMode::kDegraded ? 1 : 0;
    }
  }
  pass.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  return pass;
}

/// Checkpoint round-trips: Serialize -> Parse -> Serialize is byte-identical,
/// and restoring the pass's last checkpoint file re-snapshots identically.
void CheckRestore(const Inputs& in, const PassResult& pass,
                  const std::string& checkpoint_path, Report* report) {
  Result<ServiceSnapshot> parsed = ParseCheckpoint(pass.final_checkpoint);
  if (!report->Count(parsed.status(), "ParseCheckpoint")) return;
  report->Check(SerializeCheckpoint(*parsed) == pass.final_checkpoint,
                "checkpoint Serialize -> Parse -> Serialize is not byte-identical");
  obs::ScopedSpan span("bench/service.restore");
  Result<ServiceSnapshot> read = ReadCheckpoint(checkpoint_path);
  if (!report->Count(read.status(), "ReadCheckpoint")) return;
  Result<std::unique_ptr<Supervisor>> restored = Supervisor::Restore(
      *read, in.db, in.fleet, MakeServiceConfig(kThreads), nullptr);
  if (!report->Count(restored.status(), "Supervisor::Restore")) return;
  report->Check(SerializeCheckpoint((*restored)->Snapshot()) == pass.final_checkpoint,
                "restored supervisor re-snapshots differently");
}

std::vector<StreamStatement> SingleTenantStream(const std::vector<std::string>& sql) {
  std::vector<StreamStatement> stream;
  for (const std::string& s : sql) stream.push_back(StreamStatement{1, s});
  return stream;
}

// --- Traced runs ---------------------------------------------------------------

/// bench/ spans of a traced run, nested by interval containment (they all
/// run on the calling thread). `calls_ms` holds every span's duration by
/// name; the rep_* maps hold, for every outermost span (one repetition of
/// one kind), the per-name sum, self time (sum minus child bench/ spans)
/// and largest single call.
struct BenchSpans {
  using ByName = std::map<std::string, std::vector<double>>;
  ByName calls_ms;
  ByName rep_total_ms, rep_self_ms, rep_max_ms;

  /// Values for span bench/<name>; empty if it never ran.
  const std::vector<double>& Calls(const std::string& name) const {
    return Of(calls_ms, name);
  }
  const std::vector<double>& Totals(const std::string& name) const {
    return Of(rep_total_ms, name);
  }
  const std::vector<double>& Maxes(const std::string& name) const {
    return Of(rep_max_ms, name);
  }

 private:
  static const std::vector<double>& Of(const ByName& field, const std::string& name) {
    static const std::vector<double> kNone;
    const auto it = field.find("bench/" + name);
    return it == field.end() ? kNone : it->second;
  }
};

BenchSpans CollectBenchSpans(const std::vector<obs::TraceEvent>& all) {
  std::vector<obs::TraceEvent> ev;
  for (const obs::TraceEvent& e : all) {
    if (e.name.rfind("bench/", 0) == 0) ev.push_back(e);
  }
  std::sort(ev.begin(), ev.end(), [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.dur_ns > b.dur_ns;
  });
  auto contains = [](const obs::TraceEvent& outer, const obs::TraceEvent& inner) {
    return inner.start_ns >= outer.start_ns &&
           inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns;
  };
  std::vector<uint64_t> child_ns(ev.size(), 0);
  std::vector<size_t> root_of(ev.size(), 0);
  std::vector<size_t> stack;
  for (size_t k = 0; k < ev.size(); ++k) {
    while (!stack.empty() && !contains(ev[stack.back()], ev[k])) stack.pop_back();
    if (!stack.empty()) child_ns[stack.back()] += ev[k].dur_ns;
    root_of[k] = stack.empty() ? k : root_of[stack.front()];
    stack.push_back(k);
  }
  struct Acc {
    double total = 0, self = 0, max = 0;
  };
  std::map<size_t, std::map<std::string, Acc>> reps;
  BenchSpans spans;
  for (size_t k = 0; k < ev.size(); ++k) {
    const double ms = static_cast<double>(ev[k].dur_ns) / 1e6;
    Acc& acc = reps[root_of[k]][ev[k].name];
    acc.total += ms;
    acc.self += ms - static_cast<double>(child_ns[k]) / 1e6;
    acc.max = std::max(acc.max, ms);
    spans.calls_ms[ev[k].name].push_back(ms);
  }
  for (const auto& [root, by_name] : reps) {
    for (const auto& [name, acc] : by_name) {
      spans.rep_total_ms[name].push_back(acc.total);
      spans.rep_self_ms[name].push_back(acc.self);
      spans.rep_max_ms[name].push_back(acc.max);
    }
  }
  return spans;
}

std::string LayersJson(const BenchSpans& spans) {
  std::string out = "{";
  for (const auto& [name, totals] : spans.rep_total_ms) {
    if (out.size() > 1) out += ',';
    const auto calls = static_cast<int64_t>(spans.calls_ms.at(name).size());
    out += StrFormat("%s:{\"calls\":%s,\"reps\":%s,\"p50_ms\":%s,\"self_p50_ms\":%s}",
                     obs::JsonString(name).c_str(), obs::JsonInt(calls).c_str(),
                     obs::JsonInt(static_cast<int64_t>(totals.size())).c_str(),
                     obs::JsonDouble(Median(totals)).c_str(),
                     obs::JsonDouble(Median(spans.rep_self_ms.at(name))).c_str());
  }
  return out + "}";
}

/// Telemetry settings compared by the traced run, each in its own block of
/// repetitions: nothing on (the end-to-end setting), obs metrics on, an
/// in-memory decision journal on, and span tracing on.
enum Mode { kPlain = 0, kMetrics, kJournal, kTraced };
constexpr int kNumModes = 4;

double OverheadPct(const std::vector<double>& with, const std::vector<double>& without) {
  const double base = Median(without);
  return base > 0 ? 100.0 * (Median(with) / base - 1.0) : 0;
}

/// Per-layer metrics shared by every workload: the spans of the advise op
/// and its probes, the counts, and telemetry overheads.
void AddLayerMetrics(const BenchSpans& spans, const WorkCounts& counts, double variants,
                     const ScoreCounts& scored,
                     const std::vector<double> (&latency)[kNumModes], Report* report) {
  auto per_variant = [variants](double v) { return variants > 0 ? v / variants : 0; };
  // Median over repetitions of a span's total time (x `scale`).
  auto add_span = [&spans, report](const char* metric, const char* span,
                                   const char* unit = "ms", double scale = 1) {
    const std::vector<double>& totals = spans.Totals(span);
    report->Add(metric, scale * Median(totals), unit,
                static_cast<int64_t>(totals.size()));
    return scale * Median(totals);
  };
  const double statements = per_variant(counts.statements);
  const double subplans = per_variant(counts.subplans);
  add_span("sql.parse_ms", "sql.parse");
  report->Add("sql.statements", statements, "count");
  add_span("optimizer.plan_ms", "optimizer.plan");
  const std::vector<double>& plan_max = spans.Maxes("optimizer.plan");
  report->Add("optimizer.plan_max_ms", Median(plan_max), "ms",
              static_cast<int64_t>(plan_max.size()));
  report->Add("optimizer.subplans_per_stmt", statements > 0 ? subplans / statements : 0,
              "count");
  add_span("workload.analyze_ms", "workload.analyze");
  add_span("workload.access_graph_ms", "workload.access_graph");
  report->Add("workload.subplans", subplans, "count");
  report->Add("workload.distinct_signatures", per_variant(counts.distinct_signatures),
              "count");
  add_span("graph.partition_ms", "graph.partition");
  add_span("layout.recommend_ms", "layout.recommend");
  add_span("layout.initial_layout_ms", "layout.initial_layout");
  const double search = add_span("layout.search_ms", "layout.search");
  const double search_t1 = add_span("layout.search_t1_ms", "layout.search_t1");
  report->Add("layout.parallel_speedup", search > 0 ? search_t1 / search : 0, "ratio");
  // Each traced repetition times one recommend and one search of the same
  // profile at the same thread count (kTimedThreads, 1); the median of their
  // differences is what the advisor adds.
  std::vector<double> overhead;
  const std::vector<double>& recommends = spans.Totals("layout.recommend");
  const std::vector<double>& searches = spans.Totals("layout.search_t1");
  for (size_t i = 0; i < std::min(recommends.size(), searches.size()); ++i) {
    overhead.push_back(recommends[i] - searches[i]);
  }
  report->Add("layout.recommend_overhead_ms", Median(overhead), "ms",
              static_cast<int64_t>(overhead.size()));
  const double iterations = per_variant(counts.iterations);
  report->Add("layout.iterations", iterations, "count");
  report->Add("layout.evals", per_variant(counts.evals), "count");
  report->Add("layout.full_evals", per_variant(counts.full_evals), "count");
  report->Add("layout.delta_evals", per_variant(counts.delta_evals), "count");
  // The loop stops at its first non-improving iteration, which scores too.
  report->Add("layout.candidates_per_iter",
              per_variant(counts.considered) / (iterations + 1), "count");
  report->Add("layout.accept_ratio",
              counts.considered > 0 ? counts.accepted / counts.considered : 0, "ratio");
  report->Add("layout.capacity_rejected", per_variant(counts.capacity_rejected), "count");
  report->Add("layout.movement_rejected", per_variant(counts.movement_rejected), "count");
  const double workload_cost_us = add_span("layout.cost_model.workload_cost_us",
                                           "layout.cost_model.workload_cost", "us", 1e3);
  report->Add("layout.cost_model.subplan_cost_ns",
              subplans > 0 ? 1e3 * workload_cost_us / subplans : 0, "ns");
  add_span("layout.evaluator.bind_us", "layout.evaluator.bind", "us", 1e3);
  // One score span per probe covers every candidate of that probe.
  const std::vector<double>& score_ms = spans.Totals("layout.evaluator.score");
  const double scores = static_cast<double>(scored.scores);
  const double per_probe =
      score_ms.empty() ? 0 : scores / static_cast<double>(score_ms.size());
  report->Add("layout.evaluator.score_us",
              per_probe > 0 ? 1e3 * Median(score_ms) / per_probe : 0, "us",
              scored.scores);
  report->Add("layout.evaluator.subplans_per_score",
              scores > 0 ? static_cast<double>(scored.subplans) / scores : 0, "count",
              scored.scores);
  add_span("engine.replay_ms", "engine.replay");
  report->Add("obs.trace_overhead_pct", OverheadPct(latency[kTraced], latency[kPlain]),
              "%", static_cast<int64_t>(latency[kTraced].size()));
  report->Add("obs.metrics_overhead_pct", OverheadPct(latency[kMetrics], latency[kPlain]),
              "%", static_cast<int64_t>(latency[kMetrics].size()));
  report->Add("obs.journal_overhead_pct", OverheadPct(latency[kJournal], latency[kPlain]),
              "%", static_cast<int64_t>(latency[kJournal].size()));
  report->Add("common.threads_effective",
              std::min(kThreads, ThreadPool::Shared().num_workers() + 1), "count");
}

void AddServiceMetrics(const BenchSpans& spans, const PassResult& pass, Report* report) {
  // Median single call of a span (x `scale`).
  auto add_call = [&spans, report](const char* metric, const char* span, const char* unit,
                                   double scale) {
    const std::vector<double>& calls = spans.Calls(span);
    report->Add(metric, scale * Median(calls), unit, static_cast<int64_t>(calls.size()));
  };
  add_call("service.ingest_p50_us", "service.on_statement", "us", 1e3);
  add_call("service.checkpoint_p50_ms", "service.checkpoint", "ms", 1);
  report->Add("service.checkpoint_bytes", static_cast<double>(pass.checkpoint_bytes),
              "bytes");
  add_call("service.restore_ms", "service.restore", "ms", 1);
  report->Add("service.windows", pass.windows, "count");
  report->Add("service.advises", pass.advises, "count");
  report->Add("service.promotions", pass.promotions, "count");
  report->Add("service.rollbacks", pass.rollbacks, "count");
  report->Add("service.degraded_sessions", pass.degraded, "count");
}

/// Switches one telemetry mode on (or off) for the repetitions of its block.
void SetMode(Mode mode, bool on) {
  if (mode == kMetrics) obs::SetEnabled(on);
  if (mode == kTraced) obs::Tracer::Global().SetEnabled(on);
}

void WriteTrace(const std::string& workload, uint64_t seed, const std::string& dir,
                Report* report) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.SetMetadata("workload", workload);
  tracer.SetMetadata("seed", StrFormat("%llu", static_cast<unsigned long long>(seed)));
  const std::string path = dir + "/TRACE_" + workload + ".json";
  std::ofstream out(path);
  out << tracer.ToChromeJson() << '\n';
  out.close();
  if (report->Count(out ? Status::OK() : Status::Internal("cannot write " + path),
                    "trace write")) {
    std::printf("trace written to %s\n", path.c_str());
  }
}

// --- Workload runners ------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".";
};

std::string CheckpointPath(const Args& args) {
  return StrFormat("%s/checkpoint_%d.json", args.work_dir.c_str(),
                   static_cast<int>(getpid()));
}

/// Adds one timed operation to `samples`: its latencies `ms` (an advise's
/// own; a serve pass's windows) and `statements` taken in over `seconds`,
/// all scaled by `scale`, the SpeedMeter's for it.
void AddSamples(const std::vector<double>& ms, double seconds, int64_t statements,
                double scale, Samples* samples) {
  for (const double m : ms) {
    samples->latency_ms.push_back(m * scale);
    samples->unscaled_ms.push_back(m);
  }
  samples->throughput.push_back(static_cast<double>(statements) / (seconds * scale));
}

/// The runners add the correctness checks and, untraced, the cost ratios to
/// `report` and the timed loop to `samples`; traced, they add the per-layer
/// metrics. Untraced, every timed operation is followed by `meter->Next()`,
/// and `setup` repeats the set-up every spec.setup_every operations.
void RunAdvise(const WorkloadSpec& spec, const Args& args, const Inputs& in,
               const std::function<void()>& setup, SpeedMeter* meter, Samples* samples,
               Report* report) {
  const Reference ref = AdviseReference(in, report);
  const size_t variants = in.variants.size();
  // Every repetition must reproduce its variant's reference bit for bit.
  int64_t mismatches = 0;
  struct TimedAdvise {
    Advised advised;
    double ms = 0;
    int64_t statements = 0;
  };
  auto run_op = [&](int64_t rep,
                    obs::EventJournal* journal) -> std::optional<TimedAdvise> {
    const size_t v = static_cast<size_t>(rep) % variants;
    const auto t0 = Clock::now();
    Result<Advised> a = Advise(in, in.variants[v], kTimedThreads, journal);
    const double ms = MsSince(t0);
    if (!report->Count(a.status(), "advise")) return std::nullopt;
    if (!ref.advised[v].has_value() || !SameRecommendation(a->rec, ref.advised[v]->rec)) {
      ++mismatches;
    }
    return TimedAdvise{std::move(a).value(), ms,
                       static_cast<int64_t>(in.variants[v].size())};
  };

  if (!args.trace) {
    const auto deadline = Clock::now() + std::chrono::duration<double>(args.seconds);
    meter->Next();
    for (int64_t rep = 0; rep == 0 || Clock::now() < deadline; ++rep) {
      if (rep % spec.setup_every == 0) setup();
      std::optional<TimedAdvise> op = run_op(rep, nullptr);
      const double scale = meter->Next();
      if (op.has_value()) {
        AddSamples({op->ms}, op->ms / 1e3, op->statements, scale, samples);
      }
    }
    report->Add("est_cost_ratio", ref.est_ms / ref.striped_ms, "ratio",
                static_cast<int64_t>(variants));
    report->Add("sim_cost_ratio", ref.sim_ms / ref.sim_striped_ms, "ratio",
                static_cast<int64_t>(variants));
  } else {
    std::vector<double> latency[kNumModes];
    ScoreCounts scored;
    std::optional<PassResult> service;
    const std::string checkpoint_path = CheckpointPath(args);
    for (int m = 0; m < kNumModes; ++m) {
      const Mode mode = static_cast<Mode>(m);
      const auto deadline =
          Clock::now() + std::chrono::duration<double>(args.seconds / kNumModes);
      SetMode(mode, true);
      for (int64_t rep = 0; rep == 0 || Clock::now() < deadline; ++rep) {
        obs::EventJournal journal;
        std::optional<TimedAdvise> op =
            run_op(rep, mode == kJournal ? &journal : nullptr);
        if (!op.has_value()) continue;
        latency[m].push_back(op->ms);
        if (mode != kTraced) continue;
        ProbeLayers(in, op->advised, &scored, report);
        if (!service.has_value()) {
          // The service view of this workload: its statements streamed once
          // through a supervisor as one tenant.
          service = ServePass(in, SingleTenantStream(in.variants[0]), kTimedThreads,
                              nullptr, false, checkpoint_path, report);
          CheckRestore(in, *service, checkpoint_path, report);
        }
      }
      SetMode(mode, false);
    }
    const BenchSpans spans = CollectBenchSpans(obs::Tracer::Global().Events());
    AddLayerMetrics(spans, ref.counts, static_cast<double>(variants), scored, latency,
                    report);
    AddServiceMetrics(spans, service.value_or(PassResult()), report);
    report->layers_json = LayersJson(spans);
    WriteTrace(spec.name, args.seed, args.work_dir, report);
    std::remove(checkpoint_path.c_str());
  }
  report->Check(mismatches == 0,
                StrFormat("%lld repetitions (%d scoring threads) differ from their "
                          "variant's reference (%d threads)",
                          static_cast<long long>(mismatches), kTimedThreads, kThreads));
}

void RunServe(const WorkloadSpec& spec, const Args& args, const Inputs& in,
              const std::function<void()>& setup, SpeedMeter* meter, Samples* samples,
              Report* report) {
  const std::string checkpoint_path = CheckpointPath(args);
  // The untimed reference pass prices every window; every timed pass must
  // end on its layouts.
  const PassResult ref =
      ServePass(in, in.stream, kThreads, nullptr, true, checkpoint_path, report);
  CheckRestore(in, ref, checkpoint_path, report);
  int64_t mismatches = 0;
  auto timed_pass = [&](obs::EventJournal* journal) {
    PassResult pass =
        ServePass(in, in.stream, kTimedThreads, journal, false, checkpoint_path, report);
    if (pass.final_layouts != ref.final_layouts) ++mismatches;
    return pass;
  };

  if (!args.trace) {
    // A pass (~0.25 s) is the timed operation the meter scales; its windows
    // are the latency samples.
    const auto deadline = Clock::now() + std::chrono::duration<double>(args.seconds);
    meter->Next();
    for (int64_t rep = 0; rep == 0 || Clock::now() < deadline; ++rep) {
      if (rep % spec.setup_every == 0) setup();
      const PassResult pass = timed_pass(nullptr);
      const double scale = meter->Next();
      AddSamples(pass.window_ms, pass.seconds, pass.statements, scale, samples);
    }
    report->Add("est_cost_ratio", ref.realized_ms / ref.striped_ms, "ratio", ref.windows);
    report->Add("sim_cost_ratio", ref.sim_ms / ref.sim_striped_ms, "ratio", ref.windows);
  } else {
    // The layers below the service are probed on tenant 1's first phase.
    Reference probe = AdviseReference(in, report);
    std::vector<double> window_ms[kNumModes];
    ScoreCounts scored;
    for (int m = 0; m < kNumModes; ++m) {
      const Mode mode = static_cast<Mode>(m);
      const auto deadline =
          Clock::now() + std::chrono::duration<double>(args.seconds / kNumModes);
      SetMode(mode, true);
      do {
        obs::EventJournal journal;
        const PassResult pass = timed_pass(mode == kJournal ? &journal : nullptr);
        window_ms[m].insert(window_ms[m].end(), pass.window_ms.begin(),
                            pass.window_ms.end());
        if (mode != kTraced) continue;
        CheckRestore(in, pass, checkpoint_path, report);
        Result<Advised> a = Advise(in, in.variants[0], kTimedThreads, nullptr);
        if (report->Count(a.status(), "advise")) ProbeLayers(in, *a, &scored, report);
      } while (Clock::now() < deadline);
      SetMode(mode, false);
    }
    const BenchSpans spans = CollectBenchSpans(obs::Tracer::Global().Events());
    AddLayerMetrics(spans, probe.counts, 1, scored, window_ms, report);
    AddServiceMetrics(spans, ref, report);
    report->layers_json = LayersJson(spans);
    WriteTrace(spec.name, args.seed, args.work_dir, report);
  }
  std::remove(checkpoint_path.c_str());
  report->Check(mismatches == 0,
                StrFormat("serve: %lld passes (%d scoring threads) ended on other "
                          "layouts than the reference pass (%d threads)",
                          static_cast<long long>(mismatches), kTimedThreads, kThreads));
}

// --- Output -----------------------------------------------------------------------

/// {"name":{"value":..,"unit":..[,"samples":..]},...}
std::string MetricsJson(const std::vector<Metric>& metrics, bool with_samples) {
  std::string out;
  for (const Metric& m : metrics) {
    out += StrFormat("%s%s:{\"value\":%s,\"unit\":%s", out.empty() ? "" : ",",
                     obs::JsonString(m.name).c_str(), obs::JsonDouble(m.value).c_str(),
                     obs::JsonString(m.unit).c_str());
    if (with_samples) out += ",\"samples\":" + obs::JsonInt(m.samples);
    out += '}';
  }
  return "{" + out + "}";
}

void Print(const WorkloadSpec& spec, const Args& args, const Report& report) {
  std::printf("%-40s %16s %-8s %s\n", "metric", "value", "unit", "samples");
  for (const auto* list : {&report.metrics, &report.context}) {
    for (const Metric& m : *list) {
      std::printf("%-40s %16.6g %-8s %lld\n", m.name.c_str(), m.value, m.unit.c_str(),
                  static_cast<long long>(m.samples));
    }
  }
  std::string checks;
  for (const std::string& c : report.failed_checks) {
    std::printf("CHECK FAILED: %s\n", c.c_str());
    checks += (checks.empty() ? "" : ",") + obs::JsonString(c);
  }
  std::printf(
      "RECORD {\"workload\":%s,\"seed\":%s,\"seconds\":%s,\"trace\":%s,"
      "\"nproc\":%s,\"compiler\":%s,\"failed_checks\":[%s],\"metrics\":%s,"
      "\"context\":%s,\"layers\":%s}\n",
      obs::JsonString(spec.name).c_str(),
      obs::JsonInt(static_cast<int64_t>(args.seed)).c_str(),
      obs::JsonDouble(args.seconds).c_str(), obs::JsonBool(args.trace).c_str(),
      obs::JsonInt(static_cast<int64_t>(std::thread::hardware_concurrency())).c_str(),
      obs::JsonString(__VERSION__).c_str(), checks.c_str(),
      MetricsJson(report.metrics, true).c_str(),
      MetricsJson(report.context, true).c_str(), report.layers_json.c_str());
  std::printf("{\"correct\":%s,\"attempted\":%s,\"failed\":%s,\"metrics\":%s}\n",
              obs::JsonBool(report.failed_checks.empty()).c_str(),
              obs::JsonInt(std::max<int64_t>(1, report.attempted)).c_str(),
              obs::JsonInt(report.failed).c_str(),
              MetricsJson(report.metrics, false).c_str());
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "[--work-dir DIR]\nworkloads:",
               argv0);
  for (const WorkloadSpec& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(argv[0]);
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      args.trace = std::strtol(value, &end, 10) != 0;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return Usage(argv[0]);
    }
    if (end != nullptr && *end != '\0') return Usage(argv[0]);
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (args.workload == w.name) spec = &w;
  }
  if (spec == nullptr || !(args.seconds > 0)) return Usage(argv[0]);

  // Set-up: schema and statistics, the fleet, and the generated SQL text.
  // The timed loop repeats it (the result dropped) between operations, so
  // its samples spread over the run.
  Result<Inputs> inputs = MakeInputs(*spec, args.seed);
  if (!inputs.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n", inputs.status().ToString().c_str());
    return 1;
  }
  Report report;
  SpeedMeter meter;
  Samples samples;
  const std::function<void()> setup = [&] {
    const auto t0 = Clock::now();
    report.Count(MakeInputs(*spec, args.seed).status(), "set-up");
    const double seconds = MsSince(t0) / 1e3;
    samples.setup_s.push_back(seconds * meter.Next());
  };

  if (spec->serve) {
    RunServe(*spec, args, *inputs, setup, &meter, &samples, &report);
  } else {
    RunAdvise(*spec, args, *inputs, setup, &meter, &samples, &report);
  }
  // A traced run reports only per-layer metrics.
  if (!args.trace) {
    AddLoadMetrics(samples, meter, &report);
    report.Add("peak_rss_mb", PeakRssMb(), "MB");
  }
  Print(*spec, args, report);
  return 0;
}

}  // namespace
}  // namespace dblayout::pipebench

int main(int argc, char** argv) { return dblayout::pipebench::Main(argc, argv); }
