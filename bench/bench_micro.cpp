// Microbenchmarks (google-benchmark) of the hot paths the paper's
// scalability depends on: the analytic cost model (invoked thousands of
// times by the search), access-graph construction, max-cut partitioning,
// the SQL front end, workload analysis, join-order planning and the full
// TS-GREEDY search (TPC-H-22 at m = 4, 8, 16, and the 352-query qgen4-m16
// shape); and of the service's checkpoint, layer by layer: the
// number writer, a layout CSV, a supervisor snapshot and its serialization.

#include <benchmark/benchmark.h>

#include <memory>

#include "benchdata/sales.h"
#include "benchdata/tpch.h"
#include "graph/partition.h"
#include "io/queue_sim.h"
#include "layout/search.h"
#include "obs/json.h"
#include "optimizer/optimizer.h"
#include "service/checkpoint.h"
#include "service/supervisor.h"
#include "sql/parser.h"
#include "workload/analyzer.h"

namespace dblayout {
namespace {

const Database& TpchDb() {
  static const Database db = benchdata::MakeTpchDatabase(1.0);
  return db;
}

const WorkloadProfile& Tpch22Profile() {
  static const WorkloadProfile profile = [] {
    auto wl = benchdata::MakeTpch22Workload(TpchDb());
    auto p = AnalyzeWorkload(TpchDb(), wl.value());
    return std::move(p).value();
  }();
  return profile;
}

void BM_CostModelWorkloadCost(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  DiskFleet fleet = DiskFleet::Uniform(m);
  const CostModel cm(fleet);
  Layout layout =
      Layout::FullStriping(static_cast<int>(TpchDb().Objects().size()), fleet);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cm.WorkloadCost(Tpch22Profile(), layout));
  }
}
BENCHMARK(BM_CostModelWorkloadCost)->Arg(4)->Arg(8)->Arg(16)->Arg(64);

// The SQL front end alone (Tokenize + ParseSql) over every statement text of
// a workload; items/s counts statements.
void BM_ParseSql(benchmark::State& state, Result<Workload> (*make)(const Database&),
                 const Database* db) {
  const Workload wl = make(*db).value();
  std::vector<std::string> texts;
  for (const WorkloadStatement& s : wl.statements()) texts.push_back(s.sql);
  for (auto _ : state) {
    for (const std::string& sql : texts) benchmark::DoNotOptimize(ParseSql(sql).ok());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(texts.size()));
}
const Database& SalesDb() {
  static const Database db = benchdata::MakeSalesDatabase();
  return db;
}
BENCHMARK_CAPTURE(BM_ParseSql, tpch22,
                  [](const Database& db) { return benchdata::MakeTpch22Workload(db); },
                  &TpchDb());
BENCHMARK_CAPTURE(BM_ParseSql, sales45,
                  [](const Database& db) { return benchdata::MakeSales45Workload(db); },
                  &SalesDb());

void BM_AnalyzeWorkload(benchmark::State& state) {
  auto wl = benchdata::MakeTpch22Workload(TpchDb()).value();
  for (auto _ : state) {
    auto profile = AnalyzeWorkload(TpchDb(), wl);
    benchmark::DoNotOptimize(profile.ok());
  }
}
BENCHMARK(BM_AnalyzeWorkload);

// Optimizer::Plan alone over every statement of `wl`; items/s counts
// statements.
void PlanEvery(benchmark::State& state, const Database& db, const Workload& wl) {
  const Optimizer optimizer(db);
  for (auto _ : state) {
    for (const WorkloadStatement& s : wl.statements()) {
      benchmark::DoNotOptimize(optimizer.Plan(s.parsed).ok());
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(wl.size()));
}

// SALES-45's 5- to 10-table joins, where the join-order DP is most of an
// advise.
void BM_PlanSales45(benchmark::State& state) {
  PlanEvery(state, SalesDb(), benchdata::MakeSales45Workload(SalesDb()).value());
}
BENCHMARK(BM_PlanSales45)->Unit(benchmark::kMillisecond);

// TPC-H-22's 1- to 8-table queries, where binding and building the plan
// outweigh the join search.
void BM_PlanTpch22(benchmark::State& state) {
  PlanEvery(state, TpchDb(), benchdata::MakeTpch22Workload(TpchDb()).value());
}
BENCHMARK(BM_PlanTpch22)->Unit(benchmark::kMicrosecond);

void BM_BuildAccessGraph(benchmark::State& state) {
  for (auto _ : state) {
    WeightedGraph g = BuildAccessGraph(Tpch22Profile());
    benchmark::DoNotOptimize(g.num_edges());
  }
}
BENCHMARK(BM_BuildAccessGraph);

void BM_MaxCutPartition(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(11);
  WeightedGraph g(n);
  for (size_t e = 0; e < n * 3; ++e) {
    g.AddEdgeWeight(rng.Index(n), rng.Index(n), rng.UniformDouble(1, 100));
  }
  PartitionOptions opt;
  opt.num_partitions = 8;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MaxCutPartition(g, opt));
  }
}
BENCHMARK(BM_MaxCutPartition)->Arg(8)->Arg(64)->Arg(256);

void BM_TsGreedySearch(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  DiskFleet fleet = DiskFleet::Heterogeneous(m, 0.3, 42);
  ResolvedConstraints rc;
  rc.required_avail.assign(TpchDb().Objects().size(), std::nullopt);
  TsGreedySearch search(TpchDb(), fleet);
  for (auto _ : state) {
    auto result = search.Run(Tpch22Profile(), rc);
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_TsGreedySearch)->Arg(4)->Arg(8)->Arg(16)->Unit(benchmark::kMillisecond);

// The search of pipebench's qgen4-m16 shape at one scoring thread: TPCH1G-4
// (32 objects) with 352 qgen-style queries on 16 drives, ~1,500 candidates
// per iteration. Only the search is timed; the profile is built once.
void BM_TsGreedySearchQgen4M16(benchmark::State& state) {
  static const Database db = benchdata::MakeTpchDatabase(1.0, 4);
  static const WorkloadProfile profile = [] {
    auto wl = benchdata::MakeTpchQgenWorkload(db, 352, 4, 3);
    auto p = AnalyzeWorkload(db, wl.value());
    return std::move(p).value();
  }();
  const DiskFleet fleet = DiskFleet::Heterogeneous(16, 0.3, 42);
  ResolvedConstraints rc;
  rc.required_avail.assign(db.Objects().size(), std::nullopt);
  SearchOptions options;
  options.num_threads = 1;
  TsGreedySearch search(db, fleet, options);
  for (auto _ : state) {
    auto result = search.Run(profile, rc);
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_TsGreedySearchQgen4M16)->Unit(benchmark::kMillisecond);

void BM_QueueSimMergeScan(benchmark::State& state) {
  // Request-level simulation of two co-accessed 2000-block streams.
  DiskDrive d;
  d.name = "d";
  d.capacity_blocks = 100'000;
  std::vector<QueueStream> streams = {
      QueueStream{ObjectExtent{0, 0, 2000}, 2000, false, false, false, 1},
      QueueStream{ObjectExtent{0, 50'000, 2000}, 2000, false, false, false, 2},
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(SimulateQueueDisk(d, streams));
  }
}
BENCHMARK(BM_QueueSimMergeScan);

void BM_FullStripingBaseline(benchmark::State& state) {
  DiskFleet fleet = DiskFleet::Uniform(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Layout::FullStriping(static_cast<int>(TpchDb().Objects().size()), fleet));
  }
}
BENCHMARK(BM_FullStripingBaseline);

// A checkpoint's numbers: an integer statement weight, and an access share
// that needs all 17 digits.
void BM_JsonDouble(benchmark::State& state, double v) {
  std::string out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(v);
    out.clear();
    obs::AppendJsonDouble(&out, v);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK_CAPTURE(BM_JsonDouble, weight, 34.0);
BENCHMARK_CAPTURE(BM_JsonDouble, share17, 0.1 + 0.2);

// 8 objects on 8 drives of unequal rates, so every cell takes 17 digits.
void BM_LayoutToCsv(benchmark::State& state) {
  const DiskFleet fleet = DiskFleet::Heterogeneous(8, 0.3, 42);
  Layout layout(8, 8);
  const std::vector<int> all = {0, 1, 2, 3, 4, 5, 6, 7};
  for (int i = 0; i < 8; ++i) layout.AssignProportional(i, all, fleet);
  const std::vector<std::string> names = {"o1", "o2", "o3", "o4",
                                          "o5", "o6", "o7", "o8"};
  for (auto _ : state) benchmark::DoNotOptimize(layout.ToCsv(names, fleet));
}
BENCHMARK(BM_LayoutToCsv);

// A supervisor that has ingested 384 TPC-H statements over 3 tenants in
// 16-statement windows, with their re-advises.
const Supervisor& ServeSupervisor() {
  static const DiskFleet fleet = DiskFleet::Heterogeneous(8, 0.3, 42);
  static const std::unique_ptr<Supervisor> supervisor = [] {
    ServiceConfig config;
    config.window_size = 16;
    auto s = std::make_unique<Supervisor>(TpchDb(), fleet, config, nullptr);
    Rng rng(31);
    for (int i = 0; i < 384; ++i) {
      const int query = (i / 3 + 7 * (i % 3)) % 22 + 1;
      const Status st = s->OnStatement(i % 3 + 1, benchdata::TpchQueryText(query, &rng));
      DBLAYOUT_CHECK(st.ok());
    }
    return s;
  }();
  return *supervisor;
}

void BM_SupervisorSnapshot(benchmark::State& state) {
  const Supervisor& supervisor = ServeSupervisor();
  for (auto _ : state) benchmark::DoNotOptimize(supervisor.Snapshot());
}
BENCHMARK(BM_SupervisorSnapshot)->Unit(benchmark::kMicrosecond);

void BM_SerializeCheckpoint(benchmark::State& state) {
  const ServiceSnapshot snapshot = ServeSupervisor().Snapshot();
  for (auto _ : state) benchmark::DoNotOptimize(SerializeCheckpoint(snapshot));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(SerializeCheckpoint(snapshot).size()));
}
BENCHMARK(BM_SerializeCheckpoint)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace dblayout

BENCHMARK_MAIN();
