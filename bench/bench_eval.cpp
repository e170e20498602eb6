// Evaluation-engine bench: full recomputation vs incremental delta costing
// vs deterministic parallel candidate scoring (LayoutEvaluator +
// ThreadPool), on the TPCH-22 workload and the Table 2 query subset.
//
// The workload of one greedy iteration is scored three ways over the same
// candidate set (every object widened by one drive from full striping):
//   full      — CostModel::WorkloadCost on a materialized candidate layout
//   delta     — LayoutEvaluator::ScoreProportionalMove, 1 thread
//   parallel  — same scoring fanned out over the shared pool; the "par2" and
//               "par8" columns request 2 and 8 threads, and the header and
//               BENCH_eval.json (par2_threads, par8_threads) record the
//               parallelism the pool actually gave them
// Delta totals must be bit-identical to the full recomputation (that is the
// evaluator's contract), so the speedup column is a pure wall-clock story.
// A final case runs the whole TS-GREEDY search with 1 and 8 scoring threads
// and checks the results are identical.

#include <algorithm>
#include <cmath>

#include "bench/bench_util.h"
#include "benchdata/tpch.h"
#include "common/thread_pool.h"
#include "layout/evaluator.h"
#include "layout/search.h"

using namespace dblayout;
using namespace dblayout::bench;

namespace {

/// One widen-by-one candidate: `object` re-assigned proportionally across
/// `disks` (its current drives plus one extra).
struct Candidate {
  int object = 0;
  std::vector<int> disks;
};

std::vector<Candidate> WidenByOneCandidates(const Layout& layout, int m) {
  std::vector<Candidate> cands;
  for (int i = 0; i < layout.num_objects(); ++i) {
    const std::vector<int> current = layout.DisksOf(i);
    for (int j = 0; j < m; ++j) {
      if (layout.x(i, j) > 0) continue;
      std::vector<int> wider = current;
      wider.push_back(j);
      std::sort(wider.begin(), wider.end());
      cands.push_back(Candidate{i, std::move(wider)});
    }
  }
  // Full striping leaves nothing to widen; narrow every object to make a
  // non-trivial starting point instead (first half of the drives).
  if (cands.empty()) {
    std::vector<int> half;
    for (int j = 0; j < (m + 1) / 2; ++j) half.push_back(j);
    for (int i = 0; i < layout.num_objects(); ++i) {
      for (int j = (m + 1) / 2; j < m; ++j) {
        std::vector<int> wider = half;
        wider.push_back(j);
        std::sort(wider.begin(), wider.end());
        cands.push_back(Candidate{i, std::move(wider)});
      }
    }
  }
  return cands;
}

/// Requested scoring-thread counts of the two parallel columns, and the
/// parallelism each one actually gets: the search clamps to the shared
/// pool's workers plus the calling thread, so on a 4-core host "par8" runs
/// 4 threads.
constexpr int kParThreads[2] = {2, 8};

int EffectiveThreads(int requested) {
  return std::max(1, std::min(requested, ThreadPool::Shared().num_workers() + 1));
}

struct CaseResult {
  size_t candidates = 0;
  int subplans = 0;
  double full_s = 0;
  double delta_s = 0;
  double par_s[2] = {0, 0};  // kParThreads
  double max_abs_diff = 0;   // full vs delta totals (must be 0)
};

CaseResult RunCase(const Database& db, const DiskFleet& fleet,
                   const WorkloadProfile& profile, int rounds) {
  const int m = fleet.num_disks();
  const int n = static_cast<int>(db.Objects().size());
  CaseResult r;

  // Starting point: every object narrowed to the first half of the drives,
  // so every candidate set is non-empty and the iteration is realistic.
  Layout start(n, m);
  std::vector<int> half;
  for (int j = 0; j < (m + 1) / 2; ++j) half.push_back(j);
  for (int i = 0; i < n; ++i) start.AssignProportional(i, half, fleet);

  const std::vector<Candidate> cands = WidenByOneCandidates(start, m);
  r.candidates = cands.size();

  const CostModel cm(fleet);
  LayoutEvaluator evaluator(profile, cm);
  evaluator.Bind(start);
  r.subplans = evaluator.num_subplans();

  std::vector<double> full_costs(cands.size(), 0.0);
  std::vector<double> delta_costs(cands.size(), 0.0);

  // Full recomputation: materialize each candidate, evaluate from scratch.
  r.full_s = TimeSeconds([&] {
    for (int round = 0; round < rounds; ++round) {
      for (size_t k = 0; k < cands.size(); ++k) {
        Layout candidate = start;
        candidate.AssignProportional(cands[k].object, cands[k].disks, fleet);
        full_costs[k] = cm.WorkloadCost(profile, candidate);
      }
    }
  });

  // Delta costing, single-threaded.
  r.delta_s = TimeSeconds([&] {
    LayoutEvaluator::Scratch scratch = evaluator.MakeScratch();
    for (int round = 0; round < rounds; ++round) {
      for (size_t k = 0; k < cands.size(); ++k) {
        delta_costs[k] = evaluator.ScoreProportionalMove(
            {cands[k].object}, cands[k].disks, &scratch);
      }
    }
  });

  for (size_t k = 0; k < cands.size(); ++k) {
    r.max_abs_diff =
        std::max(r.max_abs_diff, std::abs(full_costs[k] - delta_costs[k]));
  }

  // Parallel delta scoring across the shared pool.
  for (int t = 0; t < 2; ++t) {
    const int parallelism = EffectiveThreads(kParThreads[t]);
    std::vector<LayoutEvaluator::Scratch> scratches(
        static_cast<size_t>(parallelism));
    r.par_s[t] = TimeSeconds([&] {
      for (int round = 0; round < rounds; ++round) {
        for (auto& s : scratches) s = evaluator.MakeScratch();
        ThreadPool::Shared().ParallelFor(
            static_cast<int64_t>(cands.size()), parallelism,
            [&cands, &delta_costs, &evaluator, &scratches](int64_t k,
                                                           int worker) {
              delta_costs[static_cast<size_t>(k)] =
                  evaluator.ScoreProportionalMove(
                      {cands[static_cast<size_t>(k)].object},
                      cands[static_cast<size_t>(k)].disks,
                      &scratches[static_cast<size_t>(worker)]);
            });
      }
    });
    for (size_t k = 0; k < cands.size(); ++k) {
      r.max_abs_diff =
          std::max(r.max_abs_diff, std::abs(full_costs[k] - delta_costs[k]));
    }
  }
  return r;
}

}  // namespace

int main() {
  Database db = benchdata::MakeTpchDatabase(1.0);
  DiskFleet fleet = DiskFleet::Heterogeneous(8, 0.3, 42);

  Workload tpch22 = Unwrap(benchdata::MakeTpch22Workload(db), "tpch-22");
  WorkloadProfile profile22 = Unwrap(AnalyzeWorkload(db, tpch22), "analyze");

  // Table 2's query subset (3, 9, 10, 12, 18, 21) as its own workload.
  WorkloadProfile table2;
  table2.num_objects = profile22.num_objects;
  for (int q : {3, 9, 10, 12, 18, 21}) {
    const StatementProfile& s = profile22.statements[static_cast<size_t>(q - 1)];
    StatementProfile copy;
    copy.sql = s.sql;
    copy.weight = s.weight;
    copy.plan = ClonePlan(*s.plan);
    copy.subplans = s.subplans;
    table2.statements.push_back(std::move(copy));
  }

  BenchJson json("eval");
  std::vector<std::vector<std::string>> rows;
  const int par_threads[2] = {EffectiveThreads(kParThreads[0]),
                              EffectiveThreads(kParThreads[1])};
  rows.push_back({"workload", "cands", "subplans", "full(ms)", "delta(ms)",
                  StrFormat("par2 [%d thr](ms)", par_threads[0]),
                  StrFormat("par8 [%d thr](ms)", par_threads[1]),
                  "delta speedup", "par8 speedup", "max |full-delta|"});

  struct Case {
    const char* name;
    const WorkloadProfile* profile;
  };
  for (const Case& c : {Case{"TPCH-22", &profile22}, Case{"Table2", &table2}}) {
    const CaseResult r = RunCase(db, fleet, *c.profile, /*rounds=*/20);
    const double delta_speedup = r.delta_s > 0 ? r.full_s / r.delta_s : 0;
    const double par8_speedup = r.par_s[1] > 0 ? r.full_s / r.par_s[1] : 0;
    rows.push_back({c.name, StrFormat("%zu", r.candidates),
                    StrFormat("%d", r.subplans),
                    StrFormat("%.2f", 1e3 * r.full_s),
                    StrFormat("%.2f", 1e3 * r.delta_s),
                    StrFormat("%.2f", 1e3 * r.par_s[0]),
                    StrFormat("%.2f", 1e3 * r.par_s[1]),
                    StrFormat("%.1fx", delta_speedup),
                    StrFormat("%.1fx", par8_speedup),
                    StrFormat("%.3g", r.max_abs_diff)});
    json.Add(c.name,
             {{"candidates", StrFormat("%zu", r.candidates)},
              {"subplans", StrFormat("%d", r.subplans)},
              {"full_s", StrFormat("%.6f", r.full_s)},
              {"delta_s", StrFormat("%.6f", r.delta_s)},
              {"par2_s", StrFormat("%.6f", r.par_s[0])},
              {"par2_threads", StrFormat("%d", par_threads[0])},
              {"par8_s", StrFormat("%.6f", r.par_s[1])},
              {"par8_threads", StrFormat("%d", par_threads[1])},
              {"delta_speedup", StrFormat("%.2f", delta_speedup)},
              {"par8_speedup", StrFormat("%.2f", par8_speedup)},
              {"max_abs_diff", StrFormat("%.6g", r.max_abs_diff)}});
  }
  PrintTable(
      "Per-iteration candidate scoring: full recomputation vs delta costing "
      "vs parallel (TPCH1G, 8 drives)",
      rows);

  // Whole-search determinism: the same recommendation, bit for bit, with 1
  // and 8 scoring threads.
  {
    SearchOptions opts;
    Workload wl = Unwrap(benchdata::MakeTpch22Workload(db), "tpch-22");
    WorkloadProfile profile = Unwrap(AnalyzeWorkload(db, wl), "analyze");
    ResolvedConstraints constraints;
    opts.num_threads = 1;
    SearchResult one = Unwrap(
        TsGreedySearch(db, fleet, opts).Run(profile, constraints), "search t1");
    opts.num_threads = 8;
    SearchResult eight = Unwrap(
        TsGreedySearch(db, fleet, opts).Run(profile, constraints), "search t8");
    bool identical = one.cost == eight.cost &&
                     one.telemetry.cost_trajectory ==
                         eight.telemetry.cost_trajectory;
    for (int i = 0; identical && i < one.layout.num_objects(); ++i) {
      for (int j = 0; j < one.layout.num_disks(); ++j) {
        if (one.layout.x(i, j) != eight.layout.x(i, j)) identical = false;
      }
    }
    std::printf("\nsearch determinism (1 vs 8 threads): %s (cost %.3f ms, "
                "%d iterations, %lld evals = %lld full + %lld delta)\n",
                identical ? "IDENTICAL" : "MISMATCH", one.cost,
                one.greedy_iterations,
                static_cast<long long>(one.layouts_evaluated),
                static_cast<long long>(one.telemetry.full_evals),
                static_cast<long long>(one.telemetry.delta_evals));
    json.Add("search_determinism",
             {{"identical", identical ? "true" : "false"},
              {"cost_ms", StrFormat("%.6f", one.cost)},
              {"layouts_evaluated",
               StrFormat("%lld", static_cast<long long>(one.layouts_evaluated))}},
             &one.telemetry);
    if (!identical) {
      std::fprintf(stderr, "FAIL: parallel search result differs\n");
      json.Write();
      return 1;
    }
  }

  // One advised end-to-end run so the record set carries a per-phase
  // wall-clock breakdown (partition/search/evaluate) for dblayout_report
  // --compare to gate on.
  {
    LayoutAdvisor advisor(db, fleet);
    Recommendation rec =
        Unwrap(advisor.RecommendFromProfile(profile22), "advised");
    std::printf("\nadvised phases: partition %.2f ms, search %.2f ms, "
                "evaluate %.2f ms\n",
                rec.phases.partition_ms, rec.phases.search_ms,
                rec.phases.evaluate_ms);
    json.Add("advised_tpch22",
             {{"estimated_cost_ms", StrFormat("%.3f", rec.estimated_cost_ms)},
              {"full_striping_cost_ms",
               StrFormat("%.3f", rec.full_striping_cost_ms)}},
             &rec.telemetry, &rec.phases);
  }
  json.Write();
  return 0;
}
