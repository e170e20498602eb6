// Evaluation-engine bench: full recomputation vs incremental delta costing
// vs batched and deterministic parallel candidate scoring (LayoutEvaluator +
// ThreadPool), on the TPCH-22 workload, the Table 2 query subset, and
// TPCH-22-distinct — TPC-H-22 with each sub-plan's block counts scaled by
// its own factor, so no two sub-plans or statements share a class (the
// case where the evaluator's classes have nothing to share).
//
// The workload of one greedy iteration is scored several ways over the same
// candidate set (every object widened by one drive):
//   full      — CostModel::WorkloadCost on a materialized candidate layout
//   delta     — LayoutEvaluator::ScoreProportionalMove, one at a time,
//               1 thread
//   batched   — LayoutEvaluator::ScoreProportionalMoves in batches of
//               LayoutEvaluator::kLanes, 1 thread (what the search runs)
//   parallel  — the same batches fanned out over the shared pool, one task
//               per batch as TsGreedySearch::GreedyWiden does; the "par2"
//               and "par8" columns request 2 and 8 threads, and the header
//               and BENCH_eval.json (par2_threads, par8_threads) record the
//               parallelism the pool actually gave them
// Every scored total must be bit-identical to the full recomputation (that
// is the evaluator's contract): the bench compares bit patterns and exits 1
// on any difference, so the speedup columns are a pure wall-clock story. A
// final case runs the whole TS-GREEDY search with 1 and 8 scoring threads,
// and once more with a decision journal, which folds every candidate
// exactly where the others fold only those whose bound may still win; it
// checks the three results are identical (exit 1 otherwise).

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>

#include "bench/bench_util.h"
#include "benchdata/tpch.h"
#include "common/thread_pool.h"
#include "layout/evaluator.h"
#include "layout/search.h"
#include "obs/journal.h"

using namespace dblayout;
using namespace dblayout::bench;

namespace {

/// One widen-by-one candidate: `objects` (one object) re-assigned
/// proportionally across `disks` (its current drives plus one extra).
struct Candidate {
  std::vector<int> objects;
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
      cands.push_back(Candidate{{i}, std::move(wider)});
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
        cands.push_back(Candidate{{i}, std::move(wider)});
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
  int subplan_classes = 0;
  int statement_classes = 0;
  double full_s = 0;
  double delta_s = 0;
  double batched_s = 0;
  double par_s[2] = {0, 0};  // kParThreads
  int mismatches = 0;        // scored totals whose bits differ from full
};

/// Counts the totals in `scored` whose bit pattern differs from `full`'s.
/// Bits, not magnitudes: a NaN or a signed-zero flip is a mismatch too.
int BitMismatches(const std::vector<double>& full,
                  const std::vector<double>& scored) {
  int mismatches = 0;
  for (size_t k = 0; k < full.size(); ++k) {
    if (std::bit_cast<uint64_t>(full[k]) != std::bit_cast<uint64_t>(scored[k])) {
      ++mismatches;
    }
  }
  return mismatches;
}

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
  std::vector<LayoutEvaluator::ProportionalMove> moves;
  for (const Candidate& c : cands) {
    moves.push_back(LayoutEvaluator::ProportionalMove{&c.objects, &c.disks});
  }

  const CostModel cm(fleet);
  LayoutEvaluator evaluator(profile, cm);
  evaluator.Bind(start);
  r.subplans = evaluator.num_subplans();
  r.subplan_classes = evaluator.num_subplan_classes();
  r.statement_classes = evaluator.num_statement_classes();

  std::vector<double> full_costs(cands.size(), 0.0);
  std::vector<double> costs(cands.size(), 0.0);

  // Full recomputation: materialize each candidate, evaluate from scratch.
  r.full_s = TimeSeconds([&] {
    for (int round = 0; round < rounds; ++round) {
      for (size_t k = 0; k < cands.size(); ++k) {
        Layout candidate = start;
        candidate.AssignProportional(cands[k].objects[0], cands[k].disks, fleet);
        full_costs[k] = cm.WorkloadCost(profile, candidate);
      }
    }
  });

  // Delta costing, one candidate at a time, single-threaded.
  r.delta_s = TimeSeconds([&] {
    LayoutEvaluator::Scratch scratch = evaluator.MakeScratch();
    for (int round = 0; round < rounds; ++round) {
      for (size_t k = 0; k < cands.size(); ++k) {
        costs[k] = evaluator.ScoreProportionalMove(cands[k].objects,
                                                   cands[k].disks, &scratch);
      }
    }
  });
  r.mismatches += BitMismatches(full_costs, costs);

  // Batched delta costing, single-threaded.
  costs.assign(cands.size(), 0.0);
  r.batched_s = TimeSeconds([&] {
    LayoutEvaluator::Scratch scratch = evaluator.MakeScratch();
    for (int round = 0; round < rounds; ++round) {
      evaluator.ScoreProportionalMoves(moves, &scratch, costs);
    }
  });
  r.mismatches += BitMismatches(full_costs, costs);

  // Batches fanned out across the shared pool, one task per batch.
  constexpr auto kBatch = static_cast<size_t>(LayoutEvaluator::kLanes);
  const size_t num_batches = (cands.size() + kBatch - 1) / kBatch;
  for (int t = 0; t < 2; ++t) {
    const int parallelism = EffectiveThreads(kParThreads[t]);
    std::vector<LayoutEvaluator::Scratch> scratches(
        static_cast<size_t>(parallelism));
    costs.assign(cands.size(), 0.0);
    r.par_s[t] = TimeSeconds([&] {
      for (int round = 0; round < rounds; ++round) {
        for (auto& s : scratches) s = evaluator.MakeScratch();
        ThreadPool::Shared().ParallelFor(
            static_cast<int64_t>(num_batches), parallelism,
            [&moves, &costs, &evaluator, &scratches](int64_t b, int worker) {
              const size_t begin = static_cast<size_t>(b) * kBatch;
              const size_t end = std::min(begin + kBatch, moves.size());
              evaluator.ScoreProportionalMoves(
                  std::span<const LayoutEvaluator::ProportionalMove>(moves)
                      .subspan(begin, end - begin),
                  &scratches[static_cast<size_t>(worker)],
                  std::span<double>(costs).subspan(begin, end - begin));
            });
      }
    });
    r.mismatches += BitMismatches(full_costs, costs);
  }
  return r;
}

StatementProfile CloneStatement(const StatementProfile& s) {
  StatementProfile copy;
  copy.sql = s.sql;
  copy.weight = s.weight;
  copy.plan = ClonePlan(*s.plan);
  copy.subplans = s.subplans;
  return copy;
}

/// TPC-H-22 with the f-th sub-plan's block counts scaled by
/// 1 + (f + 1) / 1024: the same plans and access patterns, but no two
/// sub-plans (and so no two statements) share a class key.
WorkloadProfile DistinctProfile(const WorkloadProfile& base) {
  WorkloadProfile distinct;
  distinct.num_objects = base.num_objects;
  int flat = 0;
  for (const StatementProfile& s : base.statements) {
    distinct.statements.push_back(CloneStatement(s));
    for (SubplanAccess& sp : distinct.statements.back().subplans) {
      const double factor = 1.0 + static_cast<double>(++flat) / 1024.0;
      for (ObjectAccess& a : sp.accesses) a.blocks *= factor;
    }
  }
  return distinct;
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
    table2.statements.push_back(
        CloneStatement(profile22.statements[static_cast<size_t>(q - 1)]));
  }
  const WorkloadProfile distinct22 = DistinctProfile(profile22);

  BenchJson json("eval");
  std::vector<std::vector<std::string>> rows;
  const int par_threads[2] = {EffectiveThreads(kParThreads[0]),
                              EffectiveThreads(kParThreads[1])};
  rows.push_back({"workload", "cands", "subplans", "subplan classes",
                  "statement classes", "full(ms)", "delta(ms)", "batched(ms)",
                  StrFormat("par2 [%d thr](ms)", par_threads[0]),
                  StrFormat("par8 [%d thr](ms)", par_threads[1]),
                  "delta speedup", "par8 speedup", "bit mismatches"});

  struct Case {
    const char* name;
    const WorkloadProfile* profile;
  };
  int mismatches = 0;
  for (const Case& c : {Case{"TPCH-22", &profile22}, Case{"Table2", &table2},
                        Case{"TPCH-22-distinct", &distinct22}}) {
    const CaseResult r = RunCase(db, fleet, *c.profile, /*rounds=*/20);
    mismatches += r.mismatches;
    const double delta_speedup = r.delta_s > 0 ? r.full_s / r.delta_s : 0;
    const double par8_speedup = r.par_s[1] > 0 ? r.full_s / r.par_s[1] : 0;
    rows.push_back({c.name, StrFormat("%zu", r.candidates),
                    StrFormat("%d", r.subplans),
                    StrFormat("%d", r.subplan_classes),
                    StrFormat("%d", r.statement_classes),
                    StrFormat("%.2f", 1e3 * r.full_s),
                    StrFormat("%.2f", 1e3 * r.delta_s),
                    StrFormat("%.2f", 1e3 * r.batched_s),
                    StrFormat("%.2f", 1e3 * r.par_s[0]),
                    StrFormat("%.2f", 1e3 * r.par_s[1]),
                    StrFormat("%.1fx", delta_speedup),
                    StrFormat("%.1fx", par8_speedup),
                    StrFormat("%d", r.mismatches)});
    json.Add(c.name,
             {{"candidates", StrFormat("%zu", r.candidates)},
              {"subplans", StrFormat("%d", r.subplans)},
              {"subplan_classes", StrFormat("%d", r.subplan_classes)},
              {"statement_classes", StrFormat("%d", r.statement_classes)},
              {"full_s", StrFormat("%.6f", r.full_s)},
              {"delta_s", StrFormat("%.6f", r.delta_s)},
              {"batched_s", StrFormat("%.6f", r.batched_s)},
              {"par2_s", StrFormat("%.6f", r.par_s[0])},
              {"par2_threads", StrFormat("%d", par_threads[0])},
              {"par8_s", StrFormat("%.6f", r.par_s[1])},
              {"par8_threads", StrFormat("%d", par_threads[1])},
              {"delta_speedup", StrFormat("%.2f", delta_speedup)},
              {"par8_speedup", StrFormat("%.2f", par8_speedup)},
              {"bit_mismatches", StrFormat("%d", r.mismatches)}});
  }
  PrintTable(
      "Per-iteration candidate scoring: full recomputation vs delta costing "
      "vs batched vs parallel (TPCH1G, 8 drives)",
      rows);
  if (mismatches > 0) {
    std::fprintf(stderr,
                 "FAIL: %d scored totals differ in bits from the full "
                 "recomputation\n",
                 mismatches);
    json.Write();
    return 1;
  }

  // Whole-search determinism: the same recommendation, bit for bit, with 1
  // and 8 scoring threads, and with a journal (every candidate folded
  // exactly) at 1.
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
    obs::EventJournal journal;
    opts.num_threads = 1;
    opts.journal = &journal;
    SearchResult journaled = Unwrap(
        TsGreedySearch(db, fleet, opts).Run(profile, constraints), "search journaled");
    // Cost, trajectory and layout matrix, bit for bit.
    const auto same = [](const SearchResult& a, const SearchResult& b) {
      if (a.layout.num_objects() != b.layout.num_objects() ||
          a.layout.num_disks() != b.layout.num_disks() ||
          a.telemetry.cost_trajectory.size() != b.telemetry.cost_trajectory.size()) {
        return false;
      }
      int mismatches = BitMismatches({a.cost}, {b.cost}) +
                       BitMismatches(a.telemetry.cost_trajectory,
                                     b.telemetry.cost_trajectory);
      for (int i = 0; i < a.layout.num_objects(); ++i) {
        for (int j = 0; j < a.layout.num_disks(); ++j) {
          mismatches += BitMismatches({a.layout.x(i, j)}, {b.layout.x(i, j)});
        }
      }
      return mismatches == 0;
    };
    const bool identical = same(one, eight);
    const bool journal_identical = same(one, journaled);
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
    std::printf("search with a journal (every candidate folded): %s\n",
                journal_identical ? "IDENTICAL" : "MISMATCH");
    if (!identical) {
      std::fprintf(stderr, "FAIL: parallel search result differs\n");
      json.Write();
      return 1;
    }
    if (!journal_identical) {
      std::fprintf(stderr, "FAIL: unjournaled search result differs from the journaled one\n");
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
