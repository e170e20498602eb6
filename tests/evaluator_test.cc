// LayoutEvaluator + ThreadPool + parallel-search tests: delta-costing
// parity against the CostModel oracle, the sub-plan and statement class
// boundaries, batched (lockstep) scoring against single-candidate scoring,
// staged Commit/Revert semantics, the empty-placement edge case, evaluation
// accounting, pool correctness, and thread-count determinism of the whole
// search.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>
#include <vector>

#include "benchdata/tpch.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "layout/evaluator.h"
#include "layout/search.h"
#include "resilience/degraded.h"
#include "workload/analyzer.h"

namespace dblayout {
namespace {

Column IntKey(const std::string& name, int64_t distinct) {
  Column c;
  c.name = name;
  c.type = ColumnType::kInt;
  c.distinct_count = distinct;
  c.min_value = 1;
  c.max_value = static_cast<double>(distinct);
  return c;
}

/// Two co-accessed large tables and one independent table (the same micro
/// instance the search tests use).
Database MicroDb() {
  Database db("micro");
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

WorkloadProfile MicroProfile(const Database& db) {
  Workload wl("micro");
  EXPECT_TRUE(
      wl.Add("SELECT COUNT(*) FROM big_a, big_b WHERE big_a_k = big_b_k", 5).ok());
  EXPECT_TRUE(wl.Add("SELECT COUNT(*) FROM solo").ok());
  EXPECT_TRUE(wl.Add("SELECT COUNT(*) FROM big_a, solo WHERE big_a_k = solo_k", 2).ok());
  auto profile = AnalyzeWorkload(db, wl);
  EXPECT_TRUE(profile.ok()) << profile.status().ToString();
  return std::move(profile).value();
}

ResolvedConstraints NoConstraints(const Database& db) {
  ResolvedConstraints rc;
  rc.required_avail.assign(db.Objects().size(), std::nullopt);
  return rc;
}

/// A uniformly random non-empty drive subset.
std::vector<int> RandomDiskSet(int m, Rng* rng) {
  std::vector<int> disks(static_cast<size_t>(m));
  std::iota(disks.begin(), disks.end(), 0);
  rng->Shuffle(&disks);
  disks.resize(static_cast<size_t>(rng->UniformInt(1, m)));
  std::sort(disks.begin(), disks.end());
  return disks;
}

TEST(EvaluatorTest, BindMatchesWorkloadCost) {
  Database db = MicroDb();
  DiskFleet fleet = DiskFleet::Heterogeneous(4, 0.3, 11);
  WorkloadProfile profile = MicroProfile(db);
  const CostModel cm(fleet);
  LayoutEvaluator evaluator(profile, cm);

  Rng rng(123);
  for (int trial = 0; trial < 5; ++trial) {
    Layout layout = RandomLayout(db, fleet, &rng).value();
    const double bound = evaluator.Bind(layout);
    EXPECT_EQ(bound, cm.WorkloadCost(profile, layout)) << "trial " << trial;
    EXPECT_EQ(bound, evaluator.TotalCost());
  }
}

/// TPC-H-22 with non-unit, non-integer statement weights: multi-sub-plan
/// statements whose weighted terms `1.0 * x` would not exercise (a fused
/// multiply-add rounds w * s + t differently from the cached product).
WorkloadProfile WeightedTpch22Profile(const Database& db) {
  auto wl = benchdata::MakeTpch22Workload(db, 1);
  EXPECT_TRUE(wl.ok()) << wl.status().ToString();
  auto profile = AnalyzeWorkload(db, wl.value());
  EXPECT_TRUE(profile.ok()) << profile.status().ToString();
  for (size_t q = 0; q < profile->statements.size(); ++q) {
    profile->statements[q].weight = 0.37 + 0.113 * static_cast<double>(q);
  }
  return std::move(profile).value();
}

/// Property test: after any random sequence of committed moves, the
/// delta-maintained total equals a from-scratch CostModel::WorkloadCost of
/// the same layout, and so does the score of every candidate (each object
/// re-assigned to the first w drives, w = 1..m) against the materialized
/// candidate. The evaluator's contract is bit-identity; the assert uses the
/// layout-tolerance bound plus exact equality, so a future drift fails
/// loudly.
void CheckDeltaMatchesFreshRecomputation(const Database& db,
                                         const DiskFleet& fleet,
                                         const WorkloadProfile& profile,
                                         uint64_t seed) {
  const CostModel cm(fleet);
  const int n = static_cast<int>(db.Objects().size());
  const int m = fleet.num_disks();

  Rng rng(seed);
  for (int instance = 0; instance < 3; ++instance) {
    LayoutEvaluator evaluator(profile, cm);
    Layout start = RandomLayout(db, fleet, &rng).value();
    evaluator.Bind(start);
    for (int move = 0; move < 40; ++move) {
      const int object = static_cast<int>(rng.UniformInt(0, n - 1));
      const std::vector<int> disks = RandomDiskSet(m, &rng);
      evaluator.DeltaForProportionalMove({object}, disks);
      evaluator.Commit();
      const double fresh = cm.WorkloadCost(profile, evaluator.layout());
      ASSERT_NEAR(evaluator.TotalCost(), fresh,
                  kLayoutFractionTolerance * std::max(1.0, fresh))
          << "instance " << instance << " move " << move;
      ASSERT_EQ(evaluator.TotalCost(), fresh)
          << "delta total drifted from the oracle (instance " << instance
          << ", move " << move << ")";
    }
    LayoutEvaluator::Scratch scratch = evaluator.MakeScratch();
    std::vector<int> disks;
    for (int width = 1; width <= m; ++width) {
      disks.push_back(width - 1);
      for (int object = 0; object < n; ++object) {
        Layout candidate = evaluator.layout();
        candidate.AssignProportional(object, disks, fleet);
        ASSERT_EQ(evaluator.ScoreProportionalMove({object}, disks, &scratch),
                  cm.WorkloadCost(profile, candidate))
            << "instance " << instance << " object " << object << " on "
            << width << " drives";
      }
    }
  }
}

TEST(EvaluatorTest, DeltaAccumulatedCostMatchesFreshRecomputation) {
  {
    Database db = MicroDb();
    CheckDeltaMatchesFreshRecomputation(db, DiskFleet::Heterogeneous(4, 0.3, 17),
                                        MicroProfile(db), 99);
  }
  const Database db = benchdata::MakeTpchDatabase();
  CheckDeltaMatchesFreshRecomputation(db, DiskFleet::Heterogeneous(8, 0.3, 42),
                                      WeightedTpch22Profile(db), 5);
}

/// Objects A, B, C, D: A and B share a sub-plan, C shares a statement with
/// A but no sub-plan, D appears in no sub-plan. Non-unit weights.
WorkloadProfile MemoProfile() {
  auto access = [](int object, double blocks) {
    ObjectAccess a;
    a.object_id = object;
    a.blocks = blocks;
    return a;
  };
  auto statement = [](double weight, std::vector<SubplanAccess> subplans) {
    StatementProfile s;
    s.weight = weight;
    s.subplans = std::move(subplans);
    return s;
  };
  WorkloadProfile profile;
  profile.num_objects = 4;
  profile.statements.push_back(statement(
      1.7, {SubplanAccess{{access(0, 900), access(1, 350)}},
            SubplanAccess{{access(2, 610)}}}));
  profile.statements.push_back(statement(0.45, {SubplanAccess{{access(1, 220)}}}));
  profile.statements.push_back(statement(
      2.3, {SubplanAccess{{access(2, 130)}}, SubplanAccess{{access(0, 75)}}}));
  return profile;
}

TEST(EvaluatorTest, MemoIsReusedUntilACommitRecostsOneOfItsSubplans) {
  constexpr int kA = 0, kB = 1, kC = 2, kD = 3;
  const DiskFleet fleet = DiskFleet::Heterogeneous(4, 0.3, 11);
  const WorkloadProfile profile = MemoProfile();
  const CostModel cm(fleet);
  LayoutEvaluator evaluator(profile, cm);
  Layout start(4, fleet.num_disks());
  for (int i = 0; i < 4; ++i) start.AssignProportional(i, {0, 1}, fleet);
  evaluator.Bind(start);

  const std::vector<int> b_disks = {2, 3}, c_disks = {1, 3}, d_disks = {0};
  LayoutEvaluator::Memo b_memo, c_memo, d_memo;
  LayoutEvaluator::Scratch scratch = evaluator.MakeScratch();
  evaluator.ScoreProportionalMove({kB}, b_disks, &scratch, &b_memo);
  evaluator.ScoreProportionalMove({kC}, c_disks, &scratch, &c_memo);
  EXPECT_EQ(evaluator.ScoreProportionalMove({kD}, d_disks, &scratch, &d_memo),
            evaluator.TotalCost());
  const int64_t filled = b_memo.generation;
  EXPECT_GE(filled, 0);
  EXPECT_EQ(c_memo.generation, filled);
  EXPECT_EQ(d_memo.generation, filled);
  EXPECT_TRUE(d_memo.costs.empty());

  evaluator.DeltaForProportionalMove({kA}, {0, 2, 3});
  evaluator.Commit();
  const int64_t evals_before = evaluator.delta_evaluations();
  scratch = evaluator.MakeScratch();
  const double b = evaluator.ScoreProportionalMove({kB}, b_disks, &scratch, &b_memo);
  const double c = evaluator.ScoreProportionalMove({kC}, c_disks, &scratch, &c_memo);
  const double d = evaluator.ScoreProportionalMove({kD}, d_disks, &scratch, &d_memo);
  // B shares A's first sub-plan: re-costed (refilled at a later
  // generation). C shares only a statement with A and D nothing: both
  // reused, and still counted as evaluations.
  EXPECT_GT(b_memo.generation, filled);
  EXPECT_EQ(c_memo.generation, filled);
  EXPECT_EQ(d_memo.generation, filled);
  EXPECT_EQ(evaluator.delta_evaluations() - evals_before, 3);

  Layout b_candidate = evaluator.layout();
  b_candidate.AssignProportional(kB, b_disks, fleet);
  EXPECT_EQ(b, cm.WorkloadCost(profile, b_candidate));
  Layout c_candidate = evaluator.layout();
  c_candidate.AssignProportional(kC, c_disks, fleet);
  EXPECT_EQ(c, cm.WorkloadCost(profile, c_candidate));
  EXPECT_EQ(d, evaluator.TotalCost());
  EXPECT_EQ(d, cm.WorkloadCost(profile, evaluator.layout()));
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

/// Class boundaries. Sub-plans that differ from `base` = [0:900, 1:350]
/// only in one ulp of one block count, in is_write, in read_modify_write, in
/// random, or in the order of the two accesses; a self-join sub-plan that
/// lists object 2 twice; and object 5, which no sub-plan reads. Statements
/// 0, 1 and 8 are equal; 2 differs from them only in weight, 3 only in the
/// order of its sub-plans.
WorkloadProfile NearDuplicateProfile() {
  auto access = [](int object, double blocks) {
    ObjectAccess a;
    a.object_id = object;
    a.blocks = blocks;
    return a;
  };
  auto statement = [](double weight, std::vector<SubplanAccess> subplans) {
    StatementProfile s;
    s.weight = weight;
    s.subplans = std::move(subplans);
    return s;
  };
  const SubplanAccess base{{access(0, 900), access(1, 350)}};
  SubplanAccess ulp = base;
  ulp.accesses[0].blocks =
      std::nextafter(900.0, std::numeric_limits<double>::infinity());
  SubplanAccess write = base;
  write.accesses[0].is_write = true;
  SubplanAccess rmw = base;
  rmw.accesses[0].read_modify_write = true;
  SubplanAccess random = base;
  random.accesses[0].random = true;
  const SubplanAccess order{{access(1, 350), access(0, 900)}};
  const SubplanAccess self_join{{access(2, 610), access(2, 610)}};
  const SubplanAccess single{{access(3, 130)}};
  const SubplanAccess pair{{access(4, 75), access(2, 40)}};

  WorkloadProfile profile;
  profile.num_objects = 6;
  profile.statements.push_back(statement(1.7, {base, single}));
  profile.statements.push_back(statement(1.7, {base, single}));
  profile.statements.push_back(statement(0.45, {base, single}));
  profile.statements.push_back(statement(1.7, {single, base}));
  profile.statements.push_back(statement(2.3, {ulp}));
  profile.statements.push_back(statement(2.3, {write, rmw}));
  profile.statements.push_back(statement(0.9, {order, random, self_join}));
  profile.statements.push_back(statement(1.1, {self_join, pair, base}));
  profile.statements.push_back(statement(1.7, {base, single}));
  return profile;
}

TEST(EvaluatorTest, ClassCountsAreExact) {
  const DiskFleet fleet = DiskFleet::Heterogeneous(4, 0.3, 11);
  const CostModel cm(fleet);
  const LayoutEvaluator evaluator(NearDuplicateProfile(), cm);
  EXPECT_EQ(evaluator.num_subplans(), 19);
  // base, ulp, write, rmw, random, order, self_join, single, pair.
  EXPECT_EQ(evaluator.num_subplan_classes(), 9);
  // {0, 1, 8}, 2, 3, 4, 5, 6, 7.
  EXPECT_EQ(evaluator.num_statement_classes(), 7);
}

/// The oracle's price of "the bound layout with every object of `objects`
/// assigned proportionally across `disks`", or taking its row from `rows`
/// when given.
double OracleScore(const LayoutEvaluator& evaluator, const CostModel& cm,
                   const WorkloadProfile& profile, const std::vector<int>& objects,
                   const std::vector<int>& disks, const Layout* rows = nullptr) {
  Layout candidate = evaluator.layout();
  for (int i : objects) {
    if (rows == nullptr) {
      candidate.AssignProportional(i, disks, cm.fleet());
      continue;
    }
    for (int j = 0; j < candidate.num_disks(); ++j) candidate.set_x(i, j, rows->x(i, j));
  }
  return cm.WorkloadCost(profile, candidate);
}

TEST(EvaluatorTest, NearDuplicateClassesScoreLikeTheOracle) {
  const DiskFleet fleet = DiskFleet::Heterogeneous(4, 0.3, 29);
  const WorkloadProfile profile = NearDuplicateProfile();
  const CostModel cm(fleet);
  const int m = fleet.num_disks();
  LayoutEvaluator evaluator(profile, cm);
  const int n = static_cast<int>(profile.num_objects);
  Layout start(n, m);
  for (int i = 0; i < n; ++i) start.AssignProportional(i, {0, 1}, fleet);
  evaluator.Bind(start);

  const std::vector<std::vector<int>> groups = {{0}, {1}, {2}, {3}, {4}, {5},
                                                {0, 2}, {1, 3, 4}};
  Rng rng(41);
  for (int move = 0; move < 30; ++move) {
    const std::vector<int>& group =
        groups[rng.Index(groups.size())];
    evaluator.DeltaForProportionalMove(group, RandomDiskSet(m, &rng));
    evaluator.Commit();
    ASSERT_EQ(Bits(evaluator.TotalCost()),
              Bits(cm.WorkloadCost(profile, evaluator.layout())))
        << "committed total drifted at move " << move;

    // Every group on a random drive set: once one at a time, once as lanes
    // of batches.
    std::vector<std::vector<int>> disk_sets;
    std::vector<LayoutEvaluator::ProportionalMove> moves;
    for (size_t g = 0; g < groups.size(); ++g) {
      disk_sets.push_back(RandomDiskSet(m, &rng));
    }
    for (size_t g = 0; g < groups.size(); ++g) {
      moves.push_back({&groups[g], &disk_sets[g], nullptr});
    }
    LayoutEvaluator::Scratch scratch = evaluator.MakeScratch();
    std::vector<double> batched(moves.size());
    evaluator.ScoreProportionalMoves(moves, &scratch, batched);
    for (size_t g = 0; g < groups.size(); ++g) {
      const double oracle =
          OracleScore(evaluator, cm, profile, groups[g], disk_sets[g]);
      EXPECT_EQ(Bits(evaluator.ScoreProportionalMove(groups[g], disk_sets[g],
                                                     &scratch)),
                Bits(oracle))
          << "single, move " << move << " group " << g;
      EXPECT_EQ(Bits(batched[g]), Bits(oracle))
          << "lane " << g << ", move " << move;
    }
  }
}

TEST(EvaluatorTest, BatchTotalsEqualSingleCandidateTotals) {
  const DiskFleet fleet = DiskFleet::Heterogeneous(4, 0.3, 31);
  const WorkloadProfile profile = NearDuplicateProfile();
  const CostModel cm(fleet);
  const int m = fleet.num_disks();
  LayoutEvaluator evaluator(profile, cm);
  const int n = static_cast<int>(profile.num_objects);
  Layout start(n, m);
  for (int i = 0; i < n; ++i) start.AssignProportional(i, {1, 2}, fleet);
  evaluator.Bind(start);
  evaluator.DeltaForProportionalMove({3}, {0, 3});
  evaluator.Commit();

  // Target rows for the rows candidates. Object 1's 0.7 / 0.3 split is a
  // row no proportional assignment produces.
  Layout rows(n, m);
  rows.set_x(1, 0, 0.7);
  rows.set_x(1, 2, 0.3);
  rows.set_x(0, 3, 1.0);
  rows.set_x(2, 1, 0.25);
  rows.set_x(2, 2, 0.75);
  rows.set_x(4, 0, 0.5);
  rows.set_x(4, 3, 0.5);
  rows.set_x(3, 1, 0.6);
  rows.set_x(3, 3, 0.4);
  rows.set_x(5, 0, 1.0);

  // Candidates: single objects, multi-object groups, object 5, which no
  // sub-plan reads, and objects taking their rows from `rows`. Every third
  // candidate keeps a memo across the whole test (hits after its first
  // score), every third gets an empty memo per batch (a miss that fills
  // it), the rest score without one.
  struct Cand {
    std::vector<int> objects;
    std::vector<int> disks;
    const Layout* rows = nullptr;
  };
  const std::vector<Cand> cands = {
      {{0}, {0, 2}},    {{1}, {3}},       {{2}, {0, 1, 2, 3}}, {{5}, {2}},
      {{0, 2}, {1, 3}}, {{3}, {1}},       {{1, 3, 4}, {0}},    {{4}, {2, 3}},
      {{2}, {1}},       {{0, 1}, {0, 3}}, {{5, 4}, {0, 1}},    {{1}, {}, &rows},
      {{0, 2, 4}, {}, &rows},             {{3, 5}, {}, &rows}};
  std::vector<LayoutEvaluator::Memo> kept(cands.size());
  std::vector<double> single(cands.size());
  LayoutEvaluator::Scratch scratch = evaluator.MakeScratch();
  for (size_t c = 0; c < cands.size(); ++c) {
    if (cands[c].rows == nullptr) {
      single[c] =
          evaluator.ScoreProportionalMove(cands[c].objects, cands[c].disks, &scratch);
    } else {
      const LayoutEvaluator::ProportionalMove move{&cands[c].objects, nullptr, nullptr,
                                                   cands[c].rows};
      evaluator.ScoreProportionalMoves({&move, 1}, &scratch, {&single[c], 1});
    }
    ASSERT_EQ(Bits(single[c]),
              Bits(OracleScore(evaluator, cm, profile, cands[c].objects,
                               cands[c].disks, cands[c].rows)))
        << "candidate " << c;
  }

  // Every batch size and every lane position: the batches slide over the
  // candidate list cyclically.
  for (int n = 1; n <= LayoutEvaluator::kLanes; ++n) {
    for (size_t first = 0; first < cands.size(); ++first) {
      std::vector<LayoutEvaluator::Memo> fresh(static_cast<size_t>(n));
      std::vector<LayoutEvaluator::ProportionalMove> moves;
      std::vector<size_t> ids;
      for (int k = 0; k < n; ++k) {
        const size_t c = (first + static_cast<size_t>(k)) % cands.size();
        LayoutEvaluator::Memo* memo = c % 3 == 0   ? &kept[c]
                                      : c % 3 == 1 ? &fresh[static_cast<size_t>(k)]
                                                   : nullptr;
        moves.push_back({&cands[c].objects, &cands[c].disks, memo, cands[c].rows});
        ids.push_back(c);
      }
      std::vector<double> totals(static_cast<size_t>(n));
      const int64_t evals_before = evaluator.delta_evaluations();
      evaluator.ScoreProportionalMoves(moves, &scratch, totals);
      EXPECT_EQ(evaluator.delta_evaluations() - evals_before, n);
      for (size_t k = 0; k < ids.size(); ++k) {
        EXPECT_EQ(Bits(totals[k]), Bits(single[ids[k]]))
            << "batch of " << n << ", lane " << k << ", candidate " << ids[k];
      }
    }
  }

  // More than kLanes moves in one call: scored kLanes at a time.
  std::vector<LayoutEvaluator::ProportionalMove> all;
  for (size_t c = 0; c < cands.size(); ++c) {
    all.push_back({&cands[c].objects, &cands[c].disks, &kept[c], cands[c].rows});
  }
  std::vector<double> totals(cands.size());
  const int64_t evals_before = evaluator.delta_evaluations();
  evaluator.ScoreProportionalMoves(all, &scratch, totals);
  EXPECT_EQ(evaluator.delta_evaluations() - evals_before,
            static_cast<int64_t>(cands.size()));
  for (size_t c = 0; c < cands.size(); ++c) {
    EXPECT_EQ(Bits(totals[c]), Bits(single[c])) << "candidate " << c;
  }
}

TEST(EvaluatorTest, MemosCrossBetweenBatchesAndSingleCalls) {
  constexpr int kA = 0, kC = 2, kD = 3;
  const DiskFleet fleet = DiskFleet::Heterogeneous(4, 0.3, 11);
  const WorkloadProfile profile = MemoProfile();
  const CostModel cm(fleet);
  LayoutEvaluator evaluator(profile, cm);
  Layout start(4, fleet.num_disks());
  for (int i = 0; i < 4; ++i) start.AssignProportional(i, {0, 1}, fleet);
  evaluator.Bind(start);

  // C shares only a statement with A and D nothing, so a commit on A keeps
  // both memos fresh.
  const std::vector<int> c_objects = {kC}, d_objects = {kD};
  const std::vector<int> c_disks = {1, 3}, d_disks = {0, 2};
  LayoutEvaluator::Memo batch_filled, single_filled;
  LayoutEvaluator::Scratch scratch = evaluator.MakeScratch();
  const LayoutEvaluator::ProportionalMove fill[] = {
      {&d_objects, &d_disks, nullptr}, {&c_objects, &c_disks, &batch_filled}};
  double filled[2];
  evaluator.ScoreProportionalMoves(fill, &scratch, filled);
  evaluator.ScoreProportionalMove(d_objects, d_disks, &scratch, &single_filled);
  const int64_t batch_generation = batch_filled.generation;
  const int64_t single_generation = single_filled.generation;
  ASSERT_GE(batch_generation, 0);
  ASSERT_GE(single_generation, 0);

  evaluator.DeltaForProportionalMove({kA}, {0, 2, 3});
  evaluator.Commit();
  scratch = evaluator.MakeScratch();

  // Filled in a batch, served to a single call: a hit keeps the generation.
  const double c = evaluator.ScoreProportionalMove(c_objects, c_disks, &scratch,
                                                   &batch_filled);
  EXPECT_EQ(batch_filled.generation, batch_generation);
  EXPECT_EQ(Bits(c), Bits(OracleScore(evaluator, cm, profile, c_objects, c_disks)));
  // Filled by a single call, served to a lane of a batch.
  const LayoutEvaluator::ProportionalMove serve[] = {
      {&c_objects, &c_disks, nullptr}, {&d_objects, &d_disks, &single_filled}};
  double served[2];
  evaluator.ScoreProportionalMoves(serve, &scratch, served);
  EXPECT_EQ(single_filled.generation, single_generation);
  EXPECT_EQ(Bits(served[0]), Bits(c));
  EXPECT_EQ(Bits(served[1]),
            Bits(OracleScore(evaluator, cm, profile, d_objects, d_disks)));
}

TEST(EvaluatorTest, ScoreIsPureAndMatchesMaterializedCandidate) {
  Database db = MicroDb();
  DiskFleet fleet = DiskFleet::Heterogeneous(4, 0.3, 23);
  WorkloadProfile profile = MicroProfile(db);
  const CostModel cm(fleet);
  LayoutEvaluator evaluator(profile, cm);

  Rng rng(7);
  Layout start = RandomLayout(db, fleet, &rng).value();
  const double bound = evaluator.Bind(start);
  LayoutEvaluator::Scratch scratch = evaluator.MakeScratch();

  for (int trial = 0; trial < 20; ++trial) {
    const int object = static_cast<int>(
        rng.UniformInt(0, static_cast<int64_t>(db.Objects().size()) - 1));
    const std::vector<int> disks = RandomDiskSet(fleet.num_disks(), &rng);
    const double scored =
        evaluator.ScoreProportionalMove({object}, disks, &scratch);

    Layout candidate = start;
    candidate.AssignProportional(object, disks, fleet);
    EXPECT_EQ(scored, cm.WorkloadCost(profile, candidate)) << "trial " << trial;
    // Scoring must not disturb the bound state.
    EXPECT_EQ(evaluator.TotalCost(), bound);
  }
}

TEST(EvaluatorTest, RevertDropsTheStagedMove) {
  Database db = MicroDb();
  DiskFleet fleet = DiskFleet::Uniform(3);
  WorkloadProfile profile = MicroProfile(db);
  const CostModel cm(fleet);
  LayoutEvaluator evaluator(profile, cm);

  const Layout striped =
      Layout::FullStriping(static_cast<int>(db.Objects().size()), fleet);
  const double bound = evaluator.Bind(striped);

  const double staged = evaluator.DeltaForProportionalMove({0}, {0});
  EXPECT_NE(staged, bound);
  evaluator.Revert();
  EXPECT_EQ(evaluator.TotalCost(), bound);
  for (int j = 0; j < fleet.num_disks(); ++j) {
    EXPECT_EQ(evaluator.layout().x(0, j), striped.x(0, j));
  }
  // The evaluator stays consistent after a revert: a fresh stage + commit
  // lands on the candidate cost.
  const double restaged = evaluator.DeltaForProportionalMove({0}, {0});
  EXPECT_EQ(restaged, staged);
  evaluator.Commit();
  EXPECT_EQ(evaluator.TotalCost(), staged);
}

TEST(EvaluatorTest, EmptyPlacementCostsZeroInBothPaths) {
  // Regression for the SubplanCost edge case: a sub-plan whose objects have
  // no placement anywhere (all fractions <= 0) must cost exactly 0 — the
  // min-blocks +inf sentinel may never leak into the seek term — and the
  // evaluator must agree with the oracle on that layout.
  Database db = MicroDb();
  DiskFleet fleet = DiskFleet::Uniform(3);
  WorkloadProfile profile = MicroProfile(db);
  const CostModel cm(fleet);

  const Layout zero(static_cast<int>(db.Objects().size()), fleet.num_disks());
  const double oracle = cm.WorkloadCost(profile, zero);
  EXPECT_EQ(oracle, 0.0);
  EXPECT_TRUE(std::isfinite(oracle));

  LayoutEvaluator evaluator(profile, cm);
  EXPECT_EQ(evaluator.Bind(zero), 0.0);

  // Moving one object out of the void re-costs only its sub-plans; the
  // others remain 0 and the total stays finite and oracle-identical.
  evaluator.DeltaForProportionalMove({0}, {0, 1});
  evaluator.Commit();
  EXPECT_EQ(evaluator.TotalCost(), cm.WorkloadCost(profile, evaluator.layout()));
}

TEST(EvaluatorTest, AccountingCountsEveryEvaluationOnce) {
  Database db = MicroDb();
  DiskFleet fleet = DiskFleet::Uniform(3);
  WorkloadProfile profile = MicroProfile(db);
  const CostModel cm(fleet);
  LayoutEvaluator evaluator(profile, cm);

  const int64_t before = cm.WorkloadEvaluations();
  evaluator.Bind(Layout::FullStriping(static_cast<int>(db.Objects().size()), fleet));
  LayoutEvaluator::Scratch scratch = evaluator.MakeScratch();
  evaluator.ScoreProportionalMove({0}, {0}, &scratch);
  evaluator.DeltaForProportionalMove({1}, {1});
  evaluator.Commit();

  EXPECT_EQ(evaluator.full_evaluations(), 1);
  EXPECT_EQ(evaluator.delta_evaluations(), 2);  // one score + one staged delta
  // Every evaluator evaluation is also recorded in the shared cost model, so
  // layouts_evaluated stays uniform across full and delta paths.
  EXPECT_EQ(cm.WorkloadEvaluations() - before,
            evaluator.full_evaluations() + evaluator.delta_evaluations());
}

/// A seeded micro instance: drives with drawn seek times, rates and RAID
/// levels; statements of drawn weight (some 0) over 1-3 sub-plans of 1-3
/// accesses with drawn block counts, writes, read-modify-writes and random
/// reads (an object may appear twice in one sub-plan, or in none); and the
/// objects cut into co-location groups of 1-3 that move together.
struct MicroInstance {
  DiskFleet fleet;
  WorkloadProfile profile;
  std::vector<std::vector<int>> groups;
};

MicroInstance DrawMicroInstance(Rng* rng) {
  MicroInstance inst;
  const int m = static_cast<int>(rng->UniformInt(1, 5));
  for (int j = 0; j < m; ++j) {
    DiskDrive d;
    d.name = "d" + std::to_string(j);
    d.capacity_blocks = int64_t{1} << 30;
    d.seek_ms = rng->UniformDouble(1.0, 15.0);
    d.read_mb_s = rng->UniformDouble(10.0, 400.0);
    d.write_mb_s = rng->UniformDouble(8.0, 300.0);
    d.avail = static_cast<Availability>(rng->UniformInt(0, 2));
    inst.fleet.Add(d);
  }
  const int n = static_cast<int>(rng->UniformInt(1, 7));
  inst.profile.num_objects = static_cast<size_t>(n);
  const int statements = static_cast<int>(rng->UniformInt(1, 9));
  for (int q = 0; q < statements; ++q) {
    StatementProfile s;
    s.weight = rng->Bernoulli(0.1) ? 0.0 : rng->UniformDouble(0.01, 50.0);
    const int subplans = static_cast<int>(rng->UniformInt(1, 3));
    for (int p = 0; p < subplans; ++p) {
      SubplanAccess sp;
      const int accesses = static_cast<int>(rng->UniformInt(1, 3));
      for (int a = 0; a < accesses; ++a) {
        ObjectAccess access;
        access.object_id = static_cast<int>(rng->UniformInt(0, n - 1));
        access.blocks = rng->Bernoulli(0.3)
                            ? static_cast<double>(rng->UniformInt(1, 100'000))
                            : rng->UniformDouble(0.5, 1e6);
        access.is_write = rng->Bernoulli(0.3);
        access.read_modify_write = access.is_write && rng->Bernoulli(0.3);
        access.random = rng->Bernoulli(0.3);
        sp.accesses.push_back(access);
      }
      s.subplans.push_back(std::move(sp));
    }
    inst.profile.statements.push_back(std::move(s));
  }
  std::vector<int> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  rng->Shuffle(&order);
  for (size_t i = 0; i < order.size();) {
    const size_t size = std::min(order.size() - i,
                                 static_cast<size_t>(rng->UniformInt(1, 3)));
    inst.groups.emplace_back(order.begin() + static_cast<std::ptrdiff_t>(i),
                             order.begin() + static_cast<std::ptrdiff_t>(i + size));
    i += size;
  }
  return inst;
}

/// Whether every sub-plan that reads an object of `group` costs the same
/// bits under `candidate` as under `base`: the oracle's view of "no
/// affected class cost changed".
bool NoAffectedCostChanged(const CostModel& cm, const WorkloadProfile& profile,
                           const std::vector<int>& group, const Layout& base,
                           const Layout& candidate) {
  for (const StatementProfile& s : profile.statements) {
    for (const SubplanAccess& sp : s.subplans) {
      const bool reads = std::any_of(
          sp.accesses.begin(), sp.accesses.end(), [&](const ObjectAccess& a) {
            return std::find(group.begin(), group.end(), a.object_id) != group.end();
          });
      if (reads && Bits(cm.SubplanCost(sp, base)) != Bits(cm.SubplanCost(sp, candidate))) {
        return false;
      }
    }
  }
  return true;
}

/// Property test of Pass::kBound on seeded micro instances: after random
/// committed moves, every group's moves (to its own drives, a no-op, and to
/// random drive sets) get a bound no larger than the move's exact total,
/// within 1e-9 of it, and equal to TotalCost() bit for bit whenever no
/// affected sub-plan prices differently; a kFold pass over the same memos
/// gives the exact totals and counts no evaluation.
TEST(EvaluatorTest, BoundNeverExceedsTheExactTotal) {
  Rng rng(20261020);
  int unchanged = 0;
  int changed = 0;
  for (int instance = 0; instance < 300; ++instance) {
    const MicroInstance inst = DrawMicroInstance(&rng);
    const CostModel cm(inst.fleet);
    const int m = inst.fleet.num_disks();
    LayoutEvaluator evaluator(inst.profile, cm);
    Layout start(static_cast<int>(inst.profile.num_objects), m);
    for (const std::vector<int>& group : inst.groups) {
      const std::vector<int> disks = RandomDiskSet(m, &rng);
      for (int i : group) start.AssignProportional(i, disks, inst.fleet);
    }
    evaluator.Bind(start);
    for (int step = 0; step < 4; ++step) {
      std::vector<const std::vector<int>*> groups;
      std::vector<std::vector<int>> disk_sets;
      for (const std::vector<int>& group : inst.groups) {
        groups.push_back(&group);
        disk_sets.push_back(evaluator.layout().DisksOf(group[0]));
        for (int extra = 0; extra < 2; ++extra) {
          groups.push_back(&group);
          disk_sets.push_back(RandomDiskSet(m, &rng));
        }
      }
      std::vector<LayoutEvaluator::Memo> memos(groups.size());
      std::vector<LayoutEvaluator::ProportionalMove> moves;
      for (size_t c = 0; c < groups.size(); ++c) {
        moves.push_back({groups[c], &disk_sets[c], &memos[c]});
      }
      LayoutEvaluator::Scratch scratch = evaluator.MakeScratch();
      std::vector<double> bounds(moves.size());
      std::vector<double> folded(moves.size());
      int64_t evals = evaluator.delta_evaluations();
      evaluator.ScoreProportionalMoves(moves, &scratch, bounds,
                                       LayoutEvaluator::Pass::kBound);
      EXPECT_EQ(evaluator.delta_evaluations() - evals,
                static_cast<int64_t>(moves.size()));
      evals = evaluator.delta_evaluations();
      evaluator.ScoreProportionalMoves(moves, &scratch, folded,
                                       LayoutEvaluator::Pass::kFold);
      EXPECT_EQ(evaluator.delta_evaluations(), evals);
      for (size_t c = 0; c < moves.size(); ++c) {
        const double exact =
            evaluator.ScoreProportionalMove(*groups[c], disk_sets[c], &scratch);
        EXPECT_EQ(Bits(folded[c]), Bits(exact)) << "instance " << instance << " move " << c;
        EXPECT_FALSE(bounds[c] > exact)
            << "instance " << instance << " step " << step << " move " << c << ": bound "
            << bounds[c] << " above the total " << exact;
        EXPECT_GE(bounds[c], exact - 1e-9 * (1 + exact + evaluator.TotalCost()))
            << "instance " << instance << " move " << c;
        Layout candidate = evaluator.layout();
        for (int i : *groups[c]) candidate.AssignProportional(i, disk_sets[c], inst.fleet);
        if (NoAffectedCostChanged(cm, inst.profile, *groups[c], evaluator.layout(),
                                  candidate)) {
          ++unchanged;
          EXPECT_EQ(Bits(bounds[c]), Bits(evaluator.TotalCost()))
              << "instance " << instance << " move " << c;
        } else {
          ++changed;
        }
      }
      const size_t pick = rng.Index(moves.size());
      evaluator.DeltaForProportionalMove(*groups[pick], disk_sets[pick]);
      evaluator.Commit();
    }
  }
  EXPECT_GT(unchanged, 1000);
  EXPECT_GT(changed, 1000);
}

/// Outside the bound's domain, a negative or non-finite weight, a changed
/// candidate's bound is -inf; an unchanged one's is still TotalCost().
TEST(EvaluatorTest, BoundIsMinusInfinityForAWeightOutsideItsDomain) {
  if (DBLAYOUT_DCHECK_IS_ON()) {
    GTEST_SKIP() << "DCHECK builds reject such a weight at Bind (AuditWorkloadTotal)";
  }
  const DiskFleet fleet = DiskFleet::Heterogeneous(4, 0.3, 11);
  const CostModel cm(fleet);
  for (const double weight : {-0.5, std::numeric_limits<double>::infinity()}) {
    WorkloadProfile profile = MemoProfile();
    profile.statements[1].weight = weight;
    LayoutEvaluator evaluator(profile, cm);
    Layout start(4, fleet.num_disks());
    for (int i = 0; i < 4; ++i) start.AssignProportional(i, {0, 1}, fleet);
    evaluator.Bind(start);
    const std::vector<int> moved = {0}, same = {0, 1}, wider = {0, 1, 2};
    const LayoutEvaluator::ProportionalMove moves[] = {{&moved, &same, nullptr},
                                                       {&moved, &wider, nullptr}};
    LayoutEvaluator::Scratch scratch = evaluator.MakeScratch();
    double bounds[2];
    evaluator.ScoreProportionalMoves(moves, &scratch, bounds,
                                     LayoutEvaluator::Pass::kBound);
    EXPECT_EQ(Bits(bounds[0]), Bits(evaluator.TotalCost())) << "weight " << weight;
    EXPECT_EQ(bounds[1], -std::numeric_limits<double>::infinity()) << "weight " << weight;
  }
}

TEST(ThreadPoolTest, ParallelForVisitsEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  constexpr int64_t kN = 10'000;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(kN, 4, [&](int64_t i, int worker) {
    ASSERT_GE(worker, 0);
    ASSERT_LT(worker, 4);
    hits[static_cast<size_t>(i)].fetch_add(1, std::memory_order_relaxed);
  });
  for (int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, SequentialFallbackAndEdgeCases) {
  ThreadPool pool(2);
  int count = 0;
  // parallelism 1 runs inline in the caller (worker id 0).
  pool.ParallelFor(5, 1, [&](int64_t, int worker) {
    EXPECT_EQ(worker, 0);
    ++count;
  });
  EXPECT_EQ(count, 5);
  // n = 0 is a no-op; n = 1 never pays for a helper wake-up.
  pool.ParallelFor(0, 8, [&](int64_t, int) { FAIL() << "n=0 must not call fn"; });
  count = 0;
  pool.ParallelFor(1, 8, [&](int64_t, int worker) {
    EXPECT_EQ(worker, 0);
    ++count;
  });
  EXPECT_EQ(count, 1);
}

TEST(ThreadPoolTest, BatchesAreSerializedAcrossCallers) {
  // Two consecutive batches on the same pool must not interleave state: run
  // a batch, then reuse the same accumulator in a second batch.
  ThreadPool pool(4);
  std::atomic<int64_t> sum{0};
  pool.ParallelFor(1000, 5, [&](int64_t i, int) {
    sum.fetch_add(i, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 1000 * 999 / 2);
  pool.ParallelFor(1000, 5, [&](int64_t i, int) {
    sum.fetch_sub(i, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 0);
}

TEST(ThreadPoolTest, SharedPoolIsUsableConcurrently) {
  ThreadPool& pool = ThreadPool::Shared();
  EXPECT_GE(pool.num_workers(), 1);
  std::atomic<int64_t> total{0};
  pool.ParallelFor(256, 8, [&](int64_t, int) {
    total.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(total.load(), 256);
}

/// Runs the full search at a given thread count.
SearchResult RunAtThreads(const Database& db, const DiskFleet& fleet,
                          const WorkloadProfile& profile,
                          const ResolvedConstraints& rc, int threads) {
  SearchOptions opts;
  opts.num_threads = threads;
  auto result = TsGreedySearch(db, fleet, opts).Run(profile, rc);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

TEST(ParallelSearchTest, ThreadCountDoesNotChangeTheResult) {
  // The tentpole invariant: candidate scoring fan-out must be invisible in
  // the output — layouts, costs, trajectories, and telemetry counters are
  // bit-identical for 1, 2, and 8 scoring threads.
  Database db = MicroDb();
  DiskFleet fleet = DiskFleet::Heterogeneous(4, 0.3, 42);
  WorkloadProfile profile = MicroProfile(db);
  ResolvedConstraints rc = NoConstraints(db);

  const SearchResult base = RunAtThreads(db, fleet, profile, rc, 1);
  for (int threads : {2, 8}) {
    const SearchResult other = RunAtThreads(db, fleet, profile, rc, threads);
    EXPECT_EQ(base.cost, other.cost) << threads << " threads";
    EXPECT_EQ(base.greedy_iterations, other.greedy_iterations);
    EXPECT_EQ(base.layouts_evaluated, other.layouts_evaluated);
    EXPECT_EQ(base.telemetry.cost_trajectory, other.telemetry.cost_trajectory);
    EXPECT_EQ(base.telemetry.widen_considered, other.telemetry.widen_considered);
    EXPECT_EQ(base.telemetry.jump_considered, other.telemetry.jump_considered);
    EXPECT_EQ(base.telemetry.narrow_considered,
              other.telemetry.narrow_considered);
    EXPECT_EQ(base.telemetry.full_evals, other.telemetry.full_evals);
    EXPECT_EQ(base.telemetry.delta_evals, other.telemetry.delta_evals);
    ASSERT_EQ(base.layout.num_objects(), other.layout.num_objects());
    for (int i = 0; i < base.layout.num_objects(); ++i) {
      for (int j = 0; j < base.layout.num_disks(); ++j) {
        ASSERT_EQ(base.layout.x(i, j), other.layout.x(i, j))
            << "object " << i << " disk " << j << " at " << threads
            << " threads";
      }
    }
  }
}

TEST(ParallelSearchTest, CancelledSearchIsThreadCountInvariant) {
  // Cancellation raised from the progress hook after the 2nd accepted move
  // is seen before the 3rd iteration scores anything, at any thread count:
  // the search stops with two moves and the same best-so-far.
  Database db = MicroDb();
  DiskFleet fleet = DiskFleet::Heterogeneous(4, 0.3, 42);
  WorkloadProfile profile = MicroProfile(db);
  ResolvedConstraints rc = NoConstraints(db);
  ASSERT_GT(RunAtThreads(db, fleet, profile, rc, 1).greedy_iterations, 2);

  auto run_cancelled = [&](int threads) {
    std::atomic<bool> cancel{false};
    SearchOptions opts;
    opts.num_threads = threads;
    opts.cancel_requested = &cancel;
    opts.progress_hook = [&cancel](const SearchProgress& p) {
      if (p.iteration == 2) cancel.store(true, std::memory_order_relaxed);
    };
    auto result = TsGreedySearch(db, fleet, opts).Run(profile, rc);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result).value();
  };
  const SearchResult one = run_cancelled(1);
  const SearchResult four = run_cancelled(4);
  for (const SearchResult* r : {&one, &four}) {
    EXPECT_TRUE(r->timed_out);
    EXPECT_EQ(r->greedy_iterations, 2);
  }
  EXPECT_EQ(one.cost, four.cost);
  EXPECT_EQ(one.telemetry.cost_trajectory, four.telemetry.cost_trajectory);
  ASSERT_EQ(one.layout.num_objects(), four.layout.num_objects());
  for (int i = 0; i < one.layout.num_objects(); ++i) {
    for (int j = 0; j < one.layout.num_disks(); ++j) {
      ASSERT_EQ(one.layout.x(i, j), four.layout.x(i, j))
          << "object " << i << " disk " << j;
    }
  }
}

TEST(ParallelSearchTest, EvaluationAccountingIsConsistent) {
  Database db = MicroDb();
  DiskFleet fleet = DiskFleet::Heterogeneous(4, 0.3, 42);
  WorkloadProfile profile = MicroProfile(db);
  const SearchResult r = RunAtThreads(db, fleet, profile, NoConstraints(db), 2);
  EXPECT_GT(r.layouts_evaluated, 0);
  EXPECT_GT(r.telemetry.delta_evals, 0);
  EXPECT_GT(r.telemetry.full_evals, 0);
  EXPECT_EQ(r.layouts_evaluated,
            r.telemetry.full_evals + r.telemetry.delta_evals);
}

TEST(ParallelSearchTest, ExhaustiveMatchesGreedyCostOnMicroInstance) {
  // The delta-costed exhaustive enumeration must report the same optimum
  // (and stay within the search tests' quality bound) as before the
  // evaluator rethreading.
  Database db = MicroDb();
  DiskFleet fleet = DiskFleet::Uniform(3);
  WorkloadProfile profile = MicroProfile(db);
  ResolvedConstraints rc = NoConstraints(db);
  auto exhaustive = ExhaustiveSearch(db, fleet, profile, rc);
  ASSERT_TRUE(exhaustive.ok()) << exhaustive.status().ToString();
  const CostModel cm(fleet);
  EXPECT_EQ(exhaustive->cost, cm.WorkloadCost(profile, exhaustive->layout));
  EXPECT_EQ(exhaustive->layouts_evaluated,
            exhaustive->telemetry.full_evals + exhaustive->telemetry.delta_evals);
}

TEST(ParallelSearchTest, ResilienceReportIsThreadCountInvariant) {
  Database db = MicroDb();
  DiskFleet fleet = DiskFleet::Heterogeneous(4, 0.3, 5);
  WorkloadProfile profile = MicroProfile(db);
  const Layout layout =
      Layout::FullStriping(static_cast<int>(db.Objects().size()), fleet);

  ResilienceOptions one;
  one.num_threads = 1;
  ResilienceOptions four;
  four.num_threads = 4;
  auto a = EvaluateResilience(db, fleet, profile, layout, one);
  auto b = EvaluateResilience(db, fleet, profile, layout, four);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(a->healthy_cost_ms, b->healthy_cost_ms);
  EXPECT_EQ(a->worst_degraded_cost_ms, b->worst_degraded_cost_ms);
  EXPECT_EQ(a->mean_degraded_cost_ms, b->mean_degraded_cost_ms);
  EXPECT_EQ(a->worst_drive, b->worst_drive);
  ASSERT_EQ(a->scenarios.size(), b->scenarios.size());
  for (size_t s = 0; s < a->scenarios.size(); ++s) {
    EXPECT_EQ(a->scenarios[s].degraded_cost_ms, b->scenarios[s].degraded_cost_ms);
  }
}

}  // namespace
}  // namespace dblayout
