#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <set>

#include "catalog/catalog.h"
#include "optimizer/optimizer.h"
#include "optimizer/selectivity.h"
#include "sql/parser.h"
#include "tests/optimizer_test_util.h"

namespace dblayout {
namespace {

using testutil::MakeKey;
using testutil::MakeNum;
using testutil::MakeWideDb;
using testutil::WideJoinSql;

/// Test schema: fact(1M rows, clustered f_key) joins dim(10k rows, clustered
/// d_key) on f_dkey = d_key (not sorted on fact side) and big2(1M rows,
/// clustered b_key) on f_key = b_key (sorted both sides -> merge join).
Database MakeTestDb() {
  Database db("optdb");
  Table fact;
  fact.name = "fact";
  fact.row_count = 1'000'000;
  fact.columns = {MakeKey("f_key", 1'000'000), MakeKey("f_dkey", 10'000),
                  MakeNum("f_val", 0, 1000, 1000),
                  MakeNum("f_misc", 0, 100, 100),
                  MakeKey("f_sel", 500'000)};
  fact.clustered_key = {"f_key"};
  EXPECT_TRUE(db.AddTable(fact).ok());

  Table big2;
  big2.name = "big2";
  big2.row_count = 1'000'000;
  big2.columns = {MakeKey("b_key", 1'000'000), MakeNum("b_val", 0, 1000, 1000)};
  big2.clustered_key = {"b_key"};
  EXPECT_TRUE(db.AddTable(big2).ok());

  Table dim;
  dim.name = "dim";
  dim.row_count = 10'000;
  dim.columns = {MakeKey("d_key", 10'000), MakeNum("d_attr", 0, 50, 50)};
  dim.clustered_key = {"d_key"};
  EXPECT_TRUE(db.AddTable(dim).ok());

  EXPECT_TRUE(db.AddIndex(Index{"ix_f_val", "fact", {"f_val"}, false}).ok());
  EXPECT_TRUE(db.AddIndex(Index{"ix_f_sel", "fact", {"f_sel"}, false}).ok());
  return db;
}

std::unique_ptr<PlanNode> PlanFor(const Database& db, const std::string& sql) {
  auto stmt = ParseSql(sql);
  EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
  Optimizer opt(db);
  auto plan = opt.Plan(stmt.value());
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return std::move(plan).value();
}

/// Counts nodes of the given op in the tree.
int CountOp(const PlanNode& node, PlanOp op) {
  int n = node.op == op ? 1 : 0;
  for (const auto& c : node.children) n += CountOp(*c, op);
  return n;
}

const PlanNode* FindOp(const PlanNode& node, PlanOp op) {
  if (node.op == op) return &node;
  for (const auto& c : node.children) {
    if (const PlanNode* hit = FindOp(*c, op)) return hit;
  }
  return nullptr;
}

TEST(SelectivityTest, EqualityUsesDistinctCount) {
  Column c = MakeKey("k", 100);
  Predicate p;
  p.kind = Predicate::Kind::kCompareLiteral;
  p.op = CompareOp::kEq;
  p.rhs_literal.number = 5;
  EXPECT_DOUBLE_EQ(PredicateSelectivity(p, &c), 0.01);
  p.op = CompareOp::kNe;
  EXPECT_DOUBLE_EQ(PredicateSelectivity(p, &c), 0.99);
}

TEST(SelectivityTest, RangeUsesMinMax) {
  Column c = MakeNum("v", 0, 100, 1000);
  Predicate p;
  p.kind = Predicate::Kind::kCompareLiteral;
  p.op = CompareOp::kLt;
  p.rhs_literal.number = 25;
  EXPECT_NEAR(PredicateSelectivity(p, &c), 0.25, 1e-9);
  p.op = CompareOp::kGe;
  EXPECT_NEAR(PredicateSelectivity(p, &c), 0.75, 1e-9);
  p.rhs_literal.number = 1000;  // past max
  EXPECT_NEAR(PredicateSelectivity(p, &c), kMinSelectivity, 1e-9);
}

TEST(SelectivityTest, BetweenAndIn) {
  Column c = MakeNum("v", 0, 100, 50);
  Predicate between;
  between.kind = Predicate::Kind::kBetween;
  between.between_lo.number = 10;
  between.between_hi.number = 30;
  EXPECT_NEAR(PredicateSelectivity(between, &c), 0.2, 1e-9);
  Predicate in;
  in.kind = Predicate::Kind::kIn;
  in.in_list.resize(5);
  EXPECT_NEAR(PredicateSelectivity(in, &c), 0.1, 1e-9);
}

TEST(SelectivityTest, LikePatterns) {
  Predicate p;
  p.kind = Predicate::Kind::kLike;
  p.like_pattern = "abc%";
  EXPECT_DOUBLE_EQ(PredicateSelectivity(p, nullptr), kLikePrefixSelectivity);
  p.like_pattern = "%abc%";
  EXPECT_DOUBLE_EQ(PredicateSelectivity(p, nullptr), kLikeContainsSelectivity);
}

TEST(SelectivityTest, NullColumnFallsBackToDefaults) {
  Predicate p;
  p.kind = Predicate::Kind::kCompareLiteral;
  p.op = CompareOp::kEq;
  EXPECT_DOUBLE_EQ(PredicateSelectivity(p, nullptr), kDefaultEqSelectivity);
}

TEST(SelectivityTest, JoinSelectivityRule) {
  EXPECT_DOUBLE_EQ(JoinSelectivity(100, 1000), 1e-3);
  EXPECT_DOUBLE_EQ(JoinSelectivity(0, 0), 1.0);
}

TEST(SelectivityTest, YaoFormulaBounds) {
  EXPECT_DOUBLE_EQ(YaoBlocks(0, 100, 1000), 0);
  EXPECT_DOUBLE_EQ(YaoBlocks(5, 1, 1000), 1);           // single block
  EXPECT_LE(YaoBlocks(10, 1000, 100000), 10.0);         // <= rows
  EXPECT_LE(YaoBlocks(1e9, 1000, 2e9), 1000.0);         // <= blocks
  EXPECT_GT(YaoBlocks(500, 1000, 100000), 300);         // most lookups distinct
}

TEST(OptimizerTest, SingleTableScan) {
  Database db = MakeTestDb();
  auto plan = PlanFor(db, "SELECT COUNT(*) FROM fact");
  // Scalar aggregate over a full scan.
  EXPECT_EQ(plan->op, PlanOp::kStreamAggregate);
  const PlanNode* scan = FindOp(*plan, PlanOp::kTableScan);
  ASSERT_NE(scan, nullptr);
  EXPECT_EQ(scan->object_name, "fact");
  EXPECT_DOUBLE_EQ(scan->blocks_accessed,
                   static_cast<double>(db.FindTable("fact")->DataBlocks()));
  EXPECT_FALSE(scan->sort_order.empty());  // clustered scan is ordered
}

TEST(OptimizerTest, ClusteredSeekForRangeOnClusteredKey) {
  Database db = MakeTestDb();
  auto plan = PlanFor(db, "SELECT * FROM fact WHERE f_key < 100000");
  const PlanNode* seek = FindOp(*plan, PlanOp::kClusteredSeek);
  ASSERT_NE(seek, nullptr);
  // ~10% of the table.
  EXPECT_LT(seek->blocks_accessed,
            0.2 * static_cast<double>(db.FindTable("fact")->DataBlocks()));
}

TEST(OptimizerTest, NcIndexSeekWithRidLookupForSelectivePredicate) {
  Database db = MakeTestDb();
  auto plan = PlanFor(db, "SELECT * FROM fact WHERE f_sel = 7");
  const PlanNode* lookup = FindOp(*plan, PlanOp::kRidLookup);
  ASSERT_NE(lookup, nullptr);
  EXPECT_TRUE(lookup->random_access);
  const PlanNode* seek = FindOp(*plan, PlanOp::kIndexSeek);
  ASSERT_NE(seek, nullptr);
  EXPECT_EQ(seek->object_name, "fact.ix_f_sel");
  // Both accesses are in one pipeline (co-accessed).
  auto subplans = DecomposeIntoSubplans(*plan);
  ASSERT_EQ(subplans.size(), 1u);
  EXPECT_EQ(subplans[0].accesses.size(), 2u);
}

TEST(OptimizerTest, UnselectivePredicatePrefersScan) {
  Database db = MakeTestDb();
  auto plan = PlanFor(db, "SELECT * FROM fact WHERE f_val > 1");
  EXPECT_EQ(FindOp(*plan, PlanOp::kIndexSeek), nullptr);
  EXPECT_NE(FindOp(*plan, PlanOp::kTableScan), nullptr);
}

TEST(OptimizerTest, MergeJoinOnClusteredKeys) {
  Database db = MakeTestDb();
  auto plan = PlanFor(db, "SELECT COUNT(*) FROM fact, big2 WHERE f_key = b_key");
  EXPECT_EQ(CountOp(*plan, PlanOp::kMergeJoin), 1);
  EXPECT_EQ(CountOp(*plan, PlanOp::kHashJoin), 0);
  // Merge join co-accesses both tables in one pipeline.
  auto subplans = DecomposeIntoSubplans(*plan);
  ASSERT_EQ(subplans.size(), 1u);
  EXPECT_EQ(subplans[0].accesses.size(), 2u);
}

TEST(OptimizerTest, HashJoinWhenInputsUnsorted) {
  Database db = MakeTestDb();
  // fact.f_dkey is not fact's clustered key, so merge join is unavailable
  // and the dim side (10k rows) exceeds no NLJ threshold... fact is large,
  // dim drives build side of a hash join.
  auto plan = PlanFor(db, "SELECT COUNT(*) FROM fact, dim WHERE f_dkey = d_key");
  EXPECT_EQ(CountOp(*plan, PlanOp::kHashJoin), 1);
  // The hash-join build side is cut into its own pipeline: two subplans.
  auto subplans = DecomposeIntoSubplans(*plan);
  EXPECT_EQ(subplans.size(), 2u);
  for (const auto& sp : subplans) EXPECT_EQ(sp.accesses.size(), 1u);
}

TEST(OptimizerTest, SortMergeJoinChosenWhenHashIsExpensive) {
  // With hash work priced prohibitively, the planner falls back to a
  // sort-merge join: Sort (blocking) nodes under a Merge Join.
  Database db = MakeTestDb();
  OptimizerOptions opts;
  opts.hash_build_cost_per_row = 10.0;
  opts.hash_probe_cost_per_row = 10.0;
  opts.nlj_outer_rows_threshold = 0;  // rule out index nested loops
  Optimizer opt(db, opts);
  auto plan =
      opt.Plan(ParseSql("SELECT COUNT(*) FROM fact, dim WHERE f_dkey = d_key").value());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(CountOp(**plan, PlanOp::kHashJoin), 0);
  EXPECT_EQ(CountOp(**plan, PlanOp::kMergeJoin), 1);
  EXPECT_GE(CountOp(**plan, PlanOp::kSort), 1);
  // The sorts cut the pipelines: the two scans are NOT co-accessed.
  auto subplans = DecomposeIntoSubplans(**plan);
  for (const auto& sp : subplans) {
    EXPECT_EQ(sp.accesses.size(), 1u);
  }
}

TEST(OptimizerTest, SortMergeJoinNotChosenByDefault) {
  Database db = MakeTestDb();
  auto plan = PlanFor(db, "SELECT COUNT(*) FROM fact, dim WHERE f_dkey = d_key");
  // Default knobs: hash join wins over sorting a 1M-row input.
  EXPECT_EQ(CountOp(*plan, PlanOp::kHashJoin), 1);
  EXPECT_EQ(CountOp(*plan, PlanOp::kSort), 0);
}

TEST(OptimizerTest, IndexNestedLoopsForTinyOuter) {
  Database db = MakeTestDb();
  // dim filtered to ~1 row joins fact via the clustered key.
  auto plan = PlanFor(
      db, "SELECT COUNT(*) FROM dim, fact WHERE d_key = 42 AND d_key = f_key");
  const PlanNode* nlj = FindOp(*plan, PlanOp::kNestedLoopsJoin);
  ASSERT_NE(nlj, nullptr);
  // Inner side does random lookups on fact.
  const PlanNode* inner = nlj->children[1].get();
  EXPECT_TRUE(inner->random_access);
  EXPECT_LT(inner->blocks_accessed, 100.0);
}

TEST(OptimizerTest, SortIsBlockingAndCutsPipelines) {
  Database db = MakeTestDb();
  auto plan = PlanFor(db, "SELECT f_val FROM fact ORDER BY f_val");
  EXPECT_EQ(CountOp(*plan, PlanOp::kSort), 1);
  auto subplans = DecomposeIntoSubplans(*plan);
  ASSERT_EQ(subplans.size(), 1u);  // scan below the sort
}

TEST(OptimizerTest, OrderByOnClusteredKeyAvoidsSort) {
  Database db = MakeTestDb();
  auto plan = PlanFor(db, "SELECT f_key FROM fact ORDER BY f_key");
  EXPECT_EQ(CountOp(*plan, PlanOp::kSort), 0);
}

TEST(OptimizerTest, GroupByUsesHashAggregateWhenUnsorted) {
  Database db = MakeTestDb();
  auto plan = PlanFor(db, "SELECT f_val, COUNT(*) FROM fact GROUP BY f_val");
  EXPECT_EQ(plan->op, PlanOp::kHashAggregate);
  EXPECT_LE(plan->out_rows, 1001.0);  // ~distinct count of f_val
}

TEST(OptimizerTest, GroupByOnClusteredKeyStreams) {
  Database db = MakeTestDb();
  auto plan = PlanFor(db, "SELECT f_key, COUNT(*) FROM fact GROUP BY f_key");
  EXPECT_EQ(plan->op, PlanOp::kStreamAggregate);
}

TEST(OptimizerTest, TopLimitsRows) {
  Database db = MakeTestDb();
  auto plan = PlanFor(db, "SELECT TOP 5 * FROM fact");
  EXPECT_EQ(plan->op, PlanOp::kTop);
  EXPECT_DOUBLE_EQ(plan->out_rows, 5);
}

TEST(OptimizerTest, InsertWritesTableAndIndexes) {
  Database db = MakeTestDb();
  auto plan = PlanFor(db, "INSERT INTO fact VALUES (1, 2, 3, 4, 5)");
  EXPECT_EQ(plan->op, PlanOp::kInsert);
  EXPECT_TRUE(plan->is_write);
  // One co-written pipeline covering the base object and both indexes.
  auto subplans = DecomposeIntoSubplans(*plan);
  ASSERT_EQ(subplans.size(), 1u);
  EXPECT_EQ(subplans[0].accesses.size(), 3u);
  for (const auto& a : subplans[0].accesses) EXPECT_TRUE(a.is_write);
}

TEST(OptimizerTest, DeletePlansReadThenWrite) {
  Database db = MakeTestDb();
  auto plan = PlanFor(db, "DELETE FROM dim WHERE d_attr < 10");
  EXPECT_EQ(plan->op, PlanOp::kDelete);
  EXPECT_TRUE(plan->is_write);
  EXPECT_GT(plan->blocks_accessed, 0);
  EXPECT_NE(FindOp(*plan, PlanOp::kTableScan), nullptr);
}

TEST(OptimizerTest, UpdateMaintainsAffectedIndexOnly) {
  Database db = MakeTestDb();
  auto plan1 = PlanFor(db, "UPDATE fact SET f_val = 1 WHERE f_key = 7");
  // f_val is a key of ix_f_val -> index co-written.
  int writes1 = 0;
  for (const auto& sp : DecomposeIntoSubplans(*plan1)) {
    for (const auto& a : sp.accesses) writes1 += a.is_write ? 1 : 0;
  }
  EXPECT_EQ(writes1, 2);
  auto plan2 = PlanFor(db, "UPDATE fact SET f_misc = 1 WHERE f_key = 7");
  int writes2 = 0;
  for (const auto& sp : DecomposeIntoSubplans(*plan2)) {
    for (const auto& a : sp.accesses) writes2 += a.is_write ? 1 : 0;
  }
  EXPECT_EQ(writes2, 1);  // no index touched
}

TEST(OptimizerTest, BindingErrors) {
  Database db = MakeTestDb();
  Optimizer opt(db);
  auto expect_not_found = [&](const std::string& sql, const std::string& message) {
    auto stmt = ParseSql(sql);
    ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
    const Status st = opt.Plan(stmt.value()).status();
    EXPECT_EQ(st.code(), StatusCode::kNotFound) << sql;
    EXPECT_EQ(st.message(), message) << sql;
  };
  expect_not_found("SELECT * FROM nosuch", "unknown table 'nosuch'");
  expect_not_found("SELECT * FROM fact WHERE nosuch = 1", "unresolved column 'nosuch'");
  expect_not_found("SELECT * FROM fact WHERE zz.f_val = 1",
                   "unknown table or alias 'zz'");
  expect_not_found("SELECT * FROM fact f WHERE f.d_key = 1",
                   "column 'd_key' not in table 'fact'");
  expect_not_found("SELECT COUNT(*) FROM fact, dim WHERE f_dkey = dim.nosuch",
                   "column 'nosuch' not in table 'dim'");
  expect_not_found("UPDATE nosuch SET a = 1", "unknown table 'nosuch'");
  expect_not_found("DELETE FROM fact WHERE d_key = 1", "unresolved column 'd_key'");
  expect_not_found("INSERT INTO nosuch VALUES (1)", "unknown table 'nosuch'");
}

/// The statement `SELECT COUNT(*) FROM <from> WHERE <lhs> < 1`, built
/// without the parser, which would lowercase every identifier.
SqlStatement CountWhereLess(const std::vector<TableRef>& from, const ColumnRef& lhs) {
  SqlStatement stmt;
  SelectItem count;
  count.star = true;
  count.agg = AggFunc::kCount;
  stmt.select.items.push_back(count);
  stmt.select.from = from;
  Predicate p;
  p.kind = Predicate::Kind::kCompareLiteral;
  p.lhs = lhs;
  p.op = CompareOp::kLt;
  p.rhs_literal.number = 1;
  stmt.select.where.push_back(p);
  return stmt;
}

/// The node reading `object_name` whose detail is `detail`, or null.
const PlanNode* FindRead(const PlanNode& node, const std::string& object_name,
                         const std::string& detail) {
  if (node.object_name == object_name && node.detail == detail) return &node;
  for (const auto& c : node.children) {
    if (const PlanNode* hit = FindRead(*c, object_name, detail)) return hit;
  }
  return nullptr;
}

// How the binder resolves names: a qualifier names an alias or a table,
// case-insensitively; an unqualified column that several tables share binds
// to the first of them; table and column names themselves match exactly.
TEST(OptimizerTest, BindingResolutionRules) {
  Database db = MakeTestDb();
  Optimizer opt(db);
  const std::vector<TableRef> fact_and_d = {TableRef{"fact", ""}, TableRef{"dim", "D"}};
  for (const ColumnRef& lhs : {ColumnRef{"d", "d_attr"}, ColumnRef{"D", "d_attr"},
                               ColumnRef{"DIM", "d_attr"}, ColumnRef{"Dim", "d_attr"}}) {
    auto plan = opt.Plan(CountWhereLess(fact_and_d, lhs));
    ASSERT_TRUE(plan.ok()) << lhs.ToString() << ": " << plan.status().ToString();
    EXPECT_NE(FindRead(*plan.value(), "dim", lhs.ToString()), nullptr)
        << lhs.ToString() << "\n" << ExplainPlan(*plan.value());
  }

  // f_val is in both copies of fact; the filter lands on the first (a),
  // whose scan is ordered on a.f_key.
  for (const bool a_first : {true, false}) {
    const TableRef a{"fact", "a"}, b{"fact", "b"};
    auto self = opt.Plan(CountWhereLess(a_first ? std::vector<TableRef>{a, b}
                                                : std::vector<TableRef>{b, a},
                                        ColumnRef{"", "f_val"}));
    ASSERT_TRUE(self.ok()) << self.status().ToString();
    const PlanNode* filtered = FindRead(*self.value(), "fact", "f_val");
    ASSERT_NE(filtered, nullptr) << ExplainPlan(*self.value());
    EXPECT_EQ(filtered->sort_order,
              std::vector<std::string>{a_first ? "a.f_key" : "b.f_key"});
    EXPECT_EQ(filtered->out_rows, 1000);
  }

  auto message = [&](const SqlStatement& stmt) {
    return opt.Plan(stmt).status().message();
  };
  EXPECT_EQ(message(CountWhereLess({TableRef{"FACT", ""}}, ColumnRef{"", "f_val"})),
            "unknown table 'FACT'");
  EXPECT_EQ(message(CountWhereLess({TableRef{"fact", ""}}, ColumnRef{"", "F_VAL"})),
            "unresolved column 'F_VAL'");
  EXPECT_EQ(message(CountWhereLess({TableRef{"fact", ""}}, ColumnRef{"Fact", "F_val"})),
            "column 'F_val' not in table 'fact'");
  EXPECT_EQ(message(CountWhereLess({TableRef{"fact", "f"}}, ColumnRef{"fa", "f_val"})),
            "unknown table or alias 'fa'");
}

TEST(OptimizerTest, SelfJoinCoAccessesSameObjectTwice) {
  Database db = MakeTestDb();
  auto plan = PlanFor(
      db, "SELECT COUNT(*) FROM fact a, fact b WHERE a.f_key = b.f_key");
  auto subplans = DecomposeIntoSubplans(*plan);
  // Merge join of the two clustered scans: one pipeline, two accesses to
  // the same object.
  ASSERT_EQ(subplans.size(), 1u);
  ASSERT_EQ(subplans[0].accesses.size(), 2u);
  EXPECT_EQ(subplans[0].accesses[0].object_id, subplans[0].accesses[1].object_id);
}

TEST(OptimizerTest, ExplainMentionsOperatorsAndObjects) {
  Database db = MakeTestDb();
  auto plan = PlanFor(db, "SELECT COUNT(*) FROM fact, big2 WHERE f_key = b_key");
  const std::string text = ExplainPlan(*plan);
  EXPECT_NE(text.find("Merge Join"), std::string::npos);
  EXPECT_NE(text.find("[fact]"), std::string::npos);
  EXPECT_NE(text.find("[big2]"), std::string::npos);
}

TEST(OptimizerTest, ClonePlanIsDeepAndEqual) {
  Database db = MakeTestDb();
  auto plan = PlanFor(db, "SELECT COUNT(*) FROM fact, dim WHERE f_dkey = d_key");
  auto copy = ClonePlan(*plan);
  EXPECT_EQ(ExplainPlan(*plan), ExplainPlan(*copy));
  EXPECT_NE(plan.get(), copy.get());
}

TEST(OptimizerTest, CrossJoinStillPlans) {
  Database db = MakeTestDb();
  auto plan = PlanFor(db, "SELECT COUNT(*) FROM dim, big2");
  EXPECT_GT(plan->out_rows, 0);
  EXPECT_EQ(CountOp(*plan, PlanOp::kTableScan) + CountOp(*plan, PlanOp::kClusteredSeek),
            2);
}

TEST(OptimizerTest, ExistsSubqueryFlattensToSemiJoin) {
  Database db = MakeTestDb();
  auto plan = PlanFor(db,
                      "SELECT COUNT(*) FROM big2 WHERE EXISTS "
                      "(SELECT f_key FROM fact WHERE f_key = b_key)");
  // Both tables accessed; clustered keys align -> merge join, one pipeline.
  EXPECT_EQ(CountOp(*plan, PlanOp::kMergeJoin), 1);
  auto subplans = DecomposeIntoSubplans(*plan);
  ASSERT_EQ(subplans.size(), 1u);
  EXPECT_EQ(subplans[0].accesses.size(), 2u);
}

TEST(OptimizerTest, InSubqueryFlattensWithJoinPredicate) {
  Database db = MakeTestDb();
  auto plan = PlanFor(db,
                      "SELECT COUNT(*) FROM dim WHERE d_key IN "
                      "(SELECT f_dkey FROM fact WHERE f_val < 10)");
  int scans = CountOp(*plan, PlanOp::kTableScan) +
              CountOp(*plan, PlanOp::kClusteredSeek) +
              CountOp(*plan, PlanOp::kRidLookup);
  EXPECT_GE(scans, 2);  // both dim and fact are accessed
}

TEST(OptimizerTest, NestedSubqueriesFlatten) {
  Database db = MakeTestDb();
  auto plan = PlanFor(db,
                      "SELECT COUNT(*) FROM dim WHERE EXISTS "
                      "(SELECT f_key FROM fact WHERE f_dkey = d_key AND "
                      "f_key IN (SELECT b_key FROM big2))");
  // All three tables are referenced in the flattened plan.
  std::set<std::string> names;
  std::function<void(const PlanNode&)> walk = [&](const PlanNode& n) {
    if (!n.object_name.empty()) names.insert(n.object_name);
    for (const auto& c : n.children) walk(*c);
  };
  walk(*plan);
  EXPECT_TRUE(names.count("dim"));
  EXPECT_TRUE(names.count("fact"));
  EXPECT_TRUE(names.count("big2"));
}

/// Plans the wide join over `tables` tables and checks the plan reads every
/// table, joins them with tables-1 join operators, and carries finite
/// estimates throughout.
void ExpectWideJoinPlansEveryTable(int tables) {
  Database db = MakeWideDb();
  auto plan = PlanFor(db, WideJoinSql(tables));
  ASSERT_NE(plan, nullptr);
  std::set<int> objects;
  int joins = 0;
  std::function<void(const PlanNode&)> walk = [&](const PlanNode& n) {
    EXPECT_TRUE(std::isfinite(n.out_rows)) << PlanOpName(n.op);
    EXPECT_TRUE(std::isfinite(n.blocks_accessed)) << PlanOpName(n.op);
    if (n.object_id >= 0 && n.blocks_accessed > 0) objects.insert(n.object_id);
    if (n.op == PlanOp::kMergeJoin || n.op == PlanOp::kNestedLoopsJoin ||
        n.op == PlanOp::kHashJoin) {
      ++joins;
    }
    for (const auto& c : n.children) walk(*c);
  };
  walk(*plan);
  for (int i = 0; i < tables; ++i) {
    EXPECT_EQ(objects.count(db.ObjectIdOfTable("w" + std::to_string(i)).value()), 1u)
        << "w" << i << " missing from\n" << ExplainPlan(*plan);
  }
  EXPECT_EQ(joins, tables - 1) << ExplainPlan(*plan);
  EXPECT_GT(plan->out_rows, 0);
}

TEST(OptimizerTest, TwelveTableJoinPlansEveryTableWithDp) {
  ExpectWideJoinPlansEveryTable(12);
}

TEST(OptimizerTest, ThirteenTableJoinPlansEveryTableGreedily) {
  ExpectWideJoinPlansEveryTable(13);
}

TEST(PlanTest, BlockingOps) {
  EXPECT_TRUE(IsBlockingOp(PlanOp::kSort));
  EXPECT_TRUE(IsBlockingOp(PlanOp::kHashAggregate));
  EXPECT_FALSE(IsBlockingOp(PlanOp::kMergeJoin));
  EXPECT_FALSE(IsBlockingOp(PlanOp::kHashJoin));  // handled via build side
  EXPECT_FALSE(IsBlockingOp(PlanOp::kStreamAggregate));
}

}  // namespace
}  // namespace dblayout
