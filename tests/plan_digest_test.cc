// Plan-identity golden: every plan the optimizer produces for the benchmark
// workloads, rendered canonically (every PlanNode field, children in order,
// doubles in their shortest round-trip form) and hashed per statement. Any
// change to join order, join implementation, cardinality or cost arithmetic
// shows up as a digest mismatch, so optimizer refactors that promise
// identical plans can prove it.
//
// Regenerate (only when a plan change is intended):
//   PLAN_DIGEST_UPDATE_GOLDEN=1 build/tests/dblayout_tests --gtest_filter='PlanDigestTest.*'

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "benchdata/apb.h"
#include "benchdata/sales.h"
#include "benchdata/tpch.h"
#include "common/rng.h"
#include "common/strutil.h"
#include "obs/journal.h"
#include "optimizer/optimizer.h"
#include "tests/golden_test_util.h"
#include "tests/optimizer_test_util.h"

namespace dblayout {
namespace {

void RenderPlan(const PlanNode& node, std::string* out) {
  *out += "{op:";
  *out += PlanOpName(node.op);
  *out += ",obj:" + obs::JsonInt(node.object_id);
  *out += ",name:" + obs::JsonString(node.object_name);
  *out += ",blocks:" + obs::JsonDouble(node.blocks_accessed);
  *out += ",write:" + obs::JsonBool(node.is_write);
  *out += ",random:" + obs::JsonBool(node.random_access);
  *out += ",rmw:" + obs::JsonBool(node.read_modify_write);
  *out += ",rows:" + obs::JsonDouble(node.out_rows);
  *out += ",detail:" + obs::JsonString(node.detail);
  *out += ",sort:[";
  for (size_t i = 0; i < node.sort_order.size(); ++i) {
    if (i > 0) *out += ',';
    *out += obs::JsonString(node.sort_order[i]);
  }
  *out += "],children:[";
  for (size_t i = 0; i < node.children.size(); ++i) {
    if (i > 0) *out += ',';
    RenderPlan(*node.children[i], out);
  }
  *out += "]}";
}

std::string GoldenPath() {
  return std::string(DBLAYOUT_TESTDATA_DIR) + "/plan_digests.txt";
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

/// Plans every statement of `wl` and compares its digest with the golden
/// lines "<name> <statement index> <digest>". With PLAN_DIGEST_UPDATE_GOLDEN
/// set, rewrites this workload's lines instead.
void CheckWorkload(const std::string& name, const Database& db,
                   const Result<Workload>& wl) {
  ASSERT_TRUE(wl.ok()) << wl.status().ToString();
  const Optimizer optimizer(db);
  std::vector<std::string> lines;
  std::vector<std::unique_ptr<PlanNode>> plans;
  for (size_t i = 0; i < wl->size(); ++i) {
    auto plan = optimizer.Plan(wl->statement(i).parsed);
    ASSERT_TRUE(plan.ok()) << name << " #" << i << ": " << plan.status().ToString();
    std::string rendered;
    RenderPlan(*plan.value(), &rendered);
    char digest[17];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(testutil::Fnv1a(rendered)));
    lines.push_back(name + " " + std::to_string(i) + " " + digest);
    plans.push_back(std::move(plan).value());
  }

  const std::string prefix = name + " ";
  std::vector<std::string> golden = ReadLines(GoldenPath());
  if (std::getenv("PLAN_DIGEST_UPDATE_GOLDEN") != nullptr) {
    std::vector<std::string> kept;
    for (const std::string& line : golden) {
      if (line.compare(0, prefix.size(), prefix) != 0) kept.push_back(line);
    }
    kept.insert(kept.end(), lines.begin(), lines.end());
    std::ofstream out(GoldenPath());
    for (const std::string& line : kept) out << line << '\n';
    ASSERT_TRUE(out.good()) << "failed to regenerate " << GoldenPath();
    return;
  }

  std::vector<std::string> expected;
  for (const std::string& line : golden) {
    if (line.compare(0, prefix.size(), prefix) == 0) expected.push_back(line);
  }
  ASSERT_EQ(expected.size(), lines.size())
      << "golden " << GoldenPath() << " has " << expected.size() << " " << name
      << " plans (run with PLAN_DIGEST_UPDATE_GOLDEN=1 to create)";
  for (size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(expected[i], lines[i])
        << "plan changed for " << name << " statement " << i << ":\n"
        << wl->statement(i).sql << "\n"
        << ExplainPlan(*plans[i]);
  }
}

TEST(PlanDigestTest, Tpch22) {
  const Database db = benchdata::MakeTpchDatabase();
  CheckWorkload("tpch22", db, benchdata::MakeTpch22Workload(db, 1));
}

TEST(PlanDigestTest, Sales45) {
  const Database db = benchdata::MakeSalesDatabase();
  CheckWorkload("sales45", db, benchdata::MakeSales45Workload(db, 11));
}

TEST(PlanDigestTest, WkScale200) {
  const Database db = benchdata::MakeTpchDatabase();
  CheckWorkload("wkscale200", db, benchdata::MakeWkScale(db, 200, 7));
}

TEST(PlanDigestTest, Qgen352OnTpch1g4) {
  const Database db = benchdata::MakeTpchDatabase(1.0, 4);
  CheckWorkload("qgen352", db, benchdata::MakeTpchQgenWorkload(db, 352, 4, 3));
}

TEST(PlanDigestTest, Apb800) {
  const Database db = benchdata::MakeApbDatabase();
  CheckWorkload("apb800", db, benchdata::MakeApb800Workload(db));
}

/// Parses `sqls` into one workload, failing the calling test on SQL the
/// parser rejects.
Workload WorkloadOf(const std::string& name, const std::vector<std::string>& sqls) {
  Workload wl(name);
  for (const std::string& sql : sqls) EXPECT_TRUE(wl.Add(sql).ok()) << sql;
  return wl;
}

// The join enumeration's edges: the DP at its 12-table limit, the greedy
// order one table past it, several predicates between one pair of tables
// (the exponential selectivity backoff over more than two terms), and FROM
// lists whose tables no join predicate reaches (the cross-join pass).
TEST(PlanDigestTest, WideJoinsAndJoinEnumerationEdges) {
  const Database db = testutil::MakeWideDb();
  CheckWorkload(
      "widejoin", db,
      WorkloadOf("widejoin",
                 {testutil::WideJoinSql(12), testutil::WideJoinSql(13),
                  // Four predicates between w3 and w4, two between w4 and
                  // w5, one non-equi join between w3 and w5.
                  "SELECT COUNT(*) FROM w3, w4, w5 WHERE w3_next = w4_key AND "
                  "w3_val = w4_val AND w3_key = w4_next AND w3_val > w4_val AND "
                  "w4_next = w5_key AND w4_val = w5_val AND w3_val < w5_val",
                  "SELECT COUNT(*) FROM w1 a, w2 b WHERE a.w1_next = b.w2_key AND "
                  "a.w1_val = b.w2_val AND a.w1_key = b.w2_next AND "
                  "a.w1_val <= b.w2_val AND a.w1_next >= b.w2_next",
                  // w12 joins nothing; w7 and w8 join each other only.
                  "SELECT COUNT(*) FROM w0, w1, w2, w3, w12 WHERE w0_next = w1_key "
                  "AND w1_next = w2_key AND w2_next = w3_key AND w0_val < 50",
                  "SELECT COUNT(*) FROM w4, w5, w7, w8 WHERE w4_next = w5_key "
                  "AND w7_next = w8_key",
                  "SELECT COUNT(*) FROM w9, w6, w10"}));
}

/// 66 tables t0..t65, each clustered on t<i>_key with t<i>_next referencing
/// t<i+1>_key, so object ids run 0..65 and t<i> and t<i+64> (i = 0, 1) are
/// distinct objects whose ids are equal mod 64. A 1000-byte payload makes
/// the tables wide enough that a same-object surcharge on a merge join of
/// two of them outweighs hash join's per-row work.
Database MakeMod64Db() {
  Database db("mod64db");
  for (int i = 0; i < 66; ++i) {
    const std::string name = "t" + std::to_string(i);
    Table t;
    t.name = name;
    t.row_count = int64_t{4000} << (i % 3);
    t.columns = {testutil::MakeKey(name + "_key", t.row_count),
                 testutil::MakeKey(name + "_next", int64_t{4000} << ((i + 1) % 3)),
                 testutil::MakeNum(name + "_val", 0, 100, 100)};
    Column pay;
    pay.name = name + "_pay";
    pay.type = ColumnType::kChar;
    pay.declared_length = 1000;
    t.columns.push_back(pay);
    t.clustered_key = {name + "_key"};
    EXPECT_TRUE(db.AddTable(t).ok());
  }
  return db;
}

// Merge joins whose inputs read distinct objects with ids equal mod 64 pay
// no same-object surcharge, so they stay merge joins; the self joins next to
// them pay it and turn into hash joins.
TEST(PlanDigestTest, DistinctObjectsWithIdsEqualMod64) {
  const Database db = MakeMod64Db();
  ASSERT_EQ(db.ObjectIdOfTable("t64").value(), 64);
  CheckWorkload("mod64", db,
                WorkloadOf("mod64",
                           {"SELECT COUNT(*) FROM t0, t64 WHERE t0_key = t64_key",
                            "SELECT COUNT(*) FROM t1, t65 WHERE t1_key = t65_key",
                            "SELECT COUNT(*) FROM t0, t64, t1 WHERE t0_key = t64_key "
                            "AND t64_key = t1_key",
                            "SELECT COUNT(*) FROM t0 a, t0 b, t64 c WHERE "
                            "a.t0_key = b.t0_key AND b.t0_key = c.t64_key",
                            "SELECT COUNT(*) FROM t64 a, t0 b, t64 c WHERE "
                            "a.t64_key = b.t0_key AND b.t0_key = c.t64_key"}));
}

/// TPC-H with its secondary indexes plus non-clustered indexes on six
/// foreign keys.
Database MakeTpchWithForeignKeyIndexes() {
  Database db = benchdata::MakeTpchDatabase();
  EXPECT_TRUE(benchdata::AddTpchSecondaryIndexes(&db).ok());
  for (const Index& ix : {Index{"ix_o_custkey", "orders", {"o_custkey"}, false},
                          Index{"ix_l_partkey", "lineitem", {"l_partkey"}, false},
                          Index{"ix_l_suppkey", "lineitem", {"l_suppkey"}, false},
                          Index{"ix_ps_suppkey", "partsupp", {"ps_suppkey"}, false},
                          Index{"ix_c_nationkey", "customer", {"c_nationkey"}, false},
                          Index{"ix_s_nationkey", "supplier", {"s_nationkey"}, false}}) {
    EXPECT_TRUE(db.AddIndex(ix).ok()) << ix.name;
  }
  return db;
}

// The benchmark schemas index no join column, so index nested-loops joins
// there always seek a clustered key. Non-clustered indexes on the foreign
// keys make the optimizer price (and sometimes pick) seek + RID-lookup
// inners as well.
TEST(PlanDigestTest, Tpch22AndWkScaleWithForeignKeyIndexes) {
  const Database db = MakeTpchWithForeignKeyIndexes();
  CheckWorkload("tpch22-fkix", db, benchdata::MakeTpch22Workload(db, 1));
  CheckWorkload("wkscale200-fkix", db, benchdata::MakeWkScale(db, 200, 7));
}

// The service stream's write statements, with and without indexes to
// maintain, and the query and write texts of one seeded stream.
TEST(PlanDigestTest, ServeStreamWritesAndPhasedQueries) {
  Rng rng(31);
  std::vector<std::string> writes;
  for (int draw = 0; draw < 4; ++draw) {
    for (int kind = 0; kind < 3; ++kind) {
      writes.push_back(testutil::RefreshWrite(kind, &rng));
    }
  }
  const Database tpch = benchdata::MakeTpchDatabase();
  CheckWorkload("refresh", tpch, WorkloadOf("refresh", writes));
  const Database fkix = MakeTpchWithForeignKeyIndexes();
  CheckWorkload("refresh-fkix", fkix, WorkloadOf("refresh-fkix", writes));
  CheckWorkload("phased31", tpch, WorkloadOf("phased31", testutil::PhasedStream(31)));
}

}  // namespace
}  // namespace dblayout
