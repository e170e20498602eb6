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
#include "obs/journal.h"
#include "optimizer/optimizer.h"

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

/// 64-bit FNV-1a.
uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 14695981039346656037ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
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
                  static_cast<unsigned long long>(Fnv1a(rendered)));
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

// The benchmark schemas index no join column, so index nested-loops joins
// there always seek a clustered key. Non-clustered indexes on the foreign
// keys make the optimizer price (and sometimes pick) seek + RID-lookup
// inners as well.
TEST(PlanDigestTest, Tpch22AndWkScaleWithForeignKeyIndexes) {
  Database db = benchdata::MakeTpchDatabase();
  ASSERT_TRUE(benchdata::AddTpchSecondaryIndexes(&db).ok());
  for (const Index& ix : {Index{"ix_o_custkey", "orders", {"o_custkey"}, false},
                          Index{"ix_l_partkey", "lineitem", {"l_partkey"}, false},
                          Index{"ix_l_suppkey", "lineitem", {"l_suppkey"}, false},
                          Index{"ix_ps_suppkey", "partsupp", {"ps_suppkey"}, false},
                          Index{"ix_c_nationkey", "customer", {"c_nationkey"}, false},
                          Index{"ix_s_nationkey", "supplier", {"s_nationkey"}, false}}) {
    ASSERT_TRUE(db.AddIndex(ix).ok()) << ix.name;
  }
  CheckWorkload("tpch22-fkix", db, benchdata::MakeTpch22Workload(db, 1));
  CheckWorkload("wkscale200-fkix", db, benchdata::MakeWkScale(db, 200, 7));
}

}  // namespace
}  // namespace dblayout
