#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "catalog/catalog.h"
#include "workload/analyzer.h"
#include "workload/workload.h"

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

Database TwoJoinedTables() {
  Database db("wldb");
  Table r1;
  r1.name = "r1";
  r1.row_count = 400'000;
  r1.columns = {IntKey("k1", 400'000)};
  Column wide;
  wide.name = "w1";
  wide.type = ColumnType::kChar;
  wide.declared_length = 150;
  r1.columns.push_back(wide);
  r1.clustered_key = {"k1"};
  EXPECT_TRUE(db.AddTable(r1).ok());
  Table r2 = r1;
  r2.name = "r2";
  r2.columns[0].name = "k2";
  r2.columns[1].name = "w2";
  r2.row_count = 200'000;
  r2.clustered_key = {"k2"};
  EXPECT_TRUE(db.AddTable(r2).ok());
  return db;
}

TEST(WorkloadTest, AddAndWeights) {
  Workload wl("w");
  EXPECT_TRUE(wl.Add("SELECT * FROM t", 2.5).ok());
  EXPECT_TRUE(wl.Add("SELECT * FROM u").ok());
  EXPECT_EQ(wl.size(), 2u);
  EXPECT_DOUBLE_EQ(wl.TotalWeight(), 3.5);
  EXPECT_DOUBLE_EQ(wl.statement(0).weight, 2.5);
}

TEST(WorkloadTest, AddRejectsBadSqlAndWeights) {
  Workload wl("w");
  EXPECT_EQ(wl.Add("NOT SQL").code(), StatusCode::kParseError);
  EXPECT_EQ(wl.Add("SELECT * FROM t", 0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(wl.Add("SELECT * FROM t", -2).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(wl.Add("SELECT * FROM t", std::nan("")).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(wl.Add("SELECT * FROM t", HUGE_VAL).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(wl.empty());
}

TEST(WorkloadTest, FromScriptWithWeightsAndComments) {
  auto wl = Workload::FromScript("scripted",
                                 "-- a plain comment\n"
                                 "-- weight: 5\n"
                                 "SELECT * FROM a;\n"
                                 "SELECT * FROM b\n"
                                 "GO\n"
                                 "-- weight: 0.5\n"
                                 "DELETE FROM c WHERE x = 1;\n");
  ASSERT_TRUE(wl.ok());
  ASSERT_EQ(wl->size(), 3u);
  EXPECT_DOUBLE_EQ(wl->statement(0).weight, 5);
  EXPECT_DOUBLE_EQ(wl->statement(1).weight, 1);
  EXPECT_DOUBLE_EQ(wl->statement(2).weight, 0.5);
  EXPECT_EQ(wl->name(), "scripted");
}

TEST(WorkloadTest, FromScriptErrors) {
  EXPECT_EQ(Workload::FromScript("x", "-- weight: -1\nSELECT * FROM t;")
                .status()
                .code(),
            StatusCode::kParseError);
  EXPECT_EQ(Workload::FromScript("x", "garbage;").status().code(),
            StatusCode::kParseError);
  // A directive's whole value must parse, and a weight must be finite.
  for (const char* directive : {"-- weight: nan", "-- weight: inf", "-- weight: 50abc",
                                "-- stream: 2x", "-- stream: 99999999999"}) {
    const auto wl =
        Workload::FromScript("x.sql", std::string(directive) + "\nSELECT * FROM t;");
    EXPECT_EQ(wl.status().code(), StatusCode::kParseError) << directive;
    EXPECT_NE(wl.status().message().find("x.sql:1:"), std::string::npos) << directive;
  }
}

TEST(AnalyzerTest, ProfilesEveryStatement) {
  Database db = TwoJoinedTables();
  Workload wl("w");
  ASSERT_TRUE(wl.Add("SELECT COUNT(*) FROM r1", 2).ok());
  ASSERT_TRUE(wl.Add("SELECT COUNT(*) FROM r1, r2 WHERE k1 = k2").ok());
  auto profile = AnalyzeWorkload(db, wl);
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  ASSERT_EQ(profile->statements.size(), 2u);
  EXPECT_EQ(profile->num_objects, 2u);
  EXPECT_DOUBLE_EQ(profile->statements[0].weight, 2);
  EXPECT_FALSE(profile->statements[0].subplans.empty());
  EXPECT_NE(profile->statements[1].plan, nullptr);
}

TEST(AnalyzerTest, FailsOnUnboundStatement) {
  Database db = TwoJoinedTables();
  Workload wl("w");
  ASSERT_TRUE(wl.Add("SELECT COUNT(*) FROM missing_table").ok());
  EXPECT_FALSE(AnalyzeWorkload(db, wl).ok());
}

TEST(AnalyzerTest, AccessGraphExample2Shape) {
  // Mirrors Example 2 of the paper: a statement co-accessing both objects
  // contributes node weights for each and an edge weighted by the sum of
  // both objects' blocks.
  Database db = TwoJoinedTables();
  const int64_t b1 = db.Objects()[0].size_blocks;
  const int64_t b2 = db.Objects()[1].size_blocks;

  Workload wl("w");
  ASSERT_TRUE(wl.Add("SELECT COUNT(*) FROM r1, r2 WHERE k1 = k2").ok());
  auto profile = AnalyzeWorkload(db, wl);
  ASSERT_TRUE(profile.ok());
  WeightedGraph g = BuildAccessGraph(profile.value());
  ASSERT_EQ(g.num_nodes(), 2u);
  // Merge join scans both fully.
  EXPECT_DOUBLE_EQ(g.node_weight(0), static_cast<double>(b1));
  EXPECT_DOUBLE_EQ(g.node_weight(1), static_cast<double>(b2));
  EXPECT_DOUBLE_EQ(g.EdgeWeight(0, 1), static_cast<double>(b1 + b2));
}

TEST(AnalyzerTest, WeightsScaleGraph) {
  Database db = TwoJoinedTables();
  Workload wl("w");
  ASSERT_TRUE(wl.Add("SELECT COUNT(*) FROM r1, r2 WHERE k1 = k2", 3).ok());
  auto profile = AnalyzeWorkload(db, wl);
  ASSERT_TRUE(profile.ok());
  WeightedGraph g = BuildAccessGraph(profile.value());
  const int64_t b1 = db.Objects()[0].size_blocks;
  const int64_t b2 = db.Objects()[1].size_blocks;
  EXPECT_DOUBLE_EQ(g.EdgeWeight(0, 1), 3.0 * static_cast<double>(b1 + b2));
  EXPECT_DOUBLE_EQ(profile->NodeBlocks(0), 3.0 * static_cast<double>(b1));
}

TEST(AnalyzerTest, SingleTableStatementsCreateNoEdges) {
  Database db = TwoJoinedTables();
  Workload wl("w");
  ASSERT_TRUE(wl.Add("SELECT COUNT(*) FROM r1").ok());
  ASSERT_TRUE(wl.Add("SELECT COUNT(*) FROM r2").ok());
  auto profile = AnalyzeWorkload(db, wl);
  ASSERT_TRUE(profile.ok());
  WeightedGraph g = BuildAccessGraph(profile.value());
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_GT(g.node_weight(0), 0);
  EXPECT_GT(g.node_weight(1), 0);
}

TEST(AnalyzerTest, MultipleStatementsAccumulateEdges) {
  Database db = TwoJoinedTables();
  Workload wl("w");
  ASSERT_TRUE(wl.Add("SELECT COUNT(*) FROM r1, r2 WHERE k1 = k2").ok());
  ASSERT_TRUE(wl.Add("SELECT COUNT(*) FROM r1, r2 WHERE k1 = k2").ok());
  auto profile = AnalyzeWorkload(db, wl);
  ASSERT_TRUE(profile.ok());
  WeightedGraph g = BuildAccessGraph(profile.value());
  const double one =
      static_cast<double>(db.Objects()[0].size_blocks + db.Objects()[1].size_blocks);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(0, 1), 2 * one);
}

TEST(AnalyzerTest, GraphToStringNamesObjects) {
  Database db = TwoJoinedTables();
  Workload wl("w");
  ASSERT_TRUE(wl.Add("SELECT COUNT(*) FROM r1, r2 WHERE k1 = k2").ok());
  auto profile = AnalyzeWorkload(db, wl);
  ASSERT_TRUE(profile.ok());
  const std::string s = AccessGraphToString(BuildAccessGraph(profile.value()), db);
  EXPECT_NE(s.find("r1"), std::string::npos);
  EXPECT_NE(s.find("r2"), std::string::npos);
}

}  // namespace
}  // namespace dblayout
