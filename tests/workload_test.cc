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

// A ';' inside a quoted literal or a `--` comment does not end a statement,
// a literal may span lines (hiding what looks like a directive), and each
// statement keeps the line it starts on.
TEST(WorkloadTest, FromScriptSplitsOutsideLiteralsAndComments) {
  auto wl = Workload::FromScript(
      "semi.sql",
      "-- weight: 2\n"
      "SELECT COUNT(*) FROM orders WHERE o_status = 'a;b';\n"
      "SELECT * FROM t WHERE s = 'it''s; -- no comment'; SELECT * FROM u -- don't; go\n"
      ";\n"
      "SELECT * FROM v WHERE s = 'two\n"
      "-- weight: 9\n"
      "lines;' AND t = 1; SELECT * FROM w\n");
  ASSERT_TRUE(wl.ok()) << wl.status().ToString();
  ASSERT_EQ(wl->size(), 5u);
  EXPECT_EQ(wl->statement(0).sql, "SELECT COUNT(*) FROM orders WHERE o_status = 'a;b'");
  EXPECT_DOUBLE_EQ(wl->statement(0).weight, 2);
  EXPECT_EQ(wl->statement(0).parsed.select.where[0].rhs_literal.text, "a;b");
  EXPECT_EQ(wl->statement(1).sql, "SELECT * FROM t WHERE s = 'it''s; -- no comment'");
  EXPECT_EQ(wl->statement(1).parsed.select.where[0].rhs_literal.text,
            "it's; -- no comment");
  EXPECT_EQ(wl->statement(2).sql, "SELECT * FROM u -- don't; go");
  EXPECT_EQ(wl->statement(3).parsed.select.where[0].rhs_literal.text,
            "two\n-- weight: 9\nlines;");
  EXPECT_DOUBLE_EQ(wl->statement(3).weight, 1);
  EXPECT_EQ(wl->statement(4).sql, "SELECT * FROM w");

  // Errors name the line a statement starts on, past literals with ';'.
  auto bad = Workload::FromScript("x.sql",
                                  "SELECT * FROM t WHERE a = 'p;q';\n"
                                  "SELECT * FROM t WHERE b = 'r\n"
                                  ";s' AND;\n");
  EXPECT_EQ(bad.status().code(), StatusCode::kParseError);
  EXPECT_EQ(bad.status().message().rfind("x.sql:2: ", 0), 0u) << bad.status().ToString();
  auto open =
      Workload::FromScript("y.sql", "SELECT * FROM t;\nSELECT * FROM t WHERE a = 'x;\n");
  EXPECT_EQ(open.status().message().rfind("y.sql:2: unterminated string", 0), 0u)
      << open.status().ToString();
}

// A stray quote opens a literal that swallows the statements after it until
// a GO line, which ends the statement and the literal. The lenient reader
// loses that one statement, says where its literal opened and how far it
// ran, and reads on after the GO; without a GO the literal runs to the end
// of the script. The strict reader stops at the first such statement.
TEST(WorkloadTest, FromScriptLenientRecoversAtGo) {
  const std::string script =
      "SELECT * FROM t WHERE a = 1;\n"
      "SELECT * FROM t WHERE s = 'x;\n"
      "-- weight: 4\n"
      "SELECT * FROM u;\n"
      "go\n"
      "-- weight: 2\n"
      "SELECT * FROM v;\n"
      "SELECT * FROM w WHERE s = 'y;\n"
      "SELECT * FROM x;\n";
  std::vector<Workload::ScriptError> errors;
  const Workload wl = Workload::FromScriptLenient("l.sql", script, &errors);
  ASSERT_EQ(wl.size(), 2u);
  EXPECT_EQ(wl.statement(0).sql, "SELECT * FROM t WHERE a = 1");
  EXPECT_EQ(wl.statement(1).sql, "SELECT * FROM v");
  EXPECT_DOUBLE_EQ(wl.statement(1).weight, 2);
  ASSERT_EQ(errors.size(), 2u);
  EXPECT_EQ(errors[0].line, 2);
  EXPECT_EQ(errors[0].text,
            "SELECT * FROM t WHERE s = 'x;\n-- weight: 4\nSELECT * FROM u;");
  EXPECT_EQ(errors[0].status.message(),
            "unterminated string at offset 26 (the literal opened on line 2 runs to "
            "the GO on line 5)");
  EXPECT_EQ(errors[1].line, 8);
  EXPECT_EQ(errors[1].text, "SELECT * FROM w WHERE s = 'y;\nSELECT * FROM x;");
  EXPECT_EQ(errors[1].status.message(),
            "unterminated string at offset 26 (the literal opened on line 8 runs to "
            "the end of the script)");

  const auto strict = Workload::FromScript("l.sql", script);
  EXPECT_EQ(strict.status().message(),
            "l.sql:2: unterminated string at offset 26 (the literal opened on line 2 "
            "runs to the GO on line 5)");
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
  EXPECT_DOUBLE_EQ(profile->NodeBlockTotals()[0], 3.0 * static_cast<double>(b1));
}

// Element i of NodeBlockTotals adds object i's weighted accesses in
// statement, sub-plan and access order, exactly as a walk for i alone does,
// and accesses of ids outside the profile's objects count nowhere.
TEST(AnalyzerTest, NodeBlockTotalsMatchPerObjectWalks) {
  WorkloadProfile profile;
  profile.num_objects = 3;
  const double weights[] = {0.1, 3.7, 1e-3};
  for (int s = 0; s < 3; ++s) {
    StatementProfile& sp = profile.statements.emplace_back();
    sp.weight = weights[s];
    for (int p = 0; p < 3; ++p) {
      SubplanAccess& sub = sp.subplans.emplace_back();
      for (int a = -1; a < 5; ++a) {
        sub.accesses.push_back(ObjectAccess{a, 0.3 * (s + 1) + 1.7 * p + 0.11 * a});
      }
    }
  }
  const std::vector<double> totals = profile.NodeBlockTotals();
  ASSERT_EQ(totals.size(), 3u);
  for (int obj = 0; obj < 3; ++obj) {
    double walk = 0;
    for (const auto& s : profile.statements) {
      for (const auto& sp : s.subplans) {
        for (const auto& a : sp.accesses) {
          if (a.object_id == obj) walk += s.weight * a.blocks;
        }
      }
    }
    EXPECT_EQ(totals[static_cast<size_t>(obj)], walk) << obj;
  }
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
