#include <gtest/gtest.h>

#include "benchdata/apb.h"
#include "benchdata/sales.h"
#include "benchdata/tpch.h"
#include "workload/analyzer.h"

namespace dblayout::benchdata {
namespace {

TEST(TpchTest, SchemaShape) {
  Database db = MakeTpchDatabase(1.0);
  EXPECT_EQ(db.tables().size(), 8u);
  const Table* lineitem = db.FindTable("lineitem");
  ASSERT_NE(lineitem, nullptr);
  EXPECT_EQ(lineitem->row_count, 6'000'000);
  EXPECT_EQ(db.FindTable("orders")->row_count, 1'500'000);
  EXPECT_EQ(db.FindTable("region")->row_count, 5);
  // ~1 GB total at scale 1 (within 2x, accounting for row-overhead model).
  const double gb = static_cast<double>(db.TotalBlocks()) * kBlockBytes / 1e9;
  EXPECT_GT(gb, 0.7);
  EXPECT_LT(gb, 2.0);
  // lineitem dominates.
  EXPECT_GT(db.FindTable("lineitem")->DataBlocks(),
            4 * db.FindTable("orders")->DataBlocks());
}

TEST(TpchTest, ScaleFactorScalesRows) {
  Database small = MakeTpchDatabase(0.1);
  EXPECT_EQ(small.FindTable("lineitem")->row_count, 600'000);
  EXPECT_EQ(small.FindTable("nation")->row_count, 25);  // fixed-size tables
}

TEST(TpchTest, CopiesProduceSuffixedTables) {
  Database db = MakeTpchDatabase(0.1, 3);
  EXPECT_EQ(db.tables().size(), 24u);
  EXPECT_NE(db.FindTable("lineitem"), nullptr);
  EXPECT_NE(db.FindTable("lineitem_c2"), nullptr);
  EXPECT_NE(db.FindTable("lineitem_c3"), nullptr);
  EXPECT_EQ(db.FindTable("lineitem_c4"), nullptr);
}

TEST(TpchTest, All22QueriesParseAndPlan) {
  Database db = MakeTpchDatabase(1.0);
  auto wl = MakeTpch22Workload(db);
  ASSERT_TRUE(wl.ok()) << wl.status().ToString();
  ASSERT_EQ(wl->size(), 22u);
  auto profile = AnalyzeWorkload(db, wl.value());
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  for (const auto& s : profile->statements) {
    EXPECT_FALSE(s.subplans.empty()) << s.sql;
  }
}

TEST(TpchTest, LineitemOrdersCoAccessed) {
  Database db = MakeTpchDatabase(1.0);
  auto wl = MakeTpch22Workload(db);
  ASSERT_TRUE(wl.ok());
  auto profile = AnalyzeWorkload(db, wl.value());
  ASSERT_TRUE(profile.ok());
  WeightedGraph g = BuildAccessGraph(profile.value());
  const auto li = static_cast<size_t>(db.ObjectIdOfTable("lineitem").value());
  const auto oi = static_cast<size_t>(db.ObjectIdOfTable("orders").value());
  const auto pi = static_cast<size_t>(db.ObjectIdOfTable("part").value());
  const auto psi = static_cast<size_t>(db.ObjectIdOfTable("partsupp").value());
  EXPECT_GT(g.EdgeWeight(li, oi), 0) << "lineitem-orders must be co-accessed";
  EXPECT_GT(g.EdgeWeight(pi, psi), 0) << "part-partsupp must be co-accessed";
  // lineitem-orders is the heaviest co-access in the benchmark.
  EXPECT_GT(g.EdgeWeight(li, oi), g.EdgeWeight(pi, psi));
}

TEST(TpchTest, Q21ReadsLineitemThreeTimes) {
  Database db = MakeTpchDatabase(1.0);
  Rng rng(1);
  const std::string q21 = TpchQueryText(21, &rng);
  Workload wl("q21");
  ASSERT_TRUE(wl.Add(q21).ok());
  auto profile = AnalyzeWorkload(db, wl);
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  const int li = db.ObjectIdOfTable("lineitem").value();
  int lineitem_accesses = 0;
  for (const auto& sp : profile->statements[0].subplans) {
    for (const auto& a : sp.accesses) {
      if (a.object_id == li) ++lineitem_accesses;
    }
  }
  EXPECT_EQ(lineitem_accesses, 3);
}

TEST(TpchTest, QgenWorkloadRetargetsCopies) {
  Database db = MakeTpchDatabase(0.2, 2);
  auto wl = MakeTpchQgenWorkload(db, 88, 2, 5);
  ASSERT_TRUE(wl.ok()) << wl.status().ToString();
  EXPECT_EQ(wl->size(), 88u);
  // Statements must bind against the cloned schema.
  auto profile = AnalyzeWorkload(db, wl.value());
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  // Both copies should be referenced somewhere.
  bool copy1 = false, copy2 = false;
  for (const auto& s : wl->statements()) {
    if (s.sql.find("lineitem_c2") != std::string::npos ||
        s.sql.find("orders_c2") != std::string::npos) {
      copy2 = true;
    } else {
      copy1 = true;
    }
  }
  EXPECT_TRUE(copy1);
  EXPECT_TRUE(copy2);
}

TEST(TpchTest, ControlWorkloadsParse) {
  Database db = MakeTpchDatabase(1.0);
  auto c1 = MakeWkCtrl1(db);
  ASSERT_TRUE(c1.ok());
  EXPECT_EQ(c1->size(), 5u);
  auto c2 = MakeWkCtrl2(db);
  ASSERT_TRUE(c2.ok());
  EXPECT_EQ(c2->size(), 10u);
  ASSERT_TRUE(AnalyzeWorkload(db, c1.value()).ok());
  ASSERT_TRUE(AnalyzeWorkload(db, c2.value()).ok());
}

TEST(TpchTest, WkCtrl1TouchesNearlyAllData) {
  Database db = MakeTpchDatabase(1.0);
  auto c1 = MakeWkCtrl1(db);
  ASSERT_TRUE(c1.ok());
  auto profile = AnalyzeWorkload(db, c1.value());
  ASSERT_TRUE(profile.ok());
  const int li = db.ObjectIdOfTable("lineitem").value();
  // lineitem appears in 4 of 5 queries, scanned fully each time.
  EXPECT_GE(profile->NodeBlockTotals()[static_cast<size_t>(li)],
            3.9 * static_cast<double>(db.Objects()[static_cast<size_t>(li)].size_blocks));
}

TEST(TpchTest, WkScaleGeneratesRequestedCount) {
  Database db = MakeTpchDatabase(1.0);
  for (int n : {10, 100}) {
    auto wl = MakeWkScale(db, n, 3);
    ASSERT_TRUE(wl.ok()) << wl.status().ToString();
    EXPECT_EQ(wl->size(), static_cast<size_t>(n));
    ASSERT_TRUE(AnalyzeWorkload(db, wl.value()).ok());
  }
}

TEST(TpchTest, SecondaryIndexesAddObjects) {
  Database db = MakeTpchDatabase(1.0);
  const size_t before = db.Objects().size();
  ASSERT_TRUE(AddTpchSecondaryIndexes(&db).ok());
  EXPECT_EQ(db.Objects().size(), before + 3);
}

TEST(ApbTest, SchemaShape) {
  Database db = MakeApbDatabase();
  EXPECT_EQ(db.tables().size(), 40u);
  const double mb = static_cast<double>(db.TotalBlocks()) * kBlockBytes / 1e6;
  EXPECT_GT(mb, 120);
  EXPECT_LT(mb, 600);
}

TEST(ApbTest, FactsNeverCoAccessed) {
  // The structural property that makes TS-GREEDY degenerate to full
  // striping on APB (Fig. 10): no query touches both history facts.
  Database db = MakeApbDatabase();
  auto wl = MakeApb800Workload(db, 7, 800);
  ASSERT_TRUE(wl.ok()) << wl.status().ToString();
  EXPECT_EQ(wl->size(), 800u);
  auto profile = AnalyzeWorkload(db, wl.value());
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  WeightedGraph g = BuildAccessGraph(profile.value());
  const auto s = static_cast<size_t>(db.ObjectIdOfTable("sales_history").value());
  const auto i = static_cast<size_t>(db.ObjectIdOfTable("inventory_history").value());
  EXPECT_DOUBLE_EQ(g.EdgeWeight(s, i), 0.0);
  EXPECT_GT(g.node_weight(s), 0.0);
  EXPECT_GT(g.node_weight(i), 0.0);
}

TEST(SalesTest, SchemaShape) {
  Database db = MakeSalesDatabase();
  EXPECT_EQ(db.tables().size(), 50u);
  const double gb = static_cast<double>(db.TotalBlocks()) * kBlockBytes / 1e9;
  EXPECT_GT(gb, 3.0);
  EXPECT_LT(gb, 8.0);
}

TEST(SalesTest, DominantFactsJoinedInAlmostAllQueries) {
  Database db = MakeSalesDatabase();
  auto wl = MakeSales45Workload(db);
  ASSERT_TRUE(wl.ok()) << wl.status().ToString();
  EXPECT_EQ(wl->size(), 45u);
  auto profile = AnalyzeWorkload(db, wl.value());
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  WeightedGraph g = BuildAccessGraph(profile.value());
  const auto h = static_cast<size_t>(db.ObjectIdOfTable("so_header").value());
  const auto l = static_cast<size_t>(db.ObjectIdOfTable("so_line").value());
  EXPECT_GT(g.EdgeWeight(h, l), 0.0);
  // Average tables per query ~8 (paper's description).
  double total_tables = 0;
  for (const auto& s : wl->statements()) {
    total_tables += static_cast<double>(s.parsed.select.from.size());
  }
  EXPECT_GT(total_tables / 45.0, 5.0);
  EXPECT_LT(total_tables / 45.0, 10.0);
}

TEST(WorkloadSummaryTest, Table1Counts) {
  // Table 1 of the paper: the workload inventory.
  Database tpch = MakeTpchDatabase(1.0);
  EXPECT_EQ(MakeTpch22Workload(tpch)->size(), 22u);
  EXPECT_EQ(MakeWkCtrl1(tpch)->size(), 5u);
  EXPECT_EQ(MakeWkCtrl2(tpch)->size(), 10u);
  EXPECT_EQ(MakeSales45Workload(MakeSalesDatabase())->size(), 45u);
}

}  // namespace
}  // namespace dblayout::benchdata
