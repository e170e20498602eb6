// Cost-attribution tests: the exactness contract (statement shares are
// bit-identical to CostModel::WorkloadCost; object and binding-drive shares
// sum back to the total within kLayoutFractionTolerance), ordering, the
// simulator-sampling path, and the journal event emission.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "benchdata/tpch.h"
#include "common/rng.h"
#include "layout/advisor.h"
#include "layout/cost_model.h"
#include "layout/search.h"
#include "obs/attribution.h"
#include "obs/journal.h"
#include "obs/json.h"
#include "workload/analyzer.h"

namespace dblayout {
namespace {

using obs::AttributeCost;
using obs::AttributionOptions;
using obs::CostAttribution;

Column IntKey(const std::string& name, int64_t distinct) {
  Column c;
  c.name = name;
  c.type = ColumnType::kInt;
  c.distinct_count = distinct;
  c.min_value = 1;
  c.max_value = static_cast<double>(distinct);
  return c;
}

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
  EXPECT_TRUE(
      wl.Add("SELECT COUNT(*) FROM big_a, solo WHERE big_a_k = solo_k", 2).ok());
  auto profile = AnalyzeWorkload(db, wl);
  EXPECT_TRUE(profile.ok()) << profile.status().ToString();
  return std::move(profile).value();
}

std::vector<std::string> ObjectNames(const Database& db) {
  std::vector<std::string> names;
  for (const auto& o : db.Objects()) names.push_back(o.name);
  return names;
}

/// Asserts the §5 decomposition invariants on one attribution: shares sum to
/// 1 and the per-statement / per-object / binding-drive cost sums reproduce
/// the total within kLayoutFractionTolerance (relative).
void CheckSums(const CostAttribution& a) {
  ASSERT_GT(a.total_ms, 0);
  const double tol = a.total_ms * kLayoutFractionTolerance;
  double stmt = 0, stmt_share = 0;
  for (const auto& s : a.statements) {
    stmt += s.cost_ms;
    stmt_share += s.share;
  }
  EXPECT_NEAR(stmt, a.total_ms, tol);
  EXPECT_NEAR(stmt_share, 1.0, kLayoutFractionTolerance);
  double obj = 0;
  for (const auto& o : a.objects) obj += o.cost_ms;
  EXPECT_NEAR(obj, a.total_ms, tol);
  double bound = 0;
  for (const auto& d : a.drives) bound += d.bound_ms;
  EXPECT_NEAR(bound, a.total_ms, tol);
}

TEST(AttributionTest, StatementTotalIsBitIdenticalToCostModel) {
  Database db = MicroDb();
  WorkloadProfile profile = MicroProfile(db);
  DiskFleet fleet = DiskFleet::Uniform(6);
  const Layout layout =
      Layout::FullStriping(static_cast<int>(db.Objects().size()), fleet);
  AttributionOptions opts;
  opts.sample_queues = false;
  auto attr = AttributeCost(profile, layout, fleet, db.ObjectSizes(),
                            ObjectNames(db), opts);
  ASSERT_TRUE(attr.ok()) << attr.status().ToString();
  const CostModel cm(fleet);
  // Not approximately: the attribution accumulates in WorkloadCost's
  // association order, so the totals are the same double.
  EXPECT_EQ(attr->total_ms, cm.WorkloadCost(profile, layout));
  CheckSums(*attr);
}

TEST(AttributionTest, SharesSumToTotalAcrossRandomLayouts) {
  Database db = MicroDb();
  WorkloadProfile profile = MicroProfile(db);
  DiskFleet fleet = DiskFleet::Heterogeneous(6, 0.3, 42);
  AttributionOptions opts;
  opts.sample_queues = false;
  for (uint64_t seed : {1u, 7u, 23u, 99u}) {
    Rng rng(seed);
    auto layout = RandomLayout(db, fleet, &rng);
    ASSERT_TRUE(layout.ok()) << layout.status().ToString();
    auto attr = AttributeCost(profile, *layout, fleet, db.ObjectSizes(),
                              ObjectNames(db), opts);
    ASSERT_TRUE(attr.ok()) << attr.status().ToString();
    CheckSums(*attr);
  }
}

TEST(AttributionTest, OrderingAndNames) {
  Database db = MicroDb();
  WorkloadProfile profile = MicroProfile(db);
  DiskFleet fleet = DiskFleet::Uniform(4);
  const Layout layout =
      Layout::FullStriping(static_cast<int>(db.Objects().size()), fleet);
  AttributionOptions opts;
  opts.sample_queues = false;
  auto attr = AttributeCost(profile, layout, fleet, db.ObjectSizes(),
                            ObjectNames(db), opts);
  ASSERT_TRUE(attr.ok());
  ASSERT_EQ(attr->statements.size(), profile.statements.size());
  for (size_t i = 1; i < attr->statements.size(); ++i) {
    EXPECT_GE(attr->statements[i - 1].cost_ms, attr->statements[i].cost_ms);
  }
  ASSERT_EQ(attr->objects.size(), db.Objects().size());
  for (size_t i = 1; i < attr->objects.size(); ++i) {
    EXPECT_GE(attr->objects[i - 1].cost_ms, attr->objects[i].cost_ms);
  }
  ASSERT_EQ(attr->drives.size(), static_cast<size_t>(fleet.num_disks()));
  for (size_t j = 0; j < attr->drives.size(); ++j) {
    EXPECT_EQ(attr->drives[j].drive, static_cast<int>(j));
    EXPECT_EQ(attr->drives[j].name, fleet.disk(static_cast<int>(j)).name);
  }
  // Full striping busies every drive equally; utilization is normalized to
  // the hottest drive.
  for (const auto& d : attr->drives) EXPECT_NEAR(d.utilization, 1.0, 1e-9);
}

TEST(AttributionTest, QueueSamplingFillsSimFields) {
  Database db = MicroDb();
  WorkloadProfile profile = MicroProfile(db);
  DiskFleet fleet = DiskFleet::Uniform(4);
  const Layout layout =
      Layout::FullStriping(static_cast<int>(db.Objects().size()), fleet);
  auto attr = AttributeCost(profile, layout, fleet, db.ObjectSizes(),
                            ObjectNames(db));  // sample_queues defaults on
  ASSERT_TRUE(attr.ok()) << attr.status().ToString();
  CheckSums(*attr);
  bool any_requests = false;
  for (const auto& d : attr->drives) {
    any_requests |= d.queue_requests > 0;
    if (d.queue_requests > 0) {
      EXPECT_GE(d.queue_depth_mean, 1.0);
      EXPECT_GE(d.queue_depth_max, 1);
    }
  }
  EXPECT_TRUE(any_requests);
  // Deterministic: the same seed samples the same queues.
  auto again = AttributeCost(profile, layout, fleet, db.ObjectSizes(),
                             ObjectNames(db));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(obs::AttributionJson(*attr), obs::AttributionJson(*again));
}

TEST(AttributionTest, JournalEventsParseAndMatchTables) {
  Database db = MicroDb();
  WorkloadProfile profile = MicroProfile(db);
  DiskFleet fleet = DiskFleet::Uniform(4);
  const Layout layout =
      Layout::FullStriping(static_cast<int>(db.Objects().size()), fleet);
  AttributionOptions opts;
  opts.sample_queues = false;
  auto attr = AttributeCost(profile, layout, fleet, db.ObjectSizes(),
                            ObjectNames(db), opts);
  ASSERT_TRUE(attr.ok());
  obs::EventJournal journal;
  AppendAttributionEvents(*attr, &journal, /*top_k=*/2);
  const std::string text = journal.Serialize();
  size_t pos = 0;
  int statements = 0, objects = 0, drives = 0;
  double total = -1;
  while (pos < text.size()) {
    const size_t nl = text.find('\n', pos);
    auto parsed = obs::ParseJson(text.substr(pos, nl - pos));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    pos = nl + 1;
    const std::string type = parsed.value().StringOr("ev", "");
    if (type == "attribution") total = parsed.value().NumberOr("total_ms", -1);
    statements += type == "statement";
    objects += type == "object";
    drives += type == "drive";
  }
  EXPECT_EQ(total, attr->total_ms);
  EXPECT_EQ(statements, 2);  // top_k caps the statement table
  EXPECT_EQ(drives, fleet.num_disks());
  EXPECT_GT(objects, 0);
}

/// Every field of the attribution, rendered as JSON (round-trip doubles, so
/// every bit), against tests/testdata/attribution_golden.txt. TPC-H-22 plus
/// an INSERT and an in-place UPDATE exercise the read, write and
/// read-modify-write rates on plain, RAID-1 and RAID-5 drives, under full
/// striping, the advisor's recommendation and three random layouts.
///
/// Regenerate (only when the attribution is meant to change):
///   DBLAYOUT_UPDATE_GOLDEN=1 build/tests/dblayout_tests --gtest_filter='AttributionTest.JsonMatchesGolden'
TEST(AttributionTest, JsonMatchesGolden) {
  const Database db = benchdata::MakeTpchDatabase(0.1);
  auto wl = benchdata::MakeTpch22Workload(db);
  ASSERT_TRUE(wl.ok()) << wl.status().ToString();
  ASSERT_TRUE(wl->Add("INSERT INTO orders VALUES (1, 2, 'O', 3.5, "
                      "'1995-01-01', 'x', 'y', 0, 'z')",
                      20)
                  .ok());
  ASSERT_TRUE(
      wl->Add("UPDATE lineitem SET l_discount = 0.05 WHERE l_orderkey < 60000", 10)
          .ok());
  auto profile = AnalyzeWorkload(db, *wl);
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  bool reads = false, writes = false, rmw = false;
  for (const StatementProfile& s : profile->statements) {
    for (const SubplanAccess& sp : s.subplans) {
      for (const ObjectAccess& a : sp.accesses) {
        rmw |= a.read_modify_write;
        writes |= a.is_write && !a.read_modify_write;
        reads |= !a.is_write && !a.read_modify_write;
      }
    }
  }
  ASSERT_TRUE(reads && writes && rmw);

  auto fleet = DiskFleet::FromSpec(
      "plain1 6 9 40 32 none\n"
      "plain2 6 8 55 45 none\n"
      "mirror1 6 9 38 30 mirroring\n"
      "mirror2 6 7.5 42 35 mirroring\n"
      "parity1 6 9 60 50 parity\n"
      "parity2 6 10 35 28 parity\n");
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  auto rec = LayoutAdvisor(db, *fleet).Recommend(*wl);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();

  std::vector<std::pair<std::string, Layout>> layouts = {
      {"full striping",
       Layout::FullStriping(static_cast<int>(db.Objects().size()), *fleet)},
      {"recommendation", rec->layout}};
  for (uint64_t seed : {3u, 17u, 41u}) {
    Rng rng(seed);
    auto layout = RandomLayout(db, *fleet, &rng);
    ASSERT_TRUE(layout.ok()) << layout.status().ToString();
    layouts.emplace_back("random seed " + std::to_string(seed), *layout);
  }

  std::string got;
  auto render = [&](const std::string& name, const Layout& layout,
                    bool sample_queues) {
    AttributionOptions opts;
    opts.sample_queues = sample_queues;
    auto attr = AttributeCost(*profile, layout, *fleet, db.ObjectSizes(),
                              ObjectNames(db), opts);
    ASSERT_TRUE(attr.ok()) << name << ": " << attr.status().ToString();
    got += "== " + name + (sample_queues ? ", sampled queues" : "") + "\n" +
           obs::AttributionJson(*attr) + "\n";
  };
  for (const auto& [name, layout] : layouts) render(name, layout, false);
  render("recommendation", rec->layout, true);

  const std::string path =
      std::string(DBLAYOUT_TESTDATA_DIR) + "/attribution_golden.txt";
  if (std::getenv("DBLAYOUT_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path);
    out << got;
    ASSERT_TRUE(out) << "cannot regenerate " << path;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing golden file " << path;
  std::ostringstream want;
  want << in.rdbuf();
  EXPECT_EQ(got, want.str()) << "attribution drifted from " << path;
}

}  // namespace
}  // namespace dblayout
