// Tests for the invariant audits: the checks the debug-build DCHECK sites
// call must accept everything the pipeline legitimately produces and reject
// each §2/§4 violation with a Status naming the offender — and, in debug
// builds, a corrupted intermediate layout must trip a DBLAYOUT_DCHECK inside
// the search itself. The §2 fraction-matrix audits are Layout::ValidateRows
// and Layout::Validate (the one Definition 2 check); the §4 graph,
// partitioning and §5 cost audits are the InvariantAuditor's
// (src/analysis/).

#include "analysis/invariant_auditor.h"

#include <gtest/gtest.h>

#include "common/logging.h"
#include "graph/partition.h"
#include "layout/cost_model.h"
#include "layout/search.h"
#include "workload/analyzer.h"

namespace dblayout {
namespace {

DiskFleet SmallFleet(int m = 2) { return DiskFleet::Uniform(m, /*capacity_gb=*/1.0); }

Layout EqualLayout(int n, const DiskFleet& fleet) {
  Layout layout(n, fleet.num_disks());
  std::vector<int> all;
  for (int j = 0; j < fleet.num_disks(); ++j) all.push_back(j);
  for (int i = 0; i < n; ++i) layout.AssignEqual(i, all);
  return layout;
}

Database OneTableDb() {
  Database db("audit");
  Table t;
  t.name = "big";
  t.row_count = 400'000;
  Column key;
  key.name = "k";
  key.type = ColumnType::kInt;
  key.distinct_count = 400'000;
  key.min_value = 1;
  key.max_value = 400'000;
  t.columns = {key};
  Column pay;
  pay.name = "p";
  pay.type = ColumnType::kChar;
  pay.declared_length = 200;
  t.columns.push_back(pay);
  t.clustered_key = {"k"};
  EXPECT_TRUE(db.AddTable(t).ok());
  return db;
}

ResolvedConstraints NoConstraints(const Database& db) {
  ResolvedConstraints rc;
  rc.required_avail.assign(db.Objects().size(), std::nullopt);
  return rc;
}

TEST(InvariantAuditorTest, AcceptsValidLayout) {
  const DiskFleet fleet = SmallFleet(3);
  const Layout layout = EqualLayout(2, fleet);
  const std::vector<int64_t> sizes = {100, 200};
  EXPECT_TRUE(layout.ValidateRows(nullptr).ok());
  EXPECT_TRUE(layout.Validate(sizes, fleet).ok());
}

TEST(InvariantAuditorTest, RejectsNegativeFraction) {
  const DiskFleet fleet = SmallFleet(2);
  Layout layout = EqualLayout(1, fleet);
  layout.set_x(0, 0, -0.2);
  layout.set_x(0, 1, 1.2);  // row still sums to 1: only negativity violated
  const Status st = layout.ValidateRows(nullptr);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("negative fraction"), std::string::npos) << st.ToString();
  EXPECT_NE(st.message().find("object 0"), std::string::npos) << st.ToString();
}

TEST(InvariantAuditorTest, RejectsUnderallocatedRow) {
  const DiskFleet fleet = SmallFleet(2);
  Layout layout = EqualLayout(2, fleet);
  layout.set_x(1, 0, 0.5);
  layout.set_x(1, 1, 0.0);
  const Status st = layout.ValidateRows(nullptr);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("object 1"), std::string::npos) << st.ToString();
}

TEST(InvariantAuditorTest, RejectsOvercapacityDisk) {
  DiskFleet fleet = SmallFleet(2);
  const int64_t cap = fleet.disk(0).capacity_blocks;
  const Layout layout = EqualLayout(1, fleet);
  // One object larger than the whole fleet.
  const std::vector<int64_t> sizes = {3 * cap};
  const Status st = layout.Validate(sizes, fleet);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kCapacityExceeded);
  EXPECT_NE(st.message().find(fleet.disk(0).name), std::string::npos) << st.ToString();
}

// The post-move audit (ValidateRows without a fleet) and the API-boundary
// Validate draw the kLayoutFractionTolerance boundary in the same place.
TEST(InvariantAuditorTest, SharesToleranceWithLayoutValidate) {
  const DiskFleet fleet = SmallFleet(2);
  const std::vector<int64_t> sizes = {100};
  Layout layout = EqualLayout(1, fleet);
  // Within the shared tolerance: both accept.
  layout.set_x(0, 0, 0.5 + kLayoutFractionTolerance / 4);
  EXPECT_TRUE(layout.Validate(sizes, fleet).ok());
  EXPECT_TRUE(layout.ValidateRows(nullptr).ok());
  // Beyond it: both reject.
  layout.set_x(0, 0, 0.5 + 100 * kLayoutFractionTolerance);
  EXPECT_FALSE(layout.Validate(sizes, fleet).ok());
  EXPECT_FALSE(layout.ValidateRows(nullptr).ok());
}

TEST(InvariantAuditorTest, RejectsInconsistentAccessGraph) {
  AuditOptions strict;
  strict.strict_coaccess_bound = true;
  const InvariantAuditor auditor(strict);

  // Negative edge weight.
  WeightedGraph negative(2);
  negative.AddNodeWeight(0, 10);
  negative.AddNodeWeight(1, 10);
  negative.AddEdgeWeight(0, 1, -3);
  EXPECT_FALSE(auditor.AuditAccessGraph(negative).ok());
  EXPECT_FALSE(auditor.AuditGraphWeights(negative).ok());

  // Negative node weight.
  WeightedGraph bad_node(2);
  bad_node.AddNodeWeight(0, -1);
  EXPECT_FALSE(auditor.AuditGraphWeights(bad_node).ok());

  // An edge incident to a never-accessed object.
  WeightedGraph dangling(2);
  dangling.AddNodeWeight(0, 10);
  dangling.AddEdgeWeight(0, 1, 5);
  EXPECT_FALSE(auditor.AuditAccessGraph(dangling).ok());

  // Edge weight exceeding the co-access bound node(u) + node(v).
  WeightedGraph heavy(2);
  heavy.AddNodeWeight(0, 10);
  heavy.AddNodeWeight(1, 10);
  heavy.AddEdgeWeight(0, 1, 25);
  const Status st = auditor.AuditAccessGraph(heavy);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("co-access bound"), std::string::npos) << st.ToString();
  // The relaxed audit (hot-path default) only requires well-formed weights.
  EXPECT_TRUE(InvariantAuditor().AuditAccessGraph(heavy).ok());
}

TEST(InvariantAuditorTest, AcceptsAnalyzerBuiltAccessGraph) {
  Database db = OneTableDb();
  Workload wl("audit");
  ASSERT_TRUE(wl.Add("SELECT COUNT(*) FROM big", 3).ok());
  auto profile = AnalyzeWorkload(db, wl);
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  const WeightedGraph g = BuildAccessGraph(*profile);
  AuditOptions strict;
  strict.strict_coaccess_bound = true;  // duplicate-free workload
  EXPECT_TRUE(InvariantAuditor(strict).AuditAccessGraph(g).ok());
}

TEST(InvariantAuditorTest, PartitioningAudit) {
  WeightedGraph g(4);
  for (size_t u = 0; u < 4; ++u) g.AddNodeWeight(u, 1);
  g.AddEdgeWeight(0, 1, 5);
  g.AddEdgeWeight(2, 3, 5);
  PartitionOptions opt;
  opt.num_partitions = 2;
  opt.must_co_locate = {{0, 2}};
  const Partitioning part = MaxCutPartition(g, opt);
  const InvariantAuditor auditor;
  EXPECT_TRUE(auditor.AuditPartitioning(g, part, opt).ok());

  Partitioning out_of_range = part;
  out_of_range[1] = 7;
  EXPECT_FALSE(auditor.AuditPartitioning(g, out_of_range, opt).ok());

  Partitioning split = part;
  split[2] = 1 - split[0];  // break the co-location group
  const Status st = auditor.AuditPartitioning(g, split, opt);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("co-located"), std::string::npos) << st.ToString();
}

TEST(InvariantAuditorTest, SubplanCostAuditMatchesCostModel) {
  const DiskFleet fleet = SmallFleet(3);
  Layout layout(2, 3);
  layout.AssignEqual(0, {0, 1});
  layout.AssignEqual(1, {1, 2});
  SubplanAccess subplan;
  subplan.accesses.push_back(ObjectAccess{/*object_id=*/0, /*blocks=*/1000,
                                          /*is_write=*/false, /*random=*/false,
                                          /*read_modify_write=*/false});
  subplan.accesses.push_back(ObjectAccess{/*object_id=*/1, /*blocks=*/500,
                                          /*is_write=*/true, /*random=*/false,
                                          /*read_modify_write=*/false});
  const CostModel cm(fleet);
  const double cost = cm.SubplanCost(subplan, layout);
  const InvariantAuditor auditor;
  EXPECT_TRUE(auditor.AuditSubplanCost(subplan, layout, fleet, cost).ok());
  // A drifted reported cost (e.g. from a buggy incremental update) is caught.
  const Status st = auditor.AuditSubplanCost(subplan, layout, fleet, cost + 1.0);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("max-over-disks"), std::string::npos) << st.ToString();
}

// Acceptance demo: a negative fraction injected into the working layout
// mid-search trips the post-move DBLAYOUT_DCHECK (Layout::ValidateRows)
// after the next accepted greedy move. Only meaningful when dchecks are
// compiled in (debug or sanitizer builds).
TEST(InvariantAuditorDeathTest, CorruptedLayoutMidSearchTripsDcheck) {
  if (!DBLAYOUT_DCHECK_IS_ON()) {
    GTEST_SKIP() << "DBLAYOUT_DCHECK compiled out in this build type";
  }
  Database db = OneTableDb();
  const DiskFleet fleet = DiskFleet::Uniform(3);
  Workload wl("audit");
  ASSERT_TRUE(wl.Add("SELECT COUNT(*) FROM big", 10).ok());
  auto profile = AnalyzeWorkload(db, wl);
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();

  SearchOptions opts;
  opts.post_move_hook_for_test = [](Layout& layout) { layout.set_x(0, 0, -0.25); };
  const TsGreedySearch search(db, fleet, opts);
  EXPECT_DEATH(search.Run(*profile, NoConstraints(db)).status().ToString(),
               "dcheck failed");
}

}  // namespace
}  // namespace dblayout
