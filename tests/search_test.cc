#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/rng.h"
#include "common/strutil.h"
#include "layout/search.h"
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

/// Two co-accessed large tables and one independent table.
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
  EXPECT_TRUE(wl.Add("SELECT COUNT(*) FROM big_a, big_b WHERE big_a_k = big_b_k", 5).ok());
  EXPECT_TRUE(wl.Add("SELECT COUNT(*) FROM solo").ok());
  auto profile = AnalyzeWorkload(db, wl);
  EXPECT_TRUE(profile.ok()) << profile.status().ToString();
  return std::move(profile).value();
}

ResolvedConstraints NoConstraints(const Database& db) {
  ResolvedConstraints rc;
  rc.required_avail.assign(db.Objects().size(), std::nullopt);
  return rc;
}

TEST(SearchTest, InitialLayoutSeparatesCoAccessedObjects) {
  Database db = MicroDb();
  DiskFleet fleet = DiskFleet::Uniform(4);
  WorkloadProfile profile = MicroProfile(db);
  TsGreedySearch search(db, fleet);
  auto layout = search.InitialLayout(profile, NoConstraints(db));
  ASSERT_TRUE(layout.ok()) << layout.status().ToString();
  const int a = db.ObjectIdOfTable("big_a").value();
  const int b = db.ObjectIdOfTable("big_b").value();
  // No drive holds both co-accessed objects.
  for (int j = 0; j < 4; ++j) {
    EXPECT_FALSE(layout->x(a, j) > 0 && layout->x(b, j) > 0) << "disk " << j;
  }
}

TEST(SearchTest, RunBeatsOrMatchesFullStriping) {
  Database db = MicroDb();
  DiskFleet fleet = DiskFleet::Uniform(4);
  WorkloadProfile profile = MicroProfile(db);
  TsGreedySearch search(db, fleet);
  auto result = search.Run(profile, NoConstraints(db));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const CostModel cm(fleet);
  const double striped =
      cm.WorkloadCost(profile, Layout::FullStriping(3, fleet));
  EXPECT_LE(result->cost, striped + 1e-6);
  EXPECT_GT(result->layouts_evaluated, 0);
  // The final layout is valid.
  EXPECT_TRUE(result->layout.Validate(db.ObjectSizes(), fleet).ok());
}

TEST(SearchTest, GreedySeparatesHotJoin) {
  Database db = MicroDb();
  DiskFleet fleet = DiskFleet::Uniform(4);
  WorkloadProfile profile = MicroProfile(db);
  TsGreedySearch search(db, fleet);
  auto result = search.Run(profile, NoConstraints(db)).value();
  const int a = db.ObjectIdOfTable("big_a").value();
  const int b = db.ObjectIdOfTable("big_b").value();
  for (int j = 0; j < 4; ++j) {
    EXPECT_FALSE(result.layout.x(a, j) > 0 && result.layout.x(b, j) > 0);
  }
}

TEST(SearchTest, MatchesExhaustiveOnMicroInstance) {
  // The paper reports TS-GREEDY close to exhaustive even with k = 1; on a
  // micro instance with identical disks, require exact-cost agreement.
  Database db = MicroDb();
  DiskFleet fleet = DiskFleet::Uniform(3);
  WorkloadProfile profile = MicroProfile(db);
  ResolvedConstraints rc = NoConstraints(db);
  auto greedy = TsGreedySearch(db, fleet).Run(profile, rc);
  ASSERT_TRUE(greedy.ok());
  auto exhaustive = ExhaustiveSearch(db, fleet, profile, rc);
  ASSERT_TRUE(exhaustive.ok()) << exhaustive.status().ToString();
  EXPECT_LE(exhaustive->cost, greedy->cost + 1e-9);
  EXPECT_NEAR(greedy->cost, exhaustive->cost, 0.15 * exhaustive->cost)
      << "greedy should be within 15% of optimal on micro instances";
}

TEST(SearchTest, ExhaustiveGuardsCombinatorialExplosion) {
  Database db = MicroDb();
  DiskFleet fleet = DiskFleet::Uniform(16);  // (2^16-1)^3 combos: refused
  WorkloadProfile profile = MicroProfile(db);
  auto result = ExhaustiveSearch(db, fleet, profile, NoConstraints(db));
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(SearchTest, CoLocationConstraintHonored) {
  Database db = MicroDb();
  DiskFleet fleet = DiskFleet::Uniform(4);
  WorkloadProfile profile = MicroProfile(db);
  ResolvedConstraints rc = NoConstraints(db);
  const int a = db.ObjectIdOfTable("big_a").value();
  const int b = db.ObjectIdOfTable("big_b").value();
  rc.co_located_groups = {{a, b}};  // force the co-accessed pair together
  auto result = TsGreedySearch(db, fleet).Run(profile, rc);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->layout.DisksOf(a), result->layout.DisksOf(b));
  EXPECT_TRUE(CheckConstraints(result->layout, rc, db, fleet).ok());
}

TEST(SearchTest, AvailabilityConstraintHonored) {
  Database db = MicroDb();
  DiskFleet fleet = DiskFleet::Uniform(4);
  fleet.disk(0).avail = Availability::kMirroring;
  fleet.disk(1).avail = Availability::kMirroring;
  WorkloadProfile profile = MicroProfile(db);
  ResolvedConstraints rc = NoConstraints(db);
  const int solo = db.ObjectIdOfTable("solo").value();
  rc.required_avail[static_cast<size_t>(solo)] = Availability::kMirroring;
  auto result = TsGreedySearch(db, fleet).Run(profile, rc);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (int j : result->layout.DisksOf(solo)) {
    EXPECT_EQ(fleet.disk(j).avail, Availability::kMirroring);
  }
}

TEST(SearchTest, MovementBudgetRespected) {
  Database db = MicroDb();
  DiskFleet fleet = DiskFleet::Uniform(4);
  WorkloadProfile profile = MicroProfile(db);
  const Layout current = Layout::FullStriping(3, fleet);
  ResolvedConstraints rc = NoConstraints(db);
  rc.current_layout = &current;
  rc.max_movement_blocks = 0.05 * static_cast<double>(db.TotalBlocks());
  auto result = TsGreedySearch(db, fleet).Run(profile, rc);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_LE(Layout::DataMovementBlocks(current, result->layout, db.ObjectSizes()),
            rc.max_movement_blocks * (1 + 1e-9));
}

TEST(SearchTest, TightBudgetStillImprovesByMigratingPairs) {
  // Separating a co-accessed pair pays only if both sides move; the
  // incremental migration must find the pair move under a budget that the
  // full redesign would exceed.
  Database db = MicroDb();
  DiskFleet fleet = DiskFleet::Uniform(4);
  WorkloadProfile profile = MicroProfile(db);
  const Layout current = Layout::FullStriping(3, fleet);
  const CostModel cm(fleet);
  const double current_cost = cm.WorkloadCost(profile, current);

  ResolvedConstraints rc = NoConstraints(db);
  rc.current_layout = &current;
  // Enough to move the co-accessed pair, not the whole database.
  rc.max_movement_blocks = 0.75 * static_cast<double>(db.TotalBlocks());
  auto result = TsGreedySearch(db, fleet).Run(profile, rc);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_LT(result->cost, current_cost);
  EXPECT_LE(Layout::DataMovementBlocks(current, result->layout, db.ObjectSizes()),
            rc.max_movement_blocks * (1 + 1e-9));
}

TEST(SearchTest, MandatoryConstraintsMigrateFirstUnderBudget) {
  // A current layout that violates an availability requirement must be
  // repaired even when the repairing move is not cost-improving, as long as
  // the movement budget allows it.
  Database db = MicroDb();
  DiskFleet fleet = DiskFleet::Uniform(4);
  fleet.disk(3).avail = Availability::kMirroring;
  WorkloadProfile profile = MicroProfile(db);
  const Layout current = Layout::FullStriping(3, fleet);  // violates avail
  ResolvedConstraints rc = NoConstraints(db);
  const int solo = db.ObjectIdOfTable("solo").value();
  rc.required_avail[static_cast<size_t>(solo)] = Availability::kMirroring;
  rc.current_layout = &current;
  rc.max_movement_blocks = 0.5 * static_cast<double>(db.TotalBlocks());
  auto result = TsGreedySearch(db, fleet).Run(profile, rc);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (int j : result->layout.DisksOf(solo)) {
    EXPECT_EQ(fleet.disk(j).avail, Availability::kMirroring);
  }
}

TEST(SearchTest, ImpossibleConstraintRepairUnderTinyBudgetFails) {
  Database db = MicroDb();
  DiskFleet fleet = DiskFleet::Uniform(4);
  fleet.disk(3).avail = Availability::kMirroring;
  WorkloadProfile profile = MicroProfile(db);
  const Layout current = Layout::FullStriping(3, fleet);
  ResolvedConstraints rc = NoConstraints(db);
  const int big = db.ObjectIdOfTable("big_a").value();
  rc.required_avail[static_cast<size_t>(big)] = Availability::kMirroring;
  rc.current_layout = &current;
  rc.max_movement_blocks = 1;  // cannot possibly move big_a
  auto result = TsGreedySearch(db, fleet).Run(profile, rc);
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(SearchTest, ZeroMovementBudgetReturnsCurrentLayout) {
  Database db = MicroDb();
  DiskFleet fleet = DiskFleet::Uniform(4);
  WorkloadProfile profile = MicroProfile(db);
  const Layout current = Layout::FullStriping(3, fleet);
  ResolvedConstraints rc = NoConstraints(db);
  rc.current_layout = &current;
  rc.max_movement_blocks = 0;
  auto result = TsGreedySearch(db, fleet).Run(profile, rc);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->layout.ApproxEquals(current));
}

TEST(SearchTest, DatabaseTooBigForFleetFails) {
  Database db = MicroDb();
  DiskFleet fleet = DiskFleet::Uniform(2, /*capacity_gb=*/0.001);
  WorkloadProfile profile = MicroProfile(db);
  auto result = TsGreedySearch(db, fleet).Run(profile, NoConstraints(db));
  EXPECT_FALSE(result.ok());
}

TEST(SearchTest, RandomLayoutsAreValid) {
  Database db = MicroDb();
  DiskFleet fleet = DiskFleet::Uniform(4);
  Rng rng(17);
  for (int i = 0; i < 10; ++i) {
    auto layout = RandomLayout(db, fleet, &rng);
    ASSERT_TRUE(layout.ok());
    EXPECT_TRUE(layout->Validate(db.ObjectSizes(), fleet).ok());
  }
}

TEST(SearchTest, RandomLayoutFailsWhenNothingFits) {
  Database db = MicroDb();
  DiskFleet fleet = DiskFleet::Uniform(2, 0.0001);
  Rng rng(17);
  EXPECT_EQ(RandomLayout(db, fleet, &rng, 5).status().code(),
            StatusCode::kCapacityExceeded);
}

TEST(SearchTest, LargerKExploresMore) {
  // Greedy search is not monotone in k (a wider move set can steer the
  // trajectory into a different local minimum), but k=2 must evaluate more
  // candidate layouts and both runs must stay within the striping bound.
  Database db = MicroDb();
  DiskFleet fleet = DiskFleet::Uniform(5);
  WorkloadProfile profile = MicroProfile(db);
  ResolvedConstraints rc = NoConstraints(db);
  SearchOptions k1, k2;
  k1.greedy_k = 1;
  k2.greedy_k = 2;
  auto r1 = TsGreedySearch(db, fleet, k1).Run(profile, rc).value();
  auto r2 = TsGreedySearch(db, fleet, k2).Run(profile, rc).value();
  EXPECT_GE(r2.layouts_evaluated, r1.layouts_evaluated);
  const CostModel cm(fleet);
  const double striped = cm.WorkloadCost(profile, Layout::FullStriping(3, fleet));
  EXPECT_LE(r1.cost, striped + 1e-9);
  EXPECT_LE(r2.cost, striped + 1e-9);
}

TEST(ConstraintsTest, ResolveMergesTransitiveGroups) {
  Database db = MicroDb();
  DiskFleet fleet = DiskFleet::Uniform(2);
  Constraints c;
  c.co_located = {{"big_a", "big_b"}, {"big_b", "solo"}};
  auto rc = ResolveConstraints(c, db, fleet);
  ASSERT_TRUE(rc.ok());
  ASSERT_EQ(rc->co_located_groups.size(), 1u);
  EXPECT_EQ(rc->co_located_groups[0].size(), 3u);
}

TEST(ConstraintsTest, ResolveRejectsUnknownObject) {
  Database db = MicroDb();
  DiskFleet fleet = DiskFleet::Uniform(2);
  Constraints c;
  c.co_located = {{"big_a", "ghost"}};
  EXPECT_EQ(ResolveConstraints(c, db, fleet).status().code(), StatusCode::kNotFound);
}

TEST(ConstraintsTest, ResolveRejectsUnsatisfiableAvailability) {
  Database db = MicroDb();
  DiskFleet fleet = DiskFleet::Uniform(2);  // all kNone
  Constraints c;
  c.avail_requirements = {{"big_a", Availability::kMirroring}};
  EXPECT_EQ(ResolveConstraints(c, db, fleet).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(ConstraintsTest, ResolveRejectsMovementWithoutCurrentLayout) {
  Database db = MicroDb();
  DiskFleet fleet = DiskFleet::Uniform(2);
  Constraints c;
  c.max_movement_fraction = 0.5;
  EXPECT_EQ(ResolveConstraints(c, db, fleet).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ConstraintsTest, ConflictingGroupAvailabilityRejected) {
  Database db = MicroDb();
  DiskFleet fleet = DiskFleet::Uniform(3);
  fleet.disk(0).avail = Availability::kMirroring;
  fleet.disk(1).avail = Availability::kParity;
  Constraints c;
  c.co_located = {{"big_a", "big_b"}};
  c.avail_requirements = {{"big_a", Availability::kMirroring},
                          {"big_b", Availability::kParity}};
  EXPECT_EQ(ResolveConstraints(c, db, fleet).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(ConstraintsTest, CheckConstraintsDetectsViolations) {
  Database db = MicroDb();
  DiskFleet fleet = DiskFleet::Uniform(4);
  ResolvedConstraints rc = NoConstraints(db);
  rc.co_located_groups = {{0, 1}};
  Layout bad(3, 4);
  bad.AssignEqual(0, {0});
  bad.AssignEqual(1, {1});
  bad.AssignEqual(2, {2});
  EXPECT_EQ(CheckConstraints(bad, rc, db, fleet).code(),
            StatusCode::kFailedPrecondition);
  Layout good(3, 4);
  good.AssignEqual(0, {0});
  good.AssignEqual(1, {0});
  good.AssignEqual(2, {2});
  EXPECT_TRUE(CheckConstraints(good, rc, db, fleet).ok());
}

const char* IssueKindName(ConstraintIssue::Kind kind) {
  using Kind = ConstraintIssue::Kind;
  switch (kind) {
    case Kind::kUnknownObject: return "unknown-object";
    case Kind::kAvailabilityUnsatisfiable: return "availability-unsatisfiable";
    case Kind::kAvailabilityConflict: return "availability-conflict";
    case Kind::kGroupNoEligibleDrives: return "group-no-eligible-drives";
    case Kind::kGroupCapacity: return "group-capacity";
    case Kind::kMovementMissingCurrentLayout: return "movement-missing-current-layout";
    case Kind::kMovementBudgetTooSmall: return "movement-budget-too-small";
  }
  return "?";
}

/// What ResolveConstraints returns for `c` and, for specs without ineligible
/// drives, every CheckConstraintFeasibility issue, one field per line.
std::string RenderConstraintContract(const Constraints& c, const Database& db,
                                     const DiskFleet& fleet) {
  std::string out;
  Result<ResolvedConstraints> rc = ResolveConstraints(c, db, fleet);
  if (!rc.ok()) {
    out += "resolve: " + rc.status().ToString() + "\n";
  } else {
    out += "resolve: ok\n  groups:";
    for (const auto& group : rc->co_located_groups) {
      std::vector<std::string> members;
      for (int i : group) members.push_back(std::to_string(i));
      out += " {" + Join(members, ",") + "}";
    }
    out += "\n  required:";
    for (const auto& r : rc->required_avail) {
      out += std::string(" ") + (r.has_value() ? AvailabilityName(*r) : "-");
    }
    out += StrFormat("\n  max_movement_blocks: %a\n  current_layout: %s\n  ineligible:",
                     rc->max_movement_blocks,
                     rc->current_layout != nullptr ? "set" : "none");
    for (bool flag : rc->drive_ineligible) out += flag ? " 1" : " 0";
    out += "\n";
  }
  if (!c.ineligible_drives.empty()) return out;
  for (const ConstraintIssue& issue : CheckConstraintFeasibility(c, db, fleet)) {
    out += std::string("issue: ") + IssueKindName(issue.kind) + "\n";
    out += "  objects: " + Join(issue.objects, "|") + "\n";
    out += "  disks: " + Join(issue.disks, "|") + "\n";
    out += "  message: " + issue.message + "\n";
    out += "  fix_it: " + issue.fix_it + "\n";
  }
  return out;
}

// Pins the contract of both constraint interpreters over specs with one or
// several problems: ResolveConstraints' resolved form or first error, and
// CheckConstraintFeasibility's issues (kind, order, wording, objects, disks).
// Regenerate with DBLAYOUT_UPDATE_GOLDEN=1 only when a change to that
// contract is intended.
TEST(ConstraintsTest, ResolveAndFeasibilityMatchGolden) {
  const Database db = MicroDb();
  // D1, D2 mirrored; D3, D4 plain; no drive offers parity.
  DiskFleet fleet = DiskFleet::Uniform(4);
  fleet.disk(0).avail = Availability::kMirroring;
  fleet.disk(1).avail = Availability::kMirroring;
  // Same, with mirrored drives too small for the big tables.
  DiskFleet small_mirrors = fleet;
  small_mirrors.disk(0).capacity_blocks = 300;
  small_mirrors.disk(1).capacity_blocks = 300;
  // Only D1 offers parity.
  DiskFleet one_parity = DiskFleet::Uniform(4);
  one_parity.disk(0).avail = Availability::kParity;

  const Layout striped = Layout::FullStriping(3, fleet);
  // big_a is only half allocated; solo sits on D3 and D4 as well.
  Layout under = striped;
  under.AssignEqual(0, {0});
  under.set_x(0, 0, 0.5);

  struct Case {
    const char* name;
    Constraints c;
    const DiskFleet* fleet;
  };
  std::vector<Case> cases;
  auto add = [&](const char* name, const DiskFleet& f, auto&& fill) {
    Case k{name, Constraints{}, &f};
    fill(k.c);
    cases.push_back(std::move(k));
  };
  add("no constraints", fleet, [](Constraints&) {});
  add("transitive co-location, mixed case", fleet, [](Constraints& c) {
    c.co_located = {{"BIG_A", "big_b"}, {"Big_B", "SOLO"}};
  });
  add("unknown name in a pair", fleet, [](Constraints& c) {
    c.co_located = {{"big_a", "big_b"}, {"Ghost", "solo"}};
  });
  add("unknown name in a requirement", fleet, [](Constraints& c) {
    c.avail_requirements = {{"big_a", Availability::kMirroring},
                            {"phantom", Availability::kNone}};
  });
  add("unknown names repeated across pairs and requirements", fleet,
      [](Constraints& c) {
        c.co_located = {{"big_a", "ghost"}, {"GHOST", "wraith"}};
        c.avail_requirements = {{"Ghost", Availability::kMirroring}};
      });
  add("unsatisfiable requirement before an unknown object", fleet,
      [](Constraints& c) {
        c.avail_requirements = {{"Big_A", Availability::kParity},
                                {"ghost", Availability::kNone}};
      });
  add("two levels required of one object", fleet, [](Constraints& c) {
    c.avail_requirements = {{"big_a", Availability::kMirroring},
                            {"BIG_A", Availability::kNone}};
  });
  add("group with conflicting levels", fleet, [](Constraints& c) {
    c.co_located = {{"big_a", "big_b"}};
    c.avail_requirements = {{"big_b", Availability::kMirroring},
                            {"big_a", Availability::kNone}};
  });
  add("group inherits one member's level", fleet, [](Constraints& c) {
    c.co_located = {{"solo", "big_b"}};
    c.avail_requirements = {{"big_b", Availability::kMirroring}};
  });
  add("group and object larger than their eligible drives", small_mirrors,
      [](Constraints& c) {
        c.co_located = {{"big_a", "big_b"}};
        c.avail_requirements = {{"big_a", Availability::kMirroring},
                                {"solo", Availability::kMirroring}};
      });
  add("movement bound without a baseline", fleet,
      [](Constraints& c) { c.max_movement_fraction = 0.2; });
  add("movement bound with a full-striping baseline", fleet, [&](Constraints& c) {
    c.max_movement_fraction = 0.2;
    c.current_layout = &striped;
  });
  add("movement bound below an under-allocated baseline's forced movement", fleet,
      [&](Constraints& c) {
        c.avail_requirements = {{"solo", Availability::kMirroring}};
        c.max_movement_fraction = 0.01;
        c.current_layout = &under;
      });
  add("ineligible drive, mixed case", fleet,
      [](Constraints& c) { c.ineligible_drives = {"d4"}; });
  add("unknown ineligible drive", fleet,
      [](Constraints& c) { c.ineligible_drives = {"D2", "D9"}; });
  add("every drive ineligible", fleet,
      [](Constraints& c) { c.ineligible_drives = {"D1", "D2", "d3", "D4"}; });
  add("a level only an ineligible drive offers", one_parity, [](Constraints& c) {
    c.ineligible_drives = {"d1"};
    c.avail_requirements = {{"Big_A", Availability::kParity}};
  });

  std::string got;
  for (const Case& k : cases) {
    got += StrFormat("== %s\n", k.name) + RenderConstraintContract(k.c, db, *k.fleet);
  }
  const std::string path =
      std::string(DBLAYOUT_TESTDATA_DIR) + "/constraints_golden.txt";
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
  EXPECT_EQ(got, want.str()) << "constraint contract drifted from " << path;
}

/// Property sweep: TS-GREEDY never loses to full striping on random
/// workloads (the fallback guarantees it) and always returns valid layouts.
class SearchPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SearchPropertyTest, NeverWorseThanFullStripingAndAlwaysValid) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  Database db("prop");
  const int num_tables = 3 + static_cast<int>(rng.Index(4));
  for (int i = 0; i < num_tables; ++i) {
    Table t;
    t.name = "t" + std::to_string(i);
    t.row_count = rng.UniformInt(10'000, 2'000'000);
    t.columns = {IntKey("k" + std::to_string(i), t.row_count)};
    Column pay;
    pay.name = "p" + std::to_string(i);
    pay.type = ColumnType::kChar;
    pay.declared_length = static_cast<int>(rng.UniformInt(20, 200));
    t.columns.push_back(pay);
    t.clustered_key = {t.columns[0].name};
    ASSERT_TRUE(db.AddTable(t).ok());
  }
  Workload wl("prop");
  const int num_queries = 3 + static_cast<int>(rng.Index(5));
  for (int q = 0; q < num_queries; ++q) {
    if (rng.Bernoulli(0.5)) {
      const int t = static_cast<int>(rng.Index(static_cast<size_t>(num_tables)));
      ASSERT_TRUE(wl.Add("SELECT COUNT(*) FROM t" + std::to_string(t)).ok());
    } else {
      int a = static_cast<int>(rng.Index(static_cast<size_t>(num_tables)));
      int b = static_cast<int>(rng.Index(static_cast<size_t>(num_tables)));
      if (a == b) b = (b + 1) % num_tables;
      ASSERT_TRUE(wl.Add("SELECT COUNT(*) FROM t" + std::to_string(a) + ", t" +
                         std::to_string(b) + " WHERE k" + std::to_string(a) +
                         " = k" + std::to_string(b))
                      .ok());
    }
  }
  DiskFleet fleet = DiskFleet::Heterogeneous(
      2 + static_cast<int>(rng.Index(7)), 0.3, static_cast<uint64_t>(GetParam()));
  auto profile = AnalyzeWorkload(db, wl);
  ASSERT_TRUE(profile.ok());
  ResolvedConstraints rc;
  rc.required_avail.assign(db.Objects().size(), std::nullopt);
  auto result = TsGreedySearch(db, fleet).Run(profile.value(), rc);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->layout.Validate(db.ObjectSizes(), fleet).ok());
  const CostModel cm(fleet);
  const double striped = cm.WorkloadCost(
      profile.value(), Layout::FullStriping(static_cast<int>(db.Objects().size()), fleet));
  EXPECT_LE(result->cost, striped + 1e-6);
  // Reported cost matches an independent evaluation of the layout.
  EXPECT_NEAR(result->cost, cm.WorkloadCost(profile.value(), result->layout), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SearchPropertyTest, ::testing::Range(1, 16));

}  // namespace
}  // namespace dblayout
