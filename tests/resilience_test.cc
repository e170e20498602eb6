#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "io/disk_sim.h"
#include "io/fault_model.h"
#include "io/queue_sim.h"
#include "layout/search.h"
#include "resilience/degraded.h"
#include "resilience/evacuate.h"
#include "resilience/fault.h"
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

/// Two co-accessed large tables and one independent table (the search-test
/// micro instance, reused so resilience results stay comparable).
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
  auto profile = AnalyzeWorkload(db, wl);
  EXPECT_TRUE(profile.ok()) << profile.status().ToString();
  return std::move(profile).value();
}

/// Four drives covering every RAID level: two non-redundant, one parity,
/// one mirrored.
DiskFleet MixedFleet() {
  DiskFleet fleet = DiskFleet::Uniform(4);
  fleet.disk(0).name = "plain0";
  fleet.disk(1).name = "plain1";
  fleet.disk(2).name = "raid5";
  fleet.disk(2).avail = Availability::kParity;
  fleet.disk(3).name = "raid1";
  fleet.disk(3).avail = Availability::kMirroring;
  return fleet;
}

ResolvedConstraints NoConstraints(const Database& db) {
  ResolvedConstraints rc;
  rc.required_avail.assign(db.Objects().size(), std::nullopt);
  return rc;
}

// --- Fault-plan parsing -----------------------------------------------------

TEST(FaultPlanTest, FromSpecParsesFailAndDegraded) {
  const std::string spec =
      "# comment line\n"
      "\n"
      "d1 fail\n"
      "d2 degraded transfer=0.5 seek=1.5 errors=0.01\n"
      "d3 degraded seek=2\n";
  auto plan = FaultPlan::FromSpec(spec, "plan.txt");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->faults.size(), 3u);
  EXPECT_EQ(plan->faults[0].drive_name, "d1");
  EXPECT_TRUE(plan->faults[0].failed);
  EXPECT_EQ(plan->faults[1].drive_name, "d2");
  EXPECT_FALSE(plan->faults[1].failed);
  EXPECT_DOUBLE_EQ(plan->faults[1].transfer_scale, 0.5);
  EXPECT_DOUBLE_EQ(plan->faults[1].seek_scale, 1.5);
  EXPECT_DOUBLE_EQ(plan->faults[1].transient_error_rate, 0.01);
  EXPECT_DOUBLE_EQ(plan->faults[2].seek_scale, 2.0);
  EXPECT_DOUBLE_EQ(plan->faults[2].transfer_scale, 1.0);
}

TEST(FaultPlanTest, FromSpecErrorsCarryFileAndLine) {
  auto bad = FaultPlan::FromSpec("d1 fail\nd2 wobbly\n", "plan.txt");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("plan.txt:2:"), std::string::npos)
      << bad.status().ToString();
}

TEST(FaultPlanTest, FromSpecRejectsOutOfRangeScales) {
  // transfer must be in (0, 1]; seek >= 1; errors in [0, 1).
  EXPECT_FALSE(FaultPlan::FromSpec("d1 degraded transfer=1.5\n").ok());
  EXPECT_FALSE(FaultPlan::FromSpec("d1 degraded transfer=0\n").ok());
  EXPECT_FALSE(FaultPlan::FromSpec("d1 degraded seek=0.5\n").ok());
  EXPECT_FALSE(FaultPlan::FromSpec("d1 degraded errors=1\n").ok());
  // NaN passes any range check written as `v < lo || v > hi`.
  EXPECT_FALSE(FaultPlan::FromSpec("d1 degraded transfer=nan\n").ok());
  EXPECT_FALSE(FaultPlan::FromSpec("d1 degraded seek=nan\n").ok());
  EXPECT_FALSE(FaultPlan::FromSpec("d1 degraded errors=nan\n").ok());
  EXPECT_TRUE(FaultPlan::FromSpec("d1 degraded transfer=1 seek=1 errors=0\n").ok());
}

// --- ApplyFaultPlan ---------------------------------------------------------

TEST(ApplyFaultPlanTest, DegradedScalingSlowsTheDrive) {
  DiskFleet fleet = MixedFleet();
  FaultPlan plan;
  plan.faults.push_back({"plain0", false, 0.5, 2.0, 0.02});
  auto resolved = ApplyFaultPlan(fleet, plan);
  ASSERT_TRUE(resolved.ok()) << resolved.status().ToString();
  const DiskDrive& healthy = fleet.disk(0);
  const DiskDrive& degraded = resolved->degraded_fleet.disk(0);
  EXPECT_DOUBLE_EQ(degraded.read_mb_s, healthy.read_mb_s * 0.5);
  EXPECT_DOUBLE_EQ(degraded.write_mb_s, healthy.write_mb_s * 0.5);
  EXPECT_DOUBLE_EQ(degraded.seek_ms, healthy.seek_ms * 2.0);
  EXPECT_FALSE(resolved->AnyFailed());
  EXPECT_DOUBLE_EQ(resolved->transient_rate[0], 0.02);
  EXPECT_DOUBLE_EQ(resolved->max_transient_rate, 0.02);
  // Untouched drives keep their healthy characteristics.
  EXPECT_DOUBLE_EQ(resolved->degraded_fleet.disk(1).read_mb_s, fleet.disk(1).read_mb_s);
}

TEST(ApplyFaultPlanTest, HardFailureTransformDependsOnRaidLevel) {
  DiskFleet fleet = MixedFleet();
  for (const char* name : {"plain0", "raid5", "raid1"}) {
    FaultPlan plan;
    plan.faults.push_back(DriveFault{name, true});
    auto resolved = ApplyFaultPlan(fleet, plan);
    ASSERT_TRUE(resolved.ok()) << name << ": " << resolved.status().ToString();
    EXPECT_TRUE(resolved->AnyFailed());
  }
  // Mirroring: reads at half rate off the surviving copy.
  FaultPlan mirror_plan;
  mirror_plan.faults.push_back(DriveFault{"raid1", true});
  auto mirror = ApplyFaultPlan(fleet, mirror_plan).value();
  EXPECT_DOUBLE_EQ(mirror.degraded_fleet.disk(3).read_mb_s,
                   fleet.disk(3).read_mb_s / kMirrorDegradedSlowdown);
  // Parity: rebuild amplification hits reads and writes.
  FaultPlan parity_plan;
  parity_plan.faults.push_back(DriveFault{"raid5", true});
  auto parity = ApplyFaultPlan(fleet, parity_plan).value();
  EXPECT_DOUBLE_EQ(parity.degraded_fleet.disk(2).read_mb_s,
                   fleet.disk(2).read_mb_s / kParityRebuildAmplification);
  EXPECT_DOUBLE_EQ(parity.degraded_fleet.disk(2).write_mb_s,
                   fleet.disk(2).write_mb_s / kParityRebuildAmplification);
  // Non-redundant: data is lost; accesses stand in for restore-from-backup.
  FaultPlan plain_plan;
  plain_plan.faults.push_back(DriveFault{"plain0", true});
  auto plain = ApplyFaultPlan(fleet, plain_plan).value();
  EXPECT_DOUBLE_EQ(plain.degraded_fleet.disk(0).read_mb_s,
                   fleet.disk(0).read_mb_s / kLostRestorePenalty);
  EXPECT_DOUBLE_EQ(plain.degraded_fleet.disk(0).seek_ms,
                   fleet.disk(0).seek_ms * kLostRestorePenalty);
}

TEST(ApplyFaultPlanTest, RejectsOutOfRangeAndNonFiniteScales) {
  const DiskFleet fleet = MixedFleet();
  const double nan = std::nan("");
  const double inf = HUGE_VAL;
  for (const DriveFault& fault :
       {DriveFault{"plain0", false, 1.5}, DriveFault{"plain0", false, nan},
        DriveFault{"plain0", false, 1.0, 0.5}, DriveFault{"plain0", false, 1.0, nan},
        DriveFault{"plain0", false, 1.0, inf}, DriveFault{"plain0", false, 1.0, 1.0, 1.0},
        DriveFault{"plain0", false, 1.0, 1.0, nan}}) {
    FaultPlan plan;
    plan.faults.push_back(fault);
    EXPECT_EQ(ApplyFaultPlan(fleet, plan).status().code(),
              StatusCode::kInvalidArgument)
        << fault.transfer_scale << " " << fault.seek_scale << " "
        << fault.transient_error_rate;
  }
}

TEST(ApplyFaultPlanTest, RejectsUnknownAndDuplicateDrives) {
  DiskFleet fleet = MixedFleet();
  FaultPlan unknown;
  unknown.faults.push_back(DriveFault{"ghost", true});
  EXPECT_EQ(ApplyFaultPlan(fleet, unknown).status().code(), StatusCode::kNotFound);
  FaultPlan dup;
  dup.faults.push_back(DriveFault{"plain0", true});
  dup.faults.push_back(DriveFault{"PLAIN0", false, 0.5});
  EXPECT_EQ(ApplyFaultPlan(fleet, dup).status().code(), StatusCode::kInvalidArgument);
}

TEST(ApplyFaultPlanTest, DriveNamesAreCaseInsensitive) {
  DiskFleet fleet = MixedFleet();
  FaultPlan plan;
  plan.faults.push_back(DriveFault{"Plain1", true});
  auto resolved = ApplyFaultPlan(fleet, plan);
  ASSERT_TRUE(resolved.ok()) << resolved.status().ToString();
  EXPECT_TRUE(resolved->failed[1]);
}

// --- Degraded-mode cost evaluation ------------------------------------------

TEST(ResilienceReportTest, DegradedCostIsNeverBelowHealthy) {
  Database db = MicroDb();
  DiskFleet fleet = MixedFleet();
  WorkloadProfile profile = MicroProfile(db);
  const Layout layout =
      Layout::FullStriping(static_cast<int>(db.Objects().size()), fleet);
  auto report = EvaluateResilience(db, fleet, profile, layout);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->healthy_cost_ms, 0);
  ASSERT_EQ(report->scenarios.size(), 4u);
  double worst = 0;
  double sum = 0;
  for (const FailureScenario& s : report->scenarios) {
    EXPECT_GE(s.degraded_cost_ms, report->healthy_cost_ms - 1e-9)
        << "scenario " << s.drive_name;
    worst = std::max(worst, s.degraded_cost_ms);
    sum += s.degraded_cost_ms;
  }
  EXPECT_DOUBLE_EQ(report->worst_degraded_cost_ms, worst);
  EXPECT_NEAR(report->mean_degraded_cost_ms, sum / 4.0, 1e-9);
  EXPECT_EQ(report->worst_drive_name,
            fleet.disk(report->worst_drive).name);
  EXPECT_GE(report->WorstInflationPct(), 0.0);
}

TEST(ResilienceReportTest, SurvivabilityFollowsRaidLevel) {
  Database db = MicroDb();
  DiskFleet fleet = MixedFleet();
  WorkloadProfile profile = MicroProfile(db);
  // Everything striped over every drive: each drive carries each object.
  const Layout layout =
      Layout::FullStriping(static_cast<int>(db.Objects().size()), fleet);
  auto report = EvaluateResilience(db, fleet, profile, layout).value();
  for (const FailureScenario& s : report.scenarios) {
    const Availability avail = fleet.disk(s.drive).avail;
    if (avail == Availability::kNone) {
      EXPECT_FALSE(s.survivable) << s.drive_name;
      EXPECT_EQ(s.lost_objects.size(), db.Objects().size()) << s.drive_name;
    } else {
      EXPECT_TRUE(s.survivable) << s.drive_name;
      EXPECT_TRUE(s.lost_objects.empty()) << s.drive_name;
    }
  }
}

TEST(ResilienceReportTest, LostObjectsOnlyOnNonRedundantDrives) {
  Database db = MicroDb();
  DiskFleet fleet = MixedFleet();
  Layout layout(static_cast<int>(db.Objects().size()), fleet.num_disks());
  // big_a on the plain drive, big_b on parity, solo on mirroring.
  layout.AssignEqual(0, {0});
  layout.AssignEqual(1, {2});
  layout.AssignEqual(2, {3});
  EXPECT_EQ(LostObjects(layout, fleet, 0), std::vector<int>{0});
  EXPECT_TRUE(LostObjects(layout, fleet, 2).empty());
  EXPECT_TRUE(LostObjects(layout, fleet, 3).empty());
  EXPECT_TRUE(LostObjects(layout, fleet, 1).empty());  // drive holds nothing
}

TEST(ResilienceReportTest, FaultPlanCostMatchesMonotonicityAndListsLost) {
  Database db = MicroDb();
  DiskFleet fleet = MixedFleet();
  WorkloadProfile profile = MicroProfile(db);
  const Layout layout =
      Layout::FullStriping(static_cast<int>(db.Objects().size()), fleet);
  FaultPlan plan;
  plan.faults.push_back(DriveFault{"plain0", true});
  plan.faults.push_back(DriveFault{"raid5", false, 0.5, 1.0, 0.05});
  auto impact = EvaluateFaultPlanCost(db, fleet, profile, layout, plan);
  ASSERT_TRUE(impact.ok()) << impact.status().ToString();
  EXPECT_GE(impact->degraded_cost_ms, impact->healthy_cost_ms);
  // plain0 is non-redundant and every object stripes across it: all lost.
  EXPECT_EQ(impact->lost_objects.size(), db.Objects().size());
  EXPECT_DOUBLE_EQ(impact->resolved.max_transient_rate, 0.05);
}

TEST(ResilienceReportTest, RenderMentionsWorstDrive) {
  Database db = MicroDb();
  DiskFleet fleet = MixedFleet();
  WorkloadProfile profile = MicroProfile(db);
  const Layout layout =
      Layout::FullStriping(static_cast<int>(db.Objects().size()), fleet);
  auto report = EvaluateResilience(db, fleet, profile, layout).value();
  const std::string text = RenderResilienceReport(report);
  EXPECT_NE(text.find(report.worst_drive_name), std::string::npos);
}

// --- Evacuation planning ----------------------------------------------------

TEST(EvacuationTest, PlanEmptiesTheFailedDriveAndValidates) {
  Database db = MicroDb();
  DiskFleet fleet = MixedFleet();
  WorkloadProfile profile = MicroProfile(db);
  const Layout current =
      Layout::FullStriping(static_cast<int>(db.Objects().size()), fleet);
  auto plan = PlanEvacuation(db, fleet, profile, current, "plain0");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->failed_drive, 0);
  EXPECT_TRUE(plan->target.Validate(db.ObjectSizes(), fleet).ok());
  for (size_t i = 0; i < db.Objects().size(); ++i) {
    EXPECT_DOUBLE_EQ(plan->target.x(static_cast<int>(i), plan->failed_drive), 0.0)
        << db.Objects()[i].name;
  }
  EXPECT_GT(plan->moved_blocks, 0);
  ASSERT_FALSE(plan->moves.empty());
  // The move list never routes an object back onto the failed drive, and is
  // ordered most-urgent (blocks off the failed drive) first.
  int64_t prev_off = plan->moves.front().blocks_off_failed;
  for (const EvacuationMove& m : plan->moves) {
    EXPECT_EQ(std::count(m.to_disks.begin(), m.to_disks.end(), plan->failed_drive), 0)
        << m.object_name;
    EXPECT_LE(m.blocks_off_failed, prev_off);
    prev_off = m.blocks_off_failed;
  }
  const std::string text = RenderEvacuationPlan(plan.value(), fleet);
  EXPECT_NE(text.find("plain0"), std::string::npos);
}

TEST(EvacuationTest, RespectsMovementBudget) {
  Database db = MicroDb();
  DiskFleet fleet = MixedFleet();
  WorkloadProfile profile = MicroProfile(db);
  const Layout current =
      Layout::FullStriping(static_cast<int>(db.Objects().size()), fleet);
  EvacuationOptions options;
  options.max_movement_fraction = 0.5;
  auto plan = PlanEvacuation(db, fleet, profile, current, "plain1", options);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_GE(plan->movement_budget_blocks, 0);
  EXPECT_LE(plan->moved_blocks, plan->movement_budget_blocks * (1 + 1e-9));
}

TEST(EvacuationTest, BudgetBelowForcedEvictionFails) {
  Database db = MicroDb();
  DiskFleet fleet = MixedFleet();
  WorkloadProfile profile = MicroProfile(db);
  const Layout current =
      Layout::FullStriping(static_cast<int>(db.Objects().size()), fleet);
  EvacuationOptions options;
  // Full striping holds ~1/4 of every object on the failed drive; a 1%
  // budget cannot cover the forced eviction.
  options.max_movement_fraction = 0.01;
  auto plan = PlanEvacuation(db, fleet, profile, current, "plain0", options);
  EXPECT_EQ(plan.status().code(), StatusCode::kFailedPrecondition)
      << plan.status().ToString();
}

TEST(EvacuationTest, UnknownDriveIsNotFound) {
  Database db = MicroDb();
  DiskFleet fleet = MixedFleet();
  WorkloadProfile profile = MicroProfile(db);
  const Layout current =
      Layout::FullStriping(static_cast<int>(db.Objects().size()), fleet);
  EXPECT_EQ(PlanEvacuation(db, fleet, profile, current, "ghost").status().code(),
            StatusCode::kNotFound);
}

// --- Search wall-clock budget -----------------------------------------------

TEST(TimeBudgetTest, ZeroBudgetReturnsValidLayoutFlaggedTimedOut) {
  Database db = MicroDb();
  DiskFleet fleet = DiskFleet::Uniform(4);
  WorkloadProfile profile = MicroProfile(db);
  SearchOptions options;
  options.time_budget_ms = 0.0;  // expires immediately, deterministically
  TsGreedySearch search(db, fleet, options);
  auto result = search.Run(profile, NoConstraints(db));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->timed_out);
  EXPECT_TRUE(result->layout.Validate(db.ObjectSizes(), fleet).ok());
  EXPECT_GT(result->cost, 0);
}

TEST(TimeBudgetTest, NegativeBudgetNeverTimesOut) {
  Database db = MicroDb();
  DiskFleet fleet = DiskFleet::Uniform(4);
  WorkloadProfile profile = MicroProfile(db);
  TsGreedySearch search(db, fleet);  // default budget: unlimited
  auto result = search.Run(profile, NoConstraints(db));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->timed_out);
}

TEST(TimeBudgetTest, RunFromRefinesWithoutRestarting) {
  Database db = MicroDb();
  DiskFleet fleet = DiskFleet::Uniform(4);
  WorkloadProfile profile = MicroProfile(db);
  const Layout start =
      Layout::FullStriping(static_cast<int>(db.Objects().size()), fleet);
  TsGreedySearch search(db, fleet);
  auto result = search.RunFrom(start, profile, NoConstraints(db));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const CostModel cm(fleet);
  EXPECT_LE(result->cost, cm.WorkloadCost(profile, start) + 1e-6);
  EXPECT_TRUE(result->layout.Validate(db.ObjectSizes(), fleet).ok());
}

TEST(TimeBudgetTest, RunFromRejectsMismatchedDimensions) {
  Database db = MicroDb();
  DiskFleet fleet = DiskFleet::Uniform(4);
  WorkloadProfile profile = MicroProfile(db);
  const Layout wrong = Layout::FullStriping(2, fleet);  // db has 3 objects
  TsGreedySearch search(db, fleet);
  EXPECT_EQ(search.RunFrom(wrong, profile, NoConstraints(db)).status().code(),
            StatusCode::kInvalidArgument);
}

// --- Retry model ------------------------------------------------------------

TEST(RetryPolicyTest, ExpectedAttemptsIsTruncatedGeometric) {
  RetryPolicy none;
  EXPECT_DOUBLE_EQ(none.ExpectedAttempts(), 1.0);
  EXPECT_DOUBLE_EQ(none.ExpectedBackoffMs(), 0.0);
  RetryPolicy p;
  p.transient_error_rate = 0.5;
  p.max_retries = 2;
  EXPECT_DOUBLE_EQ(p.ExpectedAttempts(), 1.0 + 0.5 + 0.25);
  // Backoff doubles from the base and is capped.
  p.backoff_base_ms = 0.5;
  p.backoff_cap_ms = 0.75;
  EXPECT_DOUBLE_EQ(p.BackoffDelayMs(1), 0.5);
  EXPECT_DOUBLE_EQ(p.BackoffDelayMs(2), 0.75);  // 1.0 capped
  EXPECT_DOUBLE_EQ(p.ExpectedBackoffMs(), 0.5 * 0.5 + 0.25 * 0.75);
}

TEST(RetryPolicyTest, AggregateSimulatorInflatesUnderTransientErrors) {
  DiskDrive d = DiskFleet::Uniform(1).disk(0);
  const std::vector<DiskStream> streams = {{2000, false, false, false},
                                           {500, true, false, false}};
  SimOptions healthy;
  const double base = SimulateDiskStreams(d, streams, healthy);
  SimOptions faulty;
  faulty.retry.transient_error_rate = 0.1;
  const double degraded = SimulateDiskStreams(d, streams, faulty);
  EXPECT_GT(degraded, base);
  // The inflation matches the analytic expectation within rounding.
  EXPECT_NEAR(degraded / base, faulty.retry.ExpectedAttempts(), 0.25);
}

TEST(RetryPolicyTest, QueueSimulatorInflatesUnderTransientErrors) {
  DiskDrive d = DiskFleet::Uniform(1).disk(0);
  QueueStream s;
  s.extent = ObjectExtent{0, 0, 512};
  s.blocks = 512;
  QueueSimOptions healthy;
  const double base = SimulateQueueDisk(d, {s}, healthy);
  QueueSimOptions faulty;
  faulty.retry.transient_error_rate = 0.2;
  const double degraded = SimulateQueueDisk(d, {s}, faulty);
  EXPECT_GT(degraded, base);
  // Deterministic: the failure draws come from a fixed seed.
  EXPECT_DOUBLE_EQ(degraded, SimulateQueueDisk(d, {s}, faulty));
}

}  // namespace
}  // namespace dblayout
