#include "resilience/degraded.h"

#include <algorithm>

#include "common/strutil.h"
#include "common/thread_pool.h"
#include "layout/cost_model.h"
#include "layout/evaluator.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dblayout {

std::vector<int> LostObjects(const Layout& layout, const DiskFleet& fleet, int drive) {
  std::vector<int> lost;
  if (drive < 0 || drive >= fleet.num_disks()) return lost;
  if (fleet.disk(drive).avail != Availability::kNone) return lost;
  for (int i = 0; i < layout.num_objects(); ++i) {
    if (layout.x(i, drive) > 0) lost.push_back(i);
  }
  return lost;
}

namespace {

std::vector<std::string> ObjectNames(const Database& db, const std::vector<int>& ids) {
  std::vector<std::string> names;
  names.reserve(ids.size());
  for (int id : ids) {
    names.push_back(db.Objects()[static_cast<size_t>(id)].name);
  }
  return names;
}

Status CheckInputs(const Database& db, const DiskFleet& fleet,
                   const WorkloadProfile& profile, const Layout& layout) {
  if (fleet.num_disks() == 0) {
    return Status::InvalidArgument("fleet is empty");
  }
  if (profile.statements.empty()) {
    return Status::InvalidArgument("workload profile is empty");
  }
  if (layout.num_objects() != static_cast<int>(db.Objects().size()) ||
      layout.num_disks() != fleet.num_disks()) {
    return Status::InvalidArgument(
        "layout does not match the database/fleet dimensions");
  }
  return Status::OK();
}

}  // namespace

Result<ResilienceReport> EvaluateResilience(const Database& db, const DiskFleet& fleet,
                                            const WorkloadProfile& profile,
                                            const Layout& layout,
                                            const ResilienceOptions& options) {
  DBLAYOUT_TRACE_SPAN("resilience/evaluate");
  DBLAYOUT_RETURN_NOT_OK(CheckInputs(db, fleet, profile, layout));

  ResilienceReport report;
  {
    const CostModel healthy(fleet);
    report.healthy_cost_ms = LayoutEvaluator(profile, healthy).Bind(layout);
  }

  // Resolve every single-drive failure sequentially (ApplyFaultPlan can
  // fail), then cost the independent scenarios on the shared pool (inline
  // at one thread). Each scenario's cost lands in a fixed slot and the
  // aggregation below is sequential, so the report is bit-identical for any
  // thread count.
  const int m = fleet.num_disks();
  std::vector<ResolvedFaultPlan> resolved(static_cast<size_t>(m));
  for (int j = 0; j < m; ++j) {
    FaultPlan plan;
    DriveFault fault;
    fault.drive_name = fleet.disk(j).name;
    fault.failed = true;
    plan.faults.push_back(std::move(fault));
    DBLAYOUT_ASSIGN_OR_RETURN(resolved[static_cast<size_t>(j)],
                              ApplyFaultPlan(fleet, plan));
  }

  std::vector<double> degraded(static_cast<size_t>(m), 0.0);
  const auto score = [&](int64_t j, int /*worker*/) {
    // One cost model + evaluator per scenario: each scenario has its own
    // degraded fleet, and Bind is the same full §5 recomputation
    // CostModel::WorkloadCost performs.
    const CostModel cm(resolved[static_cast<size_t>(j)].degraded_fleet);
    degraded[static_cast<size_t>(j)] = LayoutEvaluator(profile, cm).Bind(layout);
  };
  ThreadPool::Shared().ParallelFor(m, options.num_threads, score);

  double total = 0;
  for (int j = 0; j < m; ++j) {
    FailureScenario scenario;
    scenario.drive = j;
    scenario.drive_name = fleet.disk(j).name;
    scenario.lost_objects = LostObjects(layout, fleet, j);
    scenario.lost_object_names = ObjectNames(db, scenario.lost_objects);
    scenario.survivable = scenario.lost_objects.empty();
    scenario.degraded_cost_ms = degraded[static_cast<size_t>(j)];
    DBLAYOUT_OBS_OBSERVE("resilience/degraded_cost_ms", scenario.degraded_cost_ms);

    total += scenario.degraded_cost_ms;
    if (scenario.degraded_cost_ms > report.worst_degraded_cost_ms) {
      report.worst_degraded_cost_ms = scenario.degraded_cost_ms;
      report.worst_drive = j;
      report.worst_drive_name = scenario.drive_name;
    }
    report.scenarios.push_back(std::move(scenario));
  }
  report.mean_degraded_cost_ms = total / fleet.num_disks();
  DBLAYOUT_OBS_COUNT("resilience/scenarios_evaluated", fleet.num_disks());
  return report;
}

std::string RenderResilienceReport(const ResilienceReport& report) {
  std::string out;
  out += StrFormat(
      "Resilience report (healthy workload cost %.0f ms)\n"
      "  worst single-drive failure: %s (degraded cost %.0f ms, +%.1f%%)\n"
      "  mean degraded cost over %zu scenarios: %.0f ms\n\n",
      report.healthy_cost_ms,
      report.worst_drive >= 0 ? report.worst_drive_name.c_str() : "none",
      report.worst_degraded_cost_ms, report.WorstInflationPct(),
      report.scenarios.size(), report.mean_degraded_cost_ms);
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"failed drive", "degraded(ms)", "inflation", "survivable", "lost objects"});
  for (const FailureScenario& s : report.scenarios) {
    const double inflation =
        report.healthy_cost_ms > 0
            ? 100.0 * (s.degraded_cost_ms - report.healthy_cost_ms) /
                  report.healthy_cost_ms
            : 0.0;
    rows.push_back({s.drive_name, StrFormat("%.0f", s.degraded_cost_ms),
                    StrFormat("%+.1f%%", inflation), s.survivable ? "yes" : "NO",
                    s.lost_object_names.empty() ? "-"
                                                : Join(s.lost_object_names, ", ")});
  }
  out += RenderTable(rows);
  return out;
}

Result<FaultPlanImpact> EvaluateFaultPlanCost(const Database& db, const DiskFleet& fleet,
                                              const WorkloadProfile& profile,
                                              const Layout& layout,
                                              const FaultPlan& plan) {
  DBLAYOUT_TRACE_SPAN("resilience/fault_plan_cost");
  DBLAYOUT_RETURN_NOT_OK(CheckInputs(db, fleet, profile, layout));

  FaultPlanImpact impact;
  DBLAYOUT_ASSIGN_OR_RETURN(impact.resolved, ApplyFaultPlan(fleet, plan));
  {
    const CostModel healthy(fleet);
    impact.healthy_cost_ms = LayoutEvaluator(profile, healthy).Bind(layout);
  }
  {
    const CostModel degraded(impact.resolved.degraded_fleet);
    impact.degraded_cost_ms = LayoutEvaluator(profile, degraded).Bind(layout);
  }
  for (int j = 0; j < fleet.num_disks(); ++j) {
    if (!impact.resolved.failed[static_cast<size_t>(j)]) continue;
    for (int id : LostObjects(layout, fleet, j)) {
      impact.lost_objects.push_back(id);
    }
  }
  std::sort(impact.lost_objects.begin(), impact.lost_objects.end());
  impact.lost_objects.erase(
      std::unique(impact.lost_objects.begin(), impact.lost_objects.end()),
      impact.lost_objects.end());
  impact.lost_object_names = ObjectNames(db, impact.lost_objects);
  DBLAYOUT_OBS_OBSERVE("resilience/degraded_cost_ms", impact.degraded_cost_ms);
  return impact;
}

}  // namespace dblayout
