// Degraded-mode cost evaluation (failure-resilience subsystem). For every
// single-drive-failure scenario, classify each object as survivable (still
// readable via its drives' RAID levels) or lost, and re-cost the workload
// with the Section 5 cost model on the degraded fleet. The cost model is
// unchanged — only the fleet it sees is; since ApplyFaultPlan only slows
// drives down, every degraded cost is >= the healthy cost.

#ifndef DBLAYOUT_RESILIENCE_DEGRADED_H_
#define DBLAYOUT_RESILIENCE_DEGRADED_H_

#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "resilience/fault.h"
#include "storage/layout.h"
#include "workload/analyzer.h"

namespace dblayout {

/// One single-drive-failure scenario evaluated against a layout.
struct FailureScenario {
  int drive = -1;
  std::string drive_name;
  /// True when every object with blocks on the failed drive is still
  /// readable (the drive is redundant, or no object touches it).
  bool survivable = true;
  /// Workload cost (ms) on the fleet with this drive failed. Always >= the
  /// healthy cost.
  double degraded_cost_ms = 0;
  /// Objects with blocks on the failed drive that its RAID level cannot
  /// reconstruct (drive availability kNone).
  std::vector<int> lost_objects;
  std::vector<std::string> lost_object_names;
};

/// Per-layout resilience summary: every single-drive-failure scenario, plus
/// the worst-case and mean degraded workload cost.
struct ResilienceReport {
  double healthy_cost_ms = 0;
  double worst_degraded_cost_ms = 0;
  double mean_degraded_cost_ms = 0;
  int worst_drive = -1;
  std::string worst_drive_name;
  /// One entry per drive of the fleet, in drive order.
  std::vector<FailureScenario> scenarios;

  /// Worst-case cost inflation vs healthy, in percent (0 = no inflation).
  double WorstInflationPct() const {
    return healthy_cost_ms > 0
               ? 100.0 * (worst_degraded_cost_ms - healthy_cost_ms) / healthy_cost_ms
               : 0.0;
  }
};

/// Evaluates `layout` under every single-drive-failure scenario of `fleet`.
Result<ResilienceReport> EvaluateResilience(const Database& db, const DiskFleet& fleet,
                                            const WorkloadProfile& profile,
                                            const Layout& layout,
                                            const ResilienceOptions& options = {});

/// Human-readable rendering of a resilience report (scenario table, worst
/// case, lost objects).
std::string RenderResilienceReport(const ResilienceReport& report);

/// The cost impact of one explicit fault plan on a layout.
struct FaultPlanImpact {
  double healthy_cost_ms = 0;
  double degraded_cost_ms = 0;  ///< cost on the plan's degraded fleet, >= healthy
  /// Objects with blocks on a hard-failed non-redundant drive.
  std::vector<int> lost_objects;
  std::vector<std::string> lost_object_names;
  /// The resolved plan (degraded fleet + per-drive transient rates), kept so
  /// callers can hand the degraded fleet to the execution simulator.
  ResolvedFaultPlan resolved;
};

/// Costs `layout` under `plan` (healthy vs degraded) and lists lost objects.
Result<FaultPlanImpact> EvaluateFaultPlanCost(const Database& db, const DiskFleet& fleet,
                                              const WorkloadProfile& profile,
                                              const Layout& layout,
                                              const FaultPlan& plan);

/// Objects of `layout` that lose blocks when `drive` hard-fails: those with a
/// positive fraction on a drive whose availability is kNone. Redundant drives
/// (parity/mirroring) reconstruct, so nothing is lost on them.
std::vector<int> LostObjects(const Layout& layout, const DiskFleet& fleet, int drive);

}  // namespace dblayout

#endif  // DBLAYOUT_RESILIENCE_DEGRADED_H_
