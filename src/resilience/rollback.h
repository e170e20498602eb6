// Rollback planning (failure-resilience subsystem, service-mode guardrail).
// When a promoted layout's realized cost regresses past tolerance, the
// continuous advisor rolls the session back to its last-good layout. This
// planner turns that decision into an ordered move list — the same shape as
// an evacuation plan (src/resilience/evacuate.h) — plus the per-statement
// cost deltas that attribute the regression, so the rollback journal event
// names *which* statements got slower under the rolled-back layout.
//
// Unlike advise-time planning, rollback ignores the movement budget: the
// target is a layout that already ran safely, and restoring it is the safety
// action itself. The lint rule `service-config-sane` separately flags
// configurations whose budget could never have afforded the promotion in the
// first place.

#ifndef DBLAYOUT_RESILIENCE_ROLLBACK_H_
#define DBLAYOUT_RESILIENCE_ROLLBACK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "resilience/evacuate.h"
#include "storage/layout.h"
#include "workload/analyzer.h"

namespace dblayout {

/// One statement's share of the regression: how much costlier it is under
/// the regressed layout than under the last-good target. Positive delta =
/// this statement got slower; the rollback journal event carries the top
/// entries as benefit attribution.
struct StatementRegression {
  std::string sql;
  double weight = 1.0;
  double cost_current_ms = 0;  ///< weighted cost under the regressed layout
  double cost_target_ms = 0;   ///< weighted cost under the last-good layout
  double DeltaMs() const { return cost_current_ms - cost_target_ms; }
};

struct RollbackPlan {
  /// The layout being restored (== the last-good argument).
  Layout target;
  double current_cost_ms = 0;  ///< workload cost of the regressed layout
  double target_cost_ms = 0;   ///< workload cost after rollback
  double moved_blocks = 0;     ///< total blocks moved current -> target
  /// Ordered move list back toward the last-good layout, most blocks moved
  /// first (big objects restore first so the bulk of the regression is
  /// undone earliest). from_disks are the regressed layout's drives.
  std::vector<ObjectMove> moves;
  /// Per-statement regression attribution, worst offender first. Every
  /// profile statement appears (deltas can be negative — some statements
  /// were faster under the regressed layout); callers typically journal the
  /// top-k positive entries.
  std::vector<StatementRegression> regressions;

  /// Regression being undone, as a % of the last-good cost (positive when
  /// the current layout is costlier than the target).
  double RegressionPct() const {
    return target_cost_ms > 0
               ? 100.0 * (current_cost_ms - target_cost_ms) / target_cost_ms
               : 0.0;
  }
};

/// Plans the rollback of `current` to `last_good` under `profile`. Both
/// layouts must be valid for (db, fleet); fails with InvalidArgument on a
/// dimension mismatch and propagates validation errors. An empty move list
/// (layouts already approximately equal) is not an error — the caller's
/// guardrail decides whether to bother.
Result<RollbackPlan> PlanRollback(const Database& db, const DiskFleet& fleet,
                                  const WorkloadProfile& profile,
                                  const Layout& current, const Layout& last_good);

}  // namespace dblayout

#endif  // DBLAYOUT_RESILIENCE_ROLLBACK_H_
