#include "resilience/rollback.h"

#include <algorithm>

#include "layout/cost_model.h"
#include "layout/evaluator.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dblayout {

Result<RollbackPlan> PlanRollback(const Database& db, const DiskFleet& fleet,
                                  const WorkloadProfile& profile,
                                  const Layout& current, const Layout& last_good) {
  DBLAYOUT_TRACE_SPAN("resilience/rollback");
  const std::vector<int64_t> sizes = db.ObjectSizes();
  const int num_objects = static_cast<int>(db.Objects().size());
  if (current.num_objects() != num_objects ||
      current.num_disks() != fleet.num_disks()) {
    return Status::InvalidArgument(
        "regressed layout does not match the database/fleet dimensions");
  }
  if (last_good.num_objects() != num_objects ||
      last_good.num_disks() != fleet.num_disks()) {
    return Status::InvalidArgument(
        "last-good layout does not match the database/fleet dimensions");
  }
  DBLAYOUT_RETURN_NOT_OK(current.Validate(sizes, fleet));
  DBLAYOUT_RETURN_NOT_OK(last_good.Validate(sizes, fleet));

  RollbackPlan plan;
  plan.target = last_good;
  plan.moved_blocks = Layout::DataMovementBlocks(current, last_good, sizes);

  const CostModel cost_model(fleet);
  LayoutEvaluator evaluator(profile, cost_model);
  plan.current_cost_ms = evaluator.Bind(current);
  plan.target_cost_ms = evaluator.Bind(last_good);

  plan.moves = ObjectMoves(db, current, last_good);
  std::sort(plan.moves.begin(), plan.moves.end(),
            [](const ObjectMove& a, const ObjectMove& b) {
              if (a.blocks_moved != b.blocks_moved) {
                return a.blocks_moved > b.blocks_moved;
              }
              return a.object < b.object;
            });

  plan.regressions.reserve(profile.statements.size());
  for (const StatementProfile& s : profile.statements) {
    StatementRegression r;
    r.sql = s.sql;
    r.weight = s.weight;
    r.cost_current_ms = s.weight * cost_model.StatementCost(s, current);
    r.cost_target_ms = s.weight * cost_model.StatementCost(s, last_good);
    plan.regressions.push_back(std::move(r));
  }
  // Worst offender first; ties broken by profile order via stable_sort so
  // the attribution list is deterministic for identical-cost statements.
  std::stable_sort(plan.regressions.begin(), plan.regressions.end(),
                   [](const StatementRegression& a, const StatementRegression& b) {
                     return a.DeltaMs() > b.DeltaMs();
                   });

  DBLAYOUT_OBS_COUNT("resilience/rollbacks_planned", 1);
  DBLAYOUT_OBS_OBSERVE("resilience/rollback_moved_blocks", plan.moved_blocks);
  return plan;
}

}  // namespace dblayout
