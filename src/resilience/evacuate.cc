#include "resilience/evacuate.h"

#include <algorithm>
#include <cmath>

#include "common/strutil.h"
#include "layout/constraints.h"
#include "layout/cost_model.h"
#include "layout/evaluator.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dblayout {

namespace {

/// Force-evicts every object off `failed`: objects with surviving drives are
/// rescaled onto them; objects entirely on the failed drive go to the
/// smallest fastest-first prefix of eligible drives with room.
Status ForceEvict(const Database& db, const DiskFleet& fleet,
                  const ResolvedConstraints& constraints, int failed,
                  const std::vector<int64_t>& sizes, Layout* start) {
  std::vector<double> used = start->FractionalUsed(sizes);
  std::vector<int> eligible;
  for (int j : fleet.ByDecreasingTransferRate()) {
    if (j != failed) eligible.push_back(j);
  }

  for (int i = 0; i < start->num_objects(); ++i) {
    const double on_failed = start->x(i, failed);
    if (on_failed <= 0) continue;
    const int64_t size = sizes[static_cast<size_t>(i)];
    // Retire the old row from the capacity ledger before rewriting it.
    for (int j = 0; j < start->num_disks(); ++j) {
      used[static_cast<size_t>(j)] -= start->FractionalBlocks(i, j, size);
    }

    if (on_failed < 1.0 - kLayoutFractionTolerance) {
      // Surviving drives exist: rescale their fractions to absorb the failed
      // drive's share, preserving the relative proportions.
      const double denom = 1.0 - on_failed;
      for (int j = 0; j < start->num_disks(); ++j) {
        start->set_x(i, j, j == failed ? 0.0 : start->x(i, j) / denom);
      }
    } else {
      // Entirely on the failed drive: place on the smallest fastest-first
      // prefix of eligible drives whose capacity can absorb it.
      std::vector<int> allowed;
      for (int j : eligible) {
        if (constraints.DiskAllowed(i, j, fleet)) allowed.push_back(j);
      }
      if (allowed.empty()) {
        return Status::FailedPrecondition(StrFormat(
            "no eligible drive can host object '%s' off the failed drive",
            db.Objects()[static_cast<size_t>(i)].name.c_str()));
      }
      // Each prefix is tested on the row AssignProportional writes. The
      // prefix is fastest first, so when its first drive has no read rate
      // no prefix has a rate to apportion by.
      const bool has_rate = fleet.disk(allowed.front()).read_mb_s > 0;
      bool placed = false;
      for (size_t width = 1; has_rate && width <= allowed.size() && !placed; ++width) {
        const std::vector<int> prefix(allowed.begin(),
                                      allowed.begin() + static_cast<long>(width));
        start->AssignProportional(i, prefix, fleet);
        placed = true;
        for (int j : prefix) {
          if (used[static_cast<size_t>(j)] + start->FractionalBlocks(i, j, size) >
              kCapacityMargin * static_cast<double>(fleet.disk(j).capacity_blocks)) {
            placed = false;
            break;
          }
        }
      }
      if (!placed) {
        return Status::CapacityExceeded(StrFormat(
            "no eligible drive set has capacity for object '%s' (%lld blocks) "
            "off the failed drive",
            db.Objects()[static_cast<size_t>(i)].name.c_str(),
            static_cast<long long>(size)));
      }
    }
    for (int j = 0; j < start->num_disks(); ++j) {
      used[static_cast<size_t>(j)] += start->FractionalBlocks(i, j, size);
    }
  }
  return Status::OK();
}

}  // namespace

std::vector<ObjectMove> ObjectMoves(const Database& db, const Layout& from,
                                    const Layout& to) {
  const std::vector<int64_t> sizes = db.ObjectSizes();
  std::vector<ObjectMove> moves;
  for (int i = 0; i < to.num_objects(); ++i) {
    const int64_t size = sizes[static_cast<size_t>(i)];
    double moved = 0;
    for (int j = 0; j < to.num_disks(); ++j) {
      moved += std::max(0.0, to.x(i, j) - from.x(i, j)) * static_cast<double>(size);
    }
    if (moved <= kLayoutFractionTolerance) continue;
    ObjectMove& move = moves.emplace_back();
    move.object = i;
    move.object_name = db.Objects()[static_cast<size_t>(i)].name;
    move.from_disks = from.DisksOf(i);
    move.to_disks = to.DisksOf(i);
    move.blocks_moved = std::llround(moved);
  }
  return moves;
}

std::string DriveNames(const std::vector<int>& disks, const DiskFleet& fleet) {
  std::vector<std::string> names;
  for (int j : disks) names.push_back(fleet.disk(j).name);
  return Join(names, ",");
}

Result<EvacuationPlan> PlanEvacuation(const Database& db, const DiskFleet& fleet,
                                      const WorkloadProfile& profile,
                                      const Layout& current,
                                      const std::string& drive_name,
                                      const EvacuationOptions& options) {
  DBLAYOUT_TRACE_SPAN("resilience/evacuate");
  int failed = -1;
  const std::string wanted = ToLower(drive_name);
  for (int j = 0; j < fleet.num_disks(); ++j) {
    if (ToLower(fleet.disk(j).name) == wanted) {
      failed = j;
      break;
    }
  }
  if (failed < 0) {
    return Status::NotFound(
        StrFormat("evacuation target drive '%s' is not in the fleet",
                  drive_name.c_str()));
  }
  if (fleet.num_disks() < 2) {
    return Status::FailedPrecondition(
        "cannot evacuate the only drive of the fleet");
  }
  const std::vector<int64_t> sizes = db.ObjectSizes();
  if (current.num_objects() != static_cast<int>(db.Objects().size()) ||
      current.num_disks() != fleet.num_disks()) {
    return Status::InvalidArgument(
        "current layout does not match the database/fleet dimensions");
  }
  DBLAYOUT_RETURN_NOT_OK(current.Validate(sizes, fleet));

  Constraints spec;
  spec.ineligible_drives.push_back(fleet.disk(failed).name);
  spec.max_movement_fraction = options.max_movement_fraction;
  spec.current_layout = &current;
  DBLAYOUT_ASSIGN_OR_RETURN(ResolvedConstraints constraints,
                            ResolveConstraints(spec, db, fleet));

  // Phase 1 — forced eviction: the minimum movement any evacuation needs.
  Layout start = current;
  DBLAYOUT_RETURN_NOT_OK(ForceEvict(db, fleet, constraints, failed, sizes, &start));
  const double forced = Layout::DataMovementBlocks(current, start, sizes);
  if (constraints.max_movement_blocks >= 0) {
    const double slack =
        1e-9 * std::max({1.0, constraints.max_movement_blocks, forced});
    if (forced > constraints.max_movement_blocks + slack) {
      return Status::FailedPrecondition(StrFormat(
          "evacuating drive '%s' forces moving %.0f blocks, above the movement "
          "budget of %.0f blocks — no evacuation fits this budget",
          fleet.disk(failed).name.c_str(), forced,
          constraints.max_movement_blocks));
    }
  }

  // Phase 2 — incremental refinement from the post-eviction layout: the
  // greedy widen/jump/narrow loop under the ineligible-drive constraint and
  // the remaining movement budget. Movement is measured against `current`,
  // so the budget caps eviction + refinement together.
  TsGreedySearch search(db, fleet, options.search);
  DBLAYOUT_ASSIGN_OR_RETURN(SearchResult refined,
                            search.RunFrom(start, profile, constraints));

  EvacuationPlan plan;
  plan.failed_drive = failed;
  plan.failed_drive_name = fleet.disk(failed).name;
  plan.target = std::move(refined.layout);
  plan.timed_out = refined.timed_out;
  plan.movement_budget_blocks = constraints.max_movement_blocks;
  plan.moved_blocks = Layout::DataMovementBlocks(current, plan.target, sizes);
  // Before/after costs via the evaluator (Bind == full recomputation,
  // bit-identical to CostModel::WorkloadCost; one evaluator re-bound twice).
  const CostModel cost_model(fleet);
  LayoutEvaluator evaluator(profile, cost_model);
  plan.current_cost_ms = evaluator.Bind(current);
  plan.target_cost_ms = evaluator.Bind(plan.target);

  for (ObjectMove& m : ObjectMoves(db, current, plan.target)) {
    EvacuationMove& move = plan.moves.emplace_back(EvacuationMove{std::move(m)});
    move.blocks_off_failed = std::llround(
        current.x(move.object, failed) *
        static_cast<double>(sizes[static_cast<size_t>(move.object)]));
  }
  std::sort(plan.moves.begin(), plan.moves.end(),
            [](const EvacuationMove& a, const EvacuationMove& b) {
              if (a.blocks_off_failed != b.blocks_off_failed) {
                return a.blocks_off_failed > b.blocks_off_failed;
              }
              if (a.blocks_moved != b.blocks_moved) {
                return a.blocks_moved > b.blocks_moved;
              }
              return a.object < b.object;
            });
  DBLAYOUT_OBS_COUNT("resilience/evacuations_planned", 1);
  DBLAYOUT_OBS_OBSERVE("resilience/evacuation_moved_blocks", plan.moved_blocks);
  return plan;
}

std::string RenderEvacuationPlan(const EvacuationPlan& plan, const DiskFleet& fleet) {
  std::string out;
  out += StrFormat(
      "Evacuation plan for drive %s: %zu object moves, %.0f blocks moved",
      plan.failed_drive_name.c_str(), plan.moves.size(), plan.moved_blocks);
  if (plan.movement_budget_blocks >= 0) {
    out += StrFormat(" (budget %.0f)", plan.movement_budget_blocks);
  }
  out += StrFormat("\n  workload cost: %.0f ms now -> %.0f ms after evacuation\n",
                   plan.current_cost_ms, plan.target_cost_ms);
  if (plan.timed_out) {
    out += "  NOTE: planning wall-clock budget expired; best plan found so far.\n";
  }
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"object", "off-failed", "moved", "from", "to"});
  for (const EvacuationMove& m : plan.moves) {
    rows.push_back({m.object_name,
                    StrFormat("%lld", static_cast<long long>(m.blocks_off_failed)),
                    StrFormat("%lld", static_cast<long long>(m.blocks_moved)),
                    DriveNames(m.from_disks, fleet), DriveNames(m.to_disks, fleet)});
  }
  out += RenderTable(rows);
  return out;
}

}  // namespace dblayout
