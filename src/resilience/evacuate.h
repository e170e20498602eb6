// Evacuation re-layout planning (failure-resilience subsystem). Given a
// failing drive, produce a minimum-movement migration plan that gets every
// block off that drive: the drive is marked ineligible, the current layout
// becomes the incremental starting point, objects with blocks on the failing
// drive are force-evicted (redistributed over their surviving drives, or the
// fastest eligible drives with room), and TS-GREEDY's widen/jump/narrow loop
// refines the result from there — never reintroducing the failed drive and
// honoring an optional movement budget and wall-clock budget (paper §7's
// incremental re-layout machinery, repurposed for incident response).

#ifndef DBLAYOUT_RESILIENCE_EVACUATE_H_
#define DBLAYOUT_RESILIENCE_EVACUATE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "layout/search.h"
#include "storage/layout.h"
#include "workload/analyzer.h"

namespace dblayout {

struct EvacuationOptions {
  /// Upper bound on blocks moved (including the forced eviction itself), as
  /// a fraction of the total database size. Negative = unconstrained. The
  /// planner fails with FailedPrecondition if the forced eviction alone
  /// exceeds it — no budget can evacuate less than the drive holds.
  double max_movement_fraction = -1.0;
  /// Search knobs for the refinement phase; time_budget_ms bounds planning
  /// wall-clock (best-so-far plan on expiry, flagged timed_out).
  SearchOptions search;
};

/// One object's migration step between two layouts.
struct ObjectMove {
  int object = -1;
  std::string object_name;
  std::vector<int> from_disks;  ///< drive indices before the move
  std::vector<int> to_disks;    ///< drive indices after the move
  /// Blocks written at new locations for this object.
  int64_t blocks_moved = 0;
};

/// The objects that move from `from` to `to`, in object order. An object
/// moves sum_j max(0, to_ij - from_ij) * |R_i| blocks (rounded in
/// blocks_moved); objects moving at most kLayoutFractionTolerance are left
/// out. Shared by the evacuation and rollback plans.
std::vector<ObjectMove> ObjectMoves(const Database& db, const Layout& from,
                                    const Layout& to);

/// `disks` as comma-separated drive names: a move table's from/to cell.
std::string DriveNames(const std::vector<int>& disks, const DiskFleet& fleet);

/// One object's evacuation step, ordered most-urgent first (blocks coming off
/// the failed drive, descending).
struct EvacuationMove : ObjectMove {
  /// Blocks of this object that were on the failed drive.
  int64_t blocks_off_failed = 0;
};

struct EvacuationPlan {
  int failed_drive = -1;
  std::string failed_drive_name;
  /// The layout after evacuation; failed-drive fraction 0 for every object.
  Layout target;
  double current_cost_ms = 0;  ///< workload cost of the current layout (healthy fleet)
  double target_cost_ms = 0;   ///< workload cost of `target` (healthy fleet)
  double moved_blocks = 0;     ///< total blocks moved current -> target
  /// Resolved movement budget in blocks (negative = unconstrained).
  double movement_budget_blocks = -1;
  /// The search wall-clock budget expired; `target` is the best valid
  /// evacuation found so far.
  bool timed_out = false;
  /// Ordered move list: objects leaving the failed drive first.
  std::vector<EvacuationMove> moves;
};

/// Plans the evacuation of `drive_name` (case-insensitive) from `current`.
/// Fails with NotFound for an unknown drive, and FailedPrecondition when the
/// drive cannot be emptied (movement budget below the forced eviction, or no
/// eligible drive can absorb its objects).
Result<EvacuationPlan> PlanEvacuation(const Database& db, const DiskFleet& fleet,
                                      const WorkloadProfile& profile,
                                      const Layout& current,
                                      const std::string& drive_name,
                                      const EvacuationOptions& options = {});

/// Human-readable rendering of an evacuation plan (summary + move table).
std::string RenderEvacuationPlan(const EvacuationPlan& plan, const DiskFleet& fleet);

}  // namespace dblayout

#endif  // DBLAYOUT_RESILIENCE_EVACUATE_H_
