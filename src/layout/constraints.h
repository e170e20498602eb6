// Manageability and availability constraints (Section 2.3): co-location of
// objects in one filegroup, per-object availability requirements, and a
// bound on the data movement needed to migrate from the current layout.

#ifndef DBLAYOUT_LAYOUT_CONSTRAINTS_H_
#define DBLAYOUT_LAYOUT_CONSTRAINTS_H_

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "storage/disk.h"
#include "storage/layout.h"

namespace dblayout {

/// User-facing constraint specification, by object name.
struct Constraints {
  /// Each pair of objects must share one filegroup (identical disk sets).
  std::vector<std::pair<std::string, std::string>> co_located;
  /// Object must be placed only on drives with the given availability.
  std::vector<std::pair<std::string, Availability>> avail_requirements;
  /// Upper bound on blocks moved relative to `current_layout`, as a fraction
  /// of the total database size. Negative = unconstrained.
  double max_movement_fraction = -1.0;
  /// Layout the database currently has (required when
  /// max_movement_fraction >= 0).
  const Layout* current_layout = nullptr;
  /// Drives (by name) no object may be placed on. Used by the evacuation
  /// planner to mark a failing drive off limits for the re-layout search.
  std::vector<std::string> ineligible_drives;
};

/// Constraints resolved to object ids, the form the search consumes.
struct ResolvedConstraints {
  /// Disjoint groups of >= 2 objects that must be co-located.
  std::vector<std::vector<int>> co_located_groups;
  /// Per-object availability requirement (index = object id).
  std::vector<std::optional<Availability>> required_avail;
  double max_movement_blocks = -1.0;
  const Layout* current_layout = nullptr;
  /// Per-drive flag (index = drive index): true when no object may be placed
  /// there (e.g. a failing drive being evacuated). Empty = all eligible.
  std::vector<bool> drive_ineligible;

  /// True if object `i` may be placed on drive `j` of `fleet`.
  bool DiskAllowed(int i, int j, const DiskFleet& fleet) const {
    if (static_cast<size_t>(j) < drive_ineligible.size() &&
        drive_ineligible[static_cast<size_t>(j)]) {
      return false;
    }
    if (static_cast<size_t>(i) >= required_avail.size()) return true;
    const auto& req = required_avail[static_cast<size_t>(i)];
    return !req.has_value() || fleet.disk(j).avail == *req;
  }

  /// Drives of `fleet` usable by every member of the object set `objects`.
  std::vector<int> AllowedDisks(const std::vector<int>& objects,
                                const DiskFleet& fleet) const;
};

/// Resolves names to object ids and merges transitive co-location pairs into
/// groups whose members inherit the group's availability requirement. Fails
/// with the first problem met, in spec order: an unknown or every drive
/// ineligible, an unknown object name, an availability requirement no
/// eligible drive can satisfy, a group with conflicting requirements, or a
/// movement bound without a current layout. One pass over the spec serves
/// this and CheckConstraintFeasibility, so both read it the same way.
Result<ResolvedConstraints> ResolveConstraints(const Constraints& constraints,
                                               const Database& db,
                                               const DiskFleet& fleet);

/// One structural problem that makes a constraint set unsatisfiable (or
/// malformed) *before any search runs*. Produced by
/// CheckConstraintFeasibility; consumed by the advisor's pre-search gate and
/// by the lint rules, which turn each issue into a Diagnostic.
struct ConstraintIssue {
  enum class Kind {
    kUnknownObject,              ///< constraint names an object not in the schema
    kAvailabilityUnsatisfiable,  ///< required level provided by no drive
    kAvailabilityConflict,       ///< co-location group members disagree
    kGroupNoEligibleDrives,      ///< no drive admits every group member
    kGroupCapacity,              ///< group size exceeds its eligible drives
    kMovementMissingCurrentLayout,  ///< movement bound without a current layout
    kMovementBudgetTooSmall,     ///< budget below the movement any valid layout needs
  };
  Kind kind = Kind::kUnknownObject;
  std::vector<std::string> objects;  ///< involved object names
  std::vector<std::string> disks;    ///< involved drive names (eligible set)
  std::string message;               ///< full human-readable explanation
  std::string fix_it;                ///< suggested remediation
};

/// Statically checks `constraints` for pre-search infeasibility: unknown
/// object names, availability levels no drive provides, co-location groups
/// with conflicting availability requirements, groups whose combined size
/// exceeds the capacity of every drive set their members may use, and
/// movement bounds that no valid layout can satisfy (missing current layout,
/// or a budget smaller than the movement needed to repair an under-allocated
/// or constraint-violating current layout). Returns every issue found, in a
/// deterministic order; an empty result means the constraint set is not
/// provably infeasible. Unlike ResolveConstraints this never fails — it is a
/// diagnosis pass, not a resolution pass.
std::vector<ConstraintIssue> CheckConstraintFeasibility(const Constraints& constraints,
                                                        const Database& db,
                                                        const DiskFleet& fleet);

/// Verifies that `layout` satisfies `constraints` (used by tests and by the
/// advisor before returning a recommendation).
Status CheckConstraints(const Layout& layout, const ResolvedConstraints& constraints,
                        const Database& db, const DiskFleet& fleet);

}  // namespace dblayout

#endif  // DBLAYOUT_LAYOUT_CONSTRAINTS_H_
