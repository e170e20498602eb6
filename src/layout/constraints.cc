#include "layout/constraints.h"

#include <algorithm>
#include <map>

#include "common/strutil.h"

namespace dblayout {

std::vector<int> ResolvedConstraints::AllowedDisks(const std::vector<int>& objects,
                                                   const DiskFleet& fleet) const {
  std::vector<int> out;
  for (int j = 0; j < fleet.num_disks(); ++j) {
    bool ok = true;
    for (int i : objects) {
      if (!DiskAllowed(i, j, fleet)) {
        ok = false;
        break;
      }
    }
    if (ok) out.push_back(j);
  }
  return out;
}

namespace {

/// What one walk over a constraint spec finds.
struct Interpretation {
  ResolvedConstraints resolved;
  Status first_error;                   ///< what ResolveConstraints reports
  std::vector<ConstraintIssue> issues;  ///< what CheckConstraintFeasibility reports
};

/// The one interpreter of a constraint spec. It walks the spec in
/// ResolveConstraints' order (ineligible drives, co-location pairs, each
/// availability requirement, the groups in root order, the movement bound)
/// and keeps going past a problem, so the first error is the one a
/// fail-fast resolution would meet and the issue list holds every problem.
/// Ineligible drives count as absent wherever the walk looks at drives.
Interpretation Interpret(const Constraints& constraints, const Database& db,
                         const DiskFleet& fleet) {
  using Kind = ConstraintIssue::Kind;
  Interpretation out;
  ResolvedConstraints& rc = out.resolved;
  std::vector<ConstraintIssue>& issues = out.issues;
  auto fail = [&](Status st) {
    if (out.first_error.ok()) out.first_error = std::move(st);
  };
  const auto& objects = db.Objects();
  const size_t n = objects.size();

  if (!constraints.ineligible_drives.empty()) {
    rc.drive_ineligible.assign(static_cast<size_t>(fleet.num_disks()), false);
    for (const std::string& name : constraints.ineligible_drives) {
      int found = -1;
      for (int j = 0; j < fleet.num_disks() && found < 0; ++j) {
        if (ToLower(fleet.disk(j).name) == ToLower(name)) found = j;
      }
      if (found < 0) {
        fail(Status::NotFound(StrFormat(
            "ineligible-drive constraint references unknown drive '%s'", name.c_str())));
      } else {
        rc.drive_ineligible[static_cast<size_t>(found)] = true;
      }
    }
    if (std::find(rc.drive_ineligible.begin(), rc.drive_ineligible.end(), false) ==
        rc.drive_ineligible.end()) {
      fail(Status::FailedPrecondition("every drive of the fleet is marked ineligible"));
    }
  }
  // True if drive j may hold data that needs `level` (any level when unset).
  auto drive_offers = [&](int j, const std::optional<Availability>& level) {
    if (!rc.drive_ineligible.empty() && rc.drive_ineligible[static_cast<size_t>(j)]) {
      return false;
    }
    return !level.has_value() || fleet.disk(j).avail == *level;
  };

  // Object names match case-insensitively. An unknown name is reported once,
  // spelled as first mentioned.
  std::vector<std::string> unknown;
  auto find_object = [&](const std::string& name) {
    for (const auto& o : objects) {
      if (ToLower(o.name) == ToLower(name)) return o.id;
    }
    fail(Status::NotFound(
        StrFormat("constraint references unknown object '%s'", name.c_str())));
    if (std::none_of(unknown.begin(), unknown.end(), [&](const std::string& u) {
          return ToLower(u) == ToLower(name);
        })) {
      unknown.push_back(name);
    }
    return -1;
  };

  // Co-location pairs of known objects merge into transitive groups.
  std::vector<int> parent(n);
  for (size_t i = 0; i < n; ++i) parent[i] = static_cast<int>(i);
  auto root = [&](int x) {
    while (parent[static_cast<size_t>(x)] != x) {
      parent[static_cast<size_t>(x)] =
          parent[static_cast<size_t>(parent[static_cast<size_t>(x)])];
      x = parent[static_cast<size_t>(x)];
    }
    return x;
  };
  for (const auto& [a_name, b_name] : constraints.co_located) {
    const int a = find_object(a_name);
    const int b = find_object(b_name);
    if (a >= 0 && b >= 0) parent[static_cast<size_t>(root(a))] = root(b);
  }

  // Availability requirements in order; an object's last one holds.
  std::vector<std::optional<Availability>> required(n);
  std::vector<bool> flagged_unsatisfiable(n, false);
  for (const auto& [name, avail] : constraints.avail_requirements) {
    const int id = find_object(name);
    if (id < 0) continue;
    const size_t i = static_cast<size_t>(id);
    const std::string& obj_name = objects[i].name;
    if (required[i].has_value() && *required[i] != avail) {
      issues.push_back(
          {Kind::kAvailabilityConflict,
           {obj_name},
           {},
           StrFormat("object '%s' has two availability requirements, %s and %s",
                     obj_name.c_str(), AvailabilityName(*required[i]),
                     AvailabilityName(avail)),
           StrFormat("keep a single availability requirement for '%s'",
                     obj_name.c_str())});
    }
    required[i] = avail;
    bool satisfiable = false;
    for (int j = 0; j < fleet.num_disks() && !satisfiable; ++j) {
      satisfiable = drive_offers(j, avail);
    }
    if (satisfiable) continue;
    // The error spells the object as the spec does, the issue as the schema.
    fail(Status::FailedPrecondition(
        StrFormat("object '%s' requires availability %s but no drive provides it",
                  name.c_str(), AvailabilityName(avail))));
    if (!flagged_unsatisfiable[i]) {
      flagged_unsatisfiable[i] = true;
      issues.push_back(
          {Kind::kAvailabilityUnsatisfiable,
           {obj_name},
           {},
           StrFormat("object '%s' requires availability %s but no drive provides it",
                     obj_name.c_str(), AvailabilityName(avail)),
           StrFormat("add a drive with availability %s or drop the requirement on '%s'",
                     AvailabilityName(avail), obj_name.c_str())});
    }
  }
  for (const auto& name : unknown) {
    issues.push_back(
        {Kind::kUnknownObject,
         {name},
         {},
         StrFormat("constraint references unknown object '%s'", name.c_str()),
         "check the object name against the schema (tables and 'table.index' "
         "non-clustered indexes)"});
  }
  rc.required_avail = required;

  // Groups of >= 2 objects, and single objects with a requirement: members
  // must agree on one level, which every member then inherits, and must fit
  // on the drives that offer it.
  const std::vector<int64_t> sizes = db.ObjectSizes();
  std::map<int, std::vector<int>> groups;
  for (size_t i = 0; i < n; ++i) {
    groups[root(static_cast<int>(i))].push_back(static_cast<int>(i));
  }
  for (const auto& [group_root, members] : groups) {
    (void)group_root;
    if (members.size() >= 2) rc.co_located_groups.push_back(members);
    std::optional<Availability> level;
    bool conflict = false;
    for (int m : members) {
      const auto& r = required[static_cast<size_t>(m)];
      if (!r.has_value()) continue;
      if (level.has_value() && *level != *r) conflict = true;
      if (!level.has_value()) level = r;
    }
    if (members.size() < 2 && !level.has_value()) continue;
    std::vector<std::string> member_names;
    for (int m : members) member_names.push_back(objects[static_cast<size_t>(m)].name);
    if (conflict) {
      std::vector<std::string> demands;
      for (int m : members) {
        const auto& r = required[static_cast<size_t>(m)];
        if (!r.has_value()) continue;
        demands.push_back(StrFormat("'%s' requires %s",
                                    objects[static_cast<size_t>(m)].name.c_str(),
                                    AvailabilityName(*r)));
      }
      const std::string message = StrFormat(
          "co-location group {%s} has conflicting availability requirements: %s",
          Join(member_names, ", ").c_str(), Join(demands, ", ").c_str());
      fail(Status::FailedPrecondition(message));
      // Capacity against an ill-defined drive set would be noise.
      issues.push_back({Kind::kAvailabilityConflict, member_names, {}, message,
                        "give every member of the group the same availability "
                        "requirement, or remove a co-location pair to split it"});
      continue;
    }
    for (int m : members) rc.required_avail[static_cast<size_t>(m)] = level;

    int64_t group_blocks = 0;
    for (int m : members) group_blocks += sizes[static_cast<size_t>(m)];
    int64_t eligible_capacity = 0;
    std::vector<std::string> eligible_names;
    for (int j = 0; j < fleet.num_disks(); ++j) {
      if (!drive_offers(j, level)) continue;
      eligible_capacity += fleet.disk(j).capacity_blocks;
      eligible_names.push_back(fleet.disk(j).name);
    }
    if (eligible_names.empty()) {
      if (std::none_of(members.begin(), members.end(), [&](int m) {
            return flagged_unsatisfiable[static_cast<size_t>(m)];
          })) {
        issues.push_back({Kind::kGroupNoEligibleDrives, member_names, {},
                          StrFormat("no drive is eligible for co-location group {%s}",
                                    Join(member_names, ", ").c_str()),
                          "add drives satisfying the group's availability requirement"});
      }
      continue;
    }
    if (group_blocks > eligible_capacity) {
      issues.push_back(
          {Kind::kGroupCapacity, member_names, eligible_names,
           StrFormat("%s{%s} needs %lld blocks but its eligible drives {%s} hold only "
                     "%lld blocks",
                     members.size() >= 2 ? "co-location group " : "object ",
                     Join(member_names, ", ").c_str(),
                     static_cast<long long>(group_blocks),
                     Join(eligible_names, ", ").c_str(),
                     static_cast<long long>(eligible_capacity)),
           "add capacity at the required availability level, relax the availability "
           "requirement, or split the co-location group"});
    }
  }

  // Movement bound: a budget needs a baseline, and it must at least cover
  // the movement any valid layout is forced to make (completing
  // under-allocated rows and vacating drives an object may not use).
  if (constraints.max_movement_fraction < 0) return out;
  if (constraints.current_layout == nullptr) {
    fail(Status::InvalidArgument("max_movement_fraction requires current_layout"));
    issues.push_back({Kind::kMovementMissingCurrentLayout,
                      {},
                      {},
                      StrFormat("max_movement_fraction %g requires current_layout to "
                                "measure against",
                                constraints.max_movement_fraction),
                      "supply the current layout (the CLI's --max-move assumes full "
                      "striping)"});
    return out;
  }
  const Layout& cur = *constraints.current_layout;
  const double budget =
      constraints.max_movement_fraction * static_cast<double>(db.TotalBlocks());
  rc.max_movement_blocks = budget;
  rc.current_layout = &cur;
  double forced = 0;
  std::vector<std::string> forced_objects;
  if (cur.num_objects() == static_cast<int>(n) && cur.num_disks() == fleet.num_disks()) {
    for (size_t i = 0; i < n; ++i) {
      double row_sum = 0;
      double disallowed = 0;
      for (int j = 0; j < fleet.num_disks(); ++j) {
        const double x = cur.x(static_cast<int>(i), j);
        if (x <= 0) continue;
        row_sum += x;
        if (!drive_offers(j, required[i])) disallowed += x;
      }
      const double need =
          (std::max(0.0, 1.0 - row_sum) + disallowed) * static_cast<double>(sizes[i]);
      if (need > 0) {
        forced += need;
        forced_objects.push_back(objects[i].name);
      }
    }
  }
  // Absolute-plus-relative slack: a budget *exactly equal* to the forced
  // movement must pass even when `budget` (fraction * TotalBlocks) and
  // `forced` (a sum of fraction * size products) round differently.
  // Scaling the slack only by `budget` is not enough — the accumulation
  // error in `forced` scales with the object sizes, not the budget.
  const double slack = 1e-9 * std::max({1.0, budget, forced});
  if (forced > budget + slack) {
    issues.push_back(
        {Kind::kMovementBudgetTooSmall, forced_objects, {},
         StrFormat("movement budget is %.0f blocks (%g of the database) but any "
                   "valid layout must move at least %.0f blocks to complete "
                   "allocation and honor availability requirements (objects: %s)",
                   budget, constraints.max_movement_fraction, forced,
                   Join(forced_objects, ", ").c_str()),
         StrFormat("raise max_movement_fraction to at least %.4f",
                   forced / std::max(1.0, static_cast<double>(db.TotalBlocks())))});
  }
  return out;
}

}  // namespace

Result<ResolvedConstraints> ResolveConstraints(const Constraints& constraints,
                                               const Database& db,
                                               const DiskFleet& fleet) {
  Interpretation walk = Interpret(constraints, db, fleet);
  if (!walk.first_error.ok()) return walk.first_error;
  return std::move(walk.resolved);
}

std::vector<ConstraintIssue> CheckConstraintFeasibility(const Constraints& constraints,
                                                        const Database& db,
                                                        const DiskFleet& fleet) {
  return Interpret(constraints, db, fleet).issues;
}

Status CheckConstraints(const Layout& layout, const ResolvedConstraints& constraints,
                        const Database& db, const DiskFleet& fleet) {
  const auto& objects = db.Objects();
  for (const auto& group : constraints.co_located_groups) {
    const std::vector<int> base = layout.DisksOf(group[0]);
    for (size_t g = 1; g < group.size(); ++g) {
      if (layout.DisksOf(group[g]) != base) {
        return Status::FailedPrecondition(
            StrFormat("objects '%s' and '%s' are not co-located",
                      objects[static_cast<size_t>(group[0])].name.c_str(),
                      objects[static_cast<size_t>(group[g])].name.c_str()));
      }
    }
  }
  if (!constraints.drive_ineligible.empty()) {
    for (int i = 0; i < layout.num_objects(); ++i) {
      for (int j : layout.DisksOf(i)) {
        if (static_cast<size_t>(j) < constraints.drive_ineligible.size() &&
            constraints.drive_ineligible[static_cast<size_t>(j)]) {
          return Status::FailedPrecondition(StrFormat(
              "object '%s' placed on ineligible drive %s",
              i < static_cast<int>(objects.size())
                  ? objects[static_cast<size_t>(i)].name.c_str()
                  : "?",
              fleet.disk(j).name.c_str()));
        }
      }
    }
  }
  for (size_t i = 0; i < constraints.required_avail.size(); ++i) {
    const auto& req = constraints.required_avail[i];
    if (!req.has_value()) continue;
    for (int j : layout.DisksOf(static_cast<int>(i))) {
      if (fleet.disk(j).avail != *req) {
        return Status::FailedPrecondition(
            StrFormat("object '%s' placed on drive %s which lacks availability %s",
                      objects[i].name.c_str(), fleet.disk(j).name.c_str(),
                      AvailabilityName(*req)));
      }
    }
  }
  if (constraints.max_movement_blocks >= 0 && constraints.current_layout != nullptr) {
    const double moved = Layout::DataMovementBlocks(*constraints.current_layout,
                                                    layout, db.ObjectSizes());
    if (moved > constraints.max_movement_blocks * (1 + 1e-9)) {
      return Status::FailedPrecondition(
          StrFormat("layout moves %.0f blocks, budget is %.0f", moved,
                    constraints.max_movement_blocks));
    }
  }
  return Status::OK();
}

}  // namespace dblayout
