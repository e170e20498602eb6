#include "analysis/invariant_auditor.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/strutil.h"

namespace dblayout {

Status InvariantAuditor::AuditGraphWeights(const WeightedGraph& g) const {
  for (size_t u = 0; u < g.num_nodes(); ++u) {
    const double nw = g.node_weight(u);
    if (!std::isfinite(nw) || nw < 0) {
      return Status::InvalidArgument(
          StrFormat("audit: node %zu has invalid weight %g", u, nw));
    }
    // Sorted order: the audit returns on the first invalid edge, so the
    // reported (u, v) must not depend on hash layout.
    for (const auto& [v, w] : g.SortedNeighbors(u)) {
      if (v >= g.num_nodes()) {
        return Status::InvalidArgument(StrFormat(
            "audit: edge (%zu,%zu) references a node out of range", u, v));
      }
      if (u == v) {
        return Status::InvalidArgument(
            StrFormat("audit: self-loop on node %zu", u));
      }
      if (!std::isfinite(w) || w < 0) {
        return Status::InvalidArgument(
            StrFormat("audit: edge (%zu,%zu) has invalid weight %g", u, v, w));
      }
      const double back = g.EdgeWeight(v, u);
      if (back != w) {
        return Status::InvalidArgument(
            StrFormat("audit: edge (%zu,%zu) asymmetric: %g vs %g", u, v, w,
                      back));
      }
    }
  }
  return Status::OK();
}

Status InvariantAuditor::AuditAccessGraph(const WeightedGraph& g) const {
  DBLAYOUT_RETURN_NOT_OK(AuditGraphWeights(g));
  if (!options_.strict_coaccess_bound) return Status::OK();
  const double tol = kLayoutFractionTolerance;
  for (size_t u = 0; u < g.num_nodes(); ++u) {
    // Sorted order: same first-failure determinism as AuditGraphWeights.
    for (const auto& [v, w] : g.SortedNeighbors(u)) {
      if (u > v || w <= 0) continue;
      if (g.node_weight(u) <= 0 || g.node_weight(v) <= 0) {
        return Status::InvalidArgument(StrFormat(
            "audit: edge (%zu,%zu) has weight %g but an endpoint is never "
            "accessed (node weights %g, %g)",
            u, v, w, g.node_weight(u), g.node_weight(v)));
      }
      const double bound = g.node_weight(u) + g.node_weight(v);
      if (w > bound * (1.0 + tol)) {
        return Status::InvalidArgument(StrFormat(
            "audit: edge (%zu,%zu) weight %g exceeds co-access bound "
            "node(%zu)+node(%zu) = %g",
            u, v, w, u, v, bound));
      }
    }
  }
  return Status::OK();
}

Status InvariantAuditor::AuditPartitioning(const WeightedGraph& g,
                                           const Partitioning& part,
                                           const PartitionOptions& options) const {
  if (part.size() != g.num_nodes()) {
    return Status::InvalidArgument(
        StrFormat("audit: partitioning labels %zu nodes, graph has %zu",
                  part.size(), g.num_nodes()));
  }
  const int p = std::max(1, options.num_partitions);
  for (size_t u = 0; u < part.size(); ++u) {
    if (part[u] < 0 || part[u] >= p) {
      return Status::InvalidArgument(StrFormat(
          "audit: node %zu assigned partition %d outside [0,%d)", u, part[u], p));
    }
  }
  for (const auto& group : options.must_co_locate) {
    if (group.empty()) continue;
    if (group[0] >= part.size()) {
      return Status::InvalidArgument(StrFormat(
          "audit: co-location group references node %zu out of range", group[0]));
    }
    for (size_t k = 1; k < group.size(); ++k) {
      if (group[k] >= part.size()) {
        return Status::InvalidArgument(StrFormat(
            "audit: co-location group references node %zu out of range",
            group[k]));
      }
      if (part[group[k]] != part[group[0]]) {
        return Status::InvalidArgument(StrFormat(
            "audit: co-located nodes %zu and %zu split across partitions %d "
            "and %d",
            group[0], group[k], part[group[0]], part[group[k]]));
      }
    }
  }
  return Status::OK();
}

namespace {

/// Independent recomputation of the §5 sub-plan formula: per drive, transfer
/// time of every co-accessed fragment plus the interleaving seek term, then
/// the max over drives. Shared by the sub-plan and workload-total audits.
Status RecomputeSubplanCost(const SubplanAccess& subplan, const Layout& layout,
                            const DiskFleet& fleet, double* out) {
  double max_cost = 0;
  for (int j = 0; j < fleet.num_disks(); ++j) {
    const DiskDrive& d = fleet.disk(j);
    double transfer = 0;
    double min_blocks = std::numeric_limits<double>::infinity();
    int co_resident = 0;
    for (const ObjectAccess& a : subplan.accesses) {
      if (a.object_id < 0 || a.object_id >= layout.num_objects()) {
        return Status::InvalidArgument(StrFormat(
            "audit: sub-plan access references object %d outside layout of %d",
            a.object_id, layout.num_objects()));
      }
      if (!std::isfinite(a.blocks) || a.blocks < 0) {
        return Status::InvalidArgument(StrFormat(
            "audit: sub-plan access of object %d has invalid block count %g",
            a.object_id, a.blocks));
      }
      const double frac = layout.x(a.object_id, j);
      if (frac <= 0) continue;
      const double blocks_on_disk = frac * a.blocks;
      const double ms_per_block =
          a.read_modify_write ? d.ReadMsPerBlock() + d.WriteMsPerBlock()
          : a.is_write        ? d.WriteMsPerBlock()
                              : d.ReadMsPerBlock();
      transfer += blocks_on_disk * ms_per_block;
      min_blocks = std::min(min_blocks, blocks_on_disk);
      ++co_resident;
    }
    // Empty placement on this drive (no access has a positive fraction):
    // min_blocks is still the +inf sentinel and must not reach arithmetic.
    // The oracle (CostModel::SubplanCost) skips such drives the same way,
    // so the two definitions of "zero-cost drive" cannot drift apart.
    if (co_resident == 0) continue;
    const double seek =
        co_resident > 1 ? static_cast<double>(co_resident) * d.seek_ms * min_blocks
                        : 0.0;
    const double disk_time = transfer + seek;
    if (!std::isfinite(disk_time) || disk_time < 0) {
      return Status::InvalidArgument(
          StrFormat("audit: disk '%s' has invalid sub-plan time %g",
                    d.name.c_str(), disk_time));
    }
    max_cost = std::max(max_cost, disk_time);
  }
  *out = max_cost;
  return Status::OK();
}

}  // namespace

Status InvariantAuditor::AuditSubplanCost(const SubplanAccess& subplan,
                                          const Layout& layout,
                                          const DiskFleet& fleet,
                                          double reported_cost) const {
  double max_cost = 0;
  DBLAYOUT_RETURN_NOT_OK(RecomputeSubplanCost(subplan, layout, fleet, &max_cost));
  const double tol =
      kAuditCostRelativeTolerance * std::max(1.0, std::abs(max_cost));
  if (!std::isfinite(reported_cost) || std::abs(reported_cost - max_cost) > tol) {
    return Status::InvalidArgument(StrFormat(
        "audit: reported sub-plan cost %.9g != max-over-disks recomputation "
        "%.9g",
        reported_cost, max_cost));
  }
  return Status::OK();
}

Status InvariantAuditor::AuditWorkloadTotal(
    const std::vector<WeightedSubplanSpan>& statements, const Layout& layout,
    const DiskFleet& fleet, double reported_total) const {
  double total = 0;
  for (const WeightedSubplanSpan& s : statements) {
    if (!std::isfinite(s.weight) || s.weight < 0) {
      return Status::InvalidArgument(
          StrFormat("audit: statement has invalid weight %g", s.weight));
    }
    double statement_cost = 0;
    for (size_t p = 0; p < s.count; ++p) {
      double subplan_cost = 0;
      DBLAYOUT_RETURN_NOT_OK(
          RecomputeSubplanCost(s.subplans[p], layout, fleet, &subplan_cost));
      statement_cost += subplan_cost;
    }
    total += s.weight * statement_cost;
  }
  const double tol =
      kAuditCostRelativeTolerance * std::max(1.0, std::abs(total));
  if (!std::isfinite(reported_total) || std::abs(reported_total - total) > tol) {
    return Status::InvalidArgument(StrFormat(
        "audit: reported workload total %.9g != from-scratch recomputation "
        "%.9g (incremental delta-costing drift)",
        reported_total, total));
  }
  return Status::OK();
}

}  // namespace dblayout
