// Runtime invariant audits for the layout pipeline.
//
// The advisor's trust chain is: workload analysis builds an access graph
// (§4), the search mutates a fraction matrix through thousands of greedy
// moves and KL swaps (§6.2), and the analytic cost model (§5) scores every
// intermediate state. A single silently-invalid intermediate — a negative
// edge weight, a split co-location group, a drifted cost — corrupts every
// downstream recommendation. The InvariantAuditor re-derives each of these
// invariants independently of the code that maintains it, so hot paths can
// assert them via DBLAYOUT_DCHECK_OK in debug/sanitizer builds at zero
// release-build cost (see common/logging.h for the macro policy). The
// fraction matrix itself (§2 Definition 2) has one check, Layout::Validate
// and its row half Layout::ValidateRows, which the same DCHECK sites call.
//
// Layering: this library depends only on common/ and storage/ (plus the
// header-only graph and plan types), so graph/ and layout/ may call into it
// without cycles.

#ifndef DBLAYOUT_ANALYSIS_INVARIANT_AUDITOR_H_
#define DBLAYOUT_ANALYSIS_INVARIANT_AUDITOR_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "graph/partition.h"
#include "graph/weighted_graph.h"
#include "optimizer/plan.h"
#include "storage/disk.h"
#include "storage/layout.h"

namespace dblayout {

/// Relative tolerance of the cost-recomputation comparisons.
inline constexpr double kAuditCostRelativeTolerance = 1e-9;

struct AuditOptions {
  /// When true, AuditAccessGraph additionally enforces the co-access bound
  /// edge(u,v) <= node(u) + node(v) and "positive edge implies positive
  /// endpoint node weights". Both follow from the §4 accumulation rule
  /// (an edge gains w*(blocks_u + blocks_v) exactly when both nodes gain
  /// their block counts) — but only for workloads in which an object is
  /// accessed at most once per pipeline. Self-joins and stream-merged
  /// profiles (MergeConcurrentStreams) duplicate objects inside one
  /// synthesized pipeline and legitimately exceed the bound, so the hot-path
  /// audits leave this off and tests over duplicate-free workloads turn it
  /// on.
  bool strict_coaccess_bound = false;
};

/// Stateless checker; every Audit* method returns OK or an InvalidArgument /
/// CapacityExceeded Status naming the violating object, disk, node, or edge.
class InvariantAuditor {
 public:
  explicit InvariantAuditor(AuditOptions options = {}) : options_(options) {}

  /// Structural sanity of any weighted graph fed to the partitioner: all
  /// node and edge weights finite and non-negative, adjacency symmetric,
  /// no self-loops.
  Status AuditGraphWeights(const WeightedGraph& g) const;

  /// Access-graph consistency (§4): AuditGraphWeights plus, when
  /// strict_coaccess_bound is set, edge(u,v) <= node(u) + node(v) (within a
  /// relative kLayoutFractionTolerance) and edge(u,v) > 0 implying
  /// node(u) > 0 and node(v) > 0.
  Status AuditAccessGraph(const WeightedGraph& g) const;

  /// Partitioning consistency: one label per node, every label in
  /// [0, num_partitions), and each must-co-locate group intact in a single
  /// partition.
  Status AuditPartitioning(const WeightedGraph& g, const Partitioning& part,
                           const PartitionOptions& options) const;

  /// Cost-model sanity (§5): independently recomputes the per-disk transfer
  /// and seek times of `subplan` under `layout` and checks that (a) each
  /// per-disk time is finite and non-negative and (b) `reported_cost` equals
  /// the max over disks within kAuditCostRelativeTolerance. Guards future
  /// incremental/vectorized cost-model rewrites against drift.
  Status AuditSubplanCost(const SubplanAccess& subplan, const Layout& layout,
                          const DiskFleet& fleet, double reported_cost) const;

  /// One statement's weight and non-blocking sub-plans, viewed without the
  /// workload-analysis types (this library must not depend on workload/).
  /// The span aliases caller-owned sub-plans for the duration of the audit.
  struct WeightedSubplanSpan {
    double weight = 1.0;
    const SubplanAccess* subplans = nullptr;
    size_t count = 0;
  };

  /// Workload-total sanity (§5, Fig. 2): independently recomputes
  /// sum_Q w_Q * sum_P max_j(transfer + seek) over `statements` under
  /// `layout` and checks `reported_total` against it within
  /// kAuditCostRelativeTolerance. This is the full-recompute parity check
  /// behind the LayoutEvaluator's incremental delta costing: the delta path
  /// may only ever disagree with a from-scratch evaluation by FP tolerance.
  Status AuditWorkloadTotal(const std::vector<WeightedSubplanSpan>& statements,
                            const Layout& layout, const DiskFleet& fleet,
                            double reported_total) const;

  const AuditOptions& options() const { return options_; }

 private:
  AuditOptions options_;
};

}  // namespace dblayout

#endif  // DBLAYOUT_ANALYSIS_INVARIANT_AUDITOR_H_
