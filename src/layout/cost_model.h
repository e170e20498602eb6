// Analytic cost model of Section 5 (Fig. 7): estimates the I/O response
// time of a statement under a candidate layout without materializing the
// layout or executing anything.
//
// Per non-blocking sub-plan P and drive D_j:
//   TransferCost = sum_i x_ij * B(|R_i|, P) / T_j      (T = read or write rate)
//   SeekCost     = k * S_j * min_i (x_ij * B(|R_i|, P))   if k > 1 objects of
//                  P are on D_j (co-accessed objects are read at rates
//                  proportional to their block counts, so ~min blocks
//                  interleaving rounds occur, each costing k seeks), else 0.
// The sub-plan costs max_j (TransferCost + SeekCost); the statement costs
// the sum over its sub-plans.

#ifndef DBLAYOUT_LAYOUT_COST_MODEL_H_
#define DBLAYOUT_LAYOUT_COST_MODEL_H_

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "catalog/catalog.h"
#include "common/logging.h"
#include "storage/disk.h"
#include "storage/layout.h"
#include "workload/analyzer.h"

namespace dblayout {

/// The §5 terms of one sub-plan on one drive.
struct DriveTerm {
  double transfer = 0;  ///< TransferCost
  double seek = 0;      ///< SeekCost (0 unless k > 1)
  int k = 0;            ///< accesses with a positive fraction on the drive
};

/// The §5 terms of `subplan` on drive `j` (`d`) under `layout`. Accesses
/// with no positive fraction there are skipped; for every other one, in
/// access order, `on_access(access_index, its transfer time)` is called.
/// The one copy of the formula: CostModel::SubplanCost and cost attribution
/// both read it (the InvariantAuditor keeps an independent recomputation).
template <typename OnAccess>
inline DriveTerm SubplanDriveTerm(const SubplanAccess& subplan, const Layout& layout,
                                  int j, const DiskDrive& d, OnAccess&& on_access) {
  DriveTerm t;
  double min_blocks_on_disk = std::numeric_limits<double>::infinity();
  for (size_t ai = 0; ai < subplan.accesses.size(); ++ai) {
    const ObjectAccess& a = subplan.accesses[ai];
    const double frac = layout.x(a.object_id, j);
    if (frac <= 0) continue;
    const double blocks_on_disk = frac * a.blocks;
    const double transfer =
        blocks_on_disk * d.AccessMsPerBlock(a.is_write, a.read_modify_write);
    t.transfer += transfer;
    on_access(ai, transfer);
    min_blocks_on_disk = std::min(min_blocks_on_disk, blocks_on_disk);
    ++t.k;
  }
  // With k <= 1 the +inf sentinel never reaches arithmetic: no placement
  // costs nothing, and one object alone is read without interleaving seeks.
  if (t.k > 1) {
    DBLAYOUT_DCHECK(std::isfinite(min_blocks_on_disk));
    t.seek = static_cast<double>(t.k) * d.seek_ms * min_blocks_on_disk;
  }
  return t;
}

inline DriveTerm SubplanDriveTerm(const SubplanAccess& subplan, const Layout& layout,
                                  int j, const DiskDrive& d) {
  return SubplanDriveTerm(subplan, layout, j, d, [](size_t, double) {});
}

class CostModel {
 public:
  explicit CostModel(const DiskFleet& fleet) : fleet_(fleet) {}

  /// Estimated I/O response time (ms) of one sub-plan under `layout`.
  double SubplanCost(const SubplanAccess& subplan, const Layout& layout) const;

  /// Estimated I/O response time (ms) of one analyzed statement
  /// (sum over its non-blocking sub-plans). Unweighted.
  double StatementCost(const StatementProfile& statement, const Layout& layout) const;

  /// Weighted total estimated I/O response time (ms) of the workload:
  /// sum_Q w_Q * Cost(Q, L) — the objective of Fig. 2.
  double WorkloadCost(const WorkloadProfile& profile, const Layout& layout) const;

  /// Number of workload-level evaluations made through this instance: every
  /// WorkloadCost invocation plus every evaluation recorded via
  /// NoteExternalWorkloadEvaluations. The search derives
  /// SearchResult::layouts_evaluated from this counter so every candidate —
  /// greedy moves, migration steps, the final full-striping fallback,
  /// whether costed by full recomputation or by the LayoutEvaluator's delta
  /// path — is counted uniformly at the source instead of by ad-hoc
  /// increments at each call site.
  int64_t WorkloadEvaluations() const {
    return workload_evals_.load(std::memory_order_relaxed);
  }

  /// Records `n` workload-level evaluations performed outside WorkloadCost,
  /// in one call. The LayoutEvaluator scores a full candidate layout while
  /// re-costing only the affected sub-plans; it still *evaluated a layout*,
  /// so it must land in the same counter (and the same
  /// `cost_model/workload_evals` obs metric) as a full recomputation —
  /// otherwise layouts_evaluated would silently change meaning with
  /// SearchOptions::num_threads or the delta path enabled. Thread-safe.
  void NoteExternalWorkloadEvaluations(int64_t n) const;

  const DiskFleet& fleet() const { return fleet_; }

 private:
  const DiskFleet& fleet_;
  mutable std::atomic<int64_t> workload_evals_{0};
};

}  // namespace dblayout

#endif  // DBLAYOUT_LAYOUT_COST_MODEL_H_
