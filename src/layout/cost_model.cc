#include "layout/cost_model.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "analysis/invariant_auditor.h"
#include "common/logging.h"
#include "obs/clock.h"
#include "obs/metrics.h"

namespace dblayout {

double CostModel::SubplanCost(const SubplanAccess& subplan, const Layout& layout) const {
  // The hottest function of a search: it keeps no telemetry. Callers count
  // the sub-plans they price (cost_model/subplan_evals) in bulk.
  double max_cost = 0;
  for (int j = 0; j < fleet_.num_disks(); ++j) {
    const DiskDrive& d = fleet_.disk(j);
    double transfer = 0;
    double min_blocks_on_disk = std::numeric_limits<double>::infinity();
    int k = 0;
    for (const ObjectAccess& a : subplan.accesses) {
      const double frac = layout.x(a.object_id, j);
      if (frac <= 0) continue;
      const double blocks_on_disk = frac * a.blocks;
      const double ms_per_block =
          a.read_modify_write ? d.ReadMsPerBlock() + d.WriteMsPerBlock()
          : a.is_write        ? d.WriteMsPerBlock()
                              : d.ReadMsPerBlock();
      transfer += blocks_on_disk * ms_per_block;
      min_blocks_on_disk = std::min(min_blocks_on_disk, blocks_on_disk);
      ++k;
    }
    // Empty placement on this disk: every access of the sub-plan has
    // frac <= 0 here, so there is no transfer and min_blocks_on_disk is
    // still the +inf sentinel. Skip before the seek term so the sentinel can
    // never reach an arithmetic path (k > 1 alone also guards it, but only
    // implicitly — the explicit contract is "no placement, zero cost", and
    // the InvariantAuditor recomputation skips such disks identically).
    if (k == 0) continue;
    double seek = 0;
    if (k > 1) {
      DBLAYOUT_DCHECK(std::isfinite(min_blocks_on_disk));
      seek = static_cast<double>(k) * d.seek_ms * min_blocks_on_disk;
    }
    // Per-disk times are sums of non-negative terms; anything else means a
    // corrupted layout fraction or drive parameter reached the hot path.
    DBLAYOUT_DCHECK(std::isfinite(transfer) && transfer >= 0);
    DBLAYOUT_DCHECK(std::isfinite(seek) && seek >= 0);
    if (transfer + seek > max_cost) max_cost = transfer + seek;
  }
  // Debug-build audit: independent recomputation must agree that the
  // sub-plan costs the max over disks (guards future incremental or
  // vectorized rewrites of this function).
  DBLAYOUT_DCHECK_OK(
      InvariantAuditor().AuditSubplanCost(subplan, layout, fleet_, max_cost));
  return max_cost;
}

double CostModel::StatementCost(const StatementProfile& statement,
                                const Layout& layout) const {
  double cost = 0;
  for (const SubplanAccess& sp : statement.subplans) {
    cost += SubplanCost(sp, layout);
  }
  DBLAYOUT_OBS_COUNT("cost_model/subplan_evals",
                     static_cast<int64_t>(statement.subplans.size()));
  return cost;
}

double CostModel::WorkloadCost(const WorkloadProfile& profile,
                               const Layout& layout) const {
  workload_evals_.fetch_add(1, std::memory_order_relaxed);
  const bool timed = obs::Enabled();
  const uint64_t start_ns = timed ? obs::MonotonicNowNs() : 0;
  double total = 0;
  for (const StatementProfile& s : profile.statements) {
    total += s.weight * StatementCost(s, layout);
  }
  DBLAYOUT_DCHECK(std::isfinite(total) && total >= 0);
  if (timed) {
    DBLAYOUT_OBS_OBSERVE(
        "cost_model/workload_cost_us",
        static_cast<double>(obs::MonotonicNowNs() - start_ns) / 1e3);
    DBLAYOUT_OBS_COUNT("cost_model/workload_evals", 1);
  }
  return total;
}

void CostModel::NoteExternalWorkloadEvaluations(int64_t n) const {
  workload_evals_.fetch_add(n, std::memory_order_relaxed);
  DBLAYOUT_OBS_COUNT("cost_model/workload_evals", n);
}

}  // namespace dblayout
