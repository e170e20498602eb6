#include "layout/cost_model.h"

#include <cmath>

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
    const DriveTerm t = SubplanDriveTerm(subplan, layout, j, fleet_.disk(j));
    // Per-disk times are sums of non-negative terms; anything else means a
    // corrupted layout fraction or drive parameter reached the hot path.
    DBLAYOUT_DCHECK(std::isfinite(t.transfer) && t.transfer >= 0);
    DBLAYOUT_DCHECK(std::isfinite(t.seek) && t.seek >= 0);
    if (t.transfer + t.seek > max_cost) max_cost = t.transfer + t.seek;
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
