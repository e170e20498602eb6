// LayoutAdvisor: the end-to-end tool of Fig. 3. Takes a database (schema +
// statistics + current layout), a workload, a drive list and optional
// constraints; produces a recommended layout with the estimated improvement
// in I/O response time over both the current layout and full striping.

#ifndef DBLAYOUT_LAYOUT_ADVISOR_H_
#define DBLAYOUT_LAYOUT_ADVISOR_H_

#include <memory>
#include <string>
#include <vector>

#include "layout/search.h"
#include "workload/workload.h"

namespace dblayout {

struct ResilienceReport;  // src/resilience/degraded.h

// Temporary objects (tempdb): the paper's formulation allows modeling temp
// tables as objects constrained to one filegroup, but its implementation
// (like this one) does not support it and instead places tempdb on a
// dedicated drive outside the advised fleet. Use a co-location constraint
// over explicit objects if you need filegroup pinning.
struct AdvisorOptions {
  SearchOptions search;
  OptimizerOptions optimizer;
  Constraints constraints;
  /// Concurrency extension: when true and the workload carries stream tags,
  /// the search optimizes the stream-merged profile (see
  /// MergeConcurrentStreams) so that objects used by concurrently executing
  /// statements count as co-accessed. Reported per-statement impacts still
  /// refer to the original statements.
  bool model_concurrency = false;
};

/// Wall-clock breakdown of one advisor run by pipeline phase (Fig. 3):
/// workload analysis through the optimizer, step-1 partitioning, the greedy
/// search loop, and the reference evaluations behind the report. Observe-only
/// telemetry — carried into bench JSON records ("phases") and surfaced by
/// dblayout report; never feeds a decision.
struct PhaseBreakdown {
  double analyze_ms = 0;    ///< AnalyzeWorkload (0 for RecommendFromProfile)
  double partition_ms = 0;  ///< step 1: access-graph partition + assignment
  double search_ms = 0;     ///< greedy widening / migration (Run minus step 1)
  double evaluate_ms = 0;   ///< reference costs + per-statement impacts
};

/// The impact of the recommendation on one workload statement.
struct StatementImpact {
  std::string sql;
  double weight = 1.0;
  double cost_recommended_ms = 0;
  double cost_full_striping_ms = 0;

  double ImprovementPct() const {
    return cost_full_striping_ms > 0
               ? 100.0 * (cost_full_striping_ms - cost_recommended_ms) /
                     cost_full_striping_ms
               : 0.0;
  }
};

struct Recommendation {
  Layout layout;
  Layout full_striping;
  double estimated_cost_ms = 0;        ///< workload cost under `layout`
  double full_striping_cost_ms = 0;    ///< workload cost under full striping
  double current_cost_ms = -1;         ///< under the current layout, if given
  int greedy_iterations = 0;
  int64_t layouts_evaluated = 0;
  std::vector<StatementImpact> per_statement;
  /// Search introspection (moves by kind, cost trajectory) plus workload
  /// cache-ability stats, carried from the search into bench JSON records.
  SearchTelemetry telemetry;
  /// The search's wall-clock budget expired: `layout` is the best valid
  /// layout found so far, not a converged recommendation.
  bool timed_out = false;
  /// Per-phase wall-clock of this run (see PhaseBreakdown).
  PhaseBreakdown phases;
  /// Per-failure-scenario degraded-mode evaluation of `layout`, filled by
  /// callers that run EvaluateResilience (src/resilience/degraded.h); null
  /// when no resilience analysis was requested. shared_ptr keeps the advisor
  /// layer free of a hard dependency on the resilience library (the
  /// type-erased deleter makes the incomplete type safe here).
  std::shared_ptr<const ResilienceReport> resilience;

  /// Estimated % improvement in total I/O response time vs full striping.
  double ImprovementVsFullStripingPct() const {
    return full_striping_cost_ms > 0
               ? 100.0 * (full_striping_cost_ms - estimated_cost_ms) /
                     full_striping_cost_ms
               : 0.0;
  }
  /// Estimated % improvement vs the current layout (negative current cost
  /// means no current layout was supplied).
  double ImprovementVsCurrentPct() const {
    return current_cost_ms > 0
               ? 100.0 * (current_cost_ms - estimated_cost_ms) / current_cost_ms
               : 0.0;
  }
};

class LayoutAdvisor {
 public:
  LayoutAdvisor(const Database& db, const DiskFleet& fleet, AdvisorOptions options = {})
      : db_(db), fleet_(fleet), options_(std::move(options)) {}

  /// Analyzes `workload` and recommends a layout.
  Result<Recommendation> Recommend(const Workload& workload) const;

  /// Same, over an already-analyzed workload (lets callers reuse profiles).
  /// When options.constraints carries a current layout, its cost lands in
  /// Recommendation::current_cost_ms, and a movement budget
  /// (max_movement_fraction) binds against it: when the redesigned layout
  /// would exceed the budget, the search migrates from the current layout
  /// toward it, best value per moved block first. The continuous advisor
  /// service (src/service/session.h) calls this every drift window with its
  /// active layout as the current one.
  Result<Recommendation> RecommendFromProfile(const WorkloadProfile& profile) const;

  /// Renders a recommendation report (layout table, filegroups, the
  /// estimated improvement, and per-statement impacts).
  std::string Report(const Recommendation& rec) const;

 private:
  const Database& db_;
  const DiskFleet& fleet_;
  AdvisorOptions options_;
};

}  // namespace dblayout

#endif  // DBLAYOUT_LAYOUT_ADVISOR_H_
