// Search strategies for the database layout problem (Section 6):
//  - FULL STRIPING (baseline, via Layout::FullStriping)
//  - TS-GREEDY (Fig. 9): max-cut partitioning of the access graph, disjoint
//    partition-to-disk assignment, then greedy parallelism widening
//  - exhaustive enumeration over proportional-fill disk subsets (ground
//    truth for small instances)
//  - random valid layouts (used by the cost-model validation experiment)

#ifndef DBLAYOUT_LAYOUT_SEARCH_H_
#define DBLAYOUT_LAYOUT_SEARCH_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "layout/constraints.h"
#include "layout/cost_model.h"

namespace dblayout::obs {
class EventJournal;
}  // namespace dblayout::obs

namespace dblayout {

/// One progress sample, delivered after every accepted greedy/migration
/// iteration when SearchOptions::progress_hook is set (e.g. by
/// `dblayout advise --progress`).
struct SearchProgress {
  const char* phase = "";        ///< "greedy" or "migrate"
  int iteration = 0;             ///< 1-based accepted-iteration index
  double best_cost = 0;          ///< workload cost after this iteration, ms
  int64_t layouts_evaluated = 0; ///< cost-model invocations so far
  const char* accepted_move = "";///< "widen", "jump", "narrow", or "migrate"
};

struct SearchOptions {
  /// Greedy widening breadth: at most k additional drives per move (the
  /// paper uses k = 1 and reports near-exhaustive quality).
  int greedy_k = 1;
  /// Also consider *jump moves*: re-assigning an object to any prefix of
  /// its allowed drives ordered fastest-read-first or
  /// lowest-write-penalty-first. The paper notes TS-GREEDY can stall in a
  /// local minimum because going from 0 to 1 shared drives raises seek cost
  /// even though full overlap would be cheap; prefix jumps cross that
  /// barrier in one step (including "widen to all plain drives, skipping
  /// RAID 5" for write-hot objects).
  bool consider_jump_moves = true;
  /// Wall-clock budget for one Run/RunFrom invocation, in milliseconds.
  /// Negative = unlimited. On expiry the search stops improving and returns
  /// the best layout accepted so far (always valid — every intermediate
  /// state of the greedy loop is a complete fraction matrix) with
  /// SearchResult::timed_out set. A budget of 0 expires immediately and
  /// returns the starting layout. Lets callers bound re-layout planning
  /// under incident pressure (see src/resilience/evacuate.h).
  double time_budget_ms = -1.0;
  /// Cooperative cancellation (not owned; may be null). When the pointee
  /// becomes true the search stops at the next deadline-granularity check —
  /// between scoring batches — and returns the best valid layout
  /// accepted so far with SearchResult::timed_out set, exactly the
  /// time-budget-expiry contract. Wired to the process shutdown flag by
  /// dblayout advise / serve so SIGINT/SIGTERM mid-search still yields
  /// a flushable result instead of dropping the run.
  const std::atomic<bool>* cancel_requested = nullptr;
  /// Number of threads used to score the candidate moves of one greedy (or
  /// migration) iteration, via the process-wide shared pool
  /// (ThreadPool::Shared). Candidate enumeration and winner selection stay
  /// sequential and each score lands in a fixed slot, so every value
  /// produces bit-identical results to num_threads = 1 — parallelism
  /// changes wall-clock time, never the answer. Values above the pool size
  /// are clamped; <= 1 scores in the calling thread. With a wall-clock
  /// budget, both the greedy and the migration phase detect expiry between
  /// scoring batches of at most LayoutEvaluator::kLanes candidates at every
  /// thread count, so the overrun can grow to one batch.
  int num_threads = 1;
  /// Test-only fault injection: when set, invoked on the working layout
  /// after every accepted greedy move or migration step, *before* the
  /// debug-build invariant audit. Lets tests corrupt an intermediate state
  /// and verify that the audit catches it (see tests/analysis_test.cc).
  /// Never set in production.
  std::function<void(Layout&)> post_move_hook_for_test;
  /// Per-iteration progress reporting (search remains deterministic; the
  /// hook only observes). Called after every accepted move.
  std::function<void(const SearchProgress&)> progress_hook;
  /// Decision journal (not owned; may be null). When set, the search emits
  /// one event per enumerated/scored/decided candidate — rejects with
  /// reasons, per-candidate eval scores, the accept/reject decision of every
  /// iteration — through obs::EventJournal. Every event is appended from
  /// the searching thread, the per-candidate scores in candidate order after
  /// the parallel scoring join, so the journal is byte-identical at any
  /// num_threads (the journal only observes; it never influences the
  /// search).
  obs::EventJournal* journal = nullptr;
};

/// Structured introspection of one search run: which of Fig. 9's moves were
/// tried vs. taken, how the best cost converged, and how compressible the
/// workload was. Always collected (plain per-call fields, no atomics) and
/// carried through SearchResult -> Recommendation -> bench JSON records; it
/// never influences the search itself.
struct SearchTelemetry {
  // Moves evaluated by the cost model and moves accepted, by kind.
  int64_t widen_considered = 0;
  int64_t widen_accepted = 0;
  int64_t jump_considered = 0;
  int64_t jump_accepted = 0;
  int64_t narrow_considered = 0;
  int64_t narrow_accepted = 0;
  int64_t migrate_considered = 0;
  int64_t migrate_accepted = 0;
  /// Candidates discarded before evaluation by the fractional capacity
  /// check or the incremental movement budget.
  int64_t capacity_rejected = 0;
  int64_t movement_rejected = 0;
  /// Evaluation mix: full workload recomputations (LayoutEvaluator::Bind,
  /// the full-striping fallback probe, direct CostModel calls) vs
  /// incremental delta scorings, where only the sub-plans touching the
  /// moved group are re-costed. Filled in when the run finishes;
  /// full_evals + delta_evals == SearchResult::layouts_evaluated.
  int64_t full_evals = 0;
  int64_t delta_evals = 0;
  /// Whether the final answer came from the full-striping fallback, and
  /// whether the movement budget forced incremental migration mode.
  bool used_full_striping_fallback = false;
  bool used_incremental_migration = false;
  /// Whether the wall-clock budget (SearchOptions::time_budget_ms) expired
  /// before the search converged.
  bool timed_out = false;
  /// Best workload cost (ms) after step 1 and after every accepted
  /// iteration — the convergence trajectory of Fig. 9's loop.
  std::vector<double> cost_trajectory;
  /// Cache-ability of the analyzed workload (how far CompressProfile could
  /// shrink it): statements vs. distinct sub-plan access signatures.
  /// Filled by the advisor, which owns the profile.
  int64_t statements = 0;
  int64_t subplans = 0;
  int64_t distinct_signatures = 0;
};

/// One SearchTelemetry field as it is published: its key in the bench
/// records' "telemetry" object (bench TelemetryJson; null if absent) and its
/// obs counter (PublishSearchMetrics; null if none). A count publishes its
/// value; a flag is true/false in JSON and adds 1 to its counter when set.
struct SearchTelemetryField {
  const char* json_key;
  const char* metric;
  int64_t SearchTelemetry::*count;  ///< null for a flag
  bool SearchTelemetry::*flag;      ///< null for a count
};

/// Every published field, in bench JSON key order; TelemetryJson appends
/// cost_trajectory after them.
inline constexpr SearchTelemetryField kSearchTelemetryFields[] = {
    {"widen_considered", "search/moves_considered/widen",
     &SearchTelemetry::widen_considered, nullptr},
    {"widen_accepted", "search/moves_accepted/widen",
     &SearchTelemetry::widen_accepted, nullptr},
    {"jump_considered", "search/moves_considered/jump",
     &SearchTelemetry::jump_considered, nullptr},
    {"jump_accepted", "search/moves_accepted/jump",
     &SearchTelemetry::jump_accepted, nullptr},
    {"narrow_considered", "search/moves_considered/narrow",
     &SearchTelemetry::narrow_considered, nullptr},
    {"narrow_accepted", "search/moves_accepted/narrow",
     &SearchTelemetry::narrow_accepted, nullptr},
    {"migrate_considered", "search/moves_considered/migrate",
     &SearchTelemetry::migrate_considered, nullptr},
    {"migrate_accepted", "search/moves_accepted/migrate",
     &SearchTelemetry::migrate_accepted, nullptr},
    {"capacity_rejected", "search/candidates_capacity_rejected",
     &SearchTelemetry::capacity_rejected, nullptr},
    {"movement_rejected", "search/candidates_movement_rejected",
     &SearchTelemetry::movement_rejected, nullptr},
    {"full_evals", nullptr, &SearchTelemetry::full_evals, nullptr},
    {"delta_evals", nullptr, &SearchTelemetry::delta_evals, nullptr},
    {"used_full_striping_fallback", "search/full_striping_fallbacks", nullptr,
     &SearchTelemetry::used_full_striping_fallback},
    {"used_incremental_migration", nullptr, nullptr,
     &SearchTelemetry::used_incremental_migration},
    {nullptr, "search/timeouts", nullptr, &SearchTelemetry::timed_out},
    {"statements", nullptr, &SearchTelemetry::statements, nullptr},
    {"subplans", nullptr, &SearchTelemetry::subplans, nullptr},
    {"distinct_signatures", nullptr, &SearchTelemetry::distinct_signatures,
     nullptr},
};

struct SearchResult {
  Layout layout;
  double cost = 0;               ///< estimated workload cost of `layout`, ms
  int greedy_iterations = 0;     ///< improving iterations taken by step 2
  int64_t layouts_evaluated = 0; ///< cost-model invocations
  double initial_cost = 0;       ///< cost after step 1 (before widening)
  /// The wall-clock budget expired; `layout` is the best-so-far valid
  /// layout, not a converged one.
  bool timed_out = false;
  /// Wall-clock spent in step 1 (access-graph partitioning + disjoint
  /// assignment) by Run; 0 for RunFrom. Feeds the advisor's per-phase
  /// breakdown (PhaseBreakdown).
  double partition_ms = 0;
  SearchTelemetry telemetry;
};

class TsGreedySearch {
 public:
  TsGreedySearch(const Database& db, const DiskFleet& fleet,
                 SearchOptions options = {})
      : db_(db), fleet_(fleet), options_(std::move(options)) {}

  /// Runs TS-GREEDY for the analyzed workload under `constraints`.
  Result<SearchResult> Run(const WorkloadProfile& profile,
                           const ResolvedConstraints& constraints) const;

  /// Incremental refinement from a caller-supplied starting layout: skips
  /// step 1 (partitioning) and runs the greedy widen/jump/narrow loop from
  /// `start`, honoring the movement budget and wall-clock budget. The
  /// full-striping fallback is NOT applied — callers choose the start
  /// precisely to bound movement (the evacuation planner starts from the
  /// post-eviction layout). `start` must already satisfy `constraints`.
  Result<SearchResult> RunFrom(const Layout& start, const WorkloadProfile& profile,
                               const ResolvedConstraints& constraints) const;

  /// Step 1 only: the partitioned, disjointly-assigned starting layout.
  Result<Layout> InitialLayout(const WorkloadProfile& profile,
                               const ResolvedConstraints& constraints) const;

 private:
  struct Deadline;

  /// Both helpers run the one move loop (MoveLoop in search.cc) with their
  /// own candidate source, and share one CostModel per Run so
  /// layouts_evaluated can be read off CostModel::WorkloadEvaluations()
  /// uniformly at the end.
  Result<Layout> GreedyWiden(const WorkloadProfile& profile,
                             const ResolvedConstraints& constraints, Layout layout,
                             const CostModel& cost_model, const Deadline& deadline,
                             SearchResult* stats) const;

  /// Incremental mode (movement budget in force): computes the layout the
  /// unconstrained search would pick, then migrates object groups from the
  /// current layout toward it — whole groups, best cost-gain per moved block
  /// first — while the total movement stays within budget.
  Result<Layout> MigrateTowardTarget(const WorkloadProfile& profile,
                                     const ResolvedConstraints& constraints,
                                     const Layout& target, const CostModel& cost_model,
                                     const Deadline& deadline,
                                     SearchResult* stats) const;

  const Database& db_;
  const DiskFleet& fleet_;
  SearchOptions options_;
};

/// Exhaustively enumerates, for every object, all non-empty drive subsets
/// (proportional fill) and returns the cheapest valid layout. Cost is
/// (2^m - 1)^n evaluations; intended for micro instances (n*m <= ~20).
Result<SearchResult> ExhaustiveSearch(const Database& db, const DiskFleet& fleet,
                                      const WorkloadProfile& profile,
                                      const ResolvedConstraints& constraints);

/// A random valid layout: each object gets a uniformly random non-empty
/// drive subset with random (normalized) fractions. Retries until the
/// capacity check passes (gives up after `max_attempts`).
Result<Layout> RandomLayout(const Database& db, const DiskFleet& fleet, Rng* rng,
                            int max_attempts = 100);

}  // namespace dblayout

#endif  // DBLAYOUT_LAYOUT_SEARCH_H_
