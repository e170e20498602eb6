// Incremental workload evaluation engine.
//
// The §5 cost decomposes as
//
//   WorkloadCost(L) = sum_Q w_Q * sum_{P in Q} max_j (Transfer_Pj + Seek_Pj)
//
// — a weighted sum over sub-plans of a per-sub-plan term that depends only
// on the layout rows of the objects that sub-plan touches. Moving one object
// (or one co-location group) therefore invalidates exactly the sub-plans in
// its inverted-index entry; every other cached sub-plan cost is still exact.
// The LayoutEvaluator exploits this: it binds to one (profile, fleet) pair,
// caches the per-sub-plan costs of the current layout, and scores a
// candidate move by re-costing only the affected sub-plans. CostModel stays
// the thin ground-truth oracle: the evaluator calls it per sub-plan and is
// DCHECK-audited against a from-scratch recomputation
// (InvariantAuditor::AuditWorkloadTotal) after every committed move.
//
// Per-statement fold. The evaluator also caches each statement's weighted
// term, w_Q * (sum of its sub-plan costs), for the bound layout. A candidate
// re-folds only the statements that contain an affected sub-plan — their
// sub-plan costs summed left to right, then multiplied by the weight — and
// adds every statement's term to a running total in statement order,
// reusing the cached term of each unaffected statement. That is exactly
// CostModel::WorkloadCost's association order, and a cached term is the
// same product WorkloadCost would compute, so with CostModel::SubplanCost
// pure a scored total is bit-identical to a full recomputation of the
// candidate — which is what makes the greedy search's results independent
// of whether the delta path, the full path, the memo, or parallel scoring
// produced them. (The build pins -ffp-contract=off: a fused multiply-add
// would round the cached term and the recomputed one differently.)
//
// Score memo. A caller that scores the same candidate move again after other
// moves were committed can pass a Memo: the candidate's re-costed sub-plan
// costs, kept across Commits. Commit() bumps a per-object generation for
// every object of every sub-plan it re-costs, so a Memo filled at generation
// G for moving objects O is reused only if no object of O has a later
// generation — i.e. no Commit since G re-costed a sub-plan containing an
// object of O. The inputs of each memoized cost (the rows of its sub-plan's
// objects, O at the candidate's rows) have then not moved, so the cost is
// exactly what SubplanCost would return now. DCHECK builds re-cost every
// memo hit and require each cost and the total to match bit for bit. A hit
// still counts one delta evaluation; `evaluator/memo_hits` counts the hits
// and `evaluator/subplans_recosted` only real re-costs. The caller keys its
// memos so that one Memo always stands for the same candidate rows.
//
// Thread model: Score* methods are const, touch shared state only read-only
// (memo freshness reads the generations, which only Bind/Commit write),
// and confine all mutation to a caller-provided Scratch and Memo — one
// Scratch per worker and one Memo slot per candidate make concurrent
// scoring of disjoint candidates race-free. The staged Delta*/Commit/Revert
// mutation API is single-threaded.

#ifndef DBLAYOUT_LAYOUT_EVALUATOR_H_
#define DBLAYOUT_LAYOUT_EVALUATOR_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "layout/cost_model.h"
#include "storage/layout.h"
#include "workload/analyzer.h"

namespace dblayout::obs {
class EventJournal;
}  // namespace dblayout::obs

namespace dblayout {

class LayoutEvaluator {
 public:
  /// Binds to one (profile, cost model) pair. Both must outlive the
  /// evaluator; the profile's statement/sub-plan structure must not change.
  LayoutEvaluator(const WorkloadProfile& profile, const CostModel& cost_model);

  /// Per-worker scoring state: a private copy of the bound layout plus
  /// epoch-stamped sub-plan cost overrides. Valid until the next
  /// Bind/Commit; create fresh Scratches (MakeScratch) after either.
  struct Scratch {
    Layout layout;
    std::vector<double> override_cost;  ///< per flat sub-plan, current epoch
    std::vector<int64_t> stamp;         ///< epoch that wrote override_cost
    std::vector<int64_t> statement_stamp;  ///< epoch that affected a statement
    int64_t epoch = 0;
    std::vector<int32_t> affected;      ///< flat ids touched by this score
    std::vector<double> saved_rows;     ///< row backup while scoring
  };

  /// One candidate move's re-costed sub-plan costs, owned by the caller and
  /// kept across Commits (see the header comment). A default Memo is empty.
  struct Memo {
    int64_t generation = -1;    ///< Bind/Commit count when `costs` was filled
    std::vector<double> costs;  ///< per affected sub-plan, inverted-index order
  };

  /// Full recomputation: copies `layout`, re-costs every sub-plan through
  /// the oracle, and caches the results. Counts one (full) workload
  /// evaluation. Returns the total, bit-identical to
  /// CostModel::WorkloadCost(profile, layout).
  double Bind(const Layout& layout);

  /// Cached total cost of the currently bound layout, ms. No evaluation is
  /// performed (and none is counted).
  double TotalCost() const { return total_; }

  /// The currently bound layout.
  const Layout& layout() const { return layout_; }

  /// Test/fault-injection access to the bound layout. Mutating it stales the
  /// cached sub-plan costs; callers must Bind() again before scoring (the
  /// greedy search uses this only for SearchOptions::post_move_hook_for_test,
  /// whose corruption is meant to be caught by the row audit).
  Layout& mutable_layout_for_test() { return layout_; }

  Scratch MakeScratch() const;

  /// An empty Memo for moves of `objects` with its cost storage already
  /// sized, so filling it allocates nothing: scoring workers then never
  /// touch the heap for memos.
  Memo MakeMemo(const std::vector<int>& objects) const;

  // -- Thread-safe candidate scoring -----------------------------------------
  // Pure w.r.t. the evaluator: the candidate is "the bound layout with every
  // object of `objects` re-assigned", applied inside `scratch` and undone
  // before returning. Each call counts one (delta) workload evaluation.

  /// Candidate rows: every object of `objects` assigned proportionally
  /// across `disks` (Layout::AssignProportional arithmetic, bit-identical).
  /// With a `memo`, reuses its costs when still fresh and refills it
  /// otherwise; the caller must pass the same Memo only for the same
  /// (objects, disks).
  double ScoreProportionalMove(const std::vector<int>& objects,
                               const std::vector<int>& disks, Scratch* scratch,
                               Memo* memo = nullptr) const;

  /// Candidate rows: every object of `objects` takes its row from `rows`
  /// (used by migration toward a target layout).
  double ScoreRowsFromMove(const std::vector<int>& objects, const Layout& rows,
                           Scratch* scratch) const;

  // -- Staged mutation (single-threaded) --------------------------------------

  /// Stages "assign `new_fractions` (a full row, one entry per disk) to
  /// `object`" and returns the candidate total. Commit() adopts it;
  /// Revert() (or staging another move) drops it.
  double DeltaForMove(int object, const std::vector<double>& new_fractions);

  /// Stages a whole-group proportional re-assignment (the greedy search's
  /// accepted move).
  double DeltaForProportionalMove(const std::vector<int>& objects,
                                  const std::vector<int>& disks);

  /// Stages "every object of `objects` takes its row from `rows`" (the
  /// migration step's accepted move).
  double DeltaForRowsFromMove(const std::vector<int>& objects, const Layout& rows);

  /// Adopts the staged move: writes the new rows into the bound layout,
  /// installs the re-costed sub-plan cache entries, and updates TotalCost()
  /// to the staged total. Debug builds then audit the new total against a
  /// from-scratch recomputation (InvariantAuditor::AuditWorkloadTotal).
  void Commit();

  /// Drops the staged move; the bound layout and caches are untouched.
  void Revert();

  /// Evaluation accounting: delta scorings (Score*/Delta*) vs full
  /// recomputations (Bind). Both are also recorded in the bound CostModel's
  /// WorkloadEvaluations() so layouts_evaluated stays uniform.
  int64_t delta_evaluations() const {
    return delta_evals_.load(std::memory_order_relaxed);
  }
  int64_t full_evaluations() const { return full_evals_; }

  int num_subplans() const { return static_cast<int>(flat_.size()); }

  /// Observe-only decision journal (not owned; may be null). When set, every
  /// Bind() — a full §5 recomputation — appends one "bind" event carrying
  /// the recomputed total and the sub-plan count. Bind is always called from
  /// sequential sections, so the event order is deterministic.
  void set_journal(obs::EventJournal* journal) { journal_ = journal; }

 private:
  /// One flattened (statement, sub-plan) entry, in WorkloadCost's iteration
  /// order.
  struct FlatSubplan {
    const SubplanAccess* subplan = nullptr;
    int32_t statement = 0;  ///< index into statements_
  };
  /// One statement's weight and its contiguous span in flat_ order.
  struct StatementSpan {
    double weight = 1.0;
    int32_t begin = 0;
    int32_t count = 0;
  };

  /// Scores one candidate: stamps the affected sub-plans and statements of
  /// `objects`, takes their costs from a fresh `memo` or re-costs them with
  /// the rows `apply` writes (refilling `memo` when given), and returns the
  /// per-statement fold. Every path — memo hit or miss, parallel scoring,
  /// staging — goes through here. When `restore` is true, the scratch
  /// layout is put back before returning; the staging path passes false so
  /// it can capture the applied rows first.
  template <typename ApplyFn>
  double ScoreCore(const std::vector<int>& objects, const ApplyFn& apply,
                   Scratch* scratch, bool restore, Memo* memo) const;

  /// Backs up `scratch`'s rows for `objects`, then applies the candidate's.
  template <typename ApplyFn>
  void ApplyScratchRows(const std::vector<int>& objects, const ApplyFn& apply,
                        Scratch* scratch) const;

  /// Puts `scratch`'s rows for `objects` back from its saved_rows backup.
  void RestoreScratchRows(const std::vector<int>& objects, Scratch* scratch) const;

  /// Shared staging path: score without restore, capture rows/costs/total
  /// into the staged_* fields, re-sync the staging scratch.
  template <typename ApplyFn>
  double DeltaCore(const std::vector<int>& objects, const ApplyFn& apply);

  /// True when no Commit since `memo` was filled re-costed a sub-plan that
  /// contains an object of `objects`.
  bool MemoFresh(const Memo& memo, const std::vector<int>& objects) const;

  /// Statement `st`'s weighted term, w * (its sub-plan costs summed left to
  /// right); `scratch` (optional) substitutes current-epoch overrides.
  double StatementTerm(size_t st, const Scratch* scratch) const;

  /// Workload total: statement terms added left to right in statement
  /// order, re-folding the statements `scratch` stamped (optional) and
  /// reusing the cached terms of the rest — WorkloadCost's exact
  /// association order.
  double FoldTotal(const Scratch* scratch) const;

  /// Debug-build parity audit of total_ against a from-scratch §5
  /// recomputation.
  void AuditParity() const;

  const WorkloadProfile& profile_;
  const CostModel& cost_model_;

  std::vector<FlatSubplan> flat_;             ///< flattened sub-plans
  std::vector<StatementSpan> statements_;     ///< per-statement spans
  std::vector<std::vector<int32_t>> object_subplans_;  ///< inverted index

  Layout layout_;                    ///< currently bound layout
  std::vector<double> subplan_cost_; ///< cached cost per flat sub-plan
  std::vector<double> statement_term_;  ///< cached weighted term per statement
  double total_ = 0;
  bool bound_ = false;               ///< Bind() has been called

  /// Memo clock: bumped by every Bind/Commit. object_generation_[o] is the
  /// last generation that re-costed a sub-plan containing object o.
  int64_t generation_ = 0;
  std::vector<int64_t> object_generation_;

  // Staged move (Delta* -> Commit/Revert).
  mutable Scratch staging_;
  bool staged_valid_ = false;
  std::vector<int> staged_objects_;
  std::vector<double> staged_rows_;     ///< |objects| x m, row-major
  std::vector<int32_t> staged_affected_;
  std::vector<double> staged_costs_;    ///< parallel to staged_affected_
  double staged_total_ = 0;

  mutable std::atomic<int64_t> delta_evals_{0};
  int64_t full_evals_ = 0;
  obs::EventJournal* journal_ = nullptr;  ///< not owned; see set_journal
};

}  // namespace dblayout

#endif  // DBLAYOUT_LAYOUT_EVALUATOR_H_
