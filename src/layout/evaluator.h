// Incremental workload evaluation engine.
//
// The §5 cost decomposes as
//
//   WorkloadCost(L) = sum_Q w_Q * sum_{P in Q} max_j (Transfer_Pj + Seek_Pj)
//
// — a weighted sum over sub-plans of a per-sub-plan term that depends only
// on the layout rows of the objects that sub-plan touches. Moving one object
// (or one co-location group) therefore invalidates exactly the sub-plans
// that read it; every other cached cost is still exact. The LayoutEvaluator
// exploits this: it binds to one (profile, fleet) pair, caches the costs of
// the current layout, and scores a candidate move by re-costing only what
// the move affects. CostModel stays the thin ground-truth oracle: the
// evaluator calls it per sub-plan and is DCHECK-audited against a
// from-scratch recomputation (InvariantAuditor::AuditWorkloadTotal) after
// every Bind and Commit.
//
// Classes. Real workloads repeat themselves, so the evaluator prices each
// distinct piece of work once:
//   - A sub-plan class is a set of sub-plans with equal access lists:
//     element by element and in order, equal `object_id`, bit pattern of
//     `blocks`, `is_write`, `random` and `read_modify_write`. (Order
//     matters: SubplanCost sums transfer in access order.) SubplanCost is a
//     pure function of the access list, the rows of its objects and the
//     fleet, so two sub-plans with equal keys cost the same bits under any
//     layout. One cost is cached per class, and the inverted index maps an
//     object to the classes that read it.
//   - A statement class is a set of statements with the same weight bit
//     pattern and the same sequence of sub-plan classes. Its weighted term,
//     w * (its sub-plan costs summed left to right from 0), is one product
//     of equal factors, so equal keys give equal term bits. One term is
//     cached per class.
//
// Lane fold. Up to kLanes candidates are scored in one pass, each in its
// own lane of the Scratch's [statement class][lane] term buffer, which
// outside a pass holds the cached terms. Per lane, the candidate re-costs
// its affected sub-plan classes (or takes them from its memo) and re-folds
// its affected statement classes into its lane. Then one walk over the
// statements, in statement order, adds each statement's class term into
// kLanes independent accumulators. Each lane therefore adds one term per
// statement, in statement order, starting from 0 — exactly
// CostModel::WorkloadCost's association order — and lanes never mix. A
// lane-wise SIMD add rounds like a scalar IEEE binary64 add, and the fold
// has no multiply (the build pins -ffp-contract=off and uses no
// -ffast-math), so every lane's total is bit-identical to a full
// recomputation of its candidate. That is what makes the greedy search's
// results independent of whether the delta path, the full path, the memo,
// batching, or parallel scoring produced them. DCHECK builds re-fold every
// lane through a scalar walk over the flat statements and sub-plans and
// require the same bits.
//
// Bounds. A pass can instead write a lower bound on each candidate's total,
// priced exactly as above but with no re-fold and no lockstep fold (Pass::
// kBound). With W_c the summed weight of sub-plan class c's occurrences
// (fixed at construction), T = TotalCost() and D = sum over the affected
// classes of W_c * (cost'_c - cost_c), the bound is T + D minus a bound on
// the rounding of both folds, of the weights' sums and of D itself:
//   4 * (S + P_max + n_max + A + 2) * 2^-53 * (2T + sum_c W_c (cost'_c +
//   cost_c) + |D|) + DBL_MIN,
// where S is the number of statements, P_max the most sub-plans in one,
// n_max the most occurrences of one class and A the affected classes (DESIGN
// §10 derives it). When every affected class prices bit-equal to its cached
// cost, every term is unchanged and the bound is T itself, bit for bit. A
// non-finite cost, a negative or non-finite weight, or a non-finite result
// gives -inf. The greedy search then folds exactly (Pass::kFold) only the
// candidates whose bound could still win: a kFold pass reads back what the
// kBound pass priced, from the candidates' memos, and counts no
// evaluation. DCHECK builds check every bound against the scalar reference
// fold below.
//
// Score memo. A caller that scores the same candidate move again after other
// moves were committed can pass a Memo: the candidate's re-costed sub-plan
// class costs, kept across Commits. Commit() bumps a per-object generation
// for every object of every class it re-costs, so a Memo filled at
// generation G for moving objects O is reused only if no object of O has a
// later generation — i.e. no Commit since G re-costed a class containing an
// object of O. The inputs of each memoized cost (the rows of its class's
// objects, O at the candidate's rows) have then not moved, so the cost is
// exactly what SubplanCost would return now. DCHECK builds re-cost every
// memo hit and require each cost and the total to match bit for bit. A hit
// still counts one delta evaluation; `evaluator/memo_hits` counts the hits
// and `evaluator/subplans_recosted` only real re-costs of sub-plan classes.
// The caller keys its memos so that one Memo always stands for the same
// candidate rows.
//
// Thread model: Score* methods are const, touch shared state only read-only
// (memo freshness reads the generations, which only Bind/Commit write),
// and confine all mutation to a caller-provided Scratch and Memos — one
// Scratch per worker (it holds that worker's lane buffer) and one Memo slot
// per candidate make concurrent scoring of disjoint batches race-free. The
// staged Delta*/Commit/Revert mutation API is single-threaded. After a
// pass, Scratch::affected lists the sub-plan classes (not the flat
// sub-plans) of the pass's last candidate.

#ifndef DBLAYOUT_LAYOUT_EVALUATOR_H_
#define DBLAYOUT_LAYOUT_EVALUATOR_H_

#include <atomic>
#include <cstdint>
#include <span>
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
  /// Candidates scored in lockstep by one pass (see the header comment).
  static constexpr int kLanes = 8;

  /// Binds to one (profile, cost model) pair. Both must outlive the
  /// evaluator; the profile's statement/sub-plan structure must not change.
  LayoutEvaluator(const WorkloadProfile& profile, const CostModel& cost_model);

  /// Per-worker scoring state: a private copy of the bound layout,
  /// epoch-stamped sub-plan class cost overrides, and the lane buffer.
  /// Valid until the next Bind/Commit; create fresh Scratches (MakeScratch)
  /// after either.
  struct Scratch {
    Layout layout;
    std::vector<double> override_cost;  ///< per sub-plan class, current epoch
    std::vector<int64_t> stamp;         ///< epoch that wrote override_cost
    std::vector<int64_t> statement_stamp;  ///< epoch that re-folded a statement class
    int64_t epoch = 0;                  ///< one per scored candidate
    /// [statement class][lane] weighted terms; the cached terms outside a
    /// pass, a lane's re-folded terms during it.
    std::vector<double> terms;
    std::vector<int32_t> patched;       ///< `terms` slots the pass overwrote
    /// The sub-plan classes the last scored candidate affected.
    std::vector<int32_t> affected;
    std::vector<double> saved_rows;     ///< row backup while scoring
  };

  /// One candidate move's re-costed sub-plan class costs, owned by the
  /// caller and kept across Commits (see the header comment). A default
  /// Memo is empty.
  struct Memo {
    int64_t generation = -1;    ///< Bind/Commit count when `costs` was filled
    std::vector<double> costs;  ///< per affected sub-plan class, index order
  };

  /// One candidate of a batch: every object of `objects` assigned
  /// proportionally across `disks`, or, when `rows` is set, taking each
  /// object's row from `rows` (migration toward a target layout; `disks` is
  /// then ignored). The memo is optional (see ScoreProportionalMoves). The
  /// pointees must outlive the call.
  struct ProportionalMove {
    const std::vector<int>* objects = nullptr;
    const std::vector<int>* disks = nullptr;
    Memo* memo = nullptr;
    const Layout* rows = nullptr;
  };

  /// Full recomputation: copies `layout`, costs every sub-plan class
  /// through the oracle, and caches the results. Counts one (full) workload
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
  // Pure w.r.t. the evaluator: a candidate is "the bound layout with every
  // object of its `objects` re-assigned", applied inside `scratch` and
  // undone before returning. Each candidate counts one (delta) workload
  // evaluation, except in a kFold pass.

  /// What a scoring pass writes per move (see the header comment).
  enum class Pass {
    /// The exact total.
    kExact,
    /// A lower bound on the exact total, from the move's re-costed
    /// sub-plan classes alone; TotalCost() itself when none of them prices
    /// differently. Prices, fills memos and counts as kExact does.
    kBound,
    /// The exact total of a move that a kBound pass priced since the last
    /// Bind or Commit, read back from its memo (re-costed if it has none).
    /// Counts no evaluation and no memo hit: the kBound pass counted them.
    kFold,
  };

  /// Scores `moves` into `out` (same length) as `pass` says, kLanes
  /// candidates per evaluator pass. Each move's memo, when given, is reused
  /// when still fresh and refilled otherwise; the caller must pass the same
  /// Memo only for the same objects moving to the same rows.
  void ScoreProportionalMoves(std::span<const ProportionalMove> moves,
                              Scratch* scratch, std::span<double> out,
                              Pass pass = Pass::kExact) const;

  /// One candidate: every object of `objects` assigned proportionally
  /// across `disks` (Layout::AssignProportional arithmetic, bit-identical).
  /// A batch of one through ScoreProportionalMoves.
  double ScoreProportionalMove(const std::vector<int>& objects,
                               const std::vector<int>& disks, Scratch* scratch,
                               Memo* memo = nullptr) const;

  // -- Staged mutation (single-threaded) --------------------------------------

  /// Stages a whole-group proportional re-assignment (the greedy search's
  /// accepted move) and returns the candidate total. Commit() adopts it;
  /// Revert() (or staging another move) drops it.
  double DeltaForProportionalMove(const std::vector<int>& objects,
                                  const std::vector<int>& disks);

  /// Stages "every object of `objects` takes its row from `rows`" (the
  /// migration step's accepted move).
  double DeltaForRowsFromMove(const std::vector<int>& objects, const Layout& rows);

  /// Adopts the staged move: writes the new rows into the bound layout,
  /// installs the re-costed class costs and re-folded statement terms, and
  /// updates TotalCost() to the staged total. Debug builds then audit the
  /// new total against a from-scratch recomputation
  /// (InvariantAuditor::AuditWorkloadTotal).
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

  /// Sub-plans of the profile, counting every occurrence.
  int num_subplans() const { return static_cast<int>(subplan_class_.size()); }
  /// Distinct access lists among them (see the header comment).
  int num_subplan_classes() const { return static_cast<int>(subplan_rep_.size()); }
  /// Distinct (weight, sub-plan class sequence) pairs among the statements.
  int num_statement_classes() const {
    return static_cast<int>(statement_classes_.size());
  }

  /// Observe-only decision journal (not owned; may be null). When set, every
  /// Bind() — a full §5 recomputation — appends one "bind" event carrying
  /// the recomputed total and the sub-plan count. Bind is always called from
  /// sequential sections, so the event order is deterministic.
  void set_journal(obs::EventJournal* journal) { journal_ = journal; }

 private:
  /// One statement class: its weight and its sub-plan class sequence, a
  /// span of class_seq_.
  struct StatementClass {
    double weight = 1.0;
    int32_t begin = 0;
    int32_t count = 0;
  };

  /// One lane's candidate: the moved objects and its optional memo. The
  /// rows it takes come from the ApplyFn passed alongside.
  struct Lane {
    const std::vector<int>* objects = nullptr;
    Memo* memo = nullptr;
  };

  /// The one scoring core. Scores up to kLanes candidates into `out`: per
  /// lane, finds the affected sub-plan classes and takes their costs from a
  /// fresh memo or re-costs them with the rows `apply(lane, layout)` writes
  /// (refilling the memo when given). A kBound pass then writes each lane's
  /// LowerBound; the others re-fold the affected statement classes into the
  /// lane and fold every lane in lockstep. Every path — memo hit or miss,
  /// bounds, batches, single calls, parallel scoring, staging — goes
  /// through here.
  template <typename ApplyFn>
  void ScoreCore(Pass pass, std::span<const Lane> lanes, const ApplyFn& apply,
                 Scratch* scratch, double* out) const;

  /// The lower bound on the total of the candidate `scratch` has just
  /// priced (its current-epoch overrides of `scratch->affected`), as the
  /// header comment defines it.
  double LowerBound(const Scratch& scratch) const;

  /// Backs up `scratch`'s rows for `objects`, then applies the candidate's.
  template <typename ApplyFn>
  void ApplyScratchRows(const std::vector<int>& objects, const ApplyFn& apply,
                        Scratch* scratch) const;

  /// Puts `scratch`'s rows for `objects` back from its saved_rows backup.
  void RestoreScratchRows(const std::vector<int>& objects, Scratch* scratch) const;

  /// Shared staging path: score one lane in the staging scratch, capture
  /// rows/costs/total into the staged_* fields.
  template <typename ApplyFn>
  double DeltaCore(const std::vector<int>& objects, const ApplyFn& apply);

  /// True when no Commit since `memo` was filled re-costed a sub-plan class
  /// that contains an object of `objects`.
  bool MemoFresh(const Memo& memo, const std::vector<int>& objects) const;

  /// Sub-plan class `c`'s cost: `scratch`'s current-epoch override when it
  /// has one (`scratch` may be null), else the cached cost.
  double ClassCost(int32_t c, const Scratch* scratch) const;

  /// Statement class `sc`'s weighted term, w * (its sub-plan class costs
  /// summed left to right); `scratch` (optional) substitutes the
  /// current-epoch overrides.
  double StatementTerm(size_t sc, const Scratch* scratch) const;

  /// Bound total: the cached statement class terms added left to right in
  /// statement order — WorkloadCost's exact association order.
  double FoldTotal() const;

  /// DCHECK reference: a scalar fold over the flat statements and
  /// sub-plans, from the class costs with `scratch`'s current-epoch
  /// overrides (optional) — the fold the lanes must reproduce bit for bit.
  double ReferenceTotal(const Scratch* scratch) const;

  /// Debug-build audits of the class keys (construction) and of total_
  /// against a from-scratch §5 recomputation (after Bind/Commit).
  void AuditClasses() const;
  void AuditParity() const;

  const WorkloadProfile& profile_;
  const CostModel& cost_model_;

  // Class structure, fixed at construction.
  std::vector<const SubplanAccess*> subplan_rep_;  ///< class -> representative
  std::vector<int32_t> subplan_class_;  ///< flat sub-plan -> class, WorkloadCost order
  /// The inverted index: object -> the sub-plan classes that read it.
  std::vector<std::vector<int32_t>> object_classes_;
  std::vector<std::vector<int32_t>> class_statements_;  ///< class -> statement classes
  std::vector<StatementClass> statement_classes_;
  std::vector<int32_t> class_seq_;        ///< statement classes' class sequences
  std::vector<int32_t> statement_class_;  ///< statement -> statement class
  /// Per sub-plan class, its occurrences' weights summed in WorkloadCost's
  /// order: W_c of the header comment.
  std::vector<double> class_weight_;
  /// S + P_max + n_max + 2 of the bound's error factor.
  int64_t bound_terms_ = 0;
  /// Every weight is finite and non-negative, and the operation counts are
  /// small enough for the error bound (see LowerBound); else every bound is
  /// -inf.
  bool bound_ok_ = false;

  Layout layout_;                    ///< currently bound layout
  std::vector<double> class_cost_;   ///< cached cost per sub-plan class
  std::vector<double> statement_term_;  ///< cached term per statement class
  double total_ = 0;
  bool bound_ = false;               ///< Bind() has been called

  /// Memo clock: bumped by every Bind/Commit. object_generation_[o] is the
  /// last generation that re-costed a sub-plan class containing object o.
  int64_t generation_ = 0;
  std::vector<int64_t> object_generation_;

  // Staged move (Delta* -> Commit/Revert).
  mutable Scratch staging_;
  bool staged_valid_ = false;
  std::vector<int> staged_objects_;
  std::vector<double> staged_rows_;     ///< |objects| x m, row-major
  std::vector<int32_t> staged_affected_;  ///< re-costed sub-plan classes
  std::vector<double> staged_costs_;    ///< parallel to staged_affected_
  double staged_total_ = 0;

  mutable std::atomic<int64_t> delta_evals_{0};
  int64_t full_evals_ = 0;
  obs::EventJournal* journal_ = nullptr;  ///< not owned; see set_journal
};

}  // namespace dblayout

#endif  // DBLAYOUT_LAYOUT_EVALUATOR_H_
