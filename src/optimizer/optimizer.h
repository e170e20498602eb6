// Cost-based query optimizer: binds a parsed DML statement against the
// catalog and produces a physical execution plan annotated with per-object
// block-access estimates. Plays the role of SQL Server's optimizer +
// Showplan ("no-execute") interface in the paper's architecture: the layout
// advisor consumes plans, never runs queries.
//
// Design notes:
//  - Binding: the planner reads the caller's statement through a flattened
//    view (EXISTS / IN subqueries become semi-joined tables) and resolves
//    tables, columns, leading-column indexes and object sizes through the
//    catalog's name -> id maps. Sort keys are interned (bind name, column)
//    pairs; plan strings are built only for the nodes of the chosen plan.
//  - Access paths: heap/clustered scan, clustered-index seek, non-clustered
//    index seek + RID lookup, chosen by estimated block cost.
//  - Join order: left-deep dynamic programming over table subsets (System R)
//    for up to 12 tables; cross joins only when a subset has no connected
//    extension. Longer FROM lists fall back to a greedy
//    smallest-intermediate-result left-deep order.
//  - Join pricing: each extension is priced, not built. The DP keeps one
//    small state per subset (rows, cost, first sort key, a 64-bit mask of
//    the plan's leaf objects, the table joined last and how it was joined)
//    and one memoized join edge (backed-off selectivity, first equi-join
//    keys) per table and set of its join neighbours. From these it prices
//    merge, index-NL and hash alternatives with the same sums a
//    System-R-style cost function takes over the built tree, rebuilding the
//    outer plan's leaves only when a merge join's inputs may read the same
//    object, and builds only the winning chain at the end. The greedy path
//    prices the same way.
//  - Join algorithms: merge join when both inputs arrive sorted on the join
//    key (the common TPC-H case with clustered PKs; otherwise with explicit
//    Sorts when that is cheaper), index nested loops when the inner has a
//    usable index and the outer is small, hash join otherwise (build =
//    smaller input), chosen by cost.
//  - Blocking operators (Sort, Hash Aggregate, hash-join build boundaries)
//    are what the workload analyzer cuts at.

#ifndef DBLAYOUT_OPTIMIZER_OPTIMIZER_H_
#define DBLAYOUT_OPTIMIZER_OPTIMIZER_H_

#include <memory>

#include "catalog/catalog.h"
#include "common/result.h"
#include "optimizer/plan.h"
#include "sql/ast.h"

namespace dblayout {

struct OptimizerOptions {
  /// Maximum estimated outer rows for which index nested-loops join is
  /// considered over hash join.
  double nlj_outer_rows_threshold = 2000;
  /// Physical cost knobs, in sequential-block-equivalents per row, used to
  /// compare join implementations (hash joins pay build/probe work; merge
  /// joins of pre-sorted inputs are nearly free; sorts are expensive; the
  /// sort and nested-loops knobs are constants in optimizer.cc).
  double hash_build_cost_per_row = 0.012;
  double hash_probe_cost_per_row = 0.004;
};

class Optimizer {
 public:
  explicit Optimizer(const Database& db, OptimizerOptions options = {})
      : db_(db), options_(options) {}

  /// Produces the physical plan for `stmt`. Binding errors (unknown table or
  /// column) are reported as NotFound.
  Result<std::unique_ptr<PlanNode>> Plan(const SqlStatement& stmt) const;

  const Database& database() const { return db_; }

 private:
  const Database& db_;
  OptimizerOptions options_;
};

}  // namespace dblayout

#endif  // DBLAYOUT_OPTIMIZER_OPTIMIZER_H_
