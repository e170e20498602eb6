// The Analyze Workload component (Section 4): obtains the execution plan of
// every statement in "no-execute" mode (via the optimizer), decomposes each
// plan into non-blocking sub-plans, and derives
//   (a) the per-statement access profile the cost model consumes, and
//   (b) the access graph (Fig. 6) the search's partitioning step consumes.

#ifndef DBLAYOUT_WORKLOAD_ANALYZER_H_
#define DBLAYOUT_WORKLOAD_ANALYZER_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "graph/weighted_graph.h"
#include "optimizer/optimizer.h"
#include "workload/workload.h"

namespace dblayout {

/// The analyzed form of one workload statement.
struct StatementProfile {
  std::string sql;
  double weight = 1.0;
  int stream = 0;  ///< concurrency stream tag (see WorkloadStatement)
  std::unique_ptr<PlanNode> plan;  ///< null for synthesized merged statements
  std::vector<SubplanAccess> subplans;
};

/// The analyzed workload: everything the cost model and search need. The
/// original SQL is never executed, and (as in the paper) the produced plans
/// do not depend on the current layout.
struct WorkloadProfile {
  std::vector<StatementProfile> statements;
  size_t num_objects = 0;

  /// Total blocks accessed of each object across the workload (weighted),
  /// indexed by object id, in one pass. Each total adds its object's terms
  /// in statement, sub-plan and access order. Accesses of ids outside
  /// [0, num_objects) are ignored.
  std::vector<double> NodeBlockTotals() const;
};

/// Analyzes `workload` against `db`. Fails if any statement does not bind.
Result<WorkloadProfile> AnalyzeWorkload(const Database& db, const Workload& workload,
                                        const OptimizerOptions& options = {});

/// One workload statement the optimizer could not plan (usually a
/// trace/schema mismatch: the statement references objects the schema does
/// not define). Produced by AnalyzeWorkloadLenient.
struct StatementAnalysisError {
  size_t statement_index = 0;  ///< index into workload.statements()
  std::string sql;
  Status status;
};

/// Like AnalyzeWorkload, but statements that fail to plan are collected into
/// `errors` (when non-null) instead of failing the whole analysis. The
/// returned profile contains only the plannable statements. Used by the lint
/// subsystem, which reports mismatched statements as diagnostics.
WorkloadProfile AnalyzeWorkloadLenient(const Database& db, const Workload& workload,
                                       std::vector<StatementAnalysisError>* errors,
                                       const OptimizerOptions& options = {});

/// Per-object flag: true if the profile's statements access object id `i`
/// in any sub-plan. Objects never referenced by the workload get no say in
/// the layout search and are flagged by lint.
std::vector<bool> ReferencedObjects(const WorkloadProfile& profile);

/// Concurrency extension (the paper's §9 "ongoing work"): models concurrent
/// execution of statements tagged with different positive stream ids by
/// zipping their pipelines round-robin. Pipelines active in the same round
/// are merged into one synthesized non-blocking pipeline, so their objects
/// become co-accessed for the cost model and the access graph alike.
/// Statements with stream <= 0 pass through unchanged. The synthesized
/// merged statements carry weight 1 and a null plan (trace semantics: a
/// stream already encodes repetition).
WorkloadProfile MergeConcurrentStreams(const WorkloadProfile& profile);

/// Workload compression: statements whose sub-plan access signatures are
/// identical (same pipelines over the same objects with the same block
/// counts and access kinds — e.g. the hundreds of near-identical drill-down
/// queries of APB-800) are collapsed into one statement with the summed
/// weight. The cost model and access graph are *exactly* invariant under
/// this transformation, while the search evaluates far fewer statements.
/// Synthesized statements carry a null plan and stream 0. Statements with
/// positive stream tags are left uncompressed (they matter individually for
/// concurrency merging). This is ProfileCompressor run from an empty start.
WorkloadProfile CompressProfile(const WorkloadProfile& profile);

/// CompressProfile's fold, kept open so that statements can arrive over
/// time (the service folds each window into its accumulated profile). In
/// statement order, a positive stream tag or a new signature appends a
/// representative to `out`; a repeated signature adds its weight to the
/// existing one. A compressed profile never holds two representatives with
/// one signature, so folding the statements of several profiles one after
/// another adds the same weights in the same order as compressing their
/// concatenation: the result is bit-identical.
class ProfileCompressor {
 public:
  /// Folds `statement` into `out`, which must hold exactly the statements
  /// this compressor folded so far.
  void Fold(const StatementProfile& statement, WorkloadProfile* out);

 private:
  std::unordered_map<std::string, size_t> index_of_;  ///< signature -> out index
  std::string signature_;                             ///< scratch, reused
};

/// Stable text encoding of a statement's sub-plan access structure: the
/// object ids, block counts (rounded so float noise does not defeat
/// matching), and access kinds of every pipeline. Two statements with equal
/// signatures are indistinguishable to the cost model and the access graph;
/// CompressProfile collapses them.
std::string AccessSignature(const StatementProfile& statement);

/// Cache-ability summary of an analyzed workload: how far CompressProfile
/// could shrink it. distinct_signatures counts unique AccessSignature values
/// among compressible (stream <= 0) statements, plus the stream-tagged
/// statements that are kept individual.
struct ProfileAccessStats {
  int64_t statements = 0;
  int64_t subplans = 0;
  int64_t distinct_signatures = 0;
};
ProfileAccessStats ComputeProfileStats(const WorkloadProfile& profile);

/// Builds the access graph of Fig. 6 from an analyzed workload: node weights
/// are weighted blocks accessed; an edge (u,v) accumulates, over every
/// sub-plan co-accessing u and v, the sum of the blocks of u and v accessed
/// in that sub-plan (times statement weight).
WeightedGraph BuildAccessGraph(const WorkloadProfile& profile);

/// Renders the access graph with object names for debugging/EXPLAIN output.
std::string AccessGraphToString(const WeightedGraph& g, const Database& db);

}  // namespace dblayout

#endif  // DBLAYOUT_WORKLOAD_ANALYZER_H_
