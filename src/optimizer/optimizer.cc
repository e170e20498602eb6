#include "optimizer/optimizer.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>

#include "common/logging.h"
#include "common/strutil.h"
#include "optimizer/selectivity.h"

namespace dblayout {

namespace {

/// A table bound into the FROM clause.
struct BoundTable {
  const Table* table = nullptr;
  std::string bind_name;  ///< alias if present, else table name
  int object_id = -1;     ///< base object (heap / clustered index)
};

/// Qualified column name used for order tracking: "<bind_name>.<column>".
std::string QualName(const std::string& bind, const std::string& col) {
  return bind + "." + col;
}

/// Join orders are enumerated with left-deep dynamic programming for up to
/// this many tables; longer FROM lists fall back to a greedy order. The DP
/// indexes its subset states and its join-edge memo with size_t bitmasks.
constexpr int kDpJoinTableLimit = 12;
static_assert(kDpJoinTableLimit < 64, "DP subset masks are 64-bit");

/// Cost multiplier for a random block access relative to a sequential one
/// when choosing access paths.
constexpr double kRandomIoPenalty = 4.0;
/// Physical cost knobs, in sequential-block-equivalents per row (see
/// OptimizerOptions for the hash-join ones): sorts are expensive.
constexpr double kSortCostPerRow = 0.05;
constexpr double kNljCostPerOuterRow = 0.01;

/// One leaf I/O of a plan: a node touching `blocks` blocks of `object_id`.
struct PlanLeaf {
  int object_id = -1;
  double blocks = 0;
};

/// Appends the leaf I/Os of `node`'s subtree in DFS order.
void CollectLeaves(const PlanNode& node, std::vector<PlanLeaf>* leaves) {
  if (node.object_id >= 0 && node.blocks_accessed > 0) {
    leaves->push_back(PlanLeaf{node.object_id, node.blocks_accessed});
  }
  for (const auto& child : node.children) CollectLeaves(*child, leaves);
}

/// Bit `object_id % 64`: JoinSide::objects holds one per leaf object, so
/// two plans can share an object only when their masks intersect.
uint64_t ObjectBit(int object_id) { return uint64_t{1} << (object_id % 64); }

/// What join enumeration keeps of a left-deep plan instead of the plan
/// itself: enough to price joining one more table exactly as ImplCost prices
/// the built tree. The plan's leaves are not kept: they matter only to a
/// merge join's same-object surcharge, and `objects` says when they can.
struct JoinSide {
  double rows = 0;
  double cost = 0;       ///< ImplCost of the plan
  int sort_key = -1;     ///< interned sort_order[0]; -1 if unordered
  uint64_t objects = 0;  ///< ObjectBit of every leaf (possibly more bits)
};

/// Physical join alternatives, in tie-break order: on equal cost the
/// earlier one wins.
enum JoinImpl { kMergeImpl, kIndexNljImpl, kHashImpl, kNumJoinImpls };

/// One side of a join predicate: a sort key for merge joins, and the seek
/// an index nested-loops join would do into that side's table.
struct JoinKey {
  std::string name;               ///< "<bind>.<column>"
  int id = -1;                    ///< interned `name`
  bool clustered_seek = false;    ///< the clustered key leads with the column
  const Index* index = nullptr;   ///< otherwise: a non-clustered index on it
  int index_object = -1;
  double index_blocks = 0;
  double data_blocks = 0;         ///< the table's data blocks
  double table_rows = 0;
};

/// What PriceJoin reads from the join predicates connecting an inner table
/// to the outer plan. It depends only on which of the inner's neighbours
/// the outer holds, so the DP computes it once per such set.
struct JoinEdge {
  double sel = 1.0;  ///< selectivity of the predicates, backed off
  /// Sides of the first equi-join predicate; null when none connects.
  const JoinKey* left_key = nullptr;
  const JoinKey* right_key = nullptr;
  int preds = 0;  ///< connecting predicates; 0 for a cross join
};

/// The winning alternative of a priced join and the shape of its inner:
/// what BuildJoin needs beyond the keys, and all a subset state needs to
/// rebuild its plan's leaves.
struct JoinStep {
  JoinImpl impl = kHashImpl;
  bool left_builds = false;   ///< hash: the left input is the build side
  double seek_blocks = 0;     ///< index NLJ: clustered or index seek I/O
  double lookup_blocks = 0;   ///< index NLJ: RID-lookup I/O (index seek only)
};

/// PriceJoin's verdict on joining a left-deep plan with one more table:
/// every feasible alternative's cost, the winner's JoinSide, and what
/// BuildJoin needs to materialize any of them.
struct JoinPrice {
  JoinSide out;  ///< the winner (rows are the same for every alternative)
  JoinStep step;
  bool feasible[kNumJoinImpls] = {};
  double cost[kNumJoinImpls] = {};  ///< ImplCost of each feasible alternative
  /// Sides of the first equi-join predicate; null when none connects.
  const JoinKey* left_key = nullptr;
  const JoinKey* right_key = nullptr;
  bool left_sorted = false;   ///< merge: the left input needs no Sort
  bool right_sorted = false;  ///< merge: the right input needs no Sort
};

/// ImplCost's merge-join surcharge for inputs reading the same object,
/// added to `*cost` in ImplCost's order: shared objects by ascending id,
/// each side's blocks of the object summed in DFS order.
void AddSameObjectSurcharge(const std::vector<PlanLeaf>& left,
                            const std::vector<PlanLeaf>& right, double* cost) {
  for (int prev = -1;;) {
    int obj = std::numeric_limits<int>::max();
    for (const PlanLeaf& r : right) {
      if (r.object_id > prev && r.object_id < obj) obj = r.object_id;
    }
    if (obj == std::numeric_limits<int>::max()) return;
    prev = obj;
    bool shared = false;
    double left_blocks = 0.0;
    for (const PlanLeaf& l : left) {
      if (l.object_id != obj) continue;
      left_blocks += l.blocks;
      shared = true;
    }
    if (!shared) continue;
    double right_blocks = 0.0;
    for (const PlanLeaf& r : right) {
      if (r.object_id == obj) right_blocks += r.blocks;
    }
    *cost += left_blocks + right_blocks;
  }
}

/// ConnectingPreds' membership test for the tables of bitmask `mask`.
auto InMask(size_t mask) {
  return [mask](size_t u) { return ((mask >> u) & 1) != 0; };
}

/// A PriceJoin leaf source for an outer plan that is already built.
auto BuiltLeaves(const PlanNode& plan, std::vector<PlanLeaf>* scratch) {
  return [&plan, scratch]() -> const std::vector<PlanLeaf>& {
    scratch->clear();
    CollectLeaves(plan, scratch);
    return *scratch;
  };
}

/// Flattens [NOT] EXISTS and IN-subquery predicates into the outer query:
/// the subquery's tables and conjuncts join the outer FROM list (an IN
/// subquery additionally contributes the equi-join between the tested
/// column and the subquery's selected column). For layout purposes the
/// semi/anti-join distinction only changes cardinalities, not which objects
/// are co-accessed, so output-row semantics follow the plain join.
void FlattenSubqueries(SelectStatement* sel) {
  std::vector<Predicate> flat;
  for (Predicate& p : sel->where) {
    if (p.kind != Predicate::Kind::kExists &&
        p.kind != Predicate::Kind::kInSubquery) {
      flat.push_back(std::move(p));
      continue;
    }
    if (p.subquery == nullptr) continue;  // defensive
    SelectStatement sub = *p.subquery;
    FlattenSubqueries(&sub);
    if (p.kind == Predicate::Kind::kInSubquery && !sub.items.empty()) {
      Predicate join;
      join.kind = Predicate::Kind::kJoin;
      join.lhs = p.lhs;
      join.op = CompareOp::kEq;
      join.rhs_column = sub.items[0].column;
      flat.push_back(std::move(join));
    }
    for (TableRef& tr : sub.from) {
      tr.semi_join = true;
      sel->from.push_back(std::move(tr));
    }
    for (Predicate& w : sub.where) flat.push_back(std::move(w));
  }
  sel->where = std::move(flat);
}

class SelectPlanner {
 public:
  SelectPlanner(const Database& db, const OptimizerOptions& options,
                const SelectStatement& sel)
      : db_(db), options_(options), sel_(sel) {
    FlattenSubqueries(&sel_);
  }

  Result<std::unique_ptr<PlanNode>> Run();

 private:
  Status Bind();
  /// Resolves a column reference to (bound-table index, column). Unqualified
  /// names search all bound tables; ambiguity resolves to the first match.
  Result<std::pair<size_t, const Column*>> Resolve(const ColumnRef& ref) const;

  /// Interns a "<bind>.<column>" sort key: equal names, equal ids.
  int InternKey(const std::string& name);
  /// `column` of bound table `t` as a join key.
  JoinKey MakeJoinKey(size_t t, const std::string& column);

  Result<std::unique_ptr<PlanNode>> BuildAccessPath(size_t t);
  Result<std::unique_ptr<PlanNode>> BuildJoinTree();
  Result<std::unique_ptr<PlanNode>> BuildJoinTreeDp();
  std::unique_ptr<PlanNode> BuildJoinTreeGreedy();

  /// Physical cost of a plan subtree in sequential-block-equivalents:
  /// leaf I/O (random blocks weighted by the random-I/O penalty) plus
  /// per-operator CPU/blocking surcharges. Used to pick join orders and
  /// implementations, like a System-R cost function. The reference for
  /// PriceJoin, which computes the same sums without a tree.
  double ImplCost(const PlanNode& node) const;
  std::unique_ptr<PlanNode> AddAggregation(std::unique_ptr<PlanNode> input);
  std::unique_ptr<PlanNode> AddOrderByAndTop(std::unique_ptr<PlanNode> input);

  /// Sets `*preds` to the join predicates (indices into join_preds_, in
  /// order) connecting bound table `t` to a table `u` with `in_left(u)`.
  template <typename InLeft>
  void ConnectingPreds(size_t t, InLeft in_left, std::vector<size_t>* preds) const;

  /// The JoinEdge of bound table `t` (inner) over the connecting predicates
  /// `preds`.
  JoinEdge MakeEdge(size_t t, const std::vector<size_t>& preds);
  /// Fills the DP's edge memo: one JoinEdge per bound table t and subset of
  /// t's join neighbours.
  void BuildEdgeMemo();
  /// The memoized JoinEdge of table `t` joined to the tables of `rest`.
  const JoinEdge& Edge(size_t t, size_t rest) const;

  /// Prices joining the plan summarized by `left` (outer) with bound table
  /// `t`'s access path (inner) over `edge`: merge, index nested-loops and
  /// hash join, each costed exactly as ImplCost would cost its tree.
  /// `left_leaves()` returns the outer plan's leaves in DFS order; it is
  /// called only when a merge join's inputs may read the same object.
  /// Allocates no plan nodes.
  template <typename LeftLeaves>
  void PriceJoin(const JoinSide& left, LeftLeaves&& left_leaves, size_t t,
                 const JoinEdge& edge, JoinPrice* price) const;

  /// Materializes alternative `impl` of `price` on top of `left`.
  std::unique_ptr<PlanNode> BuildJoin(std::unique_ptr<PlanNode> left, size_t t,
                                      const std::vector<size_t>& preds,
                                      const JoinPrice& price, JoinImpl impl) const;

  /// Appends to `*leaves`, the outer plan's leaves in DFS order, the leaves
  /// that joining table `t` as `step` says adds, in the built tree's DFS
  /// order. `inner` is the join's right key (used by index NLJ only).
  void AddJoinLeaves(size_t t, const JoinKey* inner, const JoinStep& step,
                     std::vector<PlanLeaf>* leaves) const;

  /// Join-enumeration state of one table subset: its cheapest left-deep
  /// plan, summarized, the table joined last (-1 while unreached) and how it
  /// was joined.
  struct DpState {
    JoinSide side;
    int last = -1;
    JoinStep step;
  };
  /// The tables of subset `mask` in the order the DP joined them.
  static std::vector<size_t> DpJoinOrder(const std::vector<DpState>& best, size_t mask);
  /// Sets `*leaves` to the leaves, in DFS order, of the plan the DP chose
  /// for subset `mask`, without building it.
  void DpLeaves(const std::vector<DpState>& best, size_t mask,
                std::vector<PlanLeaf>* leaves) const;
  /// Builds the left-deep plan the DP chose for subset `mask` by replaying
  /// its joins.
  std::unique_ptr<PlanNode> BuildChain(const std::vector<DpState>& best, size_t mask) const;

  /// DCHECK builds: builds every alternative `price` priced on top of
  /// `left` and checks that ImplCost agrees bit for bit, that the winner's
  /// rows and sort key are the ones PriceJoin reported, that its leaves are
  /// the ones AddJoinLeaves rebuilds, and that its object mask covers them.
  void AuditPrice(const PlanNode& left, size_t t, const std::vector<size_t>& preds,
                  const JoinPrice& price) const;

  const Database& db_;
  const OptimizerOptions& options_;
  SelectStatement sel_;

  std::vector<BoundTable> bound_;
  std::vector<std::vector<const Predicate*>> local_preds_;  // per bound table
  std::vector<double> local_sel_;                            // per bound table
  // Join predicates with both endpoints resolved.
  struct JoinPred {
    const Predicate* pred;
    size_t lhs_table, rhs_table;
    const Column* lhs_col;
    const Column* rhs_col;
    double sel;        ///< estimated selectivity
    std::string text;  ///< "<lhs><op><rhs>", for join-node details
    JoinKey lhs_key, rhs_key;
  };
  std::vector<JoinPred> join_preds_;
  std::vector<std::vector<size_t>> incident_preds_;  // per bound table
  std::map<std::string, int> key_ids_;

  // Per bound table: its access path, that path's JoinSide and its leaves.
  std::vector<std::unique_ptr<PlanNode>> access_paths_;
  std::vector<JoinSide> access_sides_;
  std::vector<std::vector<PlanLeaf>> access_leaves_;
  std::vector<double> sel_scratch_;  // MakeEdge's predicate selectivities

  // The DP's edge memo. Table t's entries start at edge_begin_[t]; entry k
  // covers the neighbours edge_neighbours_[t][i] with bit i of k set.
  std::vector<std::vector<size_t>> edge_neighbours_;  // ascending
  std::vector<size_t> edge_begin_;
  std::vector<JoinEdge> edges_;
};

Status SelectPlanner::Bind() {
  if (sel_.from.empty()) return Status::InvalidArgument("SELECT with empty FROM");
  for (const auto& ref : sel_.from) {
    const Table* t = db_.FindTable(ref.table);
    if (t == nullptr) {
      return Status::NotFound(StrFormat("unknown table '%s'", ref.table.c_str()));
    }
    auto id = db_.ObjectIdOfTable(ref.table);
    DBLAYOUT_CHECK(id.ok());
    bound_.push_back(BoundTable{t, ref.BindName(), id.value()});
  }
  local_preds_.assign(bound_.size(), {});
  local_sel_.assign(bound_.size(), 1.0);
  incident_preds_.assign(bound_.size(), {});

  for (const auto& p : sel_.where) {
    if (p.kind == Predicate::Kind::kJoin) {
      auto lhs = Resolve(p.lhs);
      if (!lhs.ok()) return lhs.status();
      auto rhs = Resolve(p.rhs_column);
      if (!rhs.ok()) return rhs.status();
      if (lhs.value().first == rhs.value().first) {
        // Same-table column comparison: treat as a cheap local filter.
        local_preds_[lhs.value().first].push_back(&p);
        local_sel_[lhs.value().first] *= kDefaultRangeSelectivity;
      } else {
        const auto [lt, lcol] = lhs.value();
        const auto [rt, rcol] = rhs.value();
        const double sel = p.op == CompareOp::kEq
                               ? JoinSelectivity(lcol->distinct_count, rcol->distinct_count)
                               : kDefaultRangeSelectivity;
        incident_preds_[lt].push_back(join_preds_.size());
        incident_preds_[rt].push_back(join_preds_.size());
        join_preds_.push_back(JoinPred{
            &p, lt, rt, lcol, rcol, sel,
            p.lhs.ToString() + CompareOpName(p.op) + p.rhs_column.ToString(),
            MakeJoinKey(lt, p.lhs.column), MakeJoinKey(rt, p.rhs_column.column)});
      }
    } else {
      auto lhs = Resolve(p.lhs);
      if (!lhs.ok()) return lhs.status();
      local_preds_[lhs.value().first].push_back(&p);
      local_sel_[lhs.value().first] *= PredicateSelectivity(p, lhs.value().second);
    }
  }
  for (double& s : local_sel_) s = std::max(s, kMinSelectivity);
  return Status::OK();
}

Result<std::pair<size_t, const Column*>> SelectPlanner::Resolve(
    const ColumnRef& ref) const {
  if (!ref.qualifier.empty()) {
    for (size_t t = 0; t < bound_.size(); ++t) {
      if (ToLower(bound_[t].bind_name) == ToLower(ref.qualifier) ||
          ToLower(bound_[t].table->name) == ToLower(ref.qualifier)) {
        const Column* col = bound_[t].table->FindColumn(ref.column);
        if (col == nullptr) {
          return Status::NotFound(StrFormat("column '%s' not in table '%s'",
                                            ref.column.c_str(),
                                            bound_[t].table->name.c_str()));
        }
        return std::make_pair(t, col);
      }
    }
    return Status::NotFound(
        StrFormat("unknown table or alias '%s'", ref.qualifier.c_str()));
  }
  for (size_t t = 0; t < bound_.size(); ++t) {
    const Column* col = bound_[t].table->FindColumn(ref.column);
    if (col != nullptr) return std::make_pair(t, col);
  }
  return Status::NotFound(StrFormat("unresolved column '%s'", ref.column.c_str()));
}

int SelectPlanner::InternKey(const std::string& name) {
  return key_ids_.emplace(name, static_cast<int>(key_ids_.size())).first->second;
}

JoinKey SelectPlanner::MakeJoinKey(size_t t, const std::string& column) {
  const BoundTable& bt = bound_[t];
  const Table& table = *bt.table;
  JoinKey key;
  key.name = QualName(bt.bind_name, column);
  key.id = InternKey(key.name);
  const std::string col_name = key.name.substr(key.name.find('.') + 1);
  key.clustered_seek = !table.clustered_key.empty() && table.clustered_key[0] == col_name;
  if (!key.clustered_seek) key.index = db_.IndexOnColumn(table.name, col_name);
  if (key.index != nullptr) {
    auto ix_id = db_.ObjectIdOfIndex(table.name, key.index->name);
    DBLAYOUT_CHECK(ix_id.ok());
    key.index_object = ix_id.value();
    key.index_blocks = static_cast<double>(db_.IndexBlocks(*key.index));
  }
  key.data_blocks = static_cast<double>(table.DataBlocks());
  key.table_rows = static_cast<double>(table.row_count);
  return key;
}

Result<std::unique_ptr<PlanNode>> SelectPlanner::BuildAccessPath(size_t t) {
  const BoundTable& bt = bound_[t];
  const Table& table = *bt.table;
  const double data_blocks = static_cast<double>(table.DataBlocks());
  const double out_rows =
      std::max(1.0, static_cast<double>(table.row_count) * local_sel_[t]);

  // Candidate: full scan.
  double best_cost = data_blocks;
  enum class Path { kScan, kClusteredSeek, kNcSeek } best_path = Path::kScan;
  const Predicate* best_pred = nullptr;
  const Index* best_index = nullptr;
  double best_pred_sel = 1.0;

  for (const Predicate* p : local_preds_[t]) {
    // Only sargable shapes drive a seek.
    const bool sargable = p->kind == Predicate::Kind::kBetween ||
                          p->kind == Predicate::Kind::kIn ||
                          (p->kind == Predicate::Kind::kCompareLiteral &&
                           p->op != CompareOp::kNe) ||
                          p->kind == Predicate::Kind::kLike;
    if (!sargable) continue;
    const Column* col = table.FindColumn(p->lhs.column);
    if (col == nullptr) continue;
    const double psel = std::max(PredicateSelectivity(*p, col), kMinSelectivity);

    if (!table.clustered_key.empty() && table.clustered_key[0] == p->lhs.column) {
      const double cost = std::max(1.0, psel * data_blocks);
      if (cost < best_cost) {
        best_cost = cost;
        best_path = Path::kClusteredSeek;
        best_pred = p;
        best_pred_sel = psel;
      }
    }
    if (const Index* ix = db_.IndexOnColumn(table.name, p->lhs.column)) {
      const double index_blocks = static_cast<double>(db_.IndexBlocks(*ix));
      const double lookups = YaoBlocks(static_cast<double>(table.row_count) * psel,
                                       data_blocks,
                                       static_cast<double>(table.row_count));
      const double cost = std::max(1.0, psel * index_blocks) +
                          kRandomIoPenalty * lookups;
      if (cost < best_cost) {
        best_cost = cost;
        best_path = Path::kNcSeek;
        best_pred = p;
        best_index = ix;
        best_pred_sel = psel;
      }
    }
  }

  std::string filter_detail;
  for (const Predicate* p : local_preds_[t]) {
    if (!filter_detail.empty()) filter_detail += " AND ";
    filter_detail += p->lhs.ToString();
  }

  switch (best_path) {
    case Path::kScan: {
      auto node = std::make_unique<PlanNode>(PlanOp::kTableScan);
      node->object_id = bt.object_id;
      node->object_name = table.name;
      node->blocks_accessed = data_blocks;
      node->out_rows = out_rows;
      node->detail = filter_detail;
      if (!table.clustered_key.empty()) {
        for (const auto& k : table.clustered_key) {
          node->sort_order.push_back(QualName(bt.bind_name, k));
        }
      }
      return node;
    }
    case Path::kClusteredSeek: {
      auto node = std::make_unique<PlanNode>(PlanOp::kClusteredSeek);
      node->object_id = bt.object_id;
      node->object_name = table.name;
      node->blocks_accessed = std::max(1.0, best_pred_sel * data_blocks);
      node->out_rows = out_rows;
      node->detail = "seek " + best_pred->lhs.ToString();
      for (const auto& k : table.clustered_key) {
        node->sort_order.push_back(QualName(bt.bind_name, k));
      }
      return node;
    }
    case Path::kNcSeek: {
      auto seek = std::make_unique<PlanNode>(PlanOp::kIndexSeek);
      auto ix_id = db_.ObjectIdOfIndex(table.name, best_index->name);
      DBLAYOUT_CHECK(ix_id.ok());
      seek->object_id = ix_id.value();
      seek->object_name = table.name + "." + best_index->name;
      seek->blocks_accessed =
          std::max(1.0, best_pred_sel * static_cast<double>(db_.IndexBlocks(*best_index)));
      seek->out_rows =
          std::max(1.0, static_cast<double>(table.row_count) * best_pred_sel);
      seek->detail = "seek " + best_pred->lhs.ToString();

      auto lookup = std::make_unique<PlanNode>(PlanOp::kRidLookup);
      lookup->object_id = bt.object_id;
      lookup->object_name = table.name;
      lookup->blocks_accessed =
          YaoBlocks(seek->out_rows, data_blocks, static_cast<double>(table.row_count));
      lookup->random_access = true;
      lookup->out_rows = out_rows;
      lookup->detail = filter_detail;
      for (const auto& k : best_index->key_columns) {
        lookup->sort_order.push_back(QualName(bt.bind_name, k));
      }
      lookup->AddChild(std::move(seek));
      return lookup;
    }
  }
  return Status::Internal("unreachable access path");
}

template <typename InLeft>
void SelectPlanner::ConnectingPreds(size_t t, InLeft in_left,
                                    std::vector<size_t>* preds) const {
  preds->clear();
  for (size_t p : incident_preds_[t]) {
    const JoinPred& jp = join_preds_[p];
    if (in_left(jp.lhs_table == t ? jp.rhs_table : jp.lhs_table)) preds->push_back(p);
  }
}

JoinEdge SelectPlanner::MakeEdge(size_t t, const std::vector<size_t>& preds) {
  // Estimate the join selectivity. Multiple join predicates between the same
  // pair of inputs are usually correlated (e.g. composite foreign keys), so
  // independence would wildly underestimate; apply exponential backoff
  // (s1 * s2^1/2 * s3^1/4 ...) over the predicate selectivities, most
  // selective first. The first equi-join predicate supplies the merge keys
  // and the index nested-loops seek column.
  JoinEdge edge;
  edge.preds = static_cast<int>(preds.size());
  sel_scratch_.clear();
  for (size_t p : preds) {
    const JoinPred& jp = join_preds_[p];
    sel_scratch_.push_back(jp.sel);
    if (jp.pred->op == CompareOp::kEq && edge.left_key == nullptr) {
      const bool rhs_is_right = jp.rhs_table == t;
      edge.left_key = rhs_is_right ? &jp.lhs_key : &jp.rhs_key;
      edge.right_key = rhs_is_right ? &jp.rhs_key : &jp.lhs_key;
    }
  }
  std::sort(sel_scratch_.begin(), sel_scratch_.end());
  double exponent = 1.0;
  for (double s : sel_scratch_) {
    edge.sel *= std::pow(s, exponent);
    exponent /= 2;
  }
  return edge;
}

void SelectPlanner::BuildEdgeMemo() {
  const size_t n = bound_.size();
  edge_neighbours_.assign(n, {});
  edge_begin_.assign(n, 0);
  edges_.clear();
  std::vector<size_t> preds;
  for (size_t t = 0; t < n; ++t) {
    size_t neighbours = 0;
    for (size_t p : incident_preds_[t]) {
      const JoinPred& jp = join_preds_[p];
      neighbours |= size_t{1} << (jp.lhs_table == t ? jp.rhs_table : jp.lhs_table);
    }
    std::vector<size_t>& list = edge_neighbours_[t];
    for (; neighbours != 0; neighbours &= neighbours - 1) {
      list.push_back(static_cast<size_t>(__builtin_ctzll(neighbours)));
    }
    edge_begin_[t] = edges_.size();
    for (size_t k = 0; k < (size_t{1} << list.size()); ++k) {
      size_t rest = 0;
      for (size_t i = 0; i < list.size(); ++i) rest |= ((k >> i) & 1) << list[i];
      ConnectingPreds(t, InMask(rest), &preds);
      edges_.push_back(MakeEdge(t, preds));
    }
  }
}

const JoinEdge& SelectPlanner::Edge(size_t t, size_t rest) const {
  size_t k = 0;
  const std::vector<size_t>& neighbours = edge_neighbours_[t];
  for (size_t i = 0; i < neighbours.size(); ++i) k |= ((rest >> neighbours[i]) & 1) << i;
  return edges_[edge_begin_[t] + k];
}

template <typename LeftLeaves>
void SelectPlanner::PriceJoin(const JoinSide& left, LeftLeaves&& left_leaves, size_t t,
                              const JoinEdge& edge, JoinPrice* price) const {
  const JoinSide& right = access_sides_[t];
  double out_rows = std::max(1.0, left.rows * right.rows * edge.sel);
  // Semi-join semantics: a table flattened out of an EXISTS / IN subquery
  // can only filter the outer side, never multiply it.
  if (sel_.from[t].semi_join) {
    out_rows = std::min(out_rows, std::max(1.0, left.rows));
  }
  price->left_key = edge.left_key;
  price->right_key = edge.right_key;

  // Price every feasible physical alternative, then keep the cheapest
  // (cost-based implementation selection, like System R). Each cost adds
  // ImplCost's terms in ImplCost's order: the node's own surcharge, then
  // its children left to right; a Sort costs its per-row charge, then its
  // input.
  auto sorted_cost = [&](const JoinSide& input, bool already_sorted) {
    return already_sorted ? input.cost
                          : kSortCostPerRow * input.rows + input.cost;
  };
  JoinStep& step = price->step;
  price->feasible[kMergeImpl] = false;
  price->feasible[kIndexNljImpl] = false;
  price->feasible[kHashImpl] = true;

  // Merge join: directly when both inputs already arrive ordered on the
  // join keys; otherwise as a sort-merge join with explicit (blocking) Sort
  // operators under the merge. The sort-based variant rarely beats hash
  // join under default cost knobs — exactly as in real optimizers — but it
  // is a genuine alternative the cost comparison may pick. Inputs whose
  // object masks are disjoint share no object, so their surcharge is 0.
  if (price->left_key != nullptr) {
    price->left_sorted = left.sort_key == price->left_key->id;
    price->right_sorted = right.sort_key == price->right_key->id;
    double c = 0.0;
    if ((left.objects & right.objects) != 0) {
      AddSameObjectSurcharge(left_leaves(), access_leaves_[t], &c);
    }
    c += sorted_cost(left, price->left_sorted);
    c += sorted_cost(right, price->right_sorted);
    price->feasible[kMergeImpl] = true;
    price->cost[kMergeImpl] = c;
  }

  // Index nested loops when the inner (right) has a usable index on the
  // join column and the outer is small.
  const JoinKey* inner = price->right_key;
  if (inner != nullptr && left.rows <= options_.nlj_outer_rows_threshold &&
      (inner->clustered_seek || inner->index != nullptr)) {
    double inner_cost;
    if (inner->clustered_seek) {
      step.seek_blocks = YaoBlocks(std::max(out_rows, left.rows), inner->data_blocks,
                                   inner->table_rows);
      step.lookup_blocks = 0;
      inner_cost = step.seek_blocks * kRandomIoPenalty;
    } else {
      step.seek_blocks = YaoBlocks(left.rows, inner->index_blocks, inner->table_rows);
      step.lookup_blocks = YaoBlocks(out_rows, inner->data_blocks, inner->table_rows);
      inner_cost = step.lookup_blocks * kRandomIoPenalty +
                   step.seek_blocks * kRandomIoPenalty;
    }
    double c = 0.0;
    c += kNljCostPerOuterRow * left.rows;
    c += left.cost;
    c += inner_cost;
    price->feasible[kIndexNljImpl] = true;
    price->cost[kIndexNljImpl] = c;
  }

  // Hash join: build on the smaller input (first child = build).
  step.left_builds = left.rows <= right.rows;
  const JoinSide& build = step.left_builds ? left : right;
  const JoinSide& probe = step.left_builds ? right : left;
  {
    double c = 0.0;
    c += options_.hash_build_cost_per_row * build.rows +
         options_.hash_probe_cost_per_row * probe.rows;
    c += build.cost;
    c += probe.cost;
    price->cost[kHashImpl] = c;
  }

  int best = -1;
  for (int impl = 0; impl < kNumJoinImpls; ++impl) {
    if (price->feasible[impl] && (best < 0 || price->cost[impl] < price->cost[best])) {
      best = impl;
    }
  }
  step.impl = static_cast<JoinImpl>(best);

  JoinSide& out = price->out;
  out.rows = out_rows;
  out.cost = price->cost[best];
  out.objects = left.objects | right.objects;
  switch (step.impl) {
    case kMergeImpl:
      out.sort_key = price->left_key->id;
      break;
    case kIndexNljImpl:
      // The inner reads the base table, or the index and the base table.
      out.sort_key = left.sort_key;
      out.objects = left.objects | ObjectBit(bound_[t].object_id) |
                    (inner->clustered_seek ? 0 : ObjectBit(inner->index_object));
      break;
    default:
      out.sort_key = -1;
      break;
  }
}

void SelectPlanner::AddJoinLeaves(size_t t, const JoinKey* inner, const JoinStep& step,
                                  std::vector<PlanLeaf>* leaves) const {
  const std::vector<PlanLeaf>& right = access_leaves_[t];
  switch (step.impl) {
    case kMergeImpl:
      leaves->insert(leaves->end(), right.begin(), right.end());
      break;
    case kIndexNljImpl: {
      const int base = bound_[t].object_id;
      if (inner->clustered_seek) {
        if (step.seek_blocks > 0) leaves->push_back(PlanLeaf{base, step.seek_blocks});
      } else {
        if (step.lookup_blocks > 0) leaves->push_back(PlanLeaf{base, step.lookup_blocks});
        if (step.seek_blocks > 0) {
          leaves->push_back(PlanLeaf{inner->index_object, step.seek_blocks});
        }
      }
      break;
    }
    default:  // hash: build side first
      leaves->insert(step.left_builds ? leaves->end() : leaves->begin(), right.begin(),
                     right.end());
      break;
  }
}

std::unique_ptr<PlanNode> SelectPlanner::BuildJoin(std::unique_ptr<PlanNode> left,
                                                   size_t t,
                                                   const std::vector<size_t>& preds,
                                                   const JoinPrice& price,
                                                   JoinImpl impl) const {
  std::string detail;
  for (size_t p : preds) {
    if (!detail.empty()) detail += " AND ";
    detail += join_preds_[p].text;
  }
  std::unique_ptr<PlanNode> node;
  switch (impl) {
    case kMergeImpl: {
      auto sorted_input = [](std::unique_ptr<PlanNode> input, bool already_sorted,
                             const std::string& key) {
        if (already_sorted) return input;
        auto sort = std::make_unique<PlanNode>(PlanOp::kSort);
        sort->out_rows = input->out_rows;
        sort->detail = "sort on " + key;
        sort->sort_order = {key};
        sort->AddChild(std::move(input));
        return sort;
      };
      node = std::make_unique<PlanNode>(PlanOp::kMergeJoin);
      node->AddChild(sorted_input(std::move(left), price.left_sorted, price.left_key->name));
      node->AddChild(sorted_input(ClonePlan(*access_paths_[t]), price.right_sorted,
                                  price.right_key->name));
      node->sort_order = node->children[0]->sort_order;
      break;
    }
    case kIndexNljImpl: {
      const BoundTable& bt = bound_[t];
      const JoinKey& key = *price.right_key;
      std::unique_ptr<PlanNode> inner;
      if (key.clustered_seek) {
        inner = std::make_unique<PlanNode>(PlanOp::kClusteredSeek);
        inner->object_id = bt.object_id;
        inner->object_name = bt.table->name;
        inner->blocks_accessed = price.step.seek_blocks;
        inner->random_access = true;
        inner->detail = "seek " + key.name + " = outer";
      } else {
        auto seek = std::make_unique<PlanNode>(PlanOp::kIndexSeek);
        seek->object_id = key.index_object;
        seek->object_name = bt.table->name + "." + key.index->name;
        seek->blocks_accessed = price.step.seek_blocks;
        seek->random_access = true;
        seek->detail = "seek " + key.name + " = outer";
        inner = std::make_unique<PlanNode>(PlanOp::kRidLookup);
        inner->object_id = bt.object_id;
        inner->object_name = bt.table->name;
        inner->blocks_accessed = price.step.lookup_blocks;
        inner->random_access = true;
        inner->AddChild(std::move(seek));
      }
      inner->out_rows = price.out.rows;
      node = std::make_unique<PlanNode>(PlanOp::kNestedLoopsJoin);
      node->sort_order = left->sort_order;
      node->AddChild(std::move(left));
      node->AddChild(std::move(inner));
      break;
    }
    default: {
      node = std::make_unique<PlanNode>(PlanOp::kHashJoin);
      std::unique_ptr<PlanNode> right = ClonePlan(*access_paths_[t]);
      node->AddChild(price.step.left_builds ? std::move(left) : std::move(right));
      node->AddChild(price.step.left_builds ? std::move(right) : std::move(left));
      break;
    }
  }
  node->out_rows = price.out.rows;
  node->detail = std::move(detail);
  return node;
}

void SelectPlanner::AuditPrice([[maybe_unused]] const PlanNode& left,
                               [[maybe_unused]] size_t t,
                               [[maybe_unused]] const std::vector<size_t>& preds,
                               [[maybe_unused]] const JoinPrice& price) const {
#if DBLAYOUT_DCHECK_IS_ON()
  std::vector<PlanLeaf> want;
  CollectLeaves(left, &want);
  AddJoinLeaves(t, price.right_key, price.step, &want);
  for (int impl = 0; impl < kNumJoinImpls; ++impl) {
    if (!price.feasible[impl]) continue;
    const std::unique_ptr<PlanNode> built =
        BuildJoin(ClonePlan(left), t, preds, price, static_cast<JoinImpl>(impl));
    DBLAYOUT_DCHECK_EQ(ImplCost(*built), price.cost[impl]);
    DBLAYOUT_DCHECK_EQ(built->out_rows, price.out.rows);
    if (impl != price.step.impl) continue;
    const int sort_key =
        built->sort_order.empty() ? -1 : key_ids_.at(built->sort_order[0]);
    DBLAYOUT_DCHECK_EQ(sort_key, price.out.sort_key);
    std::vector<PlanLeaf> leaves;
    CollectLeaves(*built, &leaves);
    DBLAYOUT_DCHECK_EQ(leaves.size(), want.size());
    for (size_t i = 0; i < leaves.size() && i < want.size(); ++i) {
      DBLAYOUT_DCHECK_EQ(leaves[i].object_id, want[i].object_id);
      DBLAYOUT_DCHECK_EQ(leaves[i].blocks, want[i].blocks);
      DBLAYOUT_DCHECK((price.out.objects & ObjectBit(leaves[i].object_id)) != 0);
    }
  }
#endif
}

namespace {
/// Collects the leaf objects (and their block counts) of a subtree.
void LeafObjects(const PlanNode& node, std::map<int, double>* blocks) {
  if (node.object_id >= 0 && node.blocks_accessed > 0) {
    (*blocks)[node.object_id] += node.blocks_accessed;
  }
  for (const auto& child : node.children) LeafObjects(*child, blocks);
}
}  // namespace

double SelectPlanner::ImplCost(const PlanNode& node) const {
  double c = node.blocks_accessed *
             (node.random_access ? kRandomIoPenalty : 1.0);
  switch (node.op) {
    case PlanOp::kSort:
      if (!node.children.empty()) {
        c += kSortCostPerRow * node.children[0]->out_rows;
      }
      break;
    case PlanOp::kMergeJoin:
      // Pipelined joins whose two inputs scan the *same* object interleave
      // two cursors over one table and thrash the disk head; surcharge the
      // overlapping volume so the planner prefers alternatives that cut the
      // pipeline (e.g. hash semi-joins), as production optimizers do.
      if (node.children.size() == 2) {
        std::map<int, double> left_leaves, right_leaves;
        LeafObjects(*node.children[0], &left_leaves);
        LeafObjects(*node.children[1], &right_leaves);
        for (const auto& [obj, blocks] : left_leaves) {
          auto it = right_leaves.find(obj);
          if (it != right_leaves.end()) {
            c += blocks + it->second;
          }
        }
      }
      break;
    case PlanOp::kHashJoin:
      if (node.children.size() == 2) {
        c += options_.hash_build_cost_per_row * node.children[0]->out_rows +
             options_.hash_probe_cost_per_row * node.children[1]->out_rows;
      }
      break;
    case PlanOp::kHashAggregate:
      if (!node.children.empty()) {
        c += options_.hash_build_cost_per_row * node.children[0]->out_rows;
      }
      break;
    case PlanOp::kNestedLoopsJoin:
      if (!node.children.empty()) {
        c += kNljCostPerOuterRow * node.children[0]->out_rows;
      }
      break;
    default:
      break;
  }
  for (const auto& child : node.children) c += ImplCost(*child);
  return c;
}

Result<std::unique_ptr<PlanNode>> SelectPlanner::BuildJoinTree() {
  const size_t n = bound_.size();
  access_paths_.resize(n);
  access_sides_.resize(n);
  access_leaves_.resize(n);
  for (size_t t = 0; t < n; ++t) {
    DBLAYOUT_ASSIGN_OR_RETURN(access_paths_[t], BuildAccessPath(t));
    const PlanNode& path = *access_paths_[t];
    JoinSide& side = access_sides_[t];
    side.rows = path.out_rows;
    side.cost = ImplCost(path);
    side.sort_key = path.sort_order.empty() ? -1 : InternKey(path.sort_order[0]);
    CollectLeaves(path, &access_leaves_[t]);
    for (const PlanLeaf& leaf : access_leaves_[t]) side.objects |= ObjectBit(leaf.object_id);
  }
  if (n == 1) return std::move(access_paths_[0]);
  if (static_cast<int>(n) <= kDpJoinTableLimit) return BuildJoinTreeDp();
  return BuildJoinTreeGreedy();
}

Result<std::unique_ptr<PlanNode>> SelectPlanner::BuildJoinTreeDp() {
  // System-R-style left-deep dynamic programming over table subsets, scored
  // by PriceJoin. Cross joins are admitted only when a subset has no
  // connected extension. Only the winning plan is ever built.
  const size_t n = bound_.size();
  BuildEdgeMemo();
  std::vector<DpState> best(size_t{1} << n);
  for (size_t t = 0; t < n; ++t) {
    DpState& s = best[size_t{1} << t];
    s.side = access_sides_[t];
    s.last = static_cast<int>(t);
  }

  JoinPrice price;
  std::vector<PlanLeaf> outer_leaves;
  for (size_t mask = 1; mask < best.size(); ++mask) {
    if ((mask & (mask - 1)) == 0) continue;  // single tables are seeded above
    DpState& s = best[mask];
    // First pass: connected extensions only; second pass admits cross joins
    // if the subset would otherwise be unreachable.
    for (const bool allow_cross : {false, true}) {
      if (allow_cross && s.last >= 0) break;
      for (size_t bits = mask; bits != 0; bits &= bits - 1) {
        const auto t = static_cast<size_t>(__builtin_ctzll(bits));
        const size_t rest = mask & ~(size_t{1} << t);
        if (best[rest].last < 0) continue;
        const JoinEdge& edge = Edge(t, rest);
        if (edge.preds == 0 && !allow_cross) continue;

        PriceJoin(
            best[rest].side,
            [&]() -> const std::vector<PlanLeaf>& {
              DpLeaves(best, rest, &outer_leaves);
              return outer_leaves;
            },
            t, edge, &price);
#if DBLAYOUT_DCHECK_IS_ON()
        std::vector<size_t> preds;
        ConnectingPreds(t, InMask(rest), &preds);
        const JoinEdge fresh = MakeEdge(t, preds);
        DBLAYOUT_DCHECK_EQ(fresh.sel, edge.sel);
        DBLAYOUT_DCHECK(fresh.left_key == edge.left_key);
        DBLAYOUT_DCHECK(fresh.right_key == edge.right_key);
        DBLAYOUT_DCHECK_EQ(fresh.preds, edge.preds);
        AuditPrice(*BuildChain(best, rest), t, preds, price);
#endif
        if (s.last < 0 || price.out.cost < s.side.cost) {
          s.side = price.out;
          s.last = static_cast<int>(t);
          s.step = price.step;
        }
      }
    }
    if (s.last < 0 && mask + 1 == best.size()) {
      return Status::Internal("join enumeration failed to cover all tables");
    }
  }
  std::unique_ptr<PlanNode> plan = BuildChain(best, best.size() - 1);
  DBLAYOUT_DCHECK_EQ(ImplCost(*plan), best.back().side.cost);
  return plan;
}

std::vector<size_t> SelectPlanner::DpJoinOrder(const std::vector<DpState>& best,
                                               size_t mask) {
  std::vector<size_t> order;
  for (size_t m = mask; m != 0;) {
    const auto t = static_cast<size_t>(best[m].last);
    order.push_back(t);
    m &= ~(size_t{1} << t);
  }
  std::reverse(order.begin(), order.end());
  return order;
}

void SelectPlanner::DpLeaves(const std::vector<DpState>& best, size_t mask,
                             std::vector<PlanLeaf>* leaves) const {
  const std::vector<size_t> order = DpJoinOrder(best, mask);
  *leaves = access_leaves_[order[0]];
  size_t joined = size_t{1} << order[0];
  for (size_t k = 1; k < order.size(); ++k) {
    const size_t t = order[k];
    const JoinKey* inner = Edge(t, joined).right_key;
    joined |= size_t{1} << t;
    AddJoinLeaves(t, inner, best[joined].step, leaves);
  }
}

std::unique_ptr<PlanNode> SelectPlanner::BuildChain(const std::vector<DpState>& best,
                                                    size_t mask) const {
  const std::vector<size_t> order = DpJoinOrder(best, mask);
  size_t joined = size_t{1} << order[0];
  std::unique_ptr<PlanNode> plan = ClonePlan(*access_paths_[order[0]]);
  std::vector<size_t> preds;
  std::vector<PlanLeaf> leaves;
  JoinPrice price;
  for (size_t k = 1; k < order.size(); ++k) {
    const size_t t = order[k];
    ConnectingPreds(t, InMask(joined), &preds);
    PriceJoin(best[joined].side, BuiltLeaves(*plan, &leaves), t, Edge(t, joined), &price);
    plan = BuildJoin(std::move(plan), t, preds, price, price.step.impl);
    joined |= size_t{1} << t;
  }
  return plan;
}

std::unique_ptr<PlanNode> SelectPlanner::BuildJoinTreeGreedy() {
  // Greedy left-deep enumeration: start from the smallest input; repeatedly
  // add the connected table minimizing the estimated result size. Tables
  // with no join edge are cross-joined last.
  const size_t n = bound_.size();
  size_t start = 0;
  for (size_t i = 1; i < n; ++i) {
    if (access_sides_[i].rows < access_sides_[start].rows) start = i;
  }
  std::unique_ptr<PlanNode> plan = ClonePlan(*access_paths_[start]);
  JoinSide current = access_sides_[start];
  std::vector<bool> used(n, false);
  used[start] = true;
  auto in_current = [&used](size_t u) -> bool { return used[u]; };

  std::vector<size_t> preds;
  std::vector<size_t> best_preds;
  std::vector<PlanLeaf> leaves;
  JoinPrice price;
  for (size_t step = 1; step < n; ++step) {
    // Find the best next input.
    double best_rows = std::numeric_limits<double>::infinity();
    size_t best_i = n;
    bool best_connected = false;
    for (size_t i = 0; i < n; ++i) {
      if (used[i]) continue;
      ConnectingPreds(i, in_current, &preds);
      double sel = 1.0;
      for (size_t p : preds) sel *= join_preds_[p].sel;
      const bool connected = !preds.empty();
      const double est = current.rows * access_sides_[i].rows * sel;
      // Prefer connected joins over cross products regardless of size.
      if ((connected && !best_connected) ||
          (connected == best_connected && est < best_rows)) {
        best_rows = est;
        best_i = i;
        best_connected = connected;
        best_preds.swap(preds);
      }
    }
    DBLAYOUT_CHECK(best_i < n);
    PriceJoin(current, BuiltLeaves(*plan, &leaves), best_i, MakeEdge(best_i, best_preds),
              &price);
    AuditPrice(*plan, best_i, best_preds, price);
    plan = BuildJoin(std::move(plan), best_i, best_preds, price, price.step.impl);
    current = price.out;
    used[best_i] = true;
  }
  return plan;
}

std::unique_ptr<PlanNode> SelectPlanner::AddAggregation(
    std::unique_ptr<PlanNode> input) {
  const bool has_agg = std::any_of(sel_.items.begin(), sel_.items.end(),
                                   [](const SelectItem& i) { return i.agg != AggFunc::kNone; });
  if (sel_.group_by.empty()) {
    if (!has_agg) return input;
    auto node = std::make_unique<PlanNode>(PlanOp::kStreamAggregate);
    node->out_rows = 1;
    node->detail = "scalar aggregate";
    node->AddChild(std::move(input));
    return node;
  }
  // Estimate group count as the product of group-column distinct counts,
  // capped by input rows.
  double groups = 1;
  for (const auto& g : sel_.group_by) {
    auto r = Resolve(g);
    groups *= r.ok() ? static_cast<double>(std::max<int64_t>(1, r.value().second->distinct_count))
                     : 100.0;
  }
  groups = std::max(1.0, std::min(groups, input->out_rows));

  // Stream aggregate if the input already arrives ordered on the first
  // group column; otherwise hash aggregate (blocking).
  bool ordered = false;
  if (!input->sort_order.empty()) {
    auto r = Resolve(sel_.group_by[0]);
    if (r.ok()) {
      const std::string qual =
          QualName(bound_[r.value().first].bind_name, sel_.group_by[0].column);
      ordered = input->sort_order[0] == qual;
    }
  }
  auto node = std::make_unique<PlanNode>(
      ordered ? PlanOp::kStreamAggregate : PlanOp::kHashAggregate);
  node->out_rows = groups;
  node->detail = StrFormat("group by %zu cols", sel_.group_by.size());
  if (ordered) node->sort_order = input->sort_order;
  node->AddChild(std::move(input));
  return node;
}

std::unique_ptr<PlanNode> SelectPlanner::AddOrderByAndTop(
    std::unique_ptr<PlanNode> input) {
  if (!sel_.order_by.empty()) {
    // Skip the sort when the input is already ordered on the first key.
    bool ordered = false;
    if (!input->sort_order.empty()) {
      auto r = Resolve(sel_.order_by[0].column);
      if (r.ok()) {
        ordered = input->sort_order[0] ==
                  QualName(bound_[r.value().first].bind_name,
                           sel_.order_by[0].column.column);
      }
    }
    if (!ordered) {
      auto sort = std::make_unique<PlanNode>(PlanOp::kSort);
      sort->out_rows = input->out_rows;
      sort->detail = StrFormat("order by %zu cols", sel_.order_by.size());
      sort->AddChild(std::move(input));
      input = std::move(sort);
    }
  }
  if (sel_.top >= 0) {
    auto top = std::make_unique<PlanNode>(PlanOp::kTop);
    top->out_rows = std::min(static_cast<double>(sel_.top), input->out_rows);
    top->detail = StrFormat("top %lld", static_cast<long long>(sel_.top));
    top->AddChild(std::move(input));
    input = std::move(top);
  }
  return input;
}

Result<std::unique_ptr<PlanNode>> SelectPlanner::Run() {
  DBLAYOUT_RETURN_NOT_OK(Bind());
  DBLAYOUT_ASSIGN_OR_RETURN(std::unique_ptr<PlanNode> plan, BuildJoinTree());
  plan = AddAggregation(std::move(plan));
  plan = AddOrderByAndTop(std::move(plan));
  return plan;
}

/// Plans UPDATE/DELETE: an access path evaluating the WHERE clause feeds a
/// write operator over the base object (plus maintained indexes).
Result<std::unique_ptr<PlanNode>> PlanModify(const Database& db,
                                             const OptimizerOptions& options,
                                             const std::string& table_name,
                                             const std::vector<Predicate>& where,
                                             PlanOp write_op,
                                             const std::vector<std::string>& set_columns) {
  const Table* table = db.FindTable(table_name);
  if (table == nullptr) {
    return Status::NotFound(StrFormat("unknown table '%s'", table_name.c_str()));
  }
  // Reuse the SELECT machinery for the read side: SELECT * FROM t WHERE ...
  SelectStatement read;
  SelectItem star;
  star.star = true;
  read.items.push_back(star);
  read.from.push_back(TableRef{table_name, ""});
  read.where = where;
  SelectPlanner planner(db, options, read);
  DBLAYOUT_ASSIGN_OR_RETURN(std::unique_ptr<PlanNode> read_plan, planner.Run());
  const double affected = read_plan->out_rows;

  auto id = db.ObjectIdOfTable(table_name);
  DBLAYOUT_CHECK(id.ok());
  auto node = std::make_unique<PlanNode>(write_op);
  node->object_id = id.value();
  node->object_name = table_name;
  node->is_write = true;
  node->out_rows = affected;
  const double data_blocks = static_cast<double>(table->DataBlocks());
  // In-place DML is a read-modify-write pass: each qualifying block is read
  // and written back without an intervening seek, so fold the read side's
  // base-table I/O into one RMW access. The access pattern follows the read
  // path: sequential for a scan or clustered range, scattered for
  // RID lookups (whose index-seek child keeps its own read).
  if ((read_plan->op == PlanOp::kClusteredSeek ||
       read_plan->op == PlanOp::kTableScan ||
       read_plan->op == PlanOp::kRidLookup) &&
      read_plan->object_id == id.value()) {
    node->read_modify_write = true;
    node->blocks_accessed = read_plan->blocks_accessed;
    node->random_access = read_plan->op == PlanOp::kRidLookup;
    read_plan->blocks_accessed = 0;
    read_plan->detail += read_plan->detail.empty() ? "folded into RMW"
                                                   : "; folded into RMW";
  } else {
    node->blocks_accessed = YaoBlocks(affected, data_blocks,
                                      static_cast<double>(table->row_count));
    node->random_access = affected < static_cast<double>(table->row_count);
  }
  node->AddChild(std::move(read_plan));

  // Maintained non-clustered indexes are co-written in the same pipeline.
  for (const Index* ix : db.IndexesOf(table_name)) {
    const bool maintained =
        write_op == PlanOp::kDelete ||
        std::any_of(ix->key_columns.begin(), ix->key_columns.end(),
                    [&](const std::string& k) {
                      return std::find(set_columns.begin(), set_columns.end(), k) !=
                             set_columns.end();
                    });
    if (!maintained) continue;
    auto ix_id = db.ObjectIdOfIndex(table_name, ix->name);
    DBLAYOUT_CHECK(ix_id.ok());
    auto w = std::make_unique<PlanNode>(write_op);
    w->object_id = ix_id.value();
    w->object_name = table_name + "." + ix->name;
    w->is_write = true;
    w->random_access = true;
    w->out_rows = affected;
    w->blocks_accessed = YaoBlocks(affected, static_cast<double>(db.IndexBlocks(*ix)),
                                   static_cast<double>(table->row_count));
    w->detail = "index maintenance";
    node->AddChild(std::move(w));
  }
  return node;
}

}  // namespace

Result<std::unique_ptr<PlanNode>> Optimizer::Plan(const SqlStatement& stmt) const {
  switch (stmt.kind) {
    case SqlStatement::Kind::kSelect: {
      SelectPlanner planner(db_, options_, stmt.select);
      return planner.Run();
    }
    case SqlStatement::Kind::kInsert: {
      const Table* table = db_.FindTable(stmt.insert.table);
      if (table == nullptr) {
        return Status::NotFound(
            StrFormat("unknown table '%s'", stmt.insert.table.c_str()));
      }
      auto id = db_.ObjectIdOfTable(stmt.insert.table);
      DBLAYOUT_CHECK(id.ok());
      auto node = std::make_unique<PlanNode>(PlanOp::kInsert);
      node->object_id = id.value();
      node->object_name = stmt.insert.table;
      node->is_write = true;
      node->out_rows = static_cast<double>(stmt.insert.num_rows);
      node->blocks_accessed = std::max(
          1.0, static_cast<double>(stmt.insert.num_rows) / table->RowsPerBlock());
      node->random_access = !table->clustered_key.empty();
      for (const Index* ix : db_.IndexesOf(stmt.insert.table)) {
        auto ix_id = db_.ObjectIdOfIndex(stmt.insert.table, ix->name);
        DBLAYOUT_CHECK(ix_id.ok());
        auto w = std::make_unique<PlanNode>(PlanOp::kInsert);
        w->object_id = ix_id.value();
        w->object_name = stmt.insert.table + "." + ix->name;
        w->is_write = true;
        w->random_access = true;
        w->out_rows = static_cast<double>(stmt.insert.num_rows);
        w->blocks_accessed = std::max(
            1.0, std::min(static_cast<double>(stmt.insert.num_rows),
                          static_cast<double>(db_.IndexBlocks(*ix))));
        w->detail = "index maintenance";
        node->AddChild(std::move(w));
      }
      return node;
    }
    case SqlStatement::Kind::kUpdate:
      return PlanModify(db_, options_, stmt.update.table, stmt.update.where,
                        PlanOp::kUpdate, stmt.update.set_columns);
    case SqlStatement::Kind::kDelete:
      return PlanModify(db_, options_, stmt.del.table, stmt.del.where,
                        PlanOp::kDelete, {});
  }
  return Status::Internal("unknown statement kind");
}

}  // namespace dblayout
