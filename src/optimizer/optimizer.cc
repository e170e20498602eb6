#include "optimizer/optimizer.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <list>
#include <map>
#include <string_view>

#include "common/logging.h"
#include "common/strutil.h"
#include "optimizer/selectivity.h"

namespace dblayout {

namespace {

/// A table bound into the FROM clause.
struct BoundTable {
  const Table* table = nullptr;
  int table_id = -1;           ///< also the id of its base object
  std::string_view bind_name;  ///< alias if present, else table name
  /// Flattened out of an EXISTS / IN subquery, so joins against it are
  /// semi-joins (output capped at the outer side's cardinality).
  bool semi_join = false;
};

/// Qualified column name used for order tracking: "<bind_name>.<column>".
std::string QualName(std::string_view bind, std::string_view col) {
  std::string name;
  name.reserve(bind.size() + 1 + col.size());
  name.append(bind).append(1, '.').append(col);
  return name;
}

/// Whether `name` is QualName(bind, col), compared without building it.
bool IsQualName(std::string_view name, std::string_view bind, std::string_view col) {
  return name.size() == bind.size() + 1 + col.size() &&
         name.compare(0, bind.size(), bind) == 0 && name[bind.size()] == '.' &&
         name.compare(bind.size() + 1, col.size(), col) == 0;
}

/// Appends ColumnRef::ToString() of `ref` to `*out`.
void AppendColumnRef(const ColumnRef& ref, std::string* out) {
  if (!ref.qualifier.empty()) out->append(ref.qualifier).append(1, '.');
  out->append(ref.column);
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
  int id = -1;                  ///< interned "<bind>.<column>"
  bool clustered_seek = false;  ///< the clustered key leads with the column
  /// Otherwise: the object of a non-clustered index leading with the column,
  /// or -1.
  int index_object = -1;
  double index_blocks = 0;
  double data_blocks = 0;  ///< the table's data blocks
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

/// The bits of `bits` at the set bits of `mask`, packed into the low bits
/// in ascending order.
size_t PackBits(size_t bits, size_t mask) {
  size_t packed = 0;
  for (size_t i = 0; mask != 0; mask &= mask - 1, ++i) {
    packed |= ((bits >> __builtin_ctzll(mask)) & 1) << i;
  }
  return packed;
}

/// PackBits' inverse: the low bits of `packed`, spread in ascending order
/// over the set bits of `mask`.
size_t SpreadBits(size_t packed, size_t mask) {
  size_t bits = 0;
  for (size_t i = 0; mask != 0; mask &= mask - 1, ++i) {
    bits |= ((packed >> i) & 1) << __builtin_ctzll(mask);
  }
  return bits;
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

/// Plans one SELECT, or the read side of an UPDATE or DELETE, through a
/// flattened view of the caller's statement, which must outlive the planner.
///
/// The view flattens [NOT] EXISTS and IN-subquery predicates into the outer
/// query: the subquery's tables and conjuncts join the outer FROM list (an IN
/// subquery additionally contributes the equi-join between the tested
/// column and the subquery's selected column). For layout purposes the
/// semi/anti-join distinction only changes cardinalities, not which objects
/// are co-accessed, so output-row semantics follow the plain join.
class SelectPlanner {
 public:
  SelectPlanner(const Database& db, const OptimizerOptions& options,
                const SelectStatement& sel)
      : db_(db), objects_(db.Objects()), options_(options), sel_(&sel) {
    for (const TableRef& ref : sel.from) {
      from_.push_back(FromTable{&ref.table, ref.BindName(), ref.semi_join});
    }
    AddWhere(sel.where);
  }

  /// The read side of an UPDATE or DELETE of `table`: SELECT * FROM table
  /// WHERE `where`.
  SelectPlanner(const Database& db, const OptimizerOptions& options,
                const std::string& table, const std::vector<Predicate>& where)
      : db_(db), objects_(db.Objects()), options_(options), sel_(nullptr) {
    from_.push_back(FromTable{&table, table, false});
    AddWhere(where);
  }

  Result<std::unique_ptr<PlanNode>> Run();

 private:
  /// Appends the conjuncts of `where` to the flattened WHERE list, replacing
  /// each subquery predicate by its subquery's tables and conjuncts.
  void AddWhere(const std::vector<Predicate>& where);

  Status Bind();
  /// Resolves a column reference to (bound-table index, column id). A
  /// qualifier names a bound table's bind name or table name, ignoring
  /// case; unqualified names search all bound tables, and ambiguity
  /// resolves to the first match. Column names match exactly.
  Result<std::pair<size_t, int>> Resolve(const ColumnRef& ref) const;
  /// Column `column` of bound table `t`.
  const Column& ColumnOf(size_t t, int column) const {
    return bound_[t].table->columns[static_cast<size_t>(column)];
  }

  /// Interns the sort key "<bind>.<column>": equal names, equal ids.
  int InternKey(std::string_view bind, std::string_view column);
  /// The name of interned sort key `id`.
  std::string KeyName(int id) const {
    const auto& [bind, column] = keys_[static_cast<size_t>(id)];
    return QualName(bind, column);
  }
  /// Column `column` of bound table `t` as a join key.
  JoinKey MakeJoinKey(size_t t, int column);

  /// Chooses, builds and prices bound table `t`'s access path.
  void BuildAccessPath(size_t t);
  /// Bound table `t`'s access path with its object names, details and sort
  /// order: taken for the chosen plan, or copied for a DCHECK audit's plan.
  std::unique_ptr<PlanNode> NamedAccessPath(size_t t, bool copy);
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

  /// pow(join_preds_[p].sel, 2^-rank): the backoff factor of join predicate
  /// `p` when it is the rank-th most selective predicate of a join edge.
  /// Computed once per (p, rank).
  double BackoffFactor(size_t p, size_t rank);
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

  /// Materializes alternative `impl` of `price` on top of `left`, with
  /// NamedAccessPath(t, copy_path) as the inner unless it seeks instead.
  std::unique_ptr<PlanNode> BuildJoin(std::unique_ptr<PlanNode> left, size_t t,
                                      const std::vector<size_t>& preds,
                                      const JoinPrice& price, JoinImpl impl,
                                      bool copy_path);

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
  /// its joins, with NamedAccessPath(t, copy_paths) for each table t.
  std::unique_ptr<PlanNode> BuildChain(const std::vector<DpState>& best, size_t mask,
                                       bool copy_paths);

  /// DCHECK builds: builds every alternative `price` priced on top of
  /// `left` and checks that ImplCost agrees bit for bit, that the winner's
  /// rows and sort key are the ones PriceJoin reported, that its leaves are
  /// the ones AddJoinLeaves rebuilds, and that its object mask covers them.
  void AuditPrice(const PlanNode& left, size_t t, const std::vector<size_t>& preds,
                  const JoinPrice& price);

  const Database& db_;
  const std::vector<DatabaseObject>& objects_;
  const OptimizerOptions& options_;
  /// The SELECT planned; null for an UPDATE or DELETE read side, which
  /// selects every row without aggregation, order or TOP.
  const SelectStatement* sel_;

  // The flattened statement. FROM: the statement's tables, then each
  // subquery's. WHERE: the conjuncts, each subquery predicate replaced by
  // the subquery's conjuncts and, for IN, the join predicate in in_joins_.
  struct FromTable {
    const std::string* table;
    std::string_view bind_name;
    bool semi_join;
  };
  std::vector<FromTable> from_;
  std::vector<const Predicate*> where_;
  std::list<Predicate> in_joins_;

  std::vector<BoundTable> bound_;
  struct LocalPred {
    const Predicate* pred;
    int column;  ///< its resolved lhs column
  };
  std::vector<std::vector<LocalPred>> local_preds_;  // per bound table
  std::vector<double> local_sel_;                    // per bound table
  // Join predicates with both endpoints resolved.
  struct JoinPred {
    const Predicate* pred;
    size_t lhs_table, rhs_table;
    double sel;  ///< estimated selectivity
    JoinKey lhs_key, rhs_key;
  };
  std::vector<JoinPred> join_preds_;
  std::vector<std::vector<size_t>> incident_preds_;  // per bound table
  /// Interned sort keys: key k is "<keys_[k].first>.<keys_[k].second>".
  std::vector<std::pair<std::string_view, std::string_view>> keys_;

  /// A bound table's cheapest access path. The node is built without its
  /// names and details; NamedAccessPath adds them when it joins a plan.
  struct AccessPath {
    std::unique_ptr<PlanNode> node;
    const Predicate* seek = nullptr;  ///< the predicate a seek evaluates
    int index = -1;                   ///< the non-clustered index sought
    JoinSide side;
    std::vector<PlanLeaf> leaves;
  };
  std::vector<AccessPath> access_;  // per bound table
  std::vector<size_t> order_scratch_;  // MakeEdge's predicates, by selectivity

  /// BackoffFactor's cache: entry p * backoff_ranks_ + rank, NaN until
  /// computed.
  std::vector<double> backoff_;
  size_t backoff_ranks_ = 0;

  // The DP's edge memo. Table t's entries start at edge_begin_[t]; entry k
  // covers the neighbours SpreadBits(k, neighbour_mask_[t]).
  std::vector<size_t> neighbour_mask_;  // per bound table
  std::vector<size_t> edge_begin_;      // per bound table, then the end
  std::vector<JoinEdge> edges_;
};

void SelectPlanner::AddWhere(const std::vector<Predicate>& where) {
  for (const Predicate& p : where) {
    if (p.kind != Predicate::Kind::kExists && p.kind != Predicate::Kind::kInSubquery) {
      where_.push_back(&p);
      continue;
    }
    if (p.subquery == nullptr) continue;  // defensive
    const SelectStatement& sub = *p.subquery;
    if (p.kind == Predicate::Kind::kInSubquery && !sub.items.empty()) {
      Predicate& join = in_joins_.emplace_back();
      join.kind = Predicate::Kind::kJoin;
      join.lhs = p.lhs;
      join.op = CompareOp::kEq;
      join.rhs_column = sub.items[0].column;
      where_.push_back(&join);
    }
    for (const TableRef& ref : sub.from) {
      from_.push_back(FromTable{&ref.table, ref.BindName(), true});
    }
    AddWhere(sub.where);
  }
}

Status SelectPlanner::Bind() {
  if (from_.empty()) return Status::InvalidArgument("SELECT with empty FROM");
  bound_.reserve(from_.size());
  for (const FromTable& ref : from_) {
    const int id = db_.TableId(*ref.table);
    if (id < 0) {
      return Status::NotFound(StrFormat("unknown table '%s'", ref.table->c_str()));
    }
    bound_.push_back(BoundTable{&db_.tables()[static_cast<size_t>(id)], id, ref.bind_name,
                                ref.semi_join});
  }
  local_preds_.assign(bound_.size(), {});
  local_sel_.assign(bound_.size(), 1.0);
  incident_preds_.assign(bound_.size(), {});

  for (const Predicate* pred : where_) {
    const Predicate& p = *pred;
    DBLAYOUT_ASSIGN_OR_RETURN(const auto lhs, Resolve(p.lhs));
    const auto [lt, lcol] = lhs;
    if (p.kind == Predicate::Kind::kJoin) {
      DBLAYOUT_ASSIGN_OR_RETURN(const auto rhs, Resolve(p.rhs_column));
      const auto [rt, rcol] = rhs;
      if (lt == rt) {
        // Same-table column comparison: treat as a cheap local filter.
        local_preds_[lt].push_back(LocalPred{&p, lcol});
        local_sel_[lt] *= kDefaultRangeSelectivity;
      } else {
        const double sel =
            p.op == CompareOp::kEq
                ? JoinSelectivity(ColumnOf(lt, lcol).distinct_count,
                                  ColumnOf(rt, rcol).distinct_count)
                : kDefaultRangeSelectivity;
        incident_preds_[lt].push_back(join_preds_.size());
        incident_preds_[rt].push_back(join_preds_.size());
        join_preds_.push_back(
            JoinPred{&p, lt, rt, sel, MakeJoinKey(lt, lcol), MakeJoinKey(rt, rcol)});
      }
    } else {
      local_preds_[lt].push_back(LocalPred{&p, lcol});
      local_sel_[lt] *= PredicateSelectivity(p, &ColumnOf(lt, lcol));
    }
  }
  for (double& s : local_sel_) s = std::max(s, kMinSelectivity);
  return Status::OK();
}

Result<std::pair<size_t, int>> SelectPlanner::Resolve(const ColumnRef& ref) const {
  if (!ref.qualifier.empty()) {
    for (size_t t = 0; t < bound_.size(); ++t) {
      const BoundTable& bt = bound_[t];
      if (EqualsIgnoreCase(bt.bind_name, ref.qualifier) ||
          EqualsIgnoreCase(bt.table->name, ref.qualifier)) {
        const int col = bt.table->ColumnId(ref.column);
        if (col < 0) {
          return Status::NotFound(StrFormat("column '%s' not in table '%s'",
                                            ref.column.c_str(), bt.table->name.c_str()));
        }
        return std::make_pair(t, col);
      }
    }
    return Status::NotFound(
        StrFormat("unknown table or alias '%s'", ref.qualifier.c_str()));
  }
  for (size_t t = 0; t < bound_.size(); ++t) {
    const int col = bound_[t].table->ColumnId(ref.column);
    if (col >= 0) return std::make_pair(t, col);
  }
  return Status::NotFound(StrFormat("unresolved column '%s'", ref.column.c_str()));
}

int SelectPlanner::InternKey(std::string_view bind, std::string_view column) {
  for (size_t k = 0; k < keys_.size(); ++k) {
    if (keys_[k].first == bind && keys_[k].second == column) return static_cast<int>(k);
  }
  keys_.emplace_back(bind, column);
  return static_cast<int>(keys_.size()) - 1;
}

JoinKey SelectPlanner::MakeJoinKey(size_t t, int column) {
  const BoundTable& bt = bound_[t];
  const Table& table = *bt.table;
  const std::string& col_name = ColumnOf(t, column).name;
  JoinKey key;
  key.id = InternKey(bt.bind_name, col_name);
  key.clustered_seek = !table.clustered_key.empty() && table.clustered_key[0] == col_name;
  const int index = key.clustered_seek ? -1 : db_.LeadingIndexId(bt.table_id, column);
  if (index >= 0) {
    key.index_object = db_.IndexObjectId(index);
    key.index_blocks = static_cast<double>(objects_[key.index_object].size_blocks);
  }
  key.data_blocks = static_cast<double>(objects_[bt.table_id].size_blocks);
  key.table_rows = static_cast<double>(table.row_count);
  return key;
}

void SelectPlanner::BuildAccessPath(size_t t) {
  const BoundTable& bt = bound_[t];
  const Table& table = *bt.table;
  const double data_blocks = static_cast<double>(objects_[bt.table_id].size_blocks);
  const double out_rows =
      std::max(1.0, static_cast<double>(table.row_count) * local_sel_[t]);

  // Candidate: full scan.
  double best_cost = data_blocks;
  enum class Path { kScan, kClusteredSeek, kNcSeek } best_path = Path::kScan;
  const Predicate* best_pred = nullptr;
  int best_index = -1;
  double best_pred_sel = 1.0;

  for (const LocalPred& lp : local_preds_[t]) {
    const Predicate* p = lp.pred;
    // Only sargable shapes drive a seek.
    const bool sargable = p->kind == Predicate::Kind::kBetween ||
                          p->kind == Predicate::Kind::kIn ||
                          (p->kind == Predicate::Kind::kCompareLiteral &&
                           p->op != CompareOp::kNe) ||
                          p->kind == Predicate::Kind::kLike;
    if (!sargable) continue;
    const double psel =
        std::max(PredicateSelectivity(*p, &ColumnOf(t, lp.column)), kMinSelectivity);

    if (!table.clustered_key.empty() && table.clustered_key[0] == p->lhs.column) {
      const double cost = std::max(1.0, psel * data_blocks);
      if (cost < best_cost) {
        best_cost = cost;
        best_path = Path::kClusteredSeek;
        best_pred = p;
        best_pred_sel = psel;
      }
    }
    const int ix = db_.LeadingIndexId(bt.table_id, lp.column);
    if (ix >= 0) {
      const double index_blocks =
          static_cast<double>(objects_[db_.IndexObjectId(ix)].size_blocks);
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

  AccessPath& path = access_[t];
  std::unique_ptr<PlanNode>& node = path.node;
  const std::string* sort_column =
      table.clustered_key.empty() ? nullptr : &table.clustered_key[0];
  switch (best_path) {
    case Path::kScan:
      node = std::make_unique<PlanNode>(PlanOp::kTableScan);
      node->blocks_accessed = data_blocks;
      break;
    case Path::kClusteredSeek:
      node = std::make_unique<PlanNode>(PlanOp::kClusteredSeek);
      node->blocks_accessed = std::max(1.0, best_pred_sel * data_blocks);
      path.seek = best_pred;
      break;
    case Path::kNcSeek: {
      auto seek = std::make_unique<PlanNode>(PlanOp::kIndexSeek);
      seek->object_id = db_.IndexObjectId(best_index);
      seek->blocks_accessed =
          std::max(1.0, best_pred_sel * static_cast<double>(
                                            objects_[seek->object_id].size_blocks));
      seek->out_rows =
          std::max(1.0, static_cast<double>(table.row_count) * best_pred_sel);

      node = std::make_unique<PlanNode>(PlanOp::kRidLookup);
      node->blocks_accessed =
          YaoBlocks(seek->out_rows, data_blocks, static_cast<double>(table.row_count));
      node->random_access = true;
      node->AddChild(std::move(seek));
      path.seek = best_pred;
      path.index = best_index;
      sort_column = &db_.indexes()[static_cast<size_t>(best_index)].key_columns[0];
      break;
    }
  }
  node->object_id = bt.table_id;
  node->out_rows = out_rows;

  JoinSide& side = path.side;
  side.rows = out_rows;
  side.cost = ImplCost(*node);
  side.sort_key = sort_column == nullptr ? -1 : InternKey(bt.bind_name, *sort_column);
  CollectLeaves(*node, &path.leaves);
  for (const PlanLeaf& leaf : path.leaves) side.objects |= ObjectBit(leaf.object_id);
}

std::unique_ptr<PlanNode> SelectPlanner::NamedAccessPath(size_t t, bool copy) {
  AccessPath& ap = access_[t];
  std::unique_ptr<PlanNode> path = copy ? ClonePlan(*ap.node) : std::move(ap.node);
  const BoundTable& bt = bound_[t];
  const Table& table = *bt.table;
  path->object_name = table.name;
  const std::vector<std::string>& order =
      ap.index >= 0 ? db_.indexes()[static_cast<size_t>(ap.index)].key_columns
                    : table.clustered_key;
  for (const std::string& k : order) {
    path->sort_order.push_back(QualName(bt.bind_name, k));
  }
  if (ap.seek != nullptr && ap.index < 0) {  // clustered seek
    path->detail = "seek ";
    AppendColumnRef(ap.seek->lhs, &path->detail);
    return path;
  }
  // Scan or RID lookup: the filter names every local predicate.
  for (const LocalPred& lp : local_preds_[t]) {
    if (!path->detail.empty()) path->detail += " AND ";
    AppendColumnRef(lp.pred->lhs, &path->detail);
  }
  if (ap.index >= 0) {
    PlanNode& seek = *path->children[0];
    seek.object_name = objects_[seek.object_id].name;
    seek.detail = "seek ";
    AppendColumnRef(ap.seek->lhs, &seek.detail);
  }
  return path;
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

double SelectPlanner::BackoffFactor(size_t p, size_t rank) {
  double& factor = backoff_[p * backoff_ranks_ + rank];
  if (std::isnan(factor)) {
    factor = std::pow(join_preds_[p].sel, std::ldexp(1.0, -static_cast<int>(rank)));
  }
  return factor;
}

/// MakeEdge's selectivity without BackoffFactor's cache, for DCHECK audits:
/// `sels` backed off as the rank-ordered product of pow(s, 2^-rank).
[[maybe_unused]] double BackedOffSelectivity(std::vector<double> sels) {
  std::sort(sels.begin(), sels.end());
  double sel = 1.0;
  double exponent = 1.0;
  for (double s : sels) {
    sel *= std::pow(s, exponent);
    exponent /= 2;
  }
  return sel;
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
  for (size_t p : preds) {
    const JoinPred& jp = join_preds_[p];
    if (jp.pred->op == CompareOp::kEq && edge.left_key == nullptr) {
      const bool rhs_is_right = jp.rhs_table == t;
      edge.left_key = rhs_is_right ? &jp.lhs_key : &jp.rhs_key;
      edge.right_key = rhs_is_right ? &jp.rhs_key : &jp.lhs_key;
    }
  }
  // Predicates of equal selectivity have equal factors at each rank, so any
  // order among them multiplies the same values in the same order.
  order_scratch_.assign(preds.begin(), preds.end());
  std::sort(order_scratch_.begin(), order_scratch_.end(), [this](size_t a, size_t b) {
    return join_preds_[a].sel < join_preds_[b].sel;
  });
  for (size_t rank = 0; rank < order_scratch_.size(); ++rank) {
    edge.sel *= BackoffFactor(order_scratch_[rank], rank);
  }
  return edge;
}

void SelectPlanner::BuildEdgeMemo() {
  const size_t n = bound_.size();
  neighbour_mask_.assign(n, 0);
  edge_begin_.assign(n + 1, 0);
  for (size_t t = 0; t < n; ++t) {
    size_t& mask = neighbour_mask_[t];
    for (size_t p : incident_preds_[t]) {
      const JoinPred& jp = join_preds_[p];
      mask |= size_t{1} << (jp.lhs_table == t ? jp.rhs_table : jp.lhs_table);
    }
    edge_begin_[t + 1] = edge_begin_[t] + (size_t{1} << __builtin_popcountll(mask));
  }
  edges_.clear();
  edges_.reserve(edge_begin_[n]);
  std::vector<size_t> preds;
  for (size_t t = 0; t < n; ++t) {
    for (size_t k = 0; k < edge_begin_[t + 1] - edge_begin_[t]; ++k) {
      ConnectingPreds(t, InMask(SpreadBits(k, neighbour_mask_[t])), &preds);
      edges_.push_back(MakeEdge(t, preds));
    }
  }
}

const JoinEdge& SelectPlanner::Edge(size_t t, size_t rest) const {
  return edges_[edge_begin_[t] + PackBits(rest, neighbour_mask_[t])];
}

template <typename LeftLeaves>
void SelectPlanner::PriceJoin(const JoinSide& left, LeftLeaves&& left_leaves, size_t t,
                              const JoinEdge& edge, JoinPrice* price) const {
  const JoinSide& right = access_[t].side;
  double out_rows = std::max(1.0, left.rows * right.rows * edge.sel);
  // Semi-join semantics: a table flattened out of an EXISTS / IN subquery
  // can only filter the outer side, never multiply it.
  if (bound_[t].semi_join) {
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
      AddSameObjectSurcharge(left_leaves(), access_[t].leaves, &c);
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
      (inner->clustered_seek || inner->index_object >= 0)) {
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
      out.objects = left.objects | ObjectBit(bound_[t].table_id) |
                    (inner->clustered_seek ? 0 : ObjectBit(inner->index_object));
      break;
    default:
      out.sort_key = -1;
      break;
  }
}

void SelectPlanner::AddJoinLeaves(size_t t, const JoinKey* inner, const JoinStep& step,
                                  std::vector<PlanLeaf>* leaves) const {
  const std::vector<PlanLeaf>& right = access_[t].leaves;
  switch (step.impl) {
    case kMergeImpl:
      leaves->insert(leaves->end(), right.begin(), right.end());
      break;
    case kIndexNljImpl: {
      const int base = bound_[t].table_id;
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

std::unique_ptr<PlanNode> SelectPlanner::BuildJoin(
    std::unique_ptr<PlanNode> left, size_t t, const std::vector<size_t>& preds,
    const JoinPrice& price, JoinImpl impl, bool copy_path) {
  std::string detail;
  for (size_t p : preds) {
    const Predicate& pred = *join_preds_[p].pred;
    if (!detail.empty()) detail += " AND ";
    AppendColumnRef(pred.lhs, &detail);
    detail += CompareOpName(pred.op);
    AppendColumnRef(pred.rhs_column, &detail);
  }
  std::unique_ptr<PlanNode> node;
  switch (impl) {
    case kMergeImpl: {
      auto sorted_input = [this](std::unique_ptr<PlanNode> input, bool already_sorted,
                                 int key) {
        if (already_sorted) return input;
        auto sort = std::make_unique<PlanNode>(PlanOp::kSort);
        sort->out_rows = input->out_rows;
        sort->sort_order = {KeyName(key)};
        sort->detail = "sort on " + sort->sort_order[0];
        sort->AddChild(std::move(input));
        return sort;
      };
      node = std::make_unique<PlanNode>(PlanOp::kMergeJoin);
      node->AddChild(
          sorted_input(std::move(left), price.left_sorted, price.left_key->id));
      node->AddChild(sorted_input(NamedAccessPath(t, copy_path), price.right_sorted,
                                  price.right_key->id));
      node->sort_order = node->children[0]->sort_order;
      break;
    }
    case kIndexNljImpl: {
      const BoundTable& bt = bound_[t];
      const JoinKey& key = *price.right_key;
      std::unique_ptr<PlanNode> inner;
      if (key.clustered_seek) {
        inner = std::make_unique<PlanNode>(PlanOp::kClusteredSeek);
        inner->object_id = bt.table_id;
        inner->object_name = bt.table->name;
        inner->blocks_accessed = price.step.seek_blocks;
        inner->random_access = true;
        inner->detail = "seek " + KeyName(key.id) + " = outer";
      } else {
        auto seek = std::make_unique<PlanNode>(PlanOp::kIndexSeek);
        seek->object_id = key.index_object;
        seek->object_name = objects_[key.index_object].name;
        seek->blocks_accessed = price.step.seek_blocks;
        seek->random_access = true;
        seek->detail = "seek " + KeyName(key.id) + " = outer";
        inner = std::make_unique<PlanNode>(PlanOp::kRidLookup);
        inner->object_id = bt.table_id;
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
      std::unique_ptr<PlanNode> right = NamedAccessPath(t, copy_path);
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
                               [[maybe_unused]] const JoinPrice& price) {
#if DBLAYOUT_DCHECK_IS_ON()
  std::vector<PlanLeaf> want;
  CollectLeaves(left, &want);
  AddJoinLeaves(t, price.right_key, price.step, &want);
  for (int impl = 0; impl < kNumJoinImpls; ++impl) {
    if (!price.feasible[impl]) continue;
    const std::unique_ptr<PlanNode> built =
        BuildJoin(ClonePlan(left), t, preds, price, static_cast<JoinImpl>(impl),
                  /*copy_path=*/true);
    DBLAYOUT_DCHECK_EQ(ImplCost(*built), price.cost[impl]);
    DBLAYOUT_DCHECK_EQ(built->out_rows, price.out.rows);
    if (impl != price.step.impl) continue;
    DBLAYOUT_DCHECK_EQ(built->sort_order.empty(), price.out.sort_key < 0);
    if (price.out.sort_key >= 0) {
      DBLAYOUT_DCHECK(built->sort_order[0] == KeyName(price.out.sort_key));
    }
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
  access_.resize(n);
  for (size_t t = 0; t < n; ++t) BuildAccessPath(t);
  if (n == 1) return NamedAccessPath(0, /*copy=*/false);
  // A predicate's rank in an edge of table t is below t's incident count.
  for (const std::vector<size_t>& incident : incident_preds_) {
    backoff_ranks_ = std::max(backoff_ranks_, incident.size());
  }
  backoff_.assign(join_preds_.size() * backoff_ranks_,
                  std::numeric_limits<double>::quiet_NaN());
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
    s.side = access_[t].side;
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
        std::vector<double> sels;
        for (size_t p : preds) sels.push_back(join_preds_[p].sel);
        DBLAYOUT_DCHECK_EQ(BackedOffSelectivity(sels), edge.sel);
        const JoinEdge fresh = MakeEdge(t, preds);
        DBLAYOUT_DCHECK_EQ(fresh.sel, edge.sel);
        DBLAYOUT_DCHECK(fresh.left_key == edge.left_key);
        DBLAYOUT_DCHECK(fresh.right_key == edge.right_key);
        DBLAYOUT_DCHECK_EQ(fresh.preds, edge.preds);
        AuditPrice(*BuildChain(best, rest, /*copy_paths=*/true), t, preds, price);
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
  std::unique_ptr<PlanNode> plan =
      BuildChain(best, best.size() - 1, /*copy_paths=*/false);
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
  *leaves = access_[order[0]].leaves;
  size_t joined = size_t{1} << order[0];
  for (size_t k = 1; k < order.size(); ++k) {
    const size_t t = order[k];
    const JoinKey* inner = Edge(t, joined).right_key;
    joined |= size_t{1} << t;
    AddJoinLeaves(t, inner, best[joined].step, leaves);
  }
}

std::unique_ptr<PlanNode> SelectPlanner::BuildChain(const std::vector<DpState>& best,
                                                    size_t mask, bool copy_paths) {
  const std::vector<size_t> order = DpJoinOrder(best, mask);
  size_t joined = size_t{1} << order[0];
  std::unique_ptr<PlanNode> plan = NamedAccessPath(order[0], copy_paths);
  std::vector<size_t> preds;
  std::vector<PlanLeaf> leaves;
  JoinPrice price;
  for (size_t k = 1; k < order.size(); ++k) {
    const size_t t = order[k];
    ConnectingPreds(t, InMask(joined), &preds);
    PriceJoin(best[joined].side, BuiltLeaves(*plan, &leaves), t, Edge(t, joined), &price);
    plan = BuildJoin(std::move(plan), t, preds, price, price.step.impl, copy_paths);
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
    if (access_[i].side.rows < access_[start].side.rows) start = i;
  }
  JoinSide current = access_[start].side;
  std::unique_ptr<PlanNode> plan = NamedAccessPath(start, /*copy=*/false);
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
      const double est = current.rows * access_[i].side.rows * sel;
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
    plan = BuildJoin(std::move(plan), best_i, best_preds, price, price.step.impl,
                     /*copy_path=*/false);
    current = price.out;
    used[best_i] = true;
  }
  return plan;
}

std::unique_ptr<PlanNode> SelectPlanner::AddAggregation(
    std::unique_ptr<PlanNode> input) {
  const SelectStatement& sel = *sel_;
  const bool has_agg =
      std::any_of(sel.items.begin(), sel.items.end(),
                  [](const SelectItem& i) { return i.agg != AggFunc::kNone; });
  if (sel.group_by.empty()) {
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
  for (const auto& g : sel.group_by) {
    auto r = Resolve(g);
    groups *= r.ok() ? static_cast<double>(std::max<int64_t>(
                           1, ColumnOf(r.value().first, r.value().second).distinct_count))
                     : 100.0;
  }
  groups = std::max(1.0, std::min(groups, input->out_rows));

  // Stream aggregate if the input already arrives ordered on the first
  // group column; otherwise hash aggregate (blocking).
  bool ordered = false;
  if (!input->sort_order.empty()) {
    auto r = Resolve(sel.group_by[0]);
    if (r.ok()) {
      ordered = IsQualName(input->sort_order[0], bound_[r.value().first].bind_name,
                           sel.group_by[0].column);
    }
  }
  auto node = std::make_unique<PlanNode>(
      ordered ? PlanOp::kStreamAggregate : PlanOp::kHashAggregate);
  node->out_rows = groups;
  node->detail = "group by " + std::to_string(sel.group_by.size()) + " cols";
  if (ordered) node->sort_order = input->sort_order;
  node->AddChild(std::move(input));
  return node;
}

std::unique_ptr<PlanNode> SelectPlanner::AddOrderByAndTop(
    std::unique_ptr<PlanNode> input) {
  const SelectStatement& sel = *sel_;
  if (!sel.order_by.empty()) {
    // Skip the sort when the input is already ordered on the first key.
    bool ordered = false;
    if (!input->sort_order.empty()) {
      auto r = Resolve(sel.order_by[0].column);
      if (r.ok()) {
        ordered = IsQualName(input->sort_order[0], bound_[r.value().first].bind_name,
                             sel.order_by[0].column.column);
      }
    }
    if (!ordered) {
      auto sort = std::make_unique<PlanNode>(PlanOp::kSort);
      sort->out_rows = input->out_rows;
      sort->detail = "order by " + std::to_string(sel.order_by.size()) + " cols";
      sort->AddChild(std::move(input));
      input = std::move(sort);
    }
  }
  if (sel.top >= 0) {
    auto top = std::make_unique<PlanNode>(PlanOp::kTop);
    top->out_rows = std::min(static_cast<double>(sel.top), input->out_rows);
    top->detail = "top " + std::to_string(static_cast<long long>(sel.top));
    top->AddChild(std::move(input));
    input = std::move(top);
  }
  return input;
}

Result<std::unique_ptr<PlanNode>> SelectPlanner::Run() {
  DBLAYOUT_RETURN_NOT_OK(Bind());
  DBLAYOUT_ASSIGN_OR_RETURN(std::unique_ptr<PlanNode> plan, BuildJoinTree());
  if (sel_ == nullptr) return plan;  // SELECT *: no aggregation, order or TOP
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
  const int table_id = db.TableId(table_name);
  if (table_id < 0) {
    return Status::NotFound(StrFormat("unknown table '%s'", table_name.c_str()));
  }
  const Table& table = db.tables()[static_cast<size_t>(table_id)];
  // Reuse the SELECT machinery for the read side: SELECT * FROM t WHERE ...
  SelectPlanner planner(db, options, table_name, where);
  DBLAYOUT_ASSIGN_OR_RETURN(std::unique_ptr<PlanNode> read_plan, planner.Run());
  const double affected = read_plan->out_rows;

  const std::vector<DatabaseObject>& objects = db.Objects();
  auto node = std::make_unique<PlanNode>(write_op);
  node->object_id = table_id;
  node->object_name = table_name;
  node->is_write = true;
  node->out_rows = affected;
  const double data_blocks = static_cast<double>(objects[table_id].size_blocks);
  // In-place DML is a read-modify-write pass: each qualifying block is read
  // and written back without an intervening seek, so fold the read side's
  // base-table I/O into one RMW access. The access pattern follows the read
  // path: sequential for a scan or clustered range, scattered for
  // RID lookups (whose index-seek child keeps its own read).
  if ((read_plan->op == PlanOp::kClusteredSeek ||
       read_plan->op == PlanOp::kTableScan ||
       read_plan->op == PlanOp::kRidLookup) &&
      read_plan->object_id == table_id) {
    node->read_modify_write = true;
    node->blocks_accessed = read_plan->blocks_accessed;
    node->random_access = read_plan->op == PlanOp::kRidLookup;
    read_plan->blocks_accessed = 0;
    read_plan->detail += read_plan->detail.empty() ? "folded into RMW"
                                                   : "; folded into RMW";
  } else {
    node->blocks_accessed = YaoBlocks(affected, data_blocks,
                                      static_cast<double>(table.row_count));
    node->random_access = affected < static_cast<double>(table.row_count);
  }
  node->AddChild(std::move(read_plan));

  // Maintained non-clustered indexes are co-written in the same pipeline.
  for (const int ix_id : db.IndexIdsOf(table_id)) {
    const Index& ix = db.indexes()[static_cast<size_t>(ix_id)];
    const bool maintained =
        write_op == PlanOp::kDelete ||
        std::any_of(ix.key_columns.begin(), ix.key_columns.end(),
                    [&](const std::string& k) {
                      return std::find(set_columns.begin(), set_columns.end(), k) !=
                             set_columns.end();
                    });
    if (!maintained) continue;
    const DatabaseObject& object = objects[db.IndexObjectId(ix_id)];
    auto w = std::make_unique<PlanNode>(write_op);
    w->object_id = object.id;
    w->object_name = object.name;
    w->is_write = true;
    w->random_access = true;
    w->out_rows = affected;
    w->blocks_accessed = YaoBlocks(affected, static_cast<double>(object.size_blocks),
                                   static_cast<double>(table.row_count));
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
      const int table_id = db_.TableId(stmt.insert.table);
      if (table_id < 0) {
        return Status::NotFound(
            StrFormat("unknown table '%s'", stmt.insert.table.c_str()));
      }
      const Table& table = db_.tables()[static_cast<size_t>(table_id)];
      const std::vector<DatabaseObject>& objects = db_.Objects();
      auto node = std::make_unique<PlanNode>(PlanOp::kInsert);
      node->object_id = table_id;
      node->object_name = stmt.insert.table;
      node->is_write = true;
      node->out_rows = static_cast<double>(stmt.insert.num_rows);
      node->blocks_accessed = std::max(
          1.0, static_cast<double>(stmt.insert.num_rows) / table.RowsPerBlock());
      node->random_access = !table.clustered_key.empty();
      for (const int ix_id : db_.IndexIdsOf(table_id)) {
        const DatabaseObject& object = objects[db_.IndexObjectId(ix_id)];
        auto w = std::make_unique<PlanNode>(PlanOp::kInsert);
        w->object_id = object.id;
        w->object_name = object.name;
        w->is_write = true;
        w->random_access = true;
        w->out_rows = static_cast<double>(stmt.insert.num_rows);
        w->blocks_accessed = std::max(
            1.0, std::min(static_cast<double>(stmt.insert.num_rows),
                          static_cast<double>(object.size_blocks)));
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
