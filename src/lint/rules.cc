// The built-in lint rules. Inventory (layer -> rule id -> severity):
//
//   workload   workload-unparsable            error    bad SQL / bad weight
//              workload-unplannable           error    trace/schema mismatch
//              workload-zero-weight           warning  weightless statements
//   schema     schema-object-unreferenced     warning  dead layout objects
//   graph      graph-structure                error    Section 4 audit failed
//              graph-no-coaccess              note     search degenerates
//              graph-coaccess-bound           note     duplicated accesses
//   fleet      fleet-capacity                 error    Definition 2 unsatisfiable
//   constraints constraint-unknown-object     error    misspelled names
//              constraint-availability        error    Section 2.3 conflicts
//              constraint-colocation-capacity error    group exceeds drives
//              constraint-movement-bound      error    budget below forced moves
//   layout     layout-invalid                 error    Definition 2 violated
//              layout-coaccess-shared-disk    warning  Section 5 seek pathology
//              layout-capacity-headroom       warning  drives nearly full
//              layout-thin-stripe             warning  sub-block slivers
//              layout-single-point-of-failure warning  hot object on one
//                                                      non-redundant drive
//
// Opt-in (registered via LintRunner::AddRule, see MakeWorkloadProgressRule):
//   workload   workload-progress-recommended  note     search will be long;
//                                                      run with --progress
//
// Every rule iterates its inputs in deterministic order (object id, drive
// index, sorted graph edges) so renderer output is stable for golden tests.

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <memory>

#include "analysis/invariant_auditor.h"
#include "common/strutil.h"
#include "layout/cost_model.h"
#include "lint/lint.h"

namespace dblayout {
namespace {

/// An access-graph edge is "heavy" when its weight reaches this fraction
/// of the total edge weight (layout-coaccess-shared-disk).
constexpr double kCoaccessMinEdgeFraction = 0.10;
/// Minimum shared-disk overlap sum_j min(x_uj, x_vj) for a heavy pair to
/// be flagged (1.0 = identical placement).
constexpr double kCoaccessMinOverlap = 0.5;
/// Drive-fill fraction above which layout-capacity-headroom warns.
constexpr double kCapacityHeadroomWarn = 0.90;
/// Stripe fractions materializing to fewer blocks than this are slivers
/// (layout-thin-stripe). One block = one transfer unit (64 KiB extent).
constexpr double kMinStripeBlocks = 1.0;

/// First line of `sql`, truncated for diagnostic messages.
std::string Snippet(const std::string& sql) {
  std::string s = sql.substr(0, 60);
  std::replace(s.begin(), s.end(), '\n', ' ');
  return Trim(s);
}

Diagnostic MakeDiagnostic(const LintRule& rule, std::string message,
                          std::string fix_it = "") {
  Diagnostic d;
  d.rule_id = rule.id();
  d.severity = rule.severity();
  d.message = std::move(message);
  d.fix_it = std::move(fix_it);
  return d;
}

// --- Workload layer --------------------------------------------------------

class WorkloadUnparsableRule : public LintRule {
 public:
  const char* id() const override { return "workload-unparsable"; }
  const char* summary() const override {
    return "workload script statements that failed to parse (bad SQL or "
           "non-positive weight)";
  }
  LintSeverity severity() const override { return LintSeverity::kError; }
  void Check(const LintContext& ctx, std::vector<Diagnostic>* out) const override {
    if (ctx.input.script_errors == nullptr) return;
    for (const auto& e : *ctx.input.script_errors) {
      out->push_back(MakeDiagnostic(
          *this,
          StrFormat("statement '%s' could not be parsed: %s",
                    Snippet(e.text).c_str(), e.status.message().c_str()),
          "fix the SQL (see the supported subset in src/sql/) or remove the "
          "statement from the workload"));
    }
  }
};

class WorkloadUnplannableRule : public LintRule {
 public:
  const char* id() const override { return "workload-unplannable"; }
  const char* summary() const override {
    return "parsed statements the optimizer cannot bind against this schema "
           "(trace/schema mismatch)";
  }
  LintSeverity severity() const override { return LintSeverity::kError; }
  void Check(const LintContext& ctx, std::vector<Diagnostic>* out) const override {
    for (const auto& e : ctx.unplannable) {
      out->push_back(MakeDiagnostic(
          *this,
          StrFormat("statement '%s' does not bind against schema '%s': %s",
                    Snippet(e.sql).c_str(), ctx.db().name().c_str(),
                    e.status.message().c_str()),
          "the workload or trace references objects this schema does not "
          "define; re-capture the trace against this database or add the "
          "missing tables/indexes"));
    }
  }
};

class WorkloadZeroWeightRule : public LintRule {
 public:
  const char* id() const override { return "workload-zero-weight"; }
  const char* summary() const override {
    return "statements whose weight is zero or negative, contributing "
           "nothing to the layout objective";
  }
  LintSeverity severity() const override { return LintSeverity::kWarning; }
  void Check(const LintContext& ctx, std::vector<Diagnostic>* out) const override {
    for (const auto& s : ctx.profile.statements) {
      if (s.weight > 0) continue;
      out->push_back(MakeDiagnostic(
          *this,
          StrFormat("statement '%s' has non-positive weight %g and is "
                    "ignored by the Fig. 2 objective",
                    Snippet(s.sql).c_str(), s.weight),
          "give the statement a positive weight or drop it"));
    }
  }
};

// --- Schema layer ----------------------------------------------------------

class SchemaObjectUnreferencedRule : public LintRule {
 public:
  const char* id() const override { return "schema-object-unreferenced"; }
  const char* summary() const override {
    return "layout objects never accessed by any workload statement";
  }
  LintSeverity severity() const override { return LintSeverity::kWarning; }
  void Check(const LintContext& ctx, std::vector<Diagnostic>* out) const override {
    if (ctx.profile.statements.empty()) return;
    const std::vector<bool> referenced = ReferencedObjects(ctx.profile);
    const auto& objects = ctx.db().Objects();
    for (size_t i = 0; i < objects.size() && i < referenced.size(); ++i) {
      if (referenced[i]) continue;
      Diagnostic d = MakeDiagnostic(
          *this,
          StrFormat("object '%s' (%lld blocks) is never referenced by any "
                    "workload statement; it gets node weight 0 and defaults "
                    "to full striping",
                    objects[i].name.c_str(),
                    static_cast<long long>(objects[i].size_blocks)),
          StrFormat("check that the workload is representative of production "
                    "traffic, or drop '%s' if it is dead",
                    objects[i].name.c_str()));
      d.objects = {objects[i].name};
      out->push_back(std::move(d));
    }
  }
};

// --- Access-graph layer ----------------------------------------------------

class GraphStructureRule : public LintRule {
 public:
  const char* id() const override { return "graph-structure"; }
  const char* summary() const override {
    return "structural audit of the access graph (finite non-negative "
           "weights, symmetric adjacency, no self edges)";
  }
  LintSeverity severity() const override { return LintSeverity::kError; }
  void Check(const LintContext& ctx, std::vector<Diagnostic>* out) const override {
    if (!ctx.has_access_graph) return;
    const Status st = InvariantAuditor().AuditGraphWeights(ctx.access_graph);
    if (st.ok()) return;
    out->push_back(MakeDiagnostic(
        *this,
        StrFormat("access graph failed its structural audit: %s",
                  st.message().c_str()),
        "this indicates a workload-analysis bug, not an input problem; "
        "re-run a Debug/sanitized build (DBLAYOUT_DCHECKS) to localize it"));
  }
};

class GraphNoCoaccessRule : public LintRule {
 public:
  const char* id() const override { return "graph-no-coaccess"; }
  const char* summary() const override {
    return "access graph without co-access edges: the search degenerates to "
           "full striping";
  }
  LintSeverity severity() const override { return LintSeverity::kNote; }
  void Check(const LintContext& ctx, std::vector<Diagnostic>* out) const override {
    if (!ctx.has_access_graph || ctx.access_graph.num_edges() > 0) return;
    const std::vector<bool> referenced = ReferencedObjects(ctx.profile);
    const long n = std::count(referenced.begin(), referenced.end(), true);
    if (n < 2) return;
    out->push_back(MakeDiagnostic(
        *this,
        StrFormat("no statement co-accesses two objects in one pipeline "
                  "(%ld objects referenced, 0 edges); TS-GREEDY will return "
                  "full striping",
                  n),
        "expected for point-query workloads (the paper's APB result); no "
        "action needed unless co-access was expected"));
  }
};

class GraphCoaccessBoundRule : public LintRule {
 public:
  const char* id() const override { return "graph-coaccess-bound"; }
  const char* summary() const override {
    return "co-access edges heavier than their endpoints' combined node "
           "weight (object repeated within a pipeline)";
  }
  LintSeverity severity() const override { return LintSeverity::kNote; }
  void Check(const LintContext& ctx, std::vector<Diagnostic>* out) const override {
    if (!ctx.has_access_graph) return;
    for (const GraphEdge& e : ctx.access_graph.SortedEdges()) {
      const double bound =
          ctx.access_graph.node_weight(e.u) + ctx.access_graph.node_weight(e.v);
      if (e.weight <= bound * (1 + 1e-9)) continue;
      Diagnostic d = MakeDiagnostic(
          *this,
          StrFormat("co-access edge (%s, %s) weighs %.0f, above its "
                    "endpoints' combined node weight %.0f: an object is "
                    "accessed more than once per pipeline (self-join or "
                    "merged concurrent streams)",
                    ctx.ObjectName(e.u).c_str(), ctx.ObjectName(e.v).c_str(),
                    e.weight, bound),
          "expected under --concurrency and for self-joins; otherwise audit "
          "the workload analysis");
      d.objects = {ctx.ObjectName(e.u), ctx.ObjectName(e.v)};
      out->push_back(std::move(d));
    }
  }
};

// --- Fleet layer -----------------------------------------------------------

class FleetCapacityRule : public LintRule {
 public:
  const char* id() const override { return "fleet-capacity"; }
  const char* summary() const override {
    return "database larger than the whole fleet: full allocation "
           "(Definition 2) is unsatisfiable";
  }
  LintSeverity severity() const override { return LintSeverity::kError; }
  void Check(const LintContext& ctx, std::vector<Diagnostic>* out) const override {
    if (ctx.input.fleet == nullptr) return;
    const int64_t need = ctx.db().TotalBlocks();
    const int64_t have = ctx.input.fleet->TotalCapacityBlocks();
    if (need <= have) return;
    out->push_back(MakeDiagnostic(
        *this,
        StrFormat("database needs %lld blocks but the fleet provides only "
                  "%lld; no valid layout exists",
                  static_cast<long long>(need), static_cast<long long>(have)),
        "add drives or capacity before running the advisor"));
  }
};

// --- Constraint layer ------------------------------------------------------

/// Shared adapter: turns the ConstraintIssues of the given kinds into
/// diagnostics of the derived rule.
class ConstraintRuleBase : public LintRule {
 protected:
  void Emit(const LintContext& ctx,
            std::initializer_list<ConstraintIssue::Kind> kinds,
            std::vector<Diagnostic>* out) const {
    for (const ConstraintIssue& issue : ctx.constraint_issues) {
      if (std::find(kinds.begin(), kinds.end(), issue.kind) == kinds.end()) {
        continue;
      }
      Diagnostic d = MakeDiagnostic(*this, issue.message, issue.fix_it);
      d.objects = issue.objects;
      d.disks = issue.disks;
      out->push_back(std::move(d));
    }
  }
};

class ConstraintUnknownObjectRule : public ConstraintRuleBase {
 public:
  const char* id() const override { return "constraint-unknown-object"; }
  const char* summary() const override {
    return "constraints referencing objects the schema does not define";
  }
  LintSeverity severity() const override { return LintSeverity::kError; }
  void Check(const LintContext& ctx, std::vector<Diagnostic>* out) const override {
    Emit(ctx, {ConstraintIssue::Kind::kUnknownObject}, out);
  }
};

class ConstraintAvailabilityRule : public ConstraintRuleBase {
 public:
  const char* id() const override { return "constraint-availability"; }
  const char* summary() const override {
    return "availability requirements no drive satisfies, or co-location "
           "groups whose members demand different levels";
  }
  LintSeverity severity() const override { return LintSeverity::kError; }
  void Check(const LintContext& ctx, std::vector<Diagnostic>* out) const override {
    Emit(ctx,
         {ConstraintIssue::Kind::kAvailabilityUnsatisfiable,
          ConstraintIssue::Kind::kAvailabilityConflict},
         out);
  }
};

class ConstraintColocationCapacityRule : public ConstraintRuleBase {
 public:
  const char* id() const override { return "constraint-colocation-capacity"; }
  const char* summary() const override {
    return "co-location groups (or constrained objects) larger than the "
           "drives they are allowed to use";
  }
  LintSeverity severity() const override { return LintSeverity::kError; }
  void Check(const LintContext& ctx, std::vector<Diagnostic>* out) const override {
    Emit(ctx,
         {ConstraintIssue::Kind::kGroupCapacity,
          ConstraintIssue::Kind::kGroupNoEligibleDrives},
         out);
  }
};

class ConstraintMovementBoundRule : public ConstraintRuleBase {
 public:
  const char* id() const override { return "constraint-movement-bound"; }
  const char* summary() const override {
    return "movement bounds that make full allocation impossible (missing "
           "baseline, or budget below the forced movement)";
  }
  LintSeverity severity() const override { return LintSeverity::kError; }
  void Check(const LintContext& ctx, std::vector<Diagnostic>* out) const override {
    Emit(ctx,
         {ConstraintIssue::Kind::kMovementMissingCurrentLayout,
          ConstraintIssue::Kind::kMovementBudgetTooSmall},
         out);
  }
};

// --- Layout layer ----------------------------------------------------------

/// True when the layout's dimensions match the schema (and fleet, if given)
/// and its rows pass Layout::ValidateRows. The layout rules other than
/// layout-invalid skip silently otherwise: their arithmetic assumes finite
/// fractions (RoundedUsed casts each drive's share to an integer).
bool LayoutUsable(const LintContext& ctx) {
  const Layout* layout = ctx.input.layout;
  if (layout == nullptr) return false;
  if (layout->num_objects() != static_cast<int>(ctx.db().Objects().size())) {
    return false;
  }
  if (ctx.input.fleet != nullptr &&
      layout->num_disks() != ctx.input.fleet->num_disks()) {
    return false;
  }
  return layout->ValidateRows(ctx.input.fleet).ok();
}

std::string LayoutLabel(const LintContext& ctx) {
  return ctx.input.layout_label.empty() ? "layout" : ctx.input.layout_label;
}

class LayoutInvalidRule : public LintRule {
 public:
  const char* id() const override { return "layout-invalid"; }
  const char* summary() const override {
    return "layouts violating Definition 2 (row sums, non-negativity, "
           "per-drive capacity) or sized for a different schema/fleet";
  }
  LintSeverity severity() const override { return LintSeverity::kError; }
  void Check(const LintContext& ctx, std::vector<Diagnostic>* out) const override {
    const Layout* layout = ctx.input.layout;
    if (layout == nullptr) return;
    if (layout->num_objects() != static_cast<int>(ctx.db().Objects().size())) {
      out->push_back(MakeDiagnostic(
          *this,
          StrFormat("%s covers %d objects but the schema defines %zu",
                    LayoutLabel(ctx).c_str(), layout->num_objects(),
                    ctx.db().Objects().size()),
          "regenerate the layout against this schema"));
      return;
    }
    const DiskFleet* fleet = ctx.input.fleet;
    if (fleet != nullptr && layout->num_disks() != fleet->num_disks()) {
      out->push_back(MakeDiagnostic(
          *this,
          StrFormat("%s covers %d drives but the fleet has %d",
                    LayoutLabel(ctx).c_str(), layout->num_disks(),
                    fleet->num_disks()),
          "regenerate the layout against this drive list"));
      return;
    }
    // Without a fleet only the rows can be checked.
    const Status st = fleet != nullptr
                          ? layout->Validate(ctx.db().ObjectSizes(), *fleet)
                          : layout->ValidateRows(nullptr);
    if (st.ok()) return;
    out->push_back(MakeDiagnostic(
        *this,
        StrFormat("%s is not a valid layout: %s", LayoutLabel(ctx).c_str(),
                  st.message().c_str()),
        "repair the fractions (rows must be non-negative and sum to 1) or "
        "regenerate the layout"));
  }
};

class LayoutCoaccessSharedDiskRule : public LintRule {
 public:
  const char* id() const override { return "layout-coaccess-shared-disk"; }
  const char* summary() const override {
    return "heavily co-accessed object pairs with large shared-drive "
           "overlap, paying the Section 5 interleaving-seek term";
  }
  LintSeverity severity() const override { return LintSeverity::kWarning; }
  void Check(const LintContext& ctx, std::vector<Diagnostic>* out) const override {
    if (!LayoutUsable(ctx) || !ctx.has_access_graph ||
        ctx.input.fleet == nullptr) {
      return;
    }
    const Layout& layout = *ctx.input.layout;
    const DiskFleet& fleet = *ctx.input.fleet;
    const double total_edge_weight = ctx.access_graph.TotalEdgeWeight();
    if (total_edge_weight <= 0) return;
    const std::vector<double> node_blocks = ctx.profile.NodeBlockTotals();
    for (const GraphEdge& e : ctx.access_graph.SortedEdges()) {
      if (e.weight < kCoaccessMinEdgeFraction * total_edge_weight) {
        continue;
      }
      const int u = static_cast<int>(e.u);
      const int v = static_cast<int>(e.v);
      double overlap = 0;
      double seek_ms = 0;
      std::vector<std::string> shared;
      // The pair as one sub-plan reading each whole object, so its seek on
      // a shared drive is the Section 5 term with k = 2.
      SubplanAccess pair;
      pair.accesses = {ObjectAccess{u, node_blocks[e.u]},
                       ObjectAccess{v, node_blocks[e.v]}};
      for (int j = 0; j < fleet.num_disks(); ++j) {
        const double xu = layout.x(u, j);
        const double xv = layout.x(v, j);
        if (xu <= 0 || xv <= 0) continue;
        overlap += std::min(xu, xv);
        seek_ms += SubplanDriveTerm(pair, layout, j, fleet.disk(j)).seek;
        shared.push_back(fleet.disk(j).name);
      }
      if (overlap < kCoaccessMinOverlap) continue;
      Diagnostic d = MakeDiagnostic(
          *this,
          StrFormat("'%s' and '%s' are heavily co-accessed (edge weight %.0f, "
                    "%.0f%% of all co-access) yet overlap on %zu shared "
                    "drive(s) {%s} with overlap %.2f; the Section 5 seek term "
                    "adds an estimated %.0f ms of interleaving seeks across "
                    "the workload",
                    ctx.ObjectName(e.u).c_str(), ctx.ObjectName(e.v).c_str(),
                    e.weight, 100.0 * e.weight / total_edge_weight,
                    shared.size(), Join(shared, ", ").c_str(), overlap,
                    seek_ms),
          StrFormat("place '%s' and '%s' in disjoint filegroups (separate "
                    "drive sets); the advisor's TS-GREEDY partitioning does "
                    "this automatically",
                    ctx.ObjectName(e.u).c_str(), ctx.ObjectName(e.v).c_str()));
      d.objects = {ctx.ObjectName(e.u), ctx.ObjectName(e.v)};
      d.disks = std::move(shared);
      out->push_back(std::move(d));
    }
  }
};

class LayoutCapacityHeadroomRule : public LintRule {
 public:
  const char* id() const override { return "layout-capacity-headroom"; }
  const char* summary() const override {
    return "drives filled beyond the headroom threshold by the materialized "
           "layout";
  }
  LintSeverity severity() const override { return LintSeverity::kWarning; }
  void Check(const LintContext& ctx, std::vector<Diagnostic>* out) const override {
    if (!LayoutUsable(ctx) || ctx.input.fleet == nullptr) return;
    const Layout& layout = *ctx.input.layout;
    const DiskFleet& fleet = *ctx.input.fleet;
    const std::vector<int64_t> blocks_on = layout.RoundedUsed(ctx.db().ObjectSizes());
    for (int j = 0; j < fleet.num_disks(); ++j) {
      const int64_t capacity = fleet.disk(j).capacity_blocks;
      if (capacity <= 0) continue;
      const int64_t used = blocks_on[static_cast<size_t>(j)];
      const double fill = static_cast<double>(used) / static_cast<double>(capacity);
      if (fill <= kCapacityHeadroomWarn) continue;
      Diagnostic d = MakeDiagnostic(
          *this,
          StrFormat("drive '%s' is %.1f%% full (%lld of %lld blocks), above "
                    "the %.0f%% headroom threshold",
                    fleet.disk(j).name.c_str(), 100.0 * fill,
                    static_cast<long long>(used),
                    static_cast<long long>(capacity),
                    100.0 * kCapacityHeadroomWarn),
          StrFormat("rebalance objects away from '%s' or add capacity; full "
                    "drives leave no room for growth or reorganization",
                    fleet.disk(j).name.c_str()));
      d.disks = {fleet.disk(j).name};
      out->push_back(std::move(d));
    }
  }
};

class LayoutThinStripeRule : public LintRule {
 public:
  const char* id() const override { return "layout-thin-stripe"; }
  const char* summary() const override {
    return "stripe fractions materializing below one allocation block "
           "(slivers that add seeks without bandwidth)";
  }
  LintSeverity severity() const override { return LintSeverity::kWarning; }
  void Check(const LintContext& ctx, std::vector<Diagnostic>* out) const override {
    if (!LayoutUsable(ctx)) return;
    const Layout& layout = *ctx.input.layout;
    const std::vector<int64_t> sizes = ctx.db().ObjectSizes();
    for (int i = 0; i < layout.num_objects(); ++i) {
      const auto size = static_cast<double>(sizes[static_cast<size_t>(i)]);
      // An object smaller than the threshold cannot avoid a thin stripe.
      if (size < kMinStripeBlocks) continue;
      std::vector<std::string> slivers;
      for (int j = 0; j < layout.num_disks(); ++j) {
        const double blocks = layout.x(i, j) * size;
        if (blocks > 0 && blocks < kMinStripeBlocks) {
          slivers.push_back(ctx.DiskName(j));
        }
      }
      if (slivers.empty()) continue;
      Diagnostic d = MakeDiagnostic(
          *this,
          StrFormat("object '%s' (%.0f blocks) has stripe fractions below "
                    "one %g-block transfer unit on drives {%s}; slivers cost "
                    "a seek per access without adding bandwidth",
                    ctx.ObjectName(static_cast<size_t>(i)).c_str(), size,
                    kMinStripeBlocks,
                    Join(slivers, ", ").c_str()),
          StrFormat("narrow '%s' to fewer drives so every stripe holds at "
                    "least one allocation block",
                    ctx.ObjectName(static_cast<size_t>(i)).c_str()));
      d.objects = {ctx.ObjectName(static_cast<size_t>(i))};
      d.disks = std::move(slivers);
      out->push_back(std::move(d));
    }
  }
};

class LayoutSinglePointOfFailureRule : public LintRule {
 public:
  const char* id() const override { return "layout-single-point-of-failure"; }
  const char* summary() const override {
    return "workload-critical objects placed entirely on one non-redundant "
           "drive: losing that drive loses the object and its workload share";
  }
  LintSeverity severity() const override { return LintSeverity::kWarning; }
  void Check(const LintContext& ctx, std::vector<Diagnostic>* out) const override {
    if (!LayoutUsable(ctx) || ctx.input.fleet == nullptr) return;
    const Layout& layout = *ctx.input.layout;
    const DiskFleet& fleet = *ctx.input.fleet;
    // LayoutUsable: the layout has one row per profiled object.
    const std::vector<double> node_blocks = ctx.profile.NodeBlockTotals();
    double total_blocks = 0;
    for (const double blocks : node_blocks) total_blocks += blocks;
    if (total_blocks <= 0) return;
    for (int i = 0; i < layout.num_objects(); ++i) {
      const double share = node_blocks[static_cast<size_t>(i)] / total_blocks;
      if (share < ctx.options.spof_min_workload_share) continue;
      if (layout.Width(i) != 1) continue;
      const int j = layout.DisksOf(i).front();
      if (fleet.disk(j).avail != Availability::kNone) continue;
      Diagnostic d = MakeDiagnostic(
          *this,
          StrFormat("object '%s' carries %.0f%% of the workload's block "
                    "accesses yet sits entirely on non-redundant drive '%s'; "
                    "one drive failure loses the object and stalls that share "
                    "of the workload",
                    ctx.ObjectName(static_cast<size_t>(i)).c_str(),
                    100.0 * share, fleet.disk(j).name.c_str()),
          StrFormat("move '%s' to a parity or mirrored drive, or stripe it "
                    "across several drives; dblayout advise --resilience-report "
                    "quantifies the degraded-mode cost",
                    ctx.ObjectName(static_cast<size_t>(i)).c_str()));
      d.objects = {ctx.ObjectName(static_cast<size_t>(i))};
      d.disks = {fleet.disk(j).name};
      out->push_back(std::move(d));
    }
  }
};

}  // namespace

namespace {

/// Opt-in telemetry nudge (registered via LintRunner::AddRule, not part of
/// DefaultLintRules): big workloads mean long searches; recommend the CLI's
/// live progress and telemetry outputs before the user waits blind.
class WorkloadProgressRule : public LintRule {
 public:
  const char* id() const override { return "workload-progress-recommended"; }
  const char* summary() const override {
    return "workloads large enough that the advisor search should be run "
           "with --progress";
  }
  LintSeverity severity() const override { return LintSeverity::kNote; }
  void Check(const LintContext& ctx, std::vector<Diagnostic>* out) const override {
    const size_t statements =
        ctx.input.workload != nullptr ? ctx.input.workload->size()
                                      : ctx.profile.statements.size();
    const int threshold = ctx.options.progress_recommend_statements;
    if (threshold <= 0 || statements < static_cast<size_t>(threshold)) return;
    out->push_back(MakeDiagnostic(
        *this,
        StrFormat("workload has %zu statements (>= %d): the advisor search "
                  "will evaluate many candidate layouts",
                  statements, threshold),
        "run dblayout advise with --progress for live search feedback, and "
        "--trace-out/--metrics-out to capture where the time goes"));
  }
};

}  // namespace

std::unique_ptr<LintRule> MakeWorkloadProgressRule() {
  return std::make_unique<WorkloadProgressRule>();
}

std::vector<std::unique_ptr<LintRule>> DefaultLintRules() {
  std::vector<std::unique_ptr<LintRule>> rules;
  rules.push_back(std::make_unique<WorkloadUnparsableRule>());
  rules.push_back(std::make_unique<WorkloadUnplannableRule>());
  rules.push_back(std::make_unique<WorkloadZeroWeightRule>());
  rules.push_back(std::make_unique<SchemaObjectUnreferencedRule>());
  rules.push_back(std::make_unique<GraphStructureRule>());
  rules.push_back(std::make_unique<GraphNoCoaccessRule>());
  rules.push_back(std::make_unique<GraphCoaccessBoundRule>());
  rules.push_back(std::make_unique<FleetCapacityRule>());
  rules.push_back(std::make_unique<ConstraintUnknownObjectRule>());
  rules.push_back(std::make_unique<ConstraintAvailabilityRule>());
  rules.push_back(std::make_unique<ConstraintColocationCapacityRule>());
  rules.push_back(std::make_unique<ConstraintMovementBoundRule>());
  rules.push_back(std::make_unique<LayoutInvalidRule>());
  rules.push_back(std::make_unique<LayoutCoaccessSharedDiskRule>());
  rules.push_back(std::make_unique<LayoutCapacityHeadroomRule>());
  rules.push_back(std::make_unique<LayoutThinStripeRule>());
  rules.push_back(std::make_unique<LayoutSinglePointOfFailureRule>());
  return rules;
}

}  // namespace dblayout
