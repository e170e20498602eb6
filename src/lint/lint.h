// Layout lint: rule-based static diagnostics for schemas, workloads,
// constraints, disk fleets, and (proposed or saved) layouts.
//
// The paper's premise is that layout pathologies are detectable
// *analytically*, without executing the workload: co-accessed large objects
// sharing drives (Section 5's seek term), constraint sets no search can
// satisfy (Section 2.3), workloads that do not match the schema they are
// laid out for. This module packages those checks as a linter: a registry of
// LintRules, each inspecting the parsed inputs and emitting structured
// Diagnostics with machine-readable severity, object/disk references, and a
// suggested fix. Findings render as text, JSON, or SARIF 2.1.0 so they can
// gate CI (`dblayout lint --fail-on=warn`) or feed code-review UIs.
//
// The runner derives shared artifacts once (a leniently-analyzed workload
// profile, the Section 4 access graph, constraint-feasibility issues from
// CheckConstraintFeasibility) and hands them to every rule; rules whose
// inputs are absent (e.g. layout rules when no layout is given) emit
// nothing. Structural recomputation is delegated to the InvariantAuditor
// (src/analysis/) rather than duplicated here.

#ifndef DBLAYOUT_LINT_LINT_H_
#define DBLAYOUT_LINT_LINT_H_

#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "graph/weighted_graph.h"
#include "layout/constraints.h"
#include "optimizer/optimizer.h"
#include "storage/disk.h"
#include "storage/layout.h"
#include "workload/analyzer.h"
#include "workload/workload.h"

namespace dblayout {

/// Severity of one finding. Ordered: note < warning < error.
enum class LintSeverity { kNote = 0, kWarning = 1, kError = 2 };

/// "note", "warning", or "error" (also the SARIF level names).
const char* LintSeverityName(LintSeverity severity);

/// Parses "note" / "warn" / "warning" / "error" (case-insensitive).
Result<LintSeverity> ParseLintSeverity(const std::string& text);

/// One structured finding. Layout-lint rules reference database objects and
/// drives; source-level rules (src/staticcheck/) reference a file and line
/// instead. Either set of location fields may be empty.
struct Diagnostic {
  std::string rule_id;  ///< stable kebab-case id of the emitting rule
  LintSeverity severity = LintSeverity::kWarning;
  std::vector<std::string> objects;  ///< database objects the finding refers to
  std::vector<std::string> disks;    ///< drives the finding refers to
  std::string file;                  ///< source file ("" if not source-level)
  int line = 0;                      ///< 1-based source line (0 if none)
  std::string message;               ///< human-readable explanation
  std::string fix_it;                ///< suggested remediation ("" if none)
};

/// Tunable thresholds for the heuristic layout rules.
struct LintOptions {
  OptimizerOptions optimizer;  ///< used to plan workload statements
  /// Statement count at which workload-progress-recommended (an opt-in rule,
  /// see MakeWorkloadProgressRule) suggests running with --progress.
  int progress_recommend_statements = 100;
  /// Workload-block share above which an object placed entirely on one
  /// non-redundant drive is flagged (layout-single-point-of-failure).
  double spof_min_workload_share = 0.2;
};

/// Everything a lint run may inspect. `db` is required; every other input is
/// optional — rules that need an absent input are skipped, so the same
/// runner lints a bare schema, a schema+workload pair, or a full
/// schema+workload+fleet+constraints+layout bundle.
struct LintInput {
  const Database* db = nullptr;
  const Workload* workload = nullptr;
  /// Parse failures from Workload::FromScriptLenient (statements the strict
  /// loader would have rejected: bad SQL, non-positive weights).
  const std::vector<Workload::ScriptError>* script_errors = nullptr;
  const DiskFleet* fleet = nullptr;
  const Constraints* constraints = nullptr;
  const Layout* layout = nullptr;
  std::string layout_label;  ///< label for layout findings (e.g. file name)
};

/// Artifacts derived once per run and shared by all rules.
struct LintContext {
  const LintInput& input;
  const LintOptions& options;
  /// Leniently-analyzed workload: plannable statements only.
  WorkloadProfile profile;
  /// Statements the optimizer could not bind (trace/schema mismatches).
  std::vector<StatementAnalysisError> unplannable;
  /// Section 4 access graph over `profile`; valid when has_access_graph.
  WeightedGraph access_graph;
  bool has_access_graph = false;
  /// Pre-search constraint infeasibilities (CheckConstraintFeasibility).
  std::vector<ConstraintIssue> constraint_issues;

  const Database& db() const { return *input.db; }
  std::string ObjectName(size_t id) const;
  std::string DiskName(int j) const;
};

/// One lint rule: a named, self-describing check over the LintContext.
class LintRule {
 public:
  virtual ~LintRule() = default;
  /// Stable kebab-case identifier, e.g. "layout-coaccess-shared-disk".
  virtual const char* id() const = 0;
  /// One-line description (SARIF rule metadata, README rule table).
  virtual const char* summary() const = 0;
  /// Severity this rule emits at (SARIF defaultConfiguration.level).
  virtual LintSeverity severity() const = 0;
  /// Appends findings to `out`. Must be deterministic.
  virtual void Check(const LintContext& ctx, std::vector<Diagnostic>* out) const = 0;
};

/// Metadata of a rule that participated in a run.
struct LintRuleInfo {
  std::string id;
  std::string summary;
  LintSeverity severity = LintSeverity::kWarning;
};

/// The outcome of one lint run.
struct LintReport {
  std::vector<LintRuleInfo> rules;     ///< every rule that ran, in id order
  std::vector<Diagnostic> diagnostics; ///< sorted most severe first

  /// Number of diagnostics at or above `severity`.
  size_t CountAtLeast(LintSeverity severity) const;
  /// Number of diagnostics exactly at `severity`.
  size_t Count(LintSeverity severity) const;
};

/// The built-in rule set (see rules.cc for the inventory; the README lists
/// each rule with the paper section it encodes).
std::vector<std::unique_ptr<LintRule>> DefaultLintRules();

/// Opt-in rule (not part of DefaultLintRules): notes when the workload has
/// at least LintOptions::progress_recommend_statements statements, so a
/// long advisor search should be run with `dblayout advise --progress` (and
/// ideally --trace-out/--metrics-out for postmortems). Register it via
/// LintRunner::AddRule — the CLI does; it doubles as the worked example of
/// the rule-registry extension path.
std::unique_ptr<LintRule> MakeWorkloadProgressRule();

/// Runs a rule set over a LintInput.
class LintRunner {
 public:
  /// A runner with the default rules.
  explicit LintRunner(LintOptions options = {});

  /// Registers an additional rule (appended after the defaults).
  void AddRule(std::unique_ptr<LintRule> rule);

  /// Derives the shared context and runs every rule. Fails only on a
  /// malformed request (no database); findings are never a failure.
  Result<LintReport> Run(const LintInput& input) const;

  const LintOptions& options() const { return options_; }

 private:
  LintOptions options_;
  std::vector<std::unique_ptr<LintRule>> rules_;
};

// --- Renderers (render.cc) -------------------------------------------------

/// Plain-text rendering: one line per finding plus a summary tail line.
/// Findings with a source location render as "file:line: severity: ...".
/// `tool` names the emitting tool in the summary tail.
std::string RenderLintText(const LintReport& report,
                           const std::string& tool = "lint");

/// Machine-readable JSON: {tool, diagnostics: [...], summary: {...}}.
std::string RenderLintJson(const LintReport& report,
                           const std::string& tool = "dblayout-lint");

/// SARIF 2.1.0 log: rule metadata under tool.driver.rules, one result per
/// finding with logicalLocations for the referenced objects and drives and a
/// physicalLocation for source-level findings.
std::string RenderLintSarif(const LintReport& report,
                            const std::string& tool = "dblayout-lint");

}  // namespace dblayout

#endif  // DBLAYOUT_LINT_LINT_H_
