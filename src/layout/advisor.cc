#include "layout/advisor.h"

#include <algorithm>

#include "analysis/invariant_auditor.h"
#include "common/logging.h"
#include "common/strutil.h"
#include "layout/evaluator.h"
#include "obs/clock.h"
#include "obs/journal.h"
#include "obs/trace.h"

namespace dblayout {

namespace {

/// Monotonic milliseconds for the advisor's observe-only per-phase breakdown
/// (Recommendation::phases) and the journal's "phase" events.
double PhaseNowMs() { return static_cast<double>(obs::MonotonicNowNs()) / 1e6; }

/// Emits one "phase" journal event. The wall-clock duration is included only
/// in the journal's opt-in wall-clock mode, keeping default-mode journals
/// byte-identical across runs and thread counts.
void EmitPhase(obs::EventJournal* journal, const char* name, double ms) {
  if (journal == nullptr) return;
  obs::JournalFields fields{{"name", obs::JsonString(name)}};
  if (journal->wall_clock()) {
    fields.emplace_back("ms", obs::JsonDouble(ms));
  }
  journal->Append("phase", std::move(fields));
}

}  // namespace

Result<Recommendation> LayoutAdvisor::Recommend(const Workload& workload) const {
  if (workload.empty()) {
    return Status::InvalidArgument("workload is empty");
  }
  const double analyze_t0 = PhaseNowMs();
  DBLAYOUT_ASSIGN_OR_RETURN(WorkloadProfile profile,
                            AnalyzeWorkload(db_, workload, options_.optimizer));
  const double analyze_ms = PhaseNowMs() - analyze_t0;
  EmitPhase(options_.search.journal, "analyze", analyze_ms);
  DBLAYOUT_ASSIGN_OR_RETURN(Recommendation rec, RecommendFromProfile(profile));
  rec.phases.analyze_ms = analyze_ms;
  return rec;
}

Result<Recommendation> LayoutAdvisor::RecommendFromProfile(
    const WorkloadProfile& profile) const {
  DBLAYOUT_TRACE_SPAN("advisor/recommend");
  if (profile.statements.empty()) {
    return Status::InvalidArgument("workload profile is empty");
  }
  if (profile.num_objects != db_.Objects().size()) {
    return Status::InvalidArgument(
        "workload profile was analyzed against a different database");
  }
  // Pre-search feasibility gate (shared with the lint subsystem): an
  // infeasible constraint set becomes one clear diagnostic here instead of a
  // search that grinds through candidates and fails with a capacity error.
  if (std::vector<ConstraintIssue> issues =
          CheckConstraintFeasibility(options_.constraints, db_, fleet_);
      !issues.empty()) {
    std::vector<std::string> messages;
    bool unknown_object = false;
    for (const ConstraintIssue& issue : issues) {
      messages.push_back(issue.message);
      unknown_object |= issue.kind == ConstraintIssue::Kind::kUnknownObject;
    }
    const std::string combined =
        StrFormat("constraints are infeasible before search: %s",
                  Join(messages, "; ").c_str());
    // A misspelled object name is a lookup failure, not an infeasibility;
    // keep the NotFound code callers already match on.
    return unknown_object ? Status::NotFound(combined)
                          : Status::FailedPrecondition(combined);
  }
  DBLAYOUT_ASSIGN_OR_RETURN(ResolvedConstraints constraints,
                            ResolveConstraints(options_.constraints, db_, fleet_));

  // In concurrency mode the objective (searched and reported) is the
  // stream-merged profile; per-statement impacts below still refer to the
  // original statements.
  WorkloadProfile merged;
  const WorkloadProfile* objective = &profile;
  if (options_.model_concurrency) {
    merged = MergeConcurrentStreams(profile);
    objective = &merged;
  }

  TsGreedySearch search(db_, fleet_, options_.search);
  const double search_t0 = PhaseNowMs();
  DBLAYOUT_ASSIGN_OR_RETURN(SearchResult sr, search.Run(*objective, constraints));
  const double run_ms = PhaseNowMs() - search_t0;
  EmitPhase(options_.search.journal, "partition", sr.partition_ms);
  EmitPhase(options_.search.journal, "search",
            std::max(0.0, run_ms - sr.partition_ms));

  Recommendation rec;
  rec.phases.partition_ms = sr.partition_ms;
  rec.phases.search_ms = std::max(0.0, run_ms - sr.partition_ms);
  rec.layout = std::move(sr.layout);
  rec.estimated_cost_ms = sr.cost;
  rec.greedy_iterations = sr.greedy_iterations;
  rec.layouts_evaluated = sr.layouts_evaluated;
  rec.telemetry = std::move(sr.telemetry);
  rec.timed_out = sr.timed_out;
  // Cache-ability of the *searched* objective: how far CompressProfile could
  // shrink the statement set the cost model saw.
  const ProfileAccessStats pstats = ComputeProfileStats(*objective);
  rec.telemetry.statements = pstats.statements;
  rec.telemetry.subplans = pstats.subplans;
  rec.telemetry.distinct_signatures = pstats.distinct_signatures;
  rec.full_striping =
      Layout::FullStriping(static_cast<int>(db_.Objects().size()), fleet_);

  // Debug-build audit: the recommendation handed to the user (and the
  // baseline it is compared against) must satisfy every Definition 2
  // constraint, independently of the search's own final Validate call.
  const InvariantAuditor auditor;
  DBLAYOUT_DCHECK_OK(auditor.AuditLayout(rec.layout, db_.ObjectSizes(), fleet_));
  DBLAYOUT_DCHECK_OK(auditor.AuditLayoutRows(rec.full_striping));

  // Reference costs go through the evaluator too: Bind is a full §5
  // recomputation, bit-identical to CostModel::WorkloadCost, so the numbers
  // are unchanged while the evaluation shows up in the same evaluator/
  // cost-model accounting as the search's.
  const double evaluate_t0 = PhaseNowMs();
  const CostModel cost_model(fleet_);
  LayoutEvaluator reference_eval(*objective, cost_model);
  reference_eval.set_journal(options_.search.journal);
  rec.full_striping_cost_ms = reference_eval.Bind(rec.full_striping);
  if (options_.constraints.current_layout != nullptr) {
    rec.current_cost_ms =
        reference_eval.Bind(*options_.constraints.current_layout);
  }
  for (const auto& s : profile.statements) {
    StatementImpact impact;
    impact.sql = s.sql;
    impact.weight = s.weight;
    impact.cost_recommended_ms = cost_model.StatementCost(s, rec.layout);
    impact.cost_full_striping_ms = cost_model.StatementCost(s, rec.full_striping);
    rec.per_statement.push_back(std::move(impact));
  }
  rec.phases.evaluate_ms = PhaseNowMs() - evaluate_t0;
  EmitPhase(options_.search.journal, "evaluate", rec.phases.evaluate_ms);
  return rec;
}

std::string LayoutAdvisor::Report(const Recommendation& rec) const {
  std::vector<std::string> names;
  for (const auto& o : db_.Objects()) names.push_back(o.name);
  std::string out;
  out += StrFormat("Recommended layout (estimated workload I/O response time "
                   "%.0f ms; full striping %.0f ms; improvement %.1f%%)\n\n",
                   rec.estimated_cost_ms, rec.full_striping_cost_ms,
                   rec.ImprovementVsFullStripingPct());
  if (rec.timed_out) {
    out += "NOTE: search wall-clock budget expired; this is the best layout "
           "found so far, not a converged recommendation.\n\n";
  }
  out += rec.layout.ToString(names, fleet_);
  out += "\nFilegroups:\n";
  for (const auto& fg : InferFilegroups(rec.layout)) {
    std::vector<std::string> disk_names, object_names;
    for (int j : fg.disks) disk_names.push_back(fleet_.disk(j).name);
    for (int i : fg.objects) object_names.push_back(names[static_cast<size_t>(i)]);
    out += StrFormat("  {%s} <- %s\n", Join(disk_names, ", ").c_str(),
                     Join(object_names, ", ").c_str());
  }
  out += StrFormat("\nSearch: %d greedy iterations, %lld layouts evaluated\n",
                   rec.greedy_iterations,
                   static_cast<long long>(rec.layouts_evaluated));
  out += "\nPer-statement estimated impact vs full striping:\n";
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"statement", "weight", "recommended(ms)", "striped(ms)", "gain"});
  for (const auto& s : rec.per_statement) {
    std::string sql = s.sql.substr(0, 48);
    std::replace(sql.begin(), sql.end(), '\n', ' ');
    rows.push_back({sql, StrFormat("%.0f", s.weight),
                    StrFormat("%.0f", s.cost_recommended_ms),
                    StrFormat("%.0f", s.cost_full_striping_ms),
                    StrFormat("%+.1f%%", s.ImprovementPct())});
  }
  out += RenderTable(rows);
  return out;
}

}  // namespace dblayout
