#include "service/session.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "common/strutil.h"
#include "layout/advisor.h"
#include "layout/cost_model.h"
#include "obs/attribution.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "resilience/rollback.h"
#include "workload/workload.h"

namespace dblayout {

namespace {

std::vector<std::string> ObjectNames(const Database& db) {
  std::vector<std::string> names;
  names.reserve(db.Objects().size());
  for (const auto& object : db.Objects()) names.push_back(object.name);
  return names;
}

Result<GuardrailStage> ParseStage(const std::string& name) {
  if (name == "idle") return GuardrailStage::kIdle;
  if (name == "observing") return GuardrailStage::kObserving;
  if (name == "promoted") return GuardrailStage::kPromoted;
  return Status::InvalidArgument(
      StrFormat("unknown guardrail stage '%s' in checkpoint", name.c_str()));
}

}  // namespace

const char* SessionModeName(SessionMode mode) {
  return mode == SessionMode::kDegraded ? "degraded" : "active";
}

Session::Session(int id, const Database& db, const DiskFleet& fleet,
                 const ServiceConfig& config, obs::EventJournal* journal)
    : id_(id),
      db_(db),
      fleet_(fleet),
      config_(config),
      journal_(journal),
      guardrail_(config),
      active_(Layout::FullStriping(static_cast<int>(db.Objects().size()), fleet)) {
  profile_.num_objects = db.Objects().size();
}

void Session::JournalEvent(
    const char* type, std::vector<std::pair<std::string, std::string>> fields) {
  if (journal_ == nullptr) return;
  std::vector<std::pair<std::string, std::string>> prefixed;
  prefixed.reserve(fields.size() + 1);
  prefixed.emplace_back("session", obs::JsonInt(id_));
  for (auto& f : fields) prefixed.push_back(std::move(f));
  journal_->Append(type, prefixed);
}

Status Session::Ingest(const std::string& sql, double weight) {
  StatementSnapshot s;
  s.sql = sql;
  s.weight = weight;
  pending_.push_back(std::move(s));
  ++statements_ingested_;
  if (static_cast<int>(pending_.size()) >= std::max(1, config_.window_size)) {
    return ProcessWindow();
  }
  return Status::OK();
}

Status Session::Flush() {
  if (pending_.empty()) return Status::OK();
  return ProcessWindow();
}

std::vector<double> Session::AccessShares() const {
  std::vector<double> shares = profile_.NodeBlockTotals();
  double total = 0;
  for (const double s : shares) total += s;
  if (total > 0) {
    for (double& s : shares) s /= total;
  }
  return shares;
}

void Session::Degrade(const std::string& reason) {
  if (mode_ == SessionMode::kDegraded) return;
  mode_ = SessionMode::kDegraded;
  degraded_reason_ = reason;
  DBLAYOUT_OBS_COUNT("service/sessions_degraded", 1);
  JournalEvent("serve_degrade", {{"reason", obs::JsonString(reason)},
                                 {"window", obs::JsonInt(windows_closed_)}});
}

Status Session::AdviseWithRetry() {
  AdvisorOptions options;
  options.search.time_budget_ms = config_.advise_deadline_ms;
  options.search.num_threads = config_.num_threads;
  options.search.cancel_requested = config_.cancel_requested;
  options.constraints.max_movement_fraction = config_.max_move_fraction;
  // The movement budget binds against the evolving active layout. Every
  // active layout is valid where it comes from: full striping, a search
  // result Run validated, or a layout Restore validated.
  options.constraints.current_layout = &active_;
  DBLAYOUT_DCHECK_OK(active_.Validate(db_.ObjectSizes(), fleet_));
  const LayoutAdvisor advisor(db_, fleet_, options);

  // One Rng per (session, window): retry schedules decorrelate across
  // sessions yet replay identically after a checkpoint resume (the window
  // index is checkpointed state).
  Rng rng(config_.seed + 0x9E3779B97F4A7C15ull * static_cast<uint64_t>(id_) +
          0xBF58476D1CE4E5B9ull * static_cast<uint64_t>(windows_closed_));

  const int max_attempts = config_.retry.MaxAttempts();
  Status last_error = Status::OK();
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    Status fault = Status::OK();
    if (config_.advise_fault_hook_for_test) {
      fault = config_.advise_fault_hook_for_test(id_, windows_closed_, attempt);
    }
    Result<Recommendation> rec =
        fault.ok() ? advisor.RecommendFromProfile(profile_)
                   : Result<Recommendation>(fault);
    if (!rec.ok()) {
      last_error = rec.status();
      DBLAYOUT_OBS_COUNT("service/advise_failures", 1);
      if (attempt < max_attempts) {
        // Deterministic backoff: charged to the journal, never slept — the
        // serve loop has no wall-clock dependence.
        const double backoff_ms =
            config_.retry.JitteredBackoffMs(attempt, &rng);
        JournalEvent("serve_retry",
                     {{"window", obs::JsonInt(windows_closed_)},
                      {"attempt", obs::JsonInt(attempt)},
                      {"backoff_ms", obs::JsonDouble(backoff_ms)},
                      {"error", obs::JsonString(std::string(
                                    last_error.message()))}});
      }
      continue;
    }

    ++advises_;
    if (rec.value().timed_out) {
      ++deadline_misses_;
      JournalEvent("serve_deadline_miss",
                   {{"window", obs::JsonInt(windows_closed_)},
                    {"consecutive", obs::JsonInt(deadline_misses_)}});
      if (deadline_misses_ >= std::max(1, config_.max_deadline_misses)) {
        Degrade("advise-deadline");
      }
    } else {
      deadline_misses_ = 0;
    }

    if (!rec.value().layout.ApproxEquals(active_)) {
      candidate_ = std::move(rec.value().layout);
      if (journal_ != nullptr) {
        JournalEvent(
            "serve_candidate",
            {{"window", obs::JsonInt(windows_closed_)},
             {"est_cost_ms", obs::JsonDouble(rec.value().estimated_cost_ms)},
             {"active_cost_ms", obs::JsonDouble(rec.value().current_cost_ms)},
             {"moved_blocks",
              obs::JsonDouble(Layout::DataMovementBlocks(
                  active_, *candidate_, db_.ObjectSizes()))}});
      }
    } else {
      // The incremental search says the active layout is (still) the best
      // reachable one; drop any stale candidate from an older profile.
      candidate_.reset();
    }
    adopted_shares_ = AccessShares();
    return Status::OK();
  }

  // Retries exhausted: shed to observe-only rather than failing the stream
  // (the statement flow continues; only advising stops).
  Degrade(StrFormat("advise-retries-exhausted: %s",
                    std::string(last_error.message()).c_str()));
  return Status::OK();
}

Status Session::ProcessWindow() {
  const int window_index = windows_closed_;
  ++windows_closed_;

  // 1. Parse + analyze the window leniently: a service must survive trace
  // lines the SQL subset or the schema does not cover.
  Workload window_workload(StrFormat("session-%d-window-%d", id_, window_index));
  int unparsable = 0;
  for (const StatementSnapshot& s : pending_) {
    Status st = window_workload.Add(s.sql, s.weight, s.stream);
    if (!st.ok()) {
      ++unparsable;
      JournalEvent("serve_unparsable",
                   {{"window", obs::JsonInt(window_index)},
                    {"sql", obs::JsonString(s.sql)},
                    {"error", obs::JsonString(std::string(st.message()))}});
    }
  }
  std::vector<StatementAnalysisError> analysis_errors;
  WorkloadProfile window_profile =
      AnalyzeWorkloadLenient(db_, window_workload, &analysis_errors);
  for (const StatementAnalysisError& e : analysis_errors) {
    JournalEvent("serve_unplannable",
                 {{"window", obs::JsonInt(window_index)},
                  {"sql", obs::JsonString(e.sql)},
                  {"error", obs::JsonString(std::string(e.status.message()))}});
  }
  const int plannable = static_cast<int>(window_profile.statements.size());
  pending_.clear();

  if (plannable == 0) {
    JournalEvent("serve_window", {{"window", obs::JsonInt(window_index)},
                                  {"statements", obs::JsonInt(0)},
                                  {"skipped", obs::JsonInt(unparsable)}});
    return Status::OK();
  }

  // 2. Realized window costs under every live layout — the guardrail's
  // signals. "Realized" here is the §5 analytic cost of the window's actual
  // statements (the simulator of record for this repo), not a production
  // counter; the comparison discipline is AIM's.
  const CostModel cost_model(fleet_);
  WindowSignal signal;
  signal.active_cost_ms = cost_model.WorkloadCost(window_profile, active_);
  if (candidate_.has_value()) {
    signal.candidate_cost_ms = cost_model.WorkloadCost(window_profile, *candidate_);
  }
  if (last_good_.has_value()) {
    signal.last_good_cost_ms = cost_model.WorkloadCost(window_profile, *last_good_);
  }

  // 3. Fold the window into the accumulated profile (degraded sessions
  // freeze theirs — monitoring continues, learning stops).
  if (mode_ == SessionMode::kActive) {
    for (const StatementProfile& s : window_profile.statements) {
      compressor_.Fold(s, &profile_);
    }
    if (static_cast<int>(profile_.statements.size()) >
        std::max(1, config_.max_profile_statements)) {
      Degrade("profile-budget");
    }
  }

  // 4. Drift-gated incremental re-advise.
  double drift = 1.0;
  const std::vector<double> shares = AccessShares();
  if (!adopted_shares_.empty() && adopted_shares_.size() == shares.size()) {
    drift = 0;
    for (size_t i = 0; i < shares.size(); ++i) {
      drift += std::fabs(shares[i] - adopted_shares_[i]);
    }
    drift *= 0.5;  // total-variation distance, in [0, 1]
  }
  bool advised = false;
  if (mode_ == SessionMode::kActive && drift >= config_.drift_threshold) {
    DBLAYOUT_RETURN_NOT_OK(AdviseWithRetry());
    advised = true;
    // Refresh the candidate signal: AdviseWithRetry may have created,
    // replaced, or dropped the candidate.
    signal.candidate_cost_ms =
        candidate_.has_value()
            ? cost_model.WorkloadCost(window_profile, *candidate_)
            : -1;
  }

  // 5. Guardrail decision on realized costs, then apply its action.
  const GuardrailAction action = guardrail_.OnWindow(signal);
  switch (action) {
    case GuardrailAction::kNone:
      break;
    case GuardrailAction::kWouldPromote:
      JournalEvent("serve_would_promote",
                   {{"window", obs::JsonInt(window_index)},
                    {"benefit_pct", obs::JsonDouble(guardrail_.last_benefit_pct())}});
      break;
    case GuardrailAction::kPromote: {
      ++promotions_;
      DBLAYOUT_OBS_COUNT("service/promotions", 1);
      const double moved =
          journal_ != nullptr
              ? Layout::DataMovementBlocks(active_, *candidate_, db_.ObjectSizes())
              : 0;
      last_good_ = std::move(active_);
      active_ = std::move(*candidate_);
      candidate_.reset();
      if (journal_ == nullptr) break;
      JournalEvent("serve_promote",
                   {{"window", obs::JsonInt(window_index)},
                    {"benefit_pct", obs::JsonDouble(guardrail_.last_benefit_pct())},
                    {"moved_blocks", obs::JsonDouble(moved)}});
      // Benefit attribution of the newly promoted layout: which statements
      // and objects the win comes from (run reports read it in the
      // journal). Queue sampling off — the serve loop stays deterministic
      // and cheap.
      obs::AttributionOptions attr_options;
      attr_options.sample_queues = false;
      Result<obs::CostAttribution> attribution =
          obs::AttributeCost(profile_, active_, fleet_, db_.ObjectSizes(),
                             ObjectNames(db_), attr_options);
      if (attribution.ok()) {
        obs::AppendAttributionEvents(attribution.value(), journal_, 5);
      }
      break;
    }
    case GuardrailAction::kRollback: {
      ++rollbacks_;
      DBLAYOUT_OBS_COUNT("service/rollbacks", 1);
      // Plan against the *window* profile: the regression being undone is
      // the realized one, and the plan's per-statement deltas attribute it.
      DBLAYOUT_ASSIGN_OR_RETURN(
          RollbackPlan plan,
          PlanRollback(db_, fleet_, window_profile, active_, *last_good_));
      std::vector<std::pair<std::string, std::string>> fields = {
          {"window", obs::JsonInt(window_index)},
          {"regression_pct", obs::JsonDouble(plan.RegressionPct())},
          {"moved_blocks", obs::JsonDouble(plan.moved_blocks)},
          {"moves", obs::JsonInt(static_cast<int64_t>(plan.moves.size()))}};
      int listed = 0;
      for (const StatementRegression& r : plan.regressions) {
        if (r.DeltaMs() <= 0 || listed >= 3) break;
        ++listed;
        fields.emplace_back(StrFormat("regressed_sql_%d", listed),
                            obs::JsonString(r.sql));
        fields.emplace_back(StrFormat("regressed_delta_ms_%d", listed),
                            obs::JsonDouble(r.DeltaMs()));
      }
      JournalEvent("serve_rollback", std::move(fields));
      active_ = std::move(plan.target);
      candidate_.reset();
      last_good_.reset();
      break;
    }
  }

  if (journal_ != nullptr) {
    JournalEvent(
        "serve_window",
        {{"window", obs::JsonInt(window_index)},
         {"statements", obs::JsonInt(plannable)},
         {"skipped",
          obs::JsonInt(unparsable + static_cast<int>(analysis_errors.size()))},
         {"active_cost_ms", obs::JsonDouble(signal.active_cost_ms)},
         {"drift", obs::JsonDouble(drift)},
         {"advised", obs::JsonBool(advised)},
         {"stage", obs::JsonString(GuardrailStageName(guardrail_.stage()))},
         {"mode", obs::JsonString(SessionModeName(mode_))}});
  }
  DBLAYOUT_OBS_COUNT("service/windows_closed", 1);
  return Status::OK();
}

SessionSnapshot Session::Snapshot() const {
  SessionSnapshot snapshot;
  snapshot.id = id_;
  snapshot.mode = SessionModeName(mode_);
  snapshot.stage = GuardrailStageName(guardrail_.stage());
  snapshot.streak = guardrail_.streak();
  snapshot.windows_closed = windows_closed_;
  snapshot.statements_ingested = statements_ingested_;
  snapshot.advises = advises_;
  snapshot.promotions = promotions_;
  snapshot.rollbacks = rollbacks_;
  snapshot.deadline_misses = deadline_misses_;
  snapshot.degraded_reason = degraded_reason_;
  snapshot.profile.reserve(profile_.statements.size());
  for (const StatementProfile& s : profile_.statements) {
    snapshot.profile.push_back(StatementSnapshot{s.sql, s.weight, s.stream});
  }
  snapshot.pending = pending_;
  const std::vector<std::string> names = ObjectNames(db_);
  snapshot.active_csv = active_.ToCsv(names, fleet_);
  if (last_good_.has_value()) {
    snapshot.last_good_csv = last_good_->ToCsv(names, fleet_);
  }
  if (candidate_.has_value()) {
    snapshot.candidate_csv = candidate_->ToCsv(names, fleet_);
  }
  snapshot.adopted_shares = adopted_shares_;
  return snapshot;
}

Result<Session> Session::Restore(const SessionSnapshot& snapshot,
                                 const Database& db, const DiskFleet& fleet,
                                 const ServiceConfig& config,
                                 obs::EventJournal* journal) {
  Session session(snapshot.id, db, fleet, config, journal);
  if (snapshot.mode == "degraded") {
    session.mode_ = SessionMode::kDegraded;
    session.degraded_reason_ = snapshot.degraded_reason;
  } else if (snapshot.mode != "active") {
    return Status::InvalidArgument(StrFormat(
        "unknown session mode '%s' in checkpoint", snapshot.mode.c_str()));
  }
  DBLAYOUT_ASSIGN_OR_RETURN(GuardrailStage stage, ParseStage(snapshot.stage));
  session.guardrail_.RestoreState(stage, snapshot.streak);
  session.windows_closed_ = snapshot.windows_closed;
  session.statements_ingested_ = snapshot.statements_ingested;
  session.advises_ = snapshot.advises;
  session.promotions_ = snapshot.promotions;
  session.rollbacks_ = snapshot.rollbacks;
  session.deadline_misses_ = snapshot.deadline_misses;
  session.pending_ = snapshot.pending;
  session.adopted_shares_ = snapshot.adopted_shares;

  const std::vector<std::string> names = ObjectNames(db);
  const std::vector<int64_t> sizes = db.ObjectSizes();
  DBLAYOUT_ASSIGN_OR_RETURN(session.active_,
                            Layout::FromCsv(snapshot.active_csv, names, fleet));
  DBLAYOUT_RETURN_NOT_OK(session.active_.Validate(sizes, fleet));
  if (!snapshot.last_good_csv.empty()) {
    DBLAYOUT_ASSIGN_OR_RETURN(
        Layout last_good, Layout::FromCsv(snapshot.last_good_csv, names, fleet));
    DBLAYOUT_RETURN_NOT_OK(last_good.Validate(sizes, fleet));
    session.last_good_ = std::move(last_good);
  }
  if (!snapshot.candidate_csv.empty()) {
    DBLAYOUT_ASSIGN_OR_RETURN(
        Layout candidate, Layout::FromCsv(snapshot.candidate_csv, names, fleet));
    DBLAYOUT_RETURN_NOT_OK(candidate.Validate(sizes, fleet));
    session.candidate_ = std::move(candidate);
  }

  // Rebuild the accumulated profile, and the compressor's signature index,
  // by re-analyzing and folding the checkpointed compressed representatives
  // — exactly cost-equivalent to the original (cost is a pure function of
  // the access signature; see checkpoint.h).
  // Strict analysis: these statements planned before, so any failure here
  // means the checkpoint does not match the live schema.
  if (!snapshot.profile.empty()) {
    Workload workload(StrFormat("session-%d-restore", snapshot.id));
    for (const StatementSnapshot& s : snapshot.profile) {
      Status st = workload.Add(s.sql, s.weight, s.stream);
      if (!st.ok()) {
        return Status::InvalidArgument(StrFormat(
            "checkpoint profile statement does not parse against the live "
            "schema: %s",
            std::string(st.message()).c_str()));
      }
    }
    DBLAYOUT_ASSIGN_OR_RETURN(WorkloadProfile profile,
                              AnalyzeWorkload(db, workload));
    for (const StatementProfile& s : profile.statements) {
      session.compressor_.Fold(s, &session.profile_);
    }
  }
  return session;
}

}  // namespace dblayout
