// One tenant session of the continuous advisor service: buffers ingested
// statements into fixed-size windows and, at each window boundary, runs the
// observe → advise → guardrail pipeline:
//
//   1. analyze the window (lenient — unplannable statements are journaled
//      and skipped) and compute its realized cost under the active,
//      candidate, and last-good layouts;
//   2. fold the window's plannable statements into the accumulated
//      compressed profile (ProfileCompressor): a repeated access signature
//      adds its weight to the existing representative, a new one appends.
//      The cost grows with the window, not with the profile, and the result
//      is bit-identical to CompressProfile over every window so far;
//   3. re-advise incrementally (LayoutAdvisor::RecommendFromProfile with the
//      active layout as the current one, under the movement budget) when the
//      per-object access shares drifted past threshold since the last
//      advise, with bounded deterministic retry;
//   4. update the guardrail (src/service/guardrail.h) with the realized
//      window costs and apply its action: promote the candidate (with
//      journaled benefit attribution, src/obs/attribution) or roll back to
//      last-good via an ordered move plan (src/resilience/rollback.h).
//
// Robustness posture: a session degrades to observe-only — frozen profile,
// no more advising, realized-cost monitoring and rollback protection stay
// live — instead of stalling the service, when (a) the compressed profile
// exceeds its memory bound, (b) consecutive advises miss their deadline, or
// (c) an advise exhausts its retries. All state is checkpointable
// (src/service/checkpoint.h); the decision sequence is a pure function of
// the ingested statements, so a restored session continues bit-identically.

#ifndef DBLAYOUT_SERVICE_SESSION_H_
#define DBLAYOUT_SERVICE_SESSION_H_

#include <optional>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "service/checkpoint.h"
#include "service/config.h"
#include "service/guardrail.h"
#include "storage/layout.h"
#include "workload/analyzer.h"

namespace dblayout::obs {
class EventJournal;
}  // namespace dblayout::obs

namespace dblayout {

/// kActive advises; kDegraded only observes (see file comment).
enum class SessionMode { kActive = 0, kDegraded = 1 };

const char* SessionModeName(SessionMode mode);

class Session {
 public:
  /// A fresh session starts on full striping (the no-information layout the
  /// paper benchmarks against) with an empty profile.
  Session(int id, const Database& db, const DiskFleet& fleet,
          const ServiceConfig& config, obs::EventJournal* journal);

  /// Buffers one statement; closes (processes) a window when the buffer
  /// reaches ServiceConfig::window_size. Errors are advisor-pipeline
  /// failures; unparsable SQL is journaled, not an error.
  Status Ingest(const std::string& sql, double weight = 1.0);

  /// Processes the current partial window, if any (end-of-stream flush).
  Status Flush();

  int id() const { return id_; }
  SessionMode mode() const { return mode_; }
  const std::string& degraded_reason() const { return degraded_reason_; }
  GuardrailStage stage() const { return guardrail_.stage(); }
  const Layout& active_layout() const { return active_; }
  const std::optional<Layout>& candidate_layout() const { return candidate_; }
  const std::optional<Layout>& last_good_layout() const { return last_good_; }
  int windows_closed() const { return windows_closed_; }
  int64_t statements_ingested() const { return statements_ingested_; }
  int advises() const { return advises_; }
  int promotions() const { return promotions_; }
  int rollbacks() const { return rollbacks_; }
  /// The accumulated compressed profile (frozen while degraded).
  const WorkloadProfile& profile() const { return profile_; }

  /// Checkpoint round-trip. Restore validates layouts against (db, fleet)
  /// and rebuilds the accumulated profile by re-analyzing the snapshot's
  /// statements (exactly cost-equivalent; see checkpoint.h).
  SessionSnapshot Snapshot() const;
  static Result<Session> Restore(const SessionSnapshot& snapshot,
                                 const Database& db, const DiskFleet& fleet,
                                 const ServiceConfig& config,
                                 obs::EventJournal* journal);

 private:
  Status ProcessWindow();
  /// Re-advise with bounded deterministic retry; fills candidate_.
  Status AdviseWithRetry();
  /// Per-object share of weighted blocks accessed in the accumulated
  /// profile (the drift coordinate system).
  std::vector<double> AccessShares() const;
  void Degrade(const std::string& reason);
  /// Appends a "session"-prefixed event when a journal is attached. Its
  /// fields are built before the call, so the per-window events test
  /// journal_ first.
  void JournalEvent(const char* type,
                    std::vector<std::pair<std::string, std::string>> fields);

  int id_;
  const Database& db_;
  const DiskFleet& fleet_;
  ServiceConfig config_;
  obs::EventJournal* journal_;  ///< not owned; may be null

  Guardrail guardrail_;
  SessionMode mode_ = SessionMode::kActive;
  std::string degraded_reason_;

  /// Pending statements of the open window, as ingested.
  std::vector<StatementSnapshot> pending_;
  /// Accumulated compressed profile; its (sql, weight, stream) triplets are
  /// the checkpointable form. compressor_ indexes its representatives.
  WorkloadProfile profile_;
  ProfileCompressor compressor_;

  Layout active_;
  std::optional<Layout> candidate_;
  std::optional<Layout> last_good_;
  std::vector<double> adopted_shares_;

  int windows_closed_ = 0;
  int64_t statements_ingested_ = 0;
  int advises_ = 0;
  int promotions_ = 0;
  int rollbacks_ = 0;
  int deadline_misses_ = 0;
};

}  // namespace dblayout

#endif  // DBLAYOUT_SERVICE_SESSION_H_
