// `dblayout serve`: the continuous advisor service loop (AIM-style
// guardrails over the Fig. 3 advisor; see DESIGN.md §12).
//
// Consumes a profiler trace (`timestamp_ms session_id sql` lines, the same
// format `advise --trace` reads) as a statement *stream*: each trace
// session becomes a tenant session of the supervisor, statements are
// windowed, drift triggers incremental re-advise under a movement budget,
// and every recommendation passes the observe → promote → rollback
// guardrail pipeline before (and after) touching a session's active layout.
//
// Robustness surface exercised by tools/run_serve.sh:
//   --checkpoint/--checkpoint-every/--resume   crash-safe snapshot cadence;
//       kill -9 + --resume converges to the uninterrupted run's exact state
//   --observe-only                             guardrails journal decisions
//       without ever moving data
//   SIGINT/SIGTERM                             finish the statement, write a
//       final checkpoint, flush journal/metrics, exit 130

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cli.h"
#include "common/strutil.h"
#include "lint/lint.h"
#include "service/checkpoint.h"
#include "service/config.h"
#include "service/service_lint.h"
#include "service/shutdown.h"
#include "service/supervisor.h"
#include "workload/trace.h"

namespace dblayout::cli {
namespace {

constexpr const char* kServeUsage =
    "serve --schema FILE --disks FILE --stream FILE\n"
    "          [--window N] [--drift-threshold F]\n"
    "          [--promote-threshold-pct F] [--promote-windows K]\n"
    "          [--rollback-tolerance-pct F] [--max-move FRACTION]\n"
    "          [--observe-only] [--deadline-ms MS]\n"
    "          [--max-profile-statements N] [--retries N]\n"
    "          [--backoff-base-ms MS] [--backoff-jitter F]\n"
    "          [--checkpoint FILE] [--checkpoint-every N] [--resume]\n"
    "          [--final-layout FILE] [--single-session]\n"
    "          [--journal-out FILE] [--metrics-out FILE]\n"
    "          [--seed N] [--threads N] [--throttle-ms MS]\n";

/// Configuration lint before touching anything: `service-config-sane`
/// findings go to stderr; error-level ones (configs that cannot work, e.g.
/// a movement budget below the largest object) refuse to start.
int LintConfig(const ServiceConfig& config, const Database& db,
               const DiskFleet& fleet) {
  LintRunner runner;
  runner.AddRule(MakeServiceConfigRule(config));
  LintInput input;
  input.db = &db;
  input.fleet = &fleet;
  const auto report = runner.Run(input);
  if (!report.ok()) return Fail("lint", report.status(), kExitUsage);
  LintReport filtered;
  for (const Diagnostic& d : report->diagnostics) {
    if (d.rule_id == "service-config-sane") filtered.diagnostics.push_back(d);
  }
  if (filtered.diagnostics.empty()) return kExitOk;
  std::fprintf(stderr, "%s", RenderLintText(filtered, "dblayout-serve").c_str());
  if (filtered.CountAtLeast(LintSeverity::kError) == 0) return kExitOk;
  std::fprintf(stderr,
               "serve: refusing to start with an unusable service "
               "configuration\n");
  return kExitUsage;
}

}  // namespace

int RunServe(const Args& args) {
  std::string schema_path, disks_path, stream_path;
  std::string checkpoint_path, final_layout_path;
  ServiceConfig config;
  Telemetry tel;
  int checkpoint_every = 64;
  bool resume = false, single_session = false;
  double throttle_ms = 0;
  const std::vector<Flag> flags = {
      {"--schema", &schema_path},
      {"--disks", &disks_path},
      {"--stream", &stream_path},
      {"--window", &config.window_size},
      {"--drift-threshold", &config.drift_threshold},
      {"--promote-threshold-pct", &config.promote_threshold_pct},
      {"--promote-windows", &config.promote_windows},
      {"--rollback-tolerance-pct", &config.rollback_tolerance_pct},
      {"--max-move", &config.max_move_fraction},
      {"--observe-only", &config.observe_only},
      {"--deadline-ms", &config.advise_deadline_ms},
      {"--max-profile-statements", &config.max_profile_statements},
      {"--retries", &config.retry.max_retries},
      {"--backoff-base-ms", &config.retry.backoff_base_ms},
      {"--backoff-jitter", &config.retry.backoff_jitter},
      {"--checkpoint", &checkpoint_path},
      {"--checkpoint-every", &checkpoint_every},
      {"--resume", &resume},
      {"--final-layout", &final_layout_path},
      {"--single-session", &single_session},
      {"--journal-out", &tel.journal_out},
      {"--metrics-out", &tel.metrics_out},
      {"--seed", &config.seed},
      {"--threads", &config.num_threads},
      {"--throttle-ms", &throttle_ms}};
  Status st = ParseFlags(args, flags);
  if (st.ok() && (schema_path.empty() || disks_path.empty() || stream_path.empty())) {
    st = Status::InvalidArgument("--schema, --disks and --stream are required");
  }
  if (st.ok() && resume && checkpoint_path.empty()) {
    st = Status::InvalidArgument("--resume requires --checkpoint");
  }
  const std::optional<int64_t> throttle_us = ToInt64(throttle_ms * 1000);
  if (st.ok() && !throttle_us) {
    st = Status::InvalidArgument(StrFormat(
        "--throttle-ms must be below 2^63 microseconds, got %g", throttle_ms));
  }
  if (!st.ok()) return Usage(st, kServeUsage);

  auto db = LoadSchema(schema_path);
  if (!db.ok()) return Fail("schema", db.status(), kExitUsage);
  auto fleet = LoadFleet(disks_path);
  if (!fleet.ok()) return Fail("disks", fleet.status(), kExitUsage);
  auto stream_text = ReadFile(stream_path);
  if (!stream_text.ok()) return Fail("stream", stream_text.status(), kExitUsage);
  auto events = ParseTraceEvents(stream_text.value());
  if (!events.ok()) return Fail("stream", events.status(), kExitUsage);

  if (int rc = LintConfig(config, db.value(), fleet.value()); rc != kExitOk) {
    return rc;
  }

  tel.Start(config.seed, config.num_threads);
  config.cancel_requested = ShutdownFlag();
  if (!tel.journal_out.empty()) {
    tel.StartJournal("dblayout serve", config.seed, config.num_threads,
                     {{"schema", obs::JsonString(schema_path)},
                      {"stream", obs::JsonString(stream_path)},
                      {"window", obs::JsonInt(config.window_size)},
                      {"observe_only", obs::JsonBool(config.observe_only)}},
                     db.value(), fleet.value());
  }

  // Fresh start, or resume from the last checkpoint (which records how many
  // stream events were already consumed). --resume with no checkpoint file
  // yet starts fresh — the crash-recovery script always passes --resume.
  std::unique_ptr<Supervisor> supervisor;
  if (resume) {
    auto snapshot = ReadCheckpoint(checkpoint_path);
    if (snapshot.ok()) {
      auto restored = Supervisor::Restore(snapshot.value(), db.value(),
                                          fleet.value(), config,
                                          tel.journal.get());
      if (!restored.ok()) return Fail("resume", restored.status(), kExitUsage);
      supervisor = std::move(restored.value());
      std::printf("resumed from %s: %lld statements already consumed, "
                  "%zu sessions\n",
                  checkpoint_path.c_str(),
                  static_cast<long long>(supervisor->statements_consumed()),
                  supervisor->sessions().size());
    } else if (snapshot.status().code() == StatusCode::kNotFound) {
      std::printf("no checkpoint at %s, starting fresh\n",
                  checkpoint_path.c_str());
    } else {
      return Fail("resume", snapshot.status(), kExitUsage);
    }
  }
  if (supervisor == nullptr) {
    supervisor = std::make_unique<Supervisor>(db.value(), fleet.value(), config,
                                              tel.journal.get());
  }

  const int64_t start_at = supervisor->statements_consumed();
  const int64_t total = static_cast<int64_t>(events->size());
  if (start_at > total) {
    return Fail(
        "resume",
        Status::InvalidArgument(StrFormat(
            "checkpoint consumed %lld statements but the stream has only "
            "%lld — wrong stream for this checkpoint?",
            static_cast<long long>(start_at), static_cast<long long>(total))),
        kExitUsage);
  }

  bool interrupted = false;
  for (int64_t i = start_at; i < total; ++i) {
    if (ShutdownRequested()) {
      interrupted = true;
      break;
    }
    const TraceEvent& event = events.value()[static_cast<size_t>(i)];
    const int session_id = single_session ? 0 : event.session_id;
    if (Status st = supervisor->OnStatement(session_id, event.sql); !st.ok()) {
      return Fail("serve", st);
    }
    if (!checkpoint_path.empty() && checkpoint_every > 0 &&
        supervisor->statements_consumed() % checkpoint_every == 0) {
      if (Status st = WriteCheckpointAtomic(supervisor->Snapshot(),
                                            checkpoint_path);
          !st.ok()) {
        return Fail("checkpoint", st);
      }
    }
    if (*throttle_us > 0) {
      // Pacing knob for the crash-recovery smoke test (gives the kill -9 a
      // window to land mid-stream); never used for correctness.
      std::this_thread::sleep_for(std::chrono::microseconds(*throttle_us));
    }
  }

  if (!interrupted) {
    if (Status st = supervisor->FlushAll(); !st.ok()) return Fail("flush", st);
  }

  // Final checkpoint in every outcome (clean end or interrupt): restarting
  // with --resume continues from exactly here.
  if (!checkpoint_path.empty()) {
    if (Status st =
            WriteCheckpointAtomic(supervisor->Snapshot(), checkpoint_path);
        !st.ok()) {
      return Fail("checkpoint", st);
    }
  }

  std::printf("%s: %lld/%lld statements consumed, %zu sessions\n",
              interrupted ? "interrupted" : "stream complete",
              static_cast<long long>(supervisor->statements_consumed()),
              static_cast<long long>(total), supervisor->sessions().size());
  const std::vector<std::string> object_names = ObjectNames(db.value());
  std::string final_layouts;
  for (const auto& [id, session] : supervisor->sessions()) {
    std::printf(
        "  session %d: %lld statements, %d windows, %d advises, "
        "%d promotions, %d rollbacks, stage %s, mode %s%s%s\n",
        id, static_cast<long long>(session->statements_ingested()),
        session->windows_closed(), session->advises(), session->promotions(),
        session->rollbacks(), GuardrailStageName(session->stage()),
        SessionModeName(session->mode()),
        session->mode() == SessionMode::kDegraded ? ": " : "",
        session->degraded_reason().c_str());
    final_layouts += StrFormat("# session %d\n", id);
    final_layouts += session->active_layout().ToCsv(object_names, fleet.value());
  }
  if (!final_layout_path.empty()) {
    if (Status st = WriteFile(final_layout_path, final_layouts); !st.ok()) {
      return Fail("final-layout", st);
    }
    std::printf("final active layouts written to %s\n",
                final_layout_path.c_str());
  }
  return tel.Flush(
      interrupted,
      {{"statements", obs::JsonInt(supervisor->statements_consumed())},
       {"sessions",
        obs::JsonInt(static_cast<int64_t>(supervisor->sessions().size()))}});
}

}  // namespace dblayout::cli
