// Structured search-event journal: a schema-versioned JSONL stream recording
// every decision the layout search makes (candidate scored, move accepted or
// rejected and why), bracketed by run-start/run-end envelope events carrying
// the run's configuration (seed, thread count, build metadata).
//
// Determinism contract (mirrors DESIGN.md §10): with the default logical
// clock, the journal produced by a fixed-seed run is byte-identical at any
// SearchOptions::num_threads value. The parallel candidate-scoring phase
// never appends — its workers write each score into the candidate's fixed
// slot, and the search appends the "eval" events in candidate order after
// the ParallelFor barrier (the fixed-slot discipline LayoutEvaluator uses
// for scores). Wall-clock fields ("t_us" per event, "eval_ns"/"ms" where
// emitters measure) exist only in the opt-in wall-clock mode, which trades
// the byte-identity guarantee for real timings; everything else in a
// journal line is a pure function of the run's inputs.
//
// One event per line, first line is the run_start envelope:
//   {"ev":"run_start","v":1,"seed":42,"threads":4,...}
//   {"ev":"decision","iter":0,"cand":3,"move":"widen",...}
//   {"ev":"run_end","status":"ok","cost":1234.5,...}
// The envelope records the knobs that are *allowed* to differ between
// equivalent runs (thread count); every line after it must be byte-identical
// across thread counts (what tools/run_report.sh gates on).

#ifndef DBLAYOUT_OBS_JOURNAL_H_
#define DBLAYOUT_OBS_JOURNAL_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "obs/json.h"

namespace dblayout::obs {

/// Bump when an event type gains/loses/renames fields. Carried as "v" in the
/// run_start envelope so dblayout report can refuse journals it postdates.
inline constexpr int kJournalSchemaVersion = 1;

/// (key, already-serialized JSON value) pairs, emitted in order. Use the
/// Json* writers of obs/json.h (included here) for values.
using JournalFields = std::vector<std::pair<std::string, std::string>>;

struct JournalOptions {
  /// Include wall-clock timestamps: "t_us" (microseconds since the journal
  /// was created) on every event. Emitters additionally gate their own
  /// duration fields ("eval_ns", phase "ms") on this. Off by default so
  /// journals are byte-identical across thread counts and re-runs.
  bool wall_clock = false;
};

/// Thread-safe JSONL event sink. Append() may be called from any thread
/// (one mutex acquisition per event); callers that need a deterministic
/// order append from one thread.
class EventJournal {
 public:
  explicit EventJournal(JournalOptions options = {});

  bool wall_clock() const { return options_.wall_clock; }

  /// Appends one event line: {"ev":"<type>"[,"t_us":N],<fields...>}.
  void Append(const char* type, const JournalFields& fields);

  int64_t event_count() const;

  /// The full journal: one JSON object per line, trailing newline.
  std::string Serialize() const;

  Status WriteFile(const std::string& path) const;

 private:
  const JournalOptions options_;
  const uint64_t epoch_ns_;  ///< wall-clock epoch (0 in logical-clock mode)

  mutable Mutex mu_;
  std::vector<std::string> lines_ DBLAYOUT_GUARDED_BY(mu_);
};

}  // namespace dblayout::obs

#endif  // DBLAYOUT_OBS_JOURNAL_H_
