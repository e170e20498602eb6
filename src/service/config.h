// Configuration of the continuous advisor service (dblayout serve): the
// windowing, drift, guardrail, degradation, and retry knobs shared by the
// session supervisor, the checkpoint format, and the `service-config-sane`
// lint rule. One struct so a checkpoint can fingerprint the decision-relevant
// configuration and refuse to resume under a different one (a resumed run
// must replay the exact decision sequence of the uninterrupted run).

#ifndef DBLAYOUT_SERVICE_CONFIG_H_
#define DBLAYOUT_SERVICE_CONFIG_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

#include "common/status.h"
#include "io/fault_model.h"

namespace dblayout {

struct ServiceConfig {
  /// Statements per decision window. A session re-evaluates drift, advises,
  /// and updates its guardrail once per full window; the final partial
  /// window is flushed at end-of-stream.
  int window_size = 8;
  /// Re-advise trigger: total-variation distance (0..1) between the current
  /// per-object access-share vector and the one adopted at the last advise.
  /// A fresh session has no adopted reference, so its first window always
  /// advises.
  double drift_threshold = 0.15;
  /// Guardrail promotion: the candidate layout must beat the active layout
  /// by at least this % of realized (window) cost...
  double promote_threshold_pct = 5.0;
  /// ...for this many consecutive windows before it is promoted. The AIM
  /// staging discipline: every recommendation starts observe-only.
  int promote_windows = 2;
  /// Guardrail rollback: a promoted layout whose realized window cost
  /// exceeds the last-good layout's cost on the same window by more than
  /// this % is rolled back to last-good.
  double rollback_tolerance_pct = 2.0;
  /// Movement budget per re-advise, as a fraction of total database blocks
  /// (Constraints::max_movement_fraction). Negative = unconstrained.
  double max_move_fraction = 0.25;
  /// Observe-only mode: guardrails run and journal "would promote" events,
  /// but the active layout never changes. The safe default for shadowing a
  /// production trace.
  bool observe_only = false;
  /// Per-advise wall-clock deadline (ms), mapped to
  /// SearchOptions::time_budget_ms. Negative = unlimited. A deadline of 0
  /// expires immediately (returns the starting layout) — useful in tests to
  /// exercise degradation deterministically.
  double advise_deadline_ms = -1.0;
  /// Consecutive advise deadline misses before the session degrades to
  /// observe-only (it keeps monitoring, stops advising).
  int max_deadline_misses = 2;
  /// Degradation bound on per-session memory: when the compressed
  /// accumulated profile still exceeds this many statements, the session
  /// freezes its profile and degrades to observe-only instead of growing
  /// without bound.
  int max_profile_statements = 512;
  /// Retry discipline for failed advises (bounded attempts, exponential
  /// backoff with seeded jitter — see RetryPolicy). The backoff is charged
  /// to the journal, not slept: the service loop is deterministic.
  RetryPolicy retry;
  /// Seed for the per-(session, window) retry-jitter Rng streams.
  uint64_t seed = 1;
  /// Threads for candidate scoring inside each advise
  /// (SearchOptions::num_threads; bit-identical results at any value).
  int num_threads = 1;
  /// Cooperative cancellation for in-flight advises (not owned; may be
  /// null). dblayout serve wires this to the process shutdown flag so
  /// SIGINT/SIGTERM mid-search still yields a checkpointable state.
  const std::atomic<bool>* cancel_requested = nullptr;
  /// Test-only fault injection: when set, called before each advise attempt
  /// with (session_id, window_index, 1-based attempt); a non-OK status is
  /// treated as that attempt failing, exercising the retry/degradation
  /// path. Never set in production.
  std::function<Status(int, int, int)> advise_fault_hook_for_test;

  /// Stable fingerprint of the decision-relevant knobs (everything that can
  /// change what a session decides; excludes num_threads, which is
  /// guaranteed not to). Stored in checkpoints; Restore refuses a snapshot
  /// whose fingerprint differs from the running config's.
  std::string Fingerprint() const;
};

}  // namespace dblayout

#endif  // DBLAYOUT_SERVICE_CONFIG_H_
