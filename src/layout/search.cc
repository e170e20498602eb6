#include "layout/search.h"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>
#include <span>

#include "analysis/invariant_auditor.h"
#include "common/logging.h"
#include "common/strutil.h"
#include "common/thread_pool.h"
#include "graph/partition.h"
#include "layout/evaluator.h"
#include "obs/clock.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dblayout {

namespace {

constexpr double kEps = 1e-9;

/// Cap on the iterations of one MoveLoop (defensive: each phase stops at its
/// first iteration without an improving candidate, and every accepted
/// migration step migrates at least one more group).
constexpr int kMaxIterations = 1000;

/// The move kinds: Fig. 9's widening, this reproduction's jump and narrowing
/// extensions, and the incremental mode's migration step.
enum class MoveKind { kWiden, kJump, kNarrow, kMigrate };

/// Per move kind, in MoveKind order: its journal and progress name and its
/// SearchTelemetry counters.
struct MoveKindInfo {
  const char* name;
  int64_t SearchTelemetry::*considered;
  int64_t SearchTelemetry::*accepted;
};
constexpr MoveKindInfo kMoveKinds[] = {
    {"widen", &SearchTelemetry::widen_considered, &SearchTelemetry::widen_accepted},
    {"jump", &SearchTelemetry::jump_considered, &SearchTelemetry::jump_accepted},
    {"narrow", &SearchTelemetry::narrow_considered, &SearchTelemetry::narrow_accepted},
    {"migrate", &SearchTelemetry::migrate_considered,
     &SearchTelemetry::migrate_accepted},
};

const MoveKindInfo& Kind(MoveKind kind) {
  return kMoveKinds[static_cast<size_t>(kind)];
}

/// Why a candidate was discarded before scoring: its journal reason and its
/// SearchTelemetry counter.
struct RejectReason {
  const char* name;
  int64_t SearchTelemetry::*counter;
};
constexpr RejectReason kCapacityReject{"capacity", &SearchTelemetry::capacity_rejected};
constexpr RejectReason kMovementReject{"movement_budget",
                                       &SearchTelemetry::movement_rejected};

/// Flushes the per-run telemetry into the global metrics registry: one
/// counter add per published field, not one per move, so the hot loop stays
/// clean. The counters are looked up by name, once per run.
void PublishSearchMetrics(const SearchTelemetry& t) {
  if (!obs::Enabled()) return;
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  for (const SearchTelemetryField& f : kSearchTelemetryFields) {
    if (f.metric == nullptr) continue;
    if (f.count != nullptr) {
      registry.GetCounter(f.metric)->Add(t.*f.count);
    } else if (t.*f.flag) {
      registry.GetCounter(f.metric)->Add(1);
    }
  }
}

/// Completes a Run/RunFrom result: the evaluation totals and the telemetry
/// flush. Every evaluation of the run went through the shared cost model
/// exactly once (delta scorings via NoteExternalWorkloadEvaluations), so the
/// full/delta split follows from the totals.
void FinishRun(const CostModel& cost_model, SearchResult* result) {
  result->layouts_evaluated = cost_model.WorkloadEvaluations();
  result->telemetry.full_evals =
      result->layouts_evaluated - result->telemetry.delta_evals;
  result->timed_out = result->telemetry.timed_out;
  PublishSearchMetrics(result->telemetry);
}

/// Sum of access-graph edge weights between two object sets.
double EdgeWeightBetween(const WeightedGraph& g, const std::vector<int>& a,
                         const std::vector<int>& b) {
  // Sorted-neighbor order keeps the float total (and thus split/merge tie
  // breaks downstream) independent of hash layout.
  double total = 0;
  for (int u : a) {
    for (const auto& [v, w] : g.SortedNeighbors(static_cast<size_t>(u))) {
      if (std::find(b.begin(), b.end(), static_cast<int>(v)) != b.end()) total += w;
    }
  }
  return total;
}

/// All subsets of `pool` with 1 <= size <= k, emitted via `fn`.
void ForEachSubsetUpToK(const std::vector<int>& pool, int k,
                        const std::function<void(const std::vector<int>&)>& fn) {
  std::vector<int> subset;
  std::function<void(size_t, int)> rec = [&](size_t start, int remaining) {
    if (!subset.empty()) fn(subset);
    if (remaining == 0) return;
    for (size_t i = start; i < pool.size(); ++i) {
      subset.push_back(pool[i]);
      rec(i + 1, remaining - 1);
      subset.pop_back();
    }
  };
  rec(0, k);
}

/// Groups every object into its co-location group (singleton if
/// unconstrained). The greedy step widens whole groups so co-location is
/// preserved by construction.
std::vector<std::vector<int>> ObjectGroups(size_t num_objects,
                                           const ResolvedConstraints& constraints) {
  std::vector<bool> covered(num_objects, false);
  std::vector<std::vector<int>> groups;
  for (const auto& g : constraints.co_located_groups) {
    groups.push_back(g);
    for (int i : g) covered[static_cast<size_t>(i)] = true;
  }
  for (size_t i = 0; i < num_objects; ++i) {
    if (!covered[i]) groups.push_back({static_cast<int>(i)});
  }
  return groups;
}

/// One candidate of a MoveLoop iteration: every object of `*objects`
/// re-assigned, proportionally across the drives `*to` (greedy moves), or to
/// its row in the probe target, whose drives `*to` then lists (migration).
/// Both pointees are owned by the source and outlive the iteration.
struct MoveCandidate {
  MoveKind kind = MoveKind::kWiden;
  int source = 0;  ///< the co-location group (greedy) or migration unit
  const std::vector<int>* objects = nullptr;
  const std::vector<int>* to = nullptr;
  int slot = 0;           ///< greedy: the memo slot in the group's list
  double step_moved = 0;  ///< blocks a migration step moves (>= 1)
};

/// One entry of a greedy group's candidate list: a move kind and the drives
/// the group would spread over.
struct ListedMove {
  MoveKind kind = MoveKind::kWiden;
  std::vector<int> disks;
  bool operator==(const ListedMove&) const = default;
};

/// A candidate source and fold rule for MoveLoop:
///   - enumerate(base, &cands, reject) appends this iteration's feasible
///     candidates in a deterministic order, and reports every candidate it
///     discards through reject(kind, objects, to, reason);
///   - move(c) is candidate `c` as the evaluator scores it, memo included;
///   - commit(c) stages and commits `c` through the evaluator and updates
///     the source's own state.
/// The fold rule (FoldRule) picks the lowest cost (`by_gain` false), or the
/// best cost gain per moved block among the candidates that improve on the
/// base.
template <typename Enumerate, typename Move, typename Commit>
struct MoveSource {
  const char* phase;  ///< "greedy" or "migrate"
  bool by_gain;
  Enumerate enumerate;
  Move move;
  Commit commit;
};

/// The sequential fold of one MoveLoop iteration: the running winner, and
/// the test a candidate's total must pass to replace it. Strict
/// improvement on the running best (`by_gain` false), or a strictly better
/// gain per moved block among the candidates that improve on the base, so
/// ties resolve to the earliest candidate. Beats is monotone: a total that
/// does not beat the state is not beaten by a larger total, nor by any
/// total once Take has tightened the state.
struct FoldRule {
  bool by_gain;
  double base;       ///< the bound layout's cost
  double best_cost;  ///< the winner's total; `base` before any
  double best_gain;  ///< by_gain: the winner's gain per moved block
  size_t best_idx;   ///< the winner, or the candidate count for none

  bool Beats(double total, double step_moved) const {
    if (!by_gain) return total < best_cost - kEps;
    return total < base - kEps && (base - total) / step_moved > best_gain;
  }
  void Take(size_t idx, double total, double step_moved) {
    best_idx = idx;
    best_cost = total;
    if (by_gain) best_gain = (base - total) / step_moved;
  }
};

/// The move loop of both search phases (Fig. 9 step 3, and the incremental
/// mode's migration): per iteration, enumerate the candidates, bound their
/// totals by delta costing, fold them in order (taking the exact total of
/// each candidate that may still win), and commit the winner, until an
/// iteration finds no winner. Each journal event, telemetry count, progress sample and
/// post-move audit is issued here, at one site. `Deadline` is
/// TsGreedySearch::Deadline.
template <typename Source, typename Deadline>
void MoveLoop(const Source& source, const SearchOptions& options,
              const CostModel& cost_model, const Deadline& deadline,
              LayoutEvaluator& evaluator, SearchResult* stats) {
  SearchTelemetry& telemetry = stats->telemetry;
  // Observe-only decision journal (see SearchOptions::journal): every event
  // is appended from this thread, the scored ones in candidate order after
  // the scoring join, so the journal does not depend on the thread count.
  obs::EventJournal* const journal = options.journal;
  const bool journal_wall = journal != nullptr && journal->wall_clock();
  double cost = evaluator.TotalCost();
  if (journal != nullptr) {
    journal->Append("search_start", {{"phase", obs::JsonString(source.phase)},
                                     {"cost", obs::JsonDouble(cost)}});
  }

  std::vector<MoveCandidate> cands;
  std::vector<LayoutEvaluator::ProportionalMove> moves;  ///< parallel to cands
  std::vector<double> bounds;          ///< lower bounds on the totals
  std::vector<double> costs;           ///< exact totals, where folded
  std::vector<uint64_t> eval_ns;       ///< journal wall-clock mode only
  std::vector<uint8_t> batch_scored;   ///< per scoring batch
  std::vector<uint8_t> folded;         ///< DCHECK audit: exactly folded
  // ParallelFor's own clamp of num_threads: its worker ids stay below
  // min(parallelism, batches), which sizes `scratches`.
  const int parallelism = std::max(
      1, std::min(options.num_threads, ThreadPool::Shared().num_workers() + 1));
  std::vector<LayoutEvaluator::Scratch> scratches;

  for (int iter = 0; iter < kMaxIterations; ++iter) {
    DBLAYOUT_TRACE_SPAN("search/greedy_iteration");
    if (deadline.Expired()) {
      telemetry.timed_out = true;
      break;
    }
    const Layout& base = evaluator.layout();

    // Phase 1: enumerate this iteration's candidates. The source's
    // feasibility checks decide exactly as applying the move to a layout
    // copy would.
    const auto reject = [&](MoveKind kind, const std::vector<int>& objects,
                            const std::vector<int>& to, const RejectReason& reason) {
      ++(telemetry.*reason.counter);
      if (journal != nullptr) {
        journal->Append("reject", {{"iter", obs::JsonInt(iter)},
                                   {"move", obs::JsonString(Kind(kind).name)},
                                   {"group", obs::JsonIntArray(objects)},
                                   {"to", obs::JsonIntArray(to)},
                                   {"reason", obs::JsonString(reason.name)}});
      }
    };
    cands.clear();
    source.enumerate(base, &cands, reject);

    // Phase 2: price the candidates (delta costing) in contiguous batches of
    // LayoutEvaluator::kLanes, each priced in one evaluator pass that writes
    // every candidate's lower bound (LayoutEvaluator::Pass::kBound), one
    // ParallelFor index per batch (inline on this thread at parallelism 1).
    // Each bound lands in a fixed slot, so every thread count computes the
    // same values. The deadline is checked before every batch; it stays
    // expired once it is, so every batch after the first unpriced one is
    // unpriced too, and `scored` ends at the first batch left unpriced.
    constexpr auto kBatch = static_cast<size_t>(LayoutEvaluator::kLanes);
    const size_t num_batches = (cands.size() + kBatch - 1) / kBatch;
    bounds.assign(cands.size(), 0.0);
    costs.assign(cands.size(), 0.0);
    eval_ns.assign(journal_wall ? cands.size() : 0, 0);
    batch_scored.assign(num_batches, 0);
    // Each candidate owns its memo slot, so workers write disjoint slots
    // (the same fixed-slot discipline as `bounds`).
    moves.resize(cands.size());
    for (size_t idx = 0; idx < cands.size(); ++idx) {
      moves[idx] = source.move(cands[idx]);
    }
    auto score_batch = [&deadline, &evaluator, &moves, &bounds, &eval_ns,
                        &batch_scored, journal_wall](
                           size_t b, LayoutEvaluator::Scratch* scratch) {
      if (deadline.Expired()) return;
      const size_t begin = b * kBatch;
      const size_t n = std::min(begin + kBatch, moves.size()) - begin;
      // "eval_ns" exists only in the journal's opt-in wall-clock mode
      // (obs::JournalOptions::wall_clock); the default logical-clock mode
      // never reads the clock.
      const uint64_t t0 = journal_wall ? obs::MonotonicNowNs() : 0;
      evaluator.ScoreProportionalMoves(
          std::span<const LayoutEvaluator::ProportionalMove>(moves).subspan(begin, n),
          scratch, std::span<double>(bounds).subspan(begin, n),
          LayoutEvaluator::Pass::kBound);
      if (journal_wall) {
        // Each candidate's share of its batch's wall time.
        std::fill_n(eval_ns.begin() + static_cast<std::ptrdiff_t>(begin), n,
                    (obs::MonotonicNowNs() - t0) / n);
      }
      batch_scored[b] = 1;
    };
    // One scratch per ParallelFor worker id.
    scratches.resize(std::min(static_cast<size_t>(parallelism), num_batches));
    for (auto& s : scratches) s = evaluator.MakeScratch();
    ThreadPool::Shared().ParallelFor(
        static_cast<int64_t>(num_batches), parallelism,
        [&score_batch, &scratches](int64_t b, int worker) {
          score_batch(static_cast<size_t>(b),
                      &scratches[static_cast<size_t>(worker)]);
        });
    // Batch-granularity deadline: the layout held here is valid, so stopping
    // mid-iteration still returns a usable best-so-far (the improvement
    // found among the candidates already scored, if any, is accepted below
    // before the loop observes the expiry).
    size_t scored = cands.size();
    for (size_t b = 0; b < num_batches; ++b) {
      if (batch_scored[b] == 0) {
        telemetry.timed_out = true;
        scored = b * kBatch;
        break;
      }
    }

    // Phase 3: fold in enumeration order under the sequential rule
    // (FoldRule). A candidate gets its exact total only if its bound still
    // beats the running state, and with a journal every candidate does,
    // because the journal prints every cost. The rule is monotone in the
    // total and the state only tightens, so a candidate whose bound does not
    // beat the state cannot win at its own turn either: the winner is the
    // one a fold of every exact total picks. On this thread, each exact
    // pass folds the next kLanes such candidates (Pass::kFold, from the
    // memos the bounds filled). The deadline is checked before every pass,
    // and `scored` then ends at the pass's first candidate.
    FoldRule rule{source.by_gain, cost, cost, 0, cands.size()};
    int64_t exact_folds = 0;
    if (DBLAYOUT_DCHECK_IS_ON()) folded.assign(cands.size(), 0);
    std::array<size_t, kBatch> pass_idx{};
    std::array<LayoutEvaluator::ProportionalMove, kBatch> pass_moves{};
    std::array<double, kBatch> pass_totals{};
    for (size_t next = 0; next < scored;) {
      size_t n = 0;
      for (; next < scored && n < kBatch; ++next) {
        if (journal != nullptr || rule.Beats(bounds[next], cands[next].step_moved)) {
          pass_idx[n++] = next;
        }
      }
      if (n == 0) break;
      if (deadline.Expired()) {
        telemetry.timed_out = true;
        scored = pass_idx[0];
        break;
      }
      for (size_t k = 0; k < n; ++k) pass_moves[k] = moves[pass_idx[k]];
      const uint64_t t0 = journal_wall ? obs::MonotonicNowNs() : 0;
      evaluator.ScoreProportionalMoves(
          std::span<const LayoutEvaluator::ProportionalMove>(pass_moves.data(), n),
          &scratches.front(), std::span<double>(pass_totals.data(), n),
          LayoutEvaluator::Pass::kFold);
      const uint64_t share = journal_wall ? (obs::MonotonicNowNs() - t0) / n : 0;
      for (size_t k = 0; k < n; ++k) {
        const size_t idx = pass_idx[k];
        costs[idx] = pass_totals[k];
        if (journal_wall) eval_ns[idx] += share;
        if (DBLAYOUT_DCHECK_IS_ON()) folded[idx] = 1;
        if (rule.Beats(costs[idx], cands[idx].step_moved)) {
          rule.Take(idx, costs[idx], cands[idx].step_moved);
        }
      }
      exact_folds += static_cast<int64_t>(n);
    }
#if DBLAYOUT_DCHECK_IS_ON()
    // Audit: fold the candidates the walk left unfolded as well. No bound
    // exceeds its total, and a fold of every exact total rejects each
    // unfolded candidate at its turn and picks the walk's winner.
    {
      FoldRule all{source.by_gain, cost, cost, 0, cands.size()};
      for (size_t idx = 0; idx < scored; ++idx) {
        double exact = costs[idx];
        if (folded[idx] == 0) {
          evaluator.ScoreProportionalMoves({&moves[idx], 1}, &scratches.front(),
                                           {&exact, 1}, LayoutEvaluator::Pass::kFold);
        }
        DBLAYOUT_DCHECK(!(bounds[idx] > exact));
        if (all.Beats(exact, cands[idx].step_moved)) {
          DBLAYOUT_DCHECK(folded[idx] != 0);
          all.Take(idx, exact, cands[idx].step_moved);
        }
      }
      DBLAYOUT_DCHECK_EQ(all.best_idx, rule.best_idx);
      DBLAYOUT_DCHECK(std::bit_cast<uint64_t>(all.best_cost) ==
                      std::bit_cast<uint64_t>(rule.best_cost));
    }
#endif
    DBLAYOUT_OBS_COUNT("evaluator/exact_folds", exact_folds);
    for (size_t idx = 0; idx < scored; ++idx) {
      ++(telemetry.*Kind(cands[idx].kind).considered);
    }
    const double best_cost = rule.best_cost;
    const size_t best_idx = rule.best_idx;
    if (journal != nullptr) {
      for (size_t idx = 0; idx < scored; ++idx) {
        obs::JournalFields fields{{"iter", obs::JsonInt(iter)},
                                  {"cand", obs::JsonInt(static_cast<int64_t>(idx))},
                                  {"cost", obs::JsonDouble(costs[idx])},
                                  {"mode", obs::JsonString("delta")}};
        if (journal_wall) {
          fields.emplace_back("eval_ns",
                              obs::JsonInt(static_cast<int64_t>(eval_ns[idx])));
        }
        journal->Append("eval", fields);
      }
    }
    if (journal != nullptr) {
      // One decision line per scored candidate, in enumeration order and
      // against the pre-move base: accepted (the fold's winner), outscored
      // (improves on the base but lost the fold), or not_improving.
      for (size_t idx = 0; idx < scored; ++idx) {
        const MoveCandidate& c = cands[idx];
        const bool accepted = idx == best_idx;
        const char* reason = accepted                  ? "improved"
                             : costs[idx] < cost - kEps ? "outscored"
                                                        : "not_improving";
        obs::JournalFields fields{
            {"iter", obs::JsonInt(iter)},
            {"cand", obs::JsonInt(static_cast<int64_t>(idx))},
            {"move", obs::JsonString(Kind(c.kind).name)},
            {"group", obs::JsonIntArray(*c.objects)},
            {"from", obs::JsonIntArray(base.DisksOf((*c.objects)[0]))},
            {"to", obs::JsonIntArray(*c.to)},
            {"cost", obs::JsonDouble(costs[idx])},
            {"delta", obs::JsonDouble(costs[idx] - cost)}};
        if (source.by_gain) {
          fields.emplace_back("step_moved", obs::JsonDouble(c.step_moved));
        }
        fields.emplace_back("accepted", obs::JsonBool(accepted));
        fields.emplace_back("reason", obs::JsonString(reason));
        journal->Append("decision", fields);
      }
      journal->Append(
          "iter_end",
          {{"iter", obs::JsonInt(iter)},
           {"candidates", obs::JsonInt(static_cast<int64_t>(cands.size()))},
           {"scored", obs::JsonInt(static_cast<int64_t>(scored))},
           {"accepted", obs::JsonInt(best_idx == cands.size() ? 0 : 1)},
           {"cost", obs::JsonDouble(best_cost)}});
    }
    if (best_idx == cands.size()) break;
    const MoveCandidate& best = cands[best_idx];

    // Phase 4: commit the winner through the evaluator (delta re-cost of
    // the affected sub-plans; debug builds audit the committed total
    // against a from-scratch recomputation).
    source.commit(best);
    cost = evaluator.TotalCost();
    ++stats->greedy_iterations;
    ++(telemetry.*Kind(best.kind).accepted);
    telemetry.cost_trajectory.push_back(cost);
    if (options.progress_hook) {
      SearchProgress progress;
      progress.phase = source.phase;
      progress.iteration = stats->greedy_iterations;
      progress.best_cost = cost;
      progress.layouts_evaluated = cost_model.WorkloadEvaluations();
      progress.accepted_move = Kind(best.kind).name;
      options.progress_hook(progress);
    }
    if (options.post_move_hook_for_test) {
      options.post_move_hook_for_test(evaluator.mutable_layout_for_test());
    }
    // Debug-build audit: every accepted move must leave the fraction matrix
    // fully allocated and non-negative.
    DBLAYOUT_DCHECK_OK(evaluator.layout().ValidateRows(nullptr));
  }
  stats->cost = cost;
  telemetry.delta_evals += evaluator.delta_evaluations();
}

}  // namespace

/// Wall-clock deadline of one Run/RunFrom invocation. Checked at iteration
/// and scoring-batch granularity: MoveLoop scores the candidates of both
/// phases in batches of at most LayoutEvaluator::kLanes, one evaluator pass
/// each, and checks before every batch at every thread count. Expiry is
/// therefore detected within one batch of the budget without slicing an
/// accepted move in half (every layout the search holds between checks is
/// complete and valid).
struct TsGreedySearch::Deadline {
  std::chrono::steady_clock::time_point at{};
  bool active = false;
  /// Cooperative cancellation flag (SearchOptions::cancel_requested); checked
  /// wherever the wall-clock deadline is, so SIGINT/SIGTERM interrupts the
  /// search at batch granularity with the same best-so-far contract.
  const std::atomic<bool>* cancel = nullptr;

  static Deadline FromBudgetMs(double budget_ms,
                               const std::atomic<bool>* cancel_requested) {
    using Clock = std::chrono::steady_clock;
    Deadline d;
    d.cancel = cancel_requested;
    if (budget_ms >= 0) {
      // A budget the clock cannot hold from now means no deadline.
      const std::optional<int64_t> ticks = ToInt64(
          std::chrono::duration<double, Clock::period>(
              std::chrono::duration<double, std::milli>(budget_ms))
              .count());
      // dblayout-check(determinism-taint): the search budget is a contractual wall-clock deadline (SearchOptions::budget_ms); which candidates get scored before it expires is deliberately time-dependent
      const Clock::time_point now = std::chrono::steady_clock::now();
      if (ticks && *ticks <= (Clock::time_point::max() - now).count()) {
        d.active = true;
        d.at = now + Clock::duration(*ticks);
      }
    }
    return d;
  }

  bool Expired() const {
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
      return true;
    }
    // dblayout-check(determinism-taint): deadline probe for the contractual search budget; checked only between scoring batches so a timed-out run still returns a valid best-so-far
    return active && std::chrono::steady_clock::now() >= at;
  }
};

Result<Layout> TsGreedySearch::InitialLayout(
    const WorkloadProfile& profile, const ResolvedConstraints& constraints) const {
  DBLAYOUT_TRACE_SPAN("search/initial_layout");
  const auto& objects = db_.Objects();
  const std::vector<int64_t> sizes = db_.ObjectSizes();
  const int n = static_cast<int>(objects.size());
  const int m = fleet_.num_disks();
  if (n == 0) return Status::InvalidArgument("database has no objects");
  if (m == 0) return Status::InvalidArgument("fleet has no drives");

  // Step 1a: partition the access graph into m parts maximizing the cut.
  WeightedGraph g = BuildAccessGraph(profile);
  DBLAYOUT_DCHECK_OK(InvariantAuditor().AuditAccessGraph(g));
  PartitionOptions popt;
  popt.num_partitions = m;
  for (const auto& group : constraints.co_located_groups) {
    std::vector<size_t> nodes;
    for (int i : group) nodes.push_back(static_cast<size_t>(i));
    popt.must_co_locate.push_back(std::move(nodes));
  }
  const Partitioning part = MaxCutPartition(g, popt);

  struct Part {
    std::vector<int> members;
    double node_weight = 0;
    int64_t size_blocks = 0;
  };
  std::vector<Part> parts(static_cast<size_t>(m));
  for (int i = 0; i < n; ++i) {
    Part& p = parts[static_cast<size_t>(part[static_cast<size_t>(i)])];
    p.members.push_back(i);
    p.node_weight += g.node_weight(static_cast<size_t>(i));
    p.size_blocks += sizes[static_cast<size_t>(i)];
  }
  parts.erase(std::remove_if(parts.begin(), parts.end(),
                             [](const Part& p) { return p.members.empty(); }),
              parts.end());
  // Step 1b: assign partitions in descending order of total node weight.
  std::stable_sort(parts.begin(), parts.end(), [](const Part& a, const Part& b) {
    return a.node_weight > b.node_weight;
  });

  Layout layout(n, m);
  std::vector<double> used(static_cast<size_t>(m), 0.0);
  std::vector<bool> disk_taken(static_cast<size_t>(m), false);
  struct Assigned {
    std::vector<int> members;
    std::vector<int> disks;
  };
  std::vector<Assigned> assigned;
  const std::vector<int> fastest = fleet_.ByDecreasingTransferRate();

  for (const Part& p : parts) {
    const std::vector<int> allowed = constraints.AllowedDisks(p.members, fleet_);
    if (allowed.empty()) {
      return Status::FailedPrecondition(
          StrFormat("no drive satisfies the constraints of object '%s'",
                    objects[static_cast<size_t>(p.members[0])].name.c_str()));
    }
    // Smallest set of unused drives, fastest first, that can hold the
    // partition.
    std::vector<int> chosen;
    int64_t capacity = 0;
    for (int j : fastest) {
      if (disk_taken[static_cast<size_t>(j)]) continue;
      if (std::find(allowed.begin(), allowed.end(), j) == allowed.end()) continue;
      chosen.push_back(j);
      capacity += fleet_.disk(j).capacity_blocks;
      if (static_cast<double>(capacity) * kCapacityMargin >=
          static_cast<double>(p.size_blocks)) {
        break;
      }
    }
    const bool fits = !chosen.empty() &&
                      static_cast<double>(capacity) * kCapacityMargin >=
                          static_cast<double>(p.size_blocks);
    if (!fits) {
      // No disjoint drive set exists: merge with the previously assigned
      // partition with the smallest co-access (edge weight) to this one,
      // among those whose drives are allowed and have room.
      const Assigned* best = nullptr;
      double best_edge = std::numeric_limits<double>::infinity();
      for (const Assigned& a : assigned) {
        bool drives_ok = true;
        double room = 0;
        for (int j : a.disks) {
          if (std::find(allowed.begin(), allowed.end(), j) == allowed.end()) {
            drives_ok = false;
            break;
          }
          room += static_cast<double>(fleet_.disk(j).capacity_blocks) *
                      kCapacityMargin -
                  used[static_cast<size_t>(j)];
        }
        if (!drives_ok || room < static_cast<double>(p.size_blocks)) continue;
        const double edge = EdgeWeightBetween(g, p.members, a.members);
        if (edge < best_edge) {
          best_edge = edge;
          best = &a;
        }
      }
      if (best != nullptr) {
        chosen = best->disks;
      } else {
        // Last resort: stripe the partition across all allowed drives.
        chosen = allowed;
      }
    }
    for (int i : p.members) layout.AssignProportional(i, chosen, fleet_);
    for (int i : p.members) {
      for (int j : chosen) {
        used[static_cast<size_t>(j)] +=
            layout.x(i, j) * static_cast<double>(sizes[static_cast<size_t>(i)]);
      }
    }
    if (fits) {
      for (int j : chosen) disk_taken[static_cast<size_t>(j)] = true;
    }
    assigned.push_back(Assigned{p.members, chosen});
  }

  for (int j = 0; j < m; ++j) {
    if (used[static_cast<size_t>(j)] >
        static_cast<double>(fleet_.disk(j).capacity_blocks) + kEps) {
      return Status::CapacityExceeded(
          StrFormat("database does not fit: drive %s over capacity in every "
                    "feasible assignment",
                    fleet_.disk(j).name.c_str()));
    }
  }
  // Debug-build audit: step 1's output must already be a fully allocated
  // fraction matrix — greedy widening assumes it.
  DBLAYOUT_DCHECK_OK(layout.ValidateRows(&fleet_));
  return layout;
}

Result<Layout> TsGreedySearch::GreedyWiden(const WorkloadProfile& profile,
                                           const ResolvedConstraints& constraints,
                                           Layout layout, const CostModel& cost_model,
                                           const Deadline& deadline,
                                           SearchResult* stats) const {
  DBLAYOUT_TRACE_SPAN("search/greedy_widen");
  const std::vector<int64_t> sizes = db_.ObjectSizes();
  const std::vector<std::vector<int>> groups =
      ObjectGroups(db_.Objects().size(), constraints);
  const int m = layout.num_disks();

  // The evaluator caches per-sub-plan costs of the working layout; each
  // candidate is scored by re-costing only the sub-plans that touch the
  // moved group. Totals are bit-identical to a full recomputation (see
  // layout/evaluator.h), so this changes wall-clock time, never the answer.
  LayoutEvaluator evaluator(profile, cost_model);
  evaluator.set_journal(options_.journal);
  stats->initial_cost = evaluator.Bind(layout);
  stats->telemetry.cost_trajectory.push_back(stats->initial_cost);
  std::vector<double> used = layout.FractionalUsed(sizes);

  // Per-group state of this call. The allowed drives and the jump targets
  // depend only on the constraints and the fleet. `moves` lists the group's
  // widen, jump and narrow moves in emission order; that list is a function
  // of the group's current drives alone, so it is kept across iterations
  // and rebuilt only after the group itself moves (`stale`). The memos hold
  // each listed move's re-costed sub-plan costs across iterations (see
  // LayoutEvaluator::Memo), keyed by its ordinal in `moves`, and are
  // dropped with the list.
  struct GroupState {
    std::vector<int> allowed;
    /// The allowed drives ordered fastest sequential read first, and
    /// smallest write penalty first (so write-hot objects can skip RAID 5
    /// drives in a single move); jump moves take their prefixes.
    std::vector<int> jump_orders[2];
    std::vector<ListedMove> moves;
    std::vector<LayoutEvaluator::Memo> memos;  ///< parallel to `moves`
    bool stale = true;
  };
  std::vector<GroupState> group_state(groups.size());
  for (size_t gi = 0; gi < groups.size(); ++gi) {
    GroupState& gs = group_state[gi];
    gs.allowed = constraints.AllowedDisks(groups[gi], fleet_);
    for (const bool write_friendly : {false, true}) {
      std::vector<int>& order = gs.jump_orders[write_friendly ? 1 : 0];
      order = gs.allowed;
      std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
        const DiskDrive& da = fleet_.disk(a);
        const DiskDrive& db = fleet_.disk(b);
        if (write_friendly && da.WritePenalty() != db.WritePenalty()) {
          return da.WritePenalty() < db.WritePenalty();
        }
        return da.read_mb_s > db.read_mb_s;
      });
    }
  }
  std::vector<bool> in_group(db_.Objects().size(), false);
  // The moving group's new row: AssignProportional on a one-object layout.
  Layout proposed(1, m);
  const double* const row = proposed.row(0);
  std::vector<double> limit(static_cast<size_t>(m));  ///< capacity with margin
  for (int j = 0; j < m; ++j) {
    limit[static_cast<size_t>(j)] =
        static_cast<double>(fleet_.disk(j).capacity_blocks) * kCapacityMargin;
  }
  std::vector<int> hot;  ///< the drives a move of the current group may overfill
  const bool budgeted =
      constraints.max_movement_blocks >= 0 && constraints.current_layout != nullptr;

  // A group's widen, jump and narrow moves from its `current` drives, in
  // emission order.
  auto list_moves = [&](const GroupState& gs, const std::vector<int>& current) {
    std::vector<ListedMove> out;
    std::vector<int> extras;
    for (int j : gs.allowed) {
      if (std::find(current.begin(), current.end(), j) == current.end()) {
        extras.push_back(j);
      }
    }
    auto consider_add = [&](const std::vector<int>& add) {
      std::vector<int> wider = current;
      wider.insert(wider.end(), add.begin(), add.end());
      std::sort(wider.begin(), wider.end());
      out.push_back({MoveKind::kWiden, std::move(wider)});
    };
    if (!extras.empty()) {
      ForEachSubsetUpToK(extras, options_.greedy_k, consider_add);
    }
    if (options_.consider_jump_moves) {
      // Prefix jumps: every prefix of either ordering, as a sorted set.
      for (const std::vector<int>& order : gs.jump_orders) {
        std::vector<int> prefix;
        for (int j : order) {
          prefix.insert(std::upper_bound(prefix.begin(), prefix.end(), j), j);
          if (prefix != current) out.push_back({MoveKind::kJump, prefix});
        }
      }
    }
    // Narrowing (beyond Fig. 9, which only widens): from an existing wide
    // layout, separating co-accessed objects is reachable only this way.
    if (current.size() >= 2) {
      for (size_t drop = 0; drop < current.size(); ++drop) {
        std::vector<int> narrower;
        for (size_t j = 0; j < current.size(); ++j) {
          if (j != drop) narrower.push_back(current[j]);
        }
        out.push_back({MoveKind::kNarrow, std::move(narrower)});
      }
    }
    return out;
  };

  // Every group's listed moves, each behind the cheap feasibility
  // pre-checks: fractional capacity with the safety margin, then the
  // movement budget.
  auto enumerate = [&](const Layout& base, std::vector<MoveCandidate>* cands,
                       const auto& reject) {
    for (int gi = 0; gi < static_cast<int>(groups.size()); ++gi) {
      const auto& group = groups[static_cast<size_t>(gi)];
      GroupState& gs = group_state[static_cast<size_t>(gi)];
      if (gs.stale) {
        gs.moves = list_moves(gs, base.DisksOf(group[0]));
        gs.memos.assign(gs.moves.size(), evaluator.MakeMemo(group));
        gs.stale = false;
      }
      // Audit: the kept list is the one the current drives yield.
      DBLAYOUT_DCHECK(list_moves(gs, base.DisksOf(group[0])) == gs.moves);
      // Worst-case load of each drive over all of the group's moves: every
      // row entry read_mb_s / total_rate is at most 1 (the rate sum covers
      // the drive itself), and IEEE subtraction, multiplication by a
      // non-negative size and addition all round monotonically, so no move
      // loads drive j above `worst`. Only the drives whose worst case
      // exceeds the limit need the exact check.
      hot.clear();
      for (int j = 0; j < m; ++j) {
        double worst = used[static_cast<size_t>(j)];
        for (int i : group) {
          worst += (1.0 - base.x(i, j)) *
                   static_cast<double>(sizes[static_cast<size_t>(i)]);
        }
        if (worst > limit[static_cast<size_t>(j)]) hot.push_back(j);
      }
      // The exact check of drive j under `row`: the drive's load adds the
      // members' changes in group order, as applying the move to a copy of
      // `used` would.
      const auto over_capacity = [&](int j) {
        double drive_used = used[static_cast<size_t>(j)];
        for (int i : group) {
          drive_used += (row[static_cast<size_t>(j)] - base.x(i, j)) *
                        static_cast<double>(sizes[static_cast<size_t>(i)]);
        }
        return drive_used > limit[static_cast<size_t>(j)];
      };
      // The bound layout with the group's rows replaced by `row`.
      const auto candidate_row = [&](int i) {
        return in_group[static_cast<size_t>(i)] ? row : base.row(i);
      };
      for (int i : group) in_group[static_cast<size_t>(i)] = true;
      for (size_t k = 0; k < gs.moves.size(); ++k) {
        const ListedMove& lm = gs.moves[k];
        if (!hot.empty() || budgeted || DBLAYOUT_DCHECK_IS_ON()) {
          proposed.AssignProportional(0, lm.disks, fleet_);
        }
        const bool fits = std::none_of(hot.begin(), hot.end(), over_capacity);
#if DBLAYOUT_DCHECK_IS_ON()
        // Audit: the hot drives decide as a check of every drive would.
        bool fits_all = true;
        for (int j = 0; j < m; ++j) fits_all = fits_all && !over_capacity(j);
        DBLAYOUT_DCHECK(fits == fits_all);
#endif
        if (!fits) {
          reject(lm.kind, group, lm.disks, kCapacityReject);
          continue;
        }
        if (budgeted &&
            Layout::MovementBlocks(*constraints.current_layout, candidate_row, sizes) >
                constraints.max_movement_blocks) {
          reject(lm.kind, group, lm.disks, kMovementReject);
          continue;
        }
        cands->push_back(
            MoveCandidate{lm.kind, gi, &group, &lm.disks, static_cast<int>(k)});
      }
      for (int i : group) in_group[static_cast<size_t>(i)] = false;
    }
  };
  auto commit = [&](const MoveCandidate& best) {
    const Layout& base = evaluator.layout();
    proposed.AssignProportional(0, *best.to, fleet_);
    for (int i : *best.objects) {
      const double size = static_cast<double>(sizes[static_cast<size_t>(i)]);
      for (int j = 0; j < m; ++j) {
        used[static_cast<size_t>(j)] +=
            (row[static_cast<size_t>(j)] - base.x(i, j)) * size;
      }
    }
    evaluator.DeltaForProportionalMove(*best.objects, *best.to);
    evaluator.Commit();
    // The group's moves now start from other drives. `best.to` points into
    // its list, so the list is rebuilt at the next enumeration, not here.
    group_state[static_cast<size_t>(best.source)].stale = true;
  };
  const MoveSource source{
      "greedy", /*by_gain=*/false, enumerate,
      [&](const MoveCandidate& c) {
        return LayoutEvaluator::ProportionalMove{
            c.objects, c.to,
            &group_state[static_cast<size_t>(c.source)]
                 .memos[static_cast<size_t>(c.slot)]};
      },
      commit};
  MoveLoop(source, options_, cost_model, deadline, evaluator, stats);
  return evaluator.layout();
}

Result<Layout> TsGreedySearch::MigrateTowardTarget(
    const WorkloadProfile& profile, const ResolvedConstraints& constraints,
    const Layout& target, const CostModel& cost_model, const Deadline& deadline,
    SearchResult* stats) const {
  DBLAYOUT_TRACE_SPAN("search/migrate_toward_target");
  DBLAYOUT_CHECK(constraints.current_layout != nullptr);
  const Layout& current = *constraints.current_layout;
  const std::vector<int64_t> sizes = db_.ObjectSizes();
  const std::vector<std::vector<int>> groups =
      ObjectGroups(db_.Objects().size(), constraints);
  stats->telemetry.used_incremental_migration = true;

  Layout layout = current;

  // Hard constraints first: a group whose current placement violates an
  // availability requirement (or sits apart from its co-location partners)
  // must move to its target row regardless of cost, inside the budget.
  for (const auto& group : groups) {
    bool violating = false;
    for (int i : group) {
      for (int j : layout.DisksOf(i)) {
        if (!constraints.DiskAllowed(i, j, fleet_)) violating = true;
      }
      if (layout.DisksOf(i) != layout.DisksOf(group[0])) violating = true;
    }
    if (!violating) continue;
    for (int i : group) {
      for (int j = 0; j < layout.num_disks(); ++j) {
        layout.set_x(i, j, target.x(i, j));
      }
    }
  }
  {
    const double moved = Layout::DataMovementBlocks(current, layout, sizes);
    if (constraints.max_movement_blocks >= 0 &&
        moved > constraints.max_movement_blocks) {
      return Status::FailedPrecondition(StrFormat(
          "satisfying the availability/co-location constraints requires moving "
          "%.0f blocks, exceeding the movement budget of %.0f",
          moved, constraints.max_movement_blocks));
    }
  }

  LayoutEvaluator evaluator(profile, cost_model);
  evaluator.set_journal(options_.journal);
  evaluator.Bind(layout);

  // Candidate move units: single groups, plus pairs of groups connected in
  // the access graph — separating a co-accessed pair only pays off when
  // both sides move, so single-group steps alone stall at the barrier.
  // A unit always moves to the same target rows, so its one memo slot is
  // reused exactly whenever it is still fresh.
  struct Unit {
    std::vector<size_t> groups;
    std::vector<int> objects;  ///< the groups' objects, in group order
    std::vector<int> to;       ///< the target drives of objects[0]
    LayoutEvaluator::Memo memo;
  };
  std::vector<Unit> units;
  auto add_unit = [&](std::vector<size_t> unit_groups) {
    Unit& unit = units.emplace_back();
    unit.groups = std::move(unit_groups);
    for (size_t gi : unit.groups) {
      unit.objects.insert(unit.objects.end(), groups[gi].begin(), groups[gi].end());
    }
    unit.to = target.DisksOf(unit.objects[0]);
    unit.memo = evaluator.MakeMemo(unit.objects);
  };
  const WeightedGraph g = BuildAccessGraph(profile);
  DBLAYOUT_DCHECK_OK(InvariantAuditor().AuditAccessGraph(g));
  for (size_t a = 0; a < groups.size(); ++a) add_unit({a});
  for (size_t a = 0; a < groups.size(); ++a) {
    for (size_t b = a + 1; b < groups.size(); ++b) {
      double edge = 0;
      for (int u : groups[a]) {
        for (int v : groups[b]) {
          edge += g.EdgeWeight(static_cast<size_t>(u), static_cast<size_t>(v));
        }
      }
      if (edge > 0) add_unit({a, b});
    }
  }

  std::vector<bool> migrated(groups.size(), false);
  std::vector<bool> in_unit(db_.Objects().size(), false);
  Layout candidate = layout;  // capacity-check copy, one unit at a time
  // Every unit with a group not yet migrated, behind the movement budget and
  // then the rounded capacity validation, in the order the step-by-step
  // formulation checks them.
  auto enumerate = [&](const Layout& base, std::vector<MoveCandidate>* cands,
                       const auto& reject) {
    for (size_t u = 0; u < units.size(); ++u) {
      const Unit& unit = units[u];
      if (std::all_of(unit.groups.begin(), unit.groups.end(),
                      [&](size_t gi) { return migrated[gi]; })) {
        continue;
      }
      for (int i : unit.objects) in_unit[static_cast<size_t>(i)] = true;
      const auto unit_row = [&](int i) {
        return in_unit[static_cast<size_t>(i)] ? target.row(i) : base.row(i);
      };
      const double moved = Layout::MovementBlocks(current, unit_row, sizes);
      const double step_moved = Layout::MovementBlocks(base, unit_row, sizes);
      for (int i : unit.objects) in_unit[static_cast<size_t>(i)] = false;
      if (constraints.max_movement_blocks >= 0 &&
          moved > constraints.max_movement_blocks) {
        reject(MoveKind::kMigrate, unit.objects, unit.to, kMovementReject);
        continue;
      }
      candidate = base;
      for (int i : unit.objects) {
        for (int j = 0; j < base.num_disks(); ++j) candidate.set_x(i, j, target.x(i, j));
      }
      if (!candidate.Validate(sizes, fleet_).ok()) {
        reject(MoveKind::kMigrate, unit.objects, unit.to, kCapacityReject);
        continue;
      }
      cands->push_back(MoveCandidate{MoveKind::kMigrate, static_cast<int>(u),
                                     &unit.objects, &unit.to, 0,
                                     std::max(1.0, step_moved)});
    }
  };
  auto commit = [&](const MoveCandidate& best) {
    evaluator.DeltaForRowsFromMove(*best.objects, target);
    evaluator.Commit();
    for (size_t gi : units[static_cast<size_t>(best.source)].groups) {
      migrated[gi] = true;
    }
  };
  const MoveSource source{
      "migrate", /*by_gain=*/true, enumerate,
      [&](const MoveCandidate& c) {
        return LayoutEvaluator::ProportionalMove{
            c.objects, nullptr, &units[static_cast<size_t>(c.source)].memo, &target};
      },
      commit};
  MoveLoop(source, options_, cost_model, deadline, evaluator, stats);
  return evaluator.layout();
}

Result<SearchResult> TsGreedySearch::Run(const WorkloadProfile& profile,
                                         const ResolvedConstraints& constraints) const {
  DBLAYOUT_TRACE_SPAN("search/run");
  SearchResult result;
  // One cost model for the whole run: SearchResult::layouts_evaluated is read
  // off its WorkloadEvaluations() counter at the end, so every evaluation —
  // probe search, migration steps, greedy candidates, the full-striping
  // fallback — counts exactly once.
  const CostModel cost_model(fleet_);
  // One deadline for the whole run: probe search, migration, and the final
  // greedy phase share the budget.
  const Deadline deadline = Deadline::FromBudgetMs(options_.time_budget_ms, options_.cancel_requested);
  // Step 1's wall-clock time is observe-only: partition_ms feeds the
  // advisor's PhaseBreakdown.
  const uint64_t partition_t0 = obs::MonotonicNowNs();
  DBLAYOUT_ASSIGN_OR_RETURN(Layout initial, InitialLayout(profile, constraints));
  result.partition_ms =
      static_cast<double>(obs::MonotonicNowNs() - partition_t0) / 1e6;

  const std::vector<int64_t> sizes = db_.ObjectSizes();
  // If an incrementality budget is in force and the redesigned starting
  // point would blow it, switch to incremental mode: migrate object groups
  // from the current layout toward the unconstrained recommendation, best
  // value per moved block first, within the budget.
  if (constraints.max_movement_blocks >= 0 && constraints.current_layout != nullptr) {
    const double moved =
        Layout::DataMovementBlocks(*constraints.current_layout, initial, sizes);
    if (moved > constraints.max_movement_blocks) {
      ResolvedConstraints unconstrained = constraints;
      unconstrained.max_movement_blocks = -1;
      unconstrained.current_layout = nullptr;
      SearchResult target_stats;
      DBLAYOUT_ASSIGN_OR_RETURN(
          Layout target, GreedyWiden(profile, unconstrained, std::move(initial),
                                     cost_model, deadline, &target_stats));
      // Keep the probe search's move counts and trajectory: they are real
      // evaluations of this run (the trajectory of the migration phase that
      // follows is appended after the probe's). Nothing precedes the probe.
      result.telemetry = std::move(target_stats.telemetry);
      DBLAYOUT_ASSIGN_OR_RETURN(
          initial, MigrateTowardTarget(profile, constraints, target, cost_model,
                                       deadline, &result));
    }
  }

  DBLAYOUT_ASSIGN_OR_RETURN(
      Layout final_layout, GreedyWiden(profile, constraints, std::move(initial),
                                       cost_model, deadline, &result));
  DBLAYOUT_RETURN_NOT_OK(final_layout.Validate(sizes, fleet_));
  DBLAYOUT_RETURN_NOT_OK(CheckConstraints(final_layout, constraints, db_, fleet_));

  result.layout = std::move(final_layout);
  // Never return a layout costlier than FULL STRIPING: if full striping is
  // valid, satisfies the constraints (the movement budget included) and
  // estimates cheaper, return it.
  Layout striped = Layout::FullStriping(result.layout.num_objects(), fleet_);
  if (striped.Validate(sizes, fleet_).ok() &&
      CheckConstraints(striped, constraints, db_, fleet_).ok()) {
    const double striped_cost = cost_model.WorkloadCost(profile, striped);
    const bool accepted = striped_cost < result.cost - kEps;
    if (options_.journal != nullptr) {
      options_.journal->Append(
          "decision",
          {{"move", obs::JsonString("fallback_full_striping")},
           {"cost", obs::JsonDouble(striped_cost)},
           {"delta", obs::JsonDouble(striped_cost - result.cost)},
           {"accepted", obs::JsonBool(accepted)},
           {"reason", obs::JsonString(accepted ? "improved" : "not_improving")},
           {"mode", obs::JsonString("full")}});
    }
    if (accepted) {
      result.cost = striped_cost;
      result.layout = std::move(striped);
      result.telemetry.used_full_striping_fallback = true;
      result.telemetry.cost_trajectory.push_back(striped_cost);
    }
  }
  FinishRun(cost_model, &result);
  return result;
}

Result<SearchResult> TsGreedySearch::RunFrom(
    const Layout& start, const WorkloadProfile& profile,
    const ResolvedConstraints& constraints) const {
  DBLAYOUT_TRACE_SPAN("search/run_from");
  const std::vector<int64_t> sizes = db_.ObjectSizes();
  if (start.num_objects() != static_cast<int>(db_.Objects().size()) ||
      start.num_disks() != fleet_.num_disks()) {
    return Status::InvalidArgument(
        "starting layout does not match the database/fleet dimensions");
  }
  DBLAYOUT_RETURN_NOT_OK(start.Validate(sizes, fleet_));

  SearchResult result;
  const CostModel cost_model(fleet_);
  const Deadline deadline = Deadline::FromBudgetMs(options_.time_budget_ms, options_.cancel_requested);
  DBLAYOUT_ASSIGN_OR_RETURN(
      Layout final_layout,
      GreedyWiden(profile, constraints, start, cost_model, deadline, &result));
  DBLAYOUT_RETURN_NOT_OK(final_layout.Validate(sizes, fleet_));
  DBLAYOUT_RETURN_NOT_OK(CheckConstraints(final_layout, constraints, db_, fleet_));
  result.layout = std::move(final_layout);
  FinishRun(cost_model, &result);
  return result;
}

Result<SearchResult> ExhaustiveSearch(const Database& db, const DiskFleet& fleet,
                                      const WorkloadProfile& profile,
                                      const ResolvedConstraints& constraints) {
  DBLAYOUT_TRACE_SPAN("search/exhaustive");
  const std::vector<int64_t> sizes = db.ObjectSizes();
  const int m = fleet.num_disks();
  const std::vector<std::vector<int>> groups =
      ObjectGroups(db.Objects().size(), constraints);

  // Enumerate per *group* so co-location holds by construction.
  std::vector<std::vector<std::vector<int>>> group_choices;
  double combinations = 1;
  for (const auto& group : groups) {
    const std::vector<int> allowed = constraints.AllowedDisks(group, fleet);
    if (allowed.empty()) {
      return Status::FailedPrecondition("constraints leave an object with no drives");
    }
    std::vector<std::vector<int>> choices;
    ForEachSubsetUpToK(allowed, static_cast<int>(allowed.size()),
                       [&](const std::vector<int>& s) { choices.push_back(s); });
    combinations *= static_cast<double>(choices.size());
    group_choices.push_back(std::move(choices));
  }
  if (combinations > 5e6) {
    return Status::InvalidArgument(
        StrFormat("exhaustive search infeasible: %.3g combinations", combinations));
  }

  const CostModel cost_model(fleet);
  SearchResult result;
  result.cost = std::numeric_limits<double>::infinity();
  bool any_valid = false;

  // Delta-costed enumeration: each DFS level re-assigns its group through
  // the evaluator (only the sub-plans touching that group are re-costed;
  // siblings overwrite, so no revert is needed) and a leaf reads the cached
  // total, bit-identical to a from-scratch evaluation of the same matrix.
  // The all-zero starting matrix is well-defined: a sub-plan with no
  // placement on any disk costs 0 (see CostModel::SubplanCost).
  LayoutEvaluator evaluator(profile, cost_model);
  evaluator.Bind(Layout(static_cast<int>(db.Objects().size()), m));

  std::function<void(size_t)> rec = [&](size_t gi) {
    if (gi == groups.size()) {
      const Layout& current = evaluator.layout();
      // Fractional capacity check.
      const std::vector<double> used = current.FractionalUsed(sizes);
      for (int j = 0; j < m; ++j) {
        if (used[static_cast<size_t>(j)] >
            static_cast<double>(fleet.disk(j).capacity_blocks) + kEps) {
          return;
        }
      }
      if (constraints.max_movement_blocks >= 0 &&
          constraints.current_layout != nullptr &&
          Layout::DataMovementBlocks(*constraints.current_layout, current, sizes) >
              constraints.max_movement_blocks) {
        return;
      }
      const double c = evaluator.TotalCost();
      if (c < result.cost) {
        result.cost = c;
        result.layout = current;
        any_valid = true;
      }
      return;
    }
    for (const auto& disks : group_choices[gi]) {
      evaluator.DeltaForProportionalMove(groups[gi], disks);
      evaluator.Commit();
      rec(gi + 1);
    }
  };
  rec(0);
  result.layouts_evaluated = cost_model.WorkloadEvaluations();
  result.telemetry.delta_evals = evaluator.delta_evaluations();
  result.telemetry.full_evals =
      result.layouts_evaluated - result.telemetry.delta_evals;
  if (!any_valid) {
    return Status::CapacityExceeded("no valid layout exists for the given fleet");
  }
  DBLAYOUT_RETURN_NOT_OK(result.layout.Validate(sizes, fleet));
  return result;
}

Result<Layout> RandomLayout(const Database& db, const DiskFleet& fleet, Rng* rng,
                            int max_attempts) {
  const std::vector<int64_t> sizes = db.ObjectSizes();
  const int n = static_cast<int>(sizes.size());
  const int m = fleet.num_disks();
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    Layout layout(n, m);
    for (int i = 0; i < n; ++i) {
      const int width = static_cast<int>(rng->UniformInt(1, m));
      std::vector<int> disks(static_cast<size_t>(m));
      std::iota(disks.begin(), disks.end(), 0);
      rng->Shuffle(&disks);
      disks.resize(static_cast<size_t>(width));
      // Random positive fractions, normalized.
      std::vector<double> f(static_cast<size_t>(width));
      double total = 0;
      for (double& v : f) {
        v = rng->UniformDouble(0.2, 1.0);
        total += v;
      }
      for (int d = 0; d < width; ++d) {
        layout.set_x(i, disks[static_cast<size_t>(d)], f[static_cast<size_t>(d)] / total);
      }
    }
    if (layout.Validate(sizes, fleet).ok()) return layout;
  }
  return Status::CapacityExceeded(
      StrFormat("no random valid layout found in %d attempts", max_attempts));
}

}  // namespace dblayout
