#include "layout/evaluator.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <unordered_map>
#include <utility>

#include "analysis/invariant_auditor.h"
#include "common/logging.h"
#include "obs/journal.h"
#include "obs/metrics.h"

namespace dblayout {
namespace {

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

/// Folds `v` into the running key hash `h`.
uint64_t HashMix(uint64_t h, uint64_t v) {
  return h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
}

/// The sub-plan class key: equal access lists, element by element and in
/// order, with `blocks` compared by bit pattern.
bool SameAccesses(const SubplanAccess& a, const SubplanAccess& b) {
  return std::equal(a.accesses.begin(), a.accesses.end(), b.accesses.begin(),
                    b.accesses.end(),
                    [](const ObjectAccess& x, const ObjectAccess& y) {
                      return x.object_id == y.object_id &&
                             Bits(x.blocks) == Bits(y.blocks) &&
                             x.is_write == y.is_write && x.random == y.random &&
                             x.read_modify_write == y.read_modify_write;
                    });
}

uint64_t AccessesHash(const SubplanAccess& subplan) {
  uint64_t h = subplan.accesses.size();
  for (const ObjectAccess& a : subplan.accesses) {
    h = HashMix(h, static_cast<uint64_t>(a.object_id));
    h = HashMix(h, Bits(a.blocks));
    h = HashMix(h, (a.is_write ? 1U : 0U) | (a.random ? 2U : 0U) |
                       (a.read_modify_write ? 4U : 0U));
  }
  return h;
}

/// LayoutEvaluator::kLanes as a size.
constexpr auto kLaneCount = static_cast<size_t>(LayoutEvaluator::kLanes);

/// acc[k] += row[k] for every lane k.
template <size_t... K>
void AddLanes(std::array<double, kLaneCount>* acc, const double* row,
              std::index_sequence<K...> /*lanes*/) {
  (((*acc)[K] += row[K]), ...);
}

/// The lockstep fold: for each entry of `order`, in order, adds that row of
/// the [row][lane] buffer `terms` to every lane's accumulator. The lane adds
/// use constant indices so the accumulators stay in registers (an index
/// loop at -O2 keeps them in memory, and each add then waits on a store).
std::array<double, kLaneCount> FoldLanes(const std::vector<int32_t>& order,
                                         const std::vector<double>& terms) {
  std::array<double, kLaneCount> acc{};
  for (const int32_t row : order) {
    AddLanes(&acc, terms.data() + static_cast<size_t>(row) * kLaneCount,
             std::make_index_sequence<kLaneCount>());
  }
  return acc;
}

/// Hash-consing of class keys; ids are dense, in first-appearance order.
class KeyInterner {
 public:
  /// Returns the id of an interned key equal to the new one (`same_as(id)`
  /// decides equality), or else interns the new key under `hash` and
  /// returns the next id, the number of keys interned before it.
  template <typename SameAs>
  int32_t Intern(uint64_t hash, const SameAs& same_as) {
    const auto next_id = static_cast<int32_t>(older_.size());
    auto [it, inserted] = heads_.try_emplace(hash, next_id);
    if (!inserted) {
      for (int32_t id = it->second; id >= 0;
           id = older_[static_cast<size_t>(id)]) {
        if (same_as(id)) return id;
      }
    }
    older_.push_back(inserted ? -1 : it->second);
    it->second = next_id;
    return next_id;
  }

 private:
  std::unordered_map<uint64_t, int32_t> heads_;  ///< hash -> newest id
  std::vector<int32_t> older_;  ///< id -> next older id with its hash, or -1
};

}  // namespace

LayoutEvaluator::LayoutEvaluator(const WorkloadProfile& profile,
                                 const CostModel& cost_model)
    : profile_(profile), cost_model_(cost_model) {
  // Intern every sub-plan's access list and every statement's (weight,
  // sub-plan class sequence), in WorkloadCost's iteration order.
  size_t num_objects = profile.num_objects;
  KeyInterner subplan_keys;
  KeyInterner statement_keys;
  std::vector<int32_t> seq;
  statement_class_.reserve(profile.statements.size());
  for (const StatementProfile& s : profile.statements) {
    seq.clear();
    for (const SubplanAccess& sp : s.subplans) {
      for (const ObjectAccess& a : sp.accesses) {
        num_objects = std::max(num_objects, static_cast<size_t>(a.object_id) + 1);
      }
      const int32_t c = subplan_keys.Intern(AccessesHash(sp), [&](int32_t id) {
        return SameAccesses(*subplan_rep_[static_cast<size_t>(id)], sp);
      });
      if (static_cast<size_t>(c) == subplan_rep_.size()) subplan_rep_.push_back(&sp);
      subplan_class_.push_back(c);
      seq.push_back(c);
    }
    uint64_t hash = HashMix(Bits(s.weight), seq.size());
    for (int32_t c : seq) hash = HashMix(hash, static_cast<uint64_t>(c));
    const int32_t sc = statement_keys.Intern(hash, [&](int32_t id) {
      const StatementClass& cls = statement_classes_[static_cast<size_t>(id)];
      const auto begin = class_seq_.begin() + cls.begin;
      return Bits(cls.weight) == Bits(s.weight) &&
             std::equal(seq.begin(), seq.end(), begin, begin + cls.count);
    });
    if (static_cast<size_t>(sc) == statement_classes_.size()) {
      statement_classes_.push_back(
          StatementClass{s.weight, static_cast<int32_t>(class_seq_.size()),
                         static_cast<int32_t>(seq.size())});
      class_seq_.insert(class_seq_.end(), seq.begin(), seq.end());
    }
    statement_class_.push_back(sc);
  }

  // The inverted indexes, each list ascending and deduplicated: an object
  // read twice by one class (a self-join), or a class listed twice in one
  // statement class, still appears once.
  object_classes_.resize(num_objects);
  object_generation_.assign(num_objects, 0);
  for (size_t c = 0; c < subplan_rep_.size(); ++c) {
    for (const ObjectAccess& a : subplan_rep_[c]->accesses) {
      std::vector<int32_t>& list =
          object_classes_[static_cast<size_t>(a.object_id)];
      if (list.empty() || list.back() != static_cast<int32_t>(c)) {
        list.push_back(static_cast<int32_t>(c));
      }
    }
  }
  class_statements_.resize(subplan_rep_.size());
  for (size_t sc = 0; sc < statement_classes_.size(); ++sc) {
    const StatementClass& cls = statement_classes_[sc];
    for (int32_t i = cls.begin; i < cls.begin + cls.count; ++i) {
      std::vector<int32_t>& list = class_statements_[static_cast<size_t>(
          class_seq_[static_cast<size_t>(i)])];
      if (list.empty() || list.back() != static_cast<int32_t>(sc)) {
        list.push_back(static_cast<int32_t>(sc));
      }
    }
  }

  // The bound's inputs (see LowerBound): W_c, and the counts of its error
  // factor.
  class_weight_.assign(subplan_rep_.size(), 0.0);
  std::vector<int64_t> occurrences(subplan_rep_.size(), 0);
  size_t flat = 0;
  int64_t max_subplans = 0;
  bound_ok_ = true;
  for (const StatementProfile& s : profile.statements) {
    bound_ok_ = bound_ok_ && std::isfinite(s.weight) && s.weight >= 0;
    max_subplans = std::max(max_subplans, static_cast<int64_t>(s.subplans.size()));
    for (size_t p = 0; p < s.subplans.size(); ++p, ++flat) {
      const auto c = static_cast<size_t>(subplan_class_[flat]);
      class_weight_[c] += s.weight;
      ++occurrences[c];
    }
  }
  const int64_t max_occurrences =
      occurrences.empty() ? 0 : *std::max_element(occurrences.begin(), occurrences.end());
  bound_terms_ = static_cast<int64_t>(profile.statements.size()) + max_subplans +
                 max_occurrences + 2;
  // The derivation drops terms of order (count * 2^-53)^2 and needs the
  // underflow errors of every product below DBL_MIN; both hold far below
  // 2^40 operations.
  bound_ok_ = bound_ok_ && bound_terms_ + static_cast<int64_t>(subplan_rep_.size()) <
                               (int64_t{1} << 40);
  AuditClasses();
}

double LayoutEvaluator::ClassCost(int32_t c, const Scratch* scratch) const {
  const auto i = static_cast<size_t>(c);
  return (scratch != nullptr && scratch->stamp[i] == scratch->epoch)
             ? scratch->override_cost[i]
             : class_cost_[i];
}

double LayoutEvaluator::StatementTerm(size_t sc, const Scratch* scratch) const {
  // CostModel::StatementCost's order: sub-plan costs summed left to right
  // from 0, then (in WorkloadCost) one multiplication by the weight.
  const StatementClass& cls = statement_classes_[sc];
  double statement_cost = 0;
  for (auto i = static_cast<size_t>(cls.begin);
       i < static_cast<size_t>(cls.begin + cls.count); ++i) {
    statement_cost += ClassCost(class_seq_[i], scratch);
  }
  return cls.weight * statement_cost;
}

double LayoutEvaluator::FoldTotal() const {
  double total = 0;
  for (const int32_t sc : statement_class_) {
    total += statement_term_[static_cast<size_t>(sc)];
  }
  return total;
}

double LayoutEvaluator::ReferenceTotal(const Scratch* scratch) const {
  // The fold without classes: every statement's own weight times its own
  // sub-plans' costs summed left to right, added in statement order.
  double total = 0;
  size_t flat = 0;
  for (const StatementProfile& s : profile_.statements) {
    double statement_cost = 0;
    for (size_t p = 0; p < s.subplans.size(); ++p, ++flat) {
      statement_cost += ClassCost(subplan_class_[flat], scratch);
    }
    total += s.weight * statement_cost;
  }
  return total;
}

double LayoutEvaluator::Bind(const Layout& layout) {
  DBLAYOUT_CHECK(layout.num_objects() >=
                 static_cast<int>(object_classes_.size()));
  layout_ = layout;
  class_cost_.resize(subplan_rep_.size());
  for (size_t c = 0; c < subplan_rep_.size(); ++c) {
    class_cost_[c] = cost_model_.SubplanCost(*subplan_rep_[c], layout_);
  }
  statement_term_.resize(statement_classes_.size());
  for (size_t sc = 0; sc < statement_classes_.size(); ++sc) {
    statement_term_[sc] = StatementTerm(sc, nullptr);
  }
  total_ = FoldTotal();
  // Every class was re-costed: no memo filled before survives.
  ++generation_;
  std::fill(object_generation_.begin(), object_generation_.end(), generation_);
  bound_ = true;
  staging_ = MakeScratch();
  staged_valid_ = false;
  ++full_evals_;
  cost_model_.NoteExternalWorkloadEvaluations(1);
  DBLAYOUT_OBS_COUNT("evaluator/full_evals", 1);
  DBLAYOUT_OBS_COUNT("cost_model/subplan_evals",
                     static_cast<int64_t>(subplan_rep_.size()));
  if (journal_ != nullptr) {
    journal_->Append("bind",
                     {{"cost", obs::JsonDouble(total_)},
                      {"subplans", obs::JsonInt(static_cast<int64_t>(
                                       subplan_class_.size()))}});
  }
  AuditParity();
  return total_;
}

LayoutEvaluator::Scratch LayoutEvaluator::MakeScratch() const {
  DBLAYOUT_DCHECK(bound_);
  Scratch s;
  s.layout = layout_;
  s.override_cost.assign(subplan_rep_.size(), 0.0);
  s.stamp.assign(subplan_rep_.size(), 0);
  s.statement_stamp.assign(statement_classes_.size(), 0);
  s.epoch = 0;
  s.terms.resize(statement_classes_.size() * kLaneCount);
  for (size_t sc = 0; sc < statement_classes_.size(); ++sc) {
    std::fill_n(s.terms.begin() + static_cast<std::ptrdiff_t>(sc * kLaneCount),
                kLaneCount, statement_term_[sc]);
  }
  return s;
}

LayoutEvaluator::Memo LayoutEvaluator::MakeMemo(
    const std::vector<int>& objects) const {
  // The classes a move of `objects` re-costs: their inverted-index
  // entries, deduplicated.
  std::vector<int32_t> ids;
  for (int obj : objects) {
    if (static_cast<size_t>(obj) >= object_classes_.size()) continue;
    const std::vector<int32_t>& list = object_classes_[static_cast<size_t>(obj)];
    ids.insert(ids.end(), list.begin(), list.end());
  }
  std::sort(ids.begin(), ids.end());
  Memo memo;
  memo.costs.resize(static_cast<size_t>(
      std::unique(ids.begin(), ids.end()) - ids.begin()));
  return memo;
}

bool LayoutEvaluator::MemoFresh(const Memo& memo,
                                const std::vector<int>& objects) const {
  if (memo.generation < 0) return false;
  for (int obj : objects) {
    if (static_cast<size_t>(obj) < object_generation_.size() &&
        object_generation_[static_cast<size_t>(obj)] > memo.generation) {
      return false;
    }
  }
  return true;
}

template <typename ApplyFn>
void LayoutEvaluator::ApplyScratchRows(const std::vector<int>& objects,
                                       const ApplyFn& apply,
                                       Scratch* scratch) const {
  const int m = layout_.num_disks();
  scratch->saved_rows.resize(objects.size() * static_cast<size_t>(m));
  for (size_t k = 0; k < objects.size(); ++k) {
    for (int j = 0; j < m; ++j) {
      scratch->saved_rows[k * static_cast<size_t>(m) + static_cast<size_t>(j)] =
          scratch->layout.x(objects[k], j);
    }
  }
  apply(scratch->layout);
}

void LayoutEvaluator::RestoreScratchRows(const std::vector<int>& objects,
                                         Scratch* scratch) const {
  const int m = layout_.num_disks();
  for (size_t k = 0; k < objects.size(); ++k) {
    for (int j = 0; j < m; ++j) {
      scratch->layout.set_x(
          objects[k], j,
          scratch->saved_rows[k * static_cast<size_t>(m) + static_cast<size_t>(j)]);
    }
  }
}

template <typename ApplyFn>
void LayoutEvaluator::ScoreCore(Pass pass, std::span<const Lane> lanes,
                                const ApplyFn& apply, Scratch* scratch,
                                double* out) const {
  DBLAYOUT_DCHECK(bound_);
  DBLAYOUT_DCHECK_LE(lanes.size(), kLaneCount);
  Scratch& s = *scratch;
  int64_t memo_hits = 0;
  int64_t misses = 0;
  int64_t recosted = 0;
#if DBLAYOUT_DCHECK_IS_ON()
  std::array<double, kLaneCount> reference{};
#endif

  for (size_t k = 0; k < lanes.size(); ++k) {
    const std::vector<int>& objects = *lanes[k].objects;
    Memo* const memo = lanes[k].memo;
    const auto apply_lane = [&apply, k](Layout& l) { apply(k, l); };
    ++s.epoch;

    // Affected sub-plan classes: the union of the moved objects'
    // inverted-index entries, deduped by epoch stamp.
    s.affected.clear();
    for (int obj : objects) {
      if (static_cast<size_t>(obj) >= object_classes_.size()) continue;
      for (int32_t c : object_classes_[static_cast<size_t>(obj)]) {
        if (s.stamp[static_cast<size_t>(c)] == s.epoch) continue;
        s.stamp[static_cast<size_t>(c)] = s.epoch;
        s.affected.push_back(c);
      }
    }

    const bool hit = memo != nullptr && MemoFresh(*memo, objects);
    if (hit) {
      DBLAYOUT_DCHECK_EQ(memo->costs.size(), s.affected.size());
      for (size_t a = 0; a < s.affected.size(); ++a) {
        s.override_cost[static_cast<size_t>(s.affected[a])] = memo->costs[a];
      }
      ++memo_hits;
    } else {
      ApplyScratchRows(objects, apply_lane, &s);
      for (int32_t c : s.affected) {
        s.override_cost[static_cast<size_t>(c)] = cost_model_.SubplanCost(
            *subplan_rep_[static_cast<size_t>(c)], s.layout);
      }
      RestoreScratchRows(objects, &s);
      if (memo != nullptr) {
        memo->generation = generation_;
        memo->costs.resize(s.affected.size());
        for (size_t a = 0; a < s.affected.size(); ++a) {
          memo->costs[a] = s.override_cost[static_cast<size_t>(s.affected[a])];
        }
      }
      ++misses;
      recosted += static_cast<int64_t>(s.affected.size());
    }

#if DBLAYOUT_DCHECK_IS_ON()
    if (hit) {
      // Memo audit: re-cost the hit through the oracle; every class cost
      // must match the memoized one bit for bit.
      ApplyScratchRows(objects, apply_lane, &s);
      for (int32_t c : s.affected) {
        DBLAYOUT_DCHECK(Bits(cost_model_.SubplanCost(
                            *subplan_rep_[static_cast<size_t>(c)], s.layout)) ==
                        Bits(s.override_cost[static_cast<size_t>(c)]));
      }
      RestoreScratchRows(objects, &s);
    }
    // This lane's overrides are overwritten by later lanes: take its
    // reference total now.
    reference[k] = ReferenceTotal(&s);
#endif

    if (pass == Pass::kBound) {
      out[k] = LowerBound(s);
      continue;
    }
    // Re-fold the lane's affected statement classes into its lane.
    for (int32_t c : s.affected) {
      for (int32_t sc : class_statements_[static_cast<size_t>(c)]) {
        if (s.statement_stamp[static_cast<size_t>(sc)] == s.epoch) continue;
        s.statement_stamp[static_cast<size_t>(sc)] = s.epoch;
        const size_t slot = static_cast<size_t>(sc) * kLaneCount + k;
        s.terms[slot] = StatementTerm(static_cast<size_t>(sc), &s);
        s.patched.push_back(static_cast<int32_t>(slot));
      }
    }
  }

  if (pass != Pass::kBound) {
    // Lockstep fold: one term per statement, in statement order, into each
    // lane's own accumulator — WorkloadCost's association order, per lane.
    // Unused lanes fold cached terms and are ignored.
    const std::array<double, kLaneCount> acc = FoldLanes(statement_class_, s.terms);
    std::copy_n(acc.begin(), lanes.size(), out);
    // Back to the cached terms for the next pass.
    for (const int32_t slot : s.patched) {
      s.terms[static_cast<size_t>(slot)] =
          statement_term_[static_cast<size_t>(slot) / kLaneCount];
    }
    s.patched.clear();
  }

#if DBLAYOUT_DCHECK_IS_ON()
  for (size_t k = 0; k < lanes.size(); ++k) {
    if (pass == Pass::kBound) {
      DBLAYOUT_DCHECK(!(out[k] > reference[k]));
    } else {
      DBLAYOUT_DCHECK(Bits(out[k]) == Bits(reference[k]));
    }
  }
#endif

  if (pass != Pass::kFold) {
    const auto n = static_cast<int64_t>(lanes.size());
    delta_evals_.fetch_add(n, std::memory_order_relaxed);
    cost_model_.NoteExternalWorkloadEvaluations(n);
    DBLAYOUT_OBS_COUNT("evaluator/delta_evals", n);
    if (memo_hits > 0) {
      DBLAYOUT_OBS_COUNT("evaluator/memo_hits", memo_hits);
    }
  }
  if (misses > 0) {
    DBLAYOUT_OBS_COUNT("evaluator/subplans_recosted", recosted);
    DBLAYOUT_OBS_COUNT("cost_model/subplan_evals", recosted);
  }
}

double LayoutEvaluator::LowerBound(const Scratch& scratch) const {
  // T' = T + sum_c W_c (cost'_c - cost_c) in exact arithmetic; DESIGN §10
  // bounds how far the folds and this sum round from it.
  double delta = 0;
  double mass = 0;
  bool changed = false;
  for (const int32_t c : scratch.affected) {
    const auto i = static_cast<size_t>(c);
    const double now = class_cost_[i];
    const double next = scratch.override_cost[i];
    if (Bits(next) == Bits(now)) continue;
    changed = true;
    delta += class_weight_[i] * (next - now);
    mass += class_weight_[i] * (next + now);
  }
  // Every term the fold would add is then bit-equal to its cached one.
  if (!changed) return total_;
  constexpr double kUlps = 4 * 0x1p-53;
  const double error =
      kUlps * static_cast<double>(bound_terms_ +
                                  static_cast<int64_t>(scratch.affected.size())) *
          (2 * total_ + mass + std::fabs(delta)) +
      std::numeric_limits<double>::min();
  const double bound = (total_ + delta) - error;
  // An infinite cost, weight or total makes `bound` inf or NaN.
  return bound_ok_ && std::isfinite(bound) ? bound
                                           : -std::numeric_limits<double>::infinity();
}

void LayoutEvaluator::ScoreProportionalMoves(
    std::span<const ProportionalMove> moves, Scratch* scratch,
    std::span<double> out, Pass pass) const {
  DBLAYOUT_CHECK(out.size() == moves.size());
  for (size_t begin = 0; begin < moves.size(); begin += kLaneCount) {
    const size_t n = std::min(moves.size() - begin, kLaneCount);
    std::array<Lane, kLaneCount> lanes;
    for (size_t k = 0; k < n; ++k) {
      lanes[k] = Lane{moves[begin + k].objects, moves[begin + k].memo};
    }
    ScoreCore(
        pass, std::span<const Lane>(lanes.data(), n),
        [&](size_t k, Layout& l) {
          const ProportionalMove& move = moves[begin + k];
          for (int i : *move.objects) {
            if (move.rows != nullptr) {
              for (int j = 0; j < l.num_disks(); ++j) l.set_x(i, j, move.rows->x(i, j));
            } else {
              l.AssignProportional(i, *move.disks, cost_model_.fleet());
            }
          }
        },
        scratch, out.data() + begin);
  }
}

double LayoutEvaluator::ScoreProportionalMove(const std::vector<int>& objects,
                                              const std::vector<int>& disks,
                                              Scratch* scratch, Memo* memo) const {
  const ProportionalMove move{&objects, &disks, memo};
  double total = 0;
  ScoreProportionalMoves({&move, 1}, scratch, {&total, 1});
  return total;
}

template <typename ApplyFn>
double LayoutEvaluator::DeltaCore(const std::vector<int>& objects,
                                  const ApplyFn& apply) {
  staged_valid_ = false;
  const Lane lane{&objects, nullptr};
  double total = 0;
  ScoreCore(Pass::kExact, {&lane, 1}, [&apply](size_t, Layout& l) { apply(l); },
            &staging_, &total);

  // Capture the candidate: its re-costed classes (still in the staging
  // scratch's overrides), its rows (applied once more, then put back), and
  // its total.
  staged_affected_.assign(staging_.affected.begin(), staging_.affected.end());
  staged_costs_.resize(staged_affected_.size());
  for (size_t a = 0; a < staged_affected_.size(); ++a) {
    staged_costs_[a] =
        staging_.override_cost[static_cast<size_t>(staged_affected_[a])];
  }
  const int m = layout_.num_disks();
  ApplyScratchRows(objects, apply, &staging_);
  staged_objects_ = objects;
  staged_rows_.resize(objects.size() * static_cast<size_t>(m));
  for (size_t k = 0; k < objects.size(); ++k) {
    for (int j = 0; j < m; ++j) {
      staged_rows_[k * static_cast<size_t>(m) + static_cast<size_t>(j)] =
          staging_.layout.x(objects[k], j);
    }
  }
  RestoreScratchRows(objects, &staging_);
  staged_total_ = total;
  staged_valid_ = true;
  return total;
}

double LayoutEvaluator::DeltaForProportionalMove(const std::vector<int>& objects,
                                                 const std::vector<int>& disks) {
  return DeltaCore(objects, [&](Layout& l) {
    for (int i : objects) l.AssignProportional(i, disks, cost_model_.fleet());
  });
}

double LayoutEvaluator::DeltaForRowsFromMove(const std::vector<int>& objects,
                                             const Layout& rows) {
  return DeltaCore(objects, [&](Layout& l) {
    for (int i : objects) {
      for (int j = 0; j < l.num_disks(); ++j) l.set_x(i, j, rows.x(i, j));
    }
  });
}

void LayoutEvaluator::Commit() {
  DBLAYOUT_CHECK(staged_valid_);
  const int m = layout_.num_disks();
  for (size_t k = 0; k < staged_objects_.size(); ++k) {
    for (int j = 0; j < m; ++j) {
      const double v =
          staged_rows_[k * static_cast<size_t>(m) + static_cast<size_t>(j)];
      layout_.set_x(staged_objects_[k], j, v);
      staging_.layout.set_x(staged_objects_[k], j, v);
    }
  }
  for (size_t a = 0; a < staged_affected_.size(); ++a) {
    class_cost_[static_cast<size_t>(staged_affected_[a])] = staged_costs_[a];
  }
  total_ = staged_total_;
  ++generation_;
  for (int32_t c : staged_affected_) {
    // Re-fold the statement classes from the installed costs: the terms
    // the staged total was folded from. The staging scratch's lanes follow.
    for (int32_t sc : class_statements_[static_cast<size_t>(c)]) {
      const double term = StatementTerm(static_cast<size_t>(sc), nullptr);
      statement_term_[static_cast<size_t>(sc)] = term;
      std::fill_n(staging_.terms.begin() +
                      static_cast<std::ptrdiff_t>(static_cast<size_t>(sc) * kLaneCount),
                  kLaneCount, term);
    }
    // Memo staleness: every object of a re-costed class may now price
    // differently when it moves.
    for (const ObjectAccess& a : subplan_rep_[static_cast<size_t>(c)]->accesses) {
      object_generation_[static_cast<size_t>(a.object_id)] = generation_;
    }
  }
  staged_valid_ = false;
  DBLAYOUT_OBS_COUNT("evaluator/commits", 1);
  // Full-recompute parity: the delta-maintained caches and total must match
  // a from-scratch §5 evaluation of the new layout.
  AuditParity();
}

void LayoutEvaluator::Revert() { staged_valid_ = false; }

void LayoutEvaluator::AuditClasses() const {
#if DBLAYOUT_DCHECK_IS_ON()
  // Every flat sub-plan's accesses equal its class representative's, field
  // by field, and every statement's weight bits and class sequence equal
  // its statement class's.
  size_t flat = 0;
  for (size_t st = 0; st < profile_.statements.size(); ++st) {
    const StatementProfile& s = profile_.statements[st];
    const StatementClass& cls =
        statement_classes_[static_cast<size_t>(statement_class_[st])];
    DBLAYOUT_DCHECK(Bits(s.weight) == Bits(cls.weight));
    DBLAYOUT_DCHECK_EQ(s.subplans.size(), static_cast<size_t>(cls.count));
    for (size_t p = 0; p < s.subplans.size(); ++p, ++flat) {
      const int32_t c = subplan_class_[flat];
      DBLAYOUT_DCHECK(SameAccesses(s.subplans[p], *subplan_rep_[static_cast<size_t>(c)]));
      DBLAYOUT_DCHECK_EQ(c, class_seq_[static_cast<size_t>(cls.begin) + p]);
    }
  }
  DBLAYOUT_DCHECK_EQ(flat, subplan_class_.size());
#endif
}

void LayoutEvaluator::AuditParity() const {
#if DBLAYOUT_DCHECK_IS_ON()
  std::vector<InvariantAuditor::WeightedSubplanSpan> spans;
  spans.reserve(profile_.statements.size());
  for (const StatementProfile& s : profile_.statements) {
    spans.push_back(InvariantAuditor::WeightedSubplanSpan{
        s.weight, s.subplans.data(), s.subplans.size()});
  }
  DBLAYOUT_DCHECK_OK(InvariantAuditor().AuditWorkloadTotal(
      spans, layout_, cost_model_.fleet(), total_));
  // The cached class terms, and the flat fold of the cached class costs,
  // must both give exactly the cached total.
  DBLAYOUT_DCHECK(Bits(FoldTotal()) == Bits(total_));
  DBLAYOUT_DCHECK(Bits(ReferenceTotal(nullptr)) == Bits(total_));
#endif
}

}  // namespace dblayout
