#include "layout/evaluator.h"

#include <algorithm>
#include <bit>

#include "analysis/invariant_auditor.h"
#include "common/logging.h"
#include "obs/journal.h"
#include "obs/metrics.h"

namespace dblayout {

LayoutEvaluator::LayoutEvaluator(const WorkloadProfile& profile,
                                 const CostModel& cost_model)
    : profile_(profile), cost_model_(cost_model) {
  // Flatten (statement, sub-plan) in WorkloadCost's iteration order and
  // build the object -> flat-sub-plan inverted index.
  size_t num_objects = profile.num_objects;
  statements_.reserve(profile.statements.size());
  for (const StatementProfile& s : profile.statements) {
    const auto st = static_cast<int32_t>(statements_.size());
    statements_.push_back(StatementSpan{s.weight,
                                        static_cast<int32_t>(flat_.size()),
                                        static_cast<int32_t>(s.subplans.size())});
    for (const SubplanAccess& sp : s.subplans) {
      flat_.push_back(FlatSubplan{&sp, st});
      for (const ObjectAccess& a : sp.accesses) {
        num_objects = std::max(num_objects, static_cast<size_t>(a.object_id) + 1);
      }
    }
  }
  object_subplans_.resize(num_objects);
  object_generation_.assign(num_objects, 0);
  int32_t flat_id = 0;
  for (const StatementProfile& s : profile.statements) {
    for (const SubplanAccess& sp : s.subplans) {
      // Dedup per sub-plan: an object accessed twice in one sub-plan (e.g.
      // a self-join) still invalidates it once.
      for (const ObjectAccess& a : sp.accesses) {
        std::vector<int32_t>& list =
            object_subplans_[static_cast<size_t>(a.object_id)];
        if (list.empty() || list.back() != flat_id) list.push_back(flat_id);
      }
      ++flat_id;
    }
  }
}

double LayoutEvaluator::StatementTerm(size_t st, const Scratch* scratch) const {
  // CostModel::StatementCost's order: sub-plan costs summed left to right
  // from 0, then (in WorkloadCost) one multiplication by the weight.
  const StatementSpan& span = statements_[st];
  double statement_cost = 0;
  for (auto f = static_cast<size_t>(span.begin);
       f < static_cast<size_t>(span.begin + span.count); ++f) {
    statement_cost += (scratch != nullptr && scratch->stamp[f] == scratch->epoch)
                          ? scratch->override_cost[f]
                          : subplan_cost_[f];
  }
  return span.weight * statement_cost;
}

double LayoutEvaluator::FoldTotal(const Scratch* scratch) const {
  // CostModel::WorkloadCost's order: each statement's term added to the
  // running total in statement order. A cached term is the product
  // StatementTerm computed from the same sub-plan costs, so with
  // SubplanCost pure the total is bit-identical to a full recomputation —
  // the invariant the greedy search's determinism rests on.
  double total = 0;
  for (size_t st = 0; st < statements_.size(); ++st) {
    total += (scratch != nullptr && scratch->statement_stamp[st] == scratch->epoch)
                 ? StatementTerm(st, scratch)
                 : statement_term_[st];
  }
  return total;
}

double LayoutEvaluator::Bind(const Layout& layout) {
  DBLAYOUT_CHECK(layout.num_objects() >=
                 static_cast<int>(object_subplans_.size()));
  layout_ = layout;
  subplan_cost_.resize(flat_.size());
  for (size_t f = 0; f < flat_.size(); ++f) {
    subplan_cost_[f] = cost_model_.SubplanCost(*flat_[f].subplan, layout_);
  }
  statement_term_.resize(statements_.size());
  for (size_t st = 0; st < statements_.size(); ++st) {
    statement_term_[st] = StatementTerm(st, nullptr);
  }
  total_ = FoldTotal(nullptr);
  // Every sub-plan was re-costed: no memo filled before survives.
  ++generation_;
  std::fill(object_generation_.begin(), object_generation_.end(), generation_);
  bound_ = true;
  staging_ = MakeScratch();
  staged_valid_ = false;
  ++full_evals_;
  cost_model_.NoteExternalWorkloadEvaluation();
  DBLAYOUT_OBS_COUNT("evaluator/full_evals", 1);
  if (journal_ != nullptr) {
    journal_->Append("bind",
                     {{"cost", obs::JsonDouble(total_)},
                      {"subplans", obs::JsonInt(static_cast<int64_t>(
                                       flat_.size()))}});
  }
  AuditParity();
  return total_;
}

LayoutEvaluator::Scratch LayoutEvaluator::MakeScratch() const {
  DBLAYOUT_DCHECK(bound_);
  Scratch s;
  s.layout = layout_;
  s.override_cost.assign(flat_.size(), 0.0);
  s.stamp.assign(flat_.size(), 0);
  s.statement_stamp.assign(statements_.size(), 0);
  s.epoch = 0;
  return s;
}

LayoutEvaluator::Memo LayoutEvaluator::MakeMemo(
    const std::vector<int>& objects) const {
  // The sub-plans a move of `objects` re-costs: their inverted-index
  // entries, deduplicated.
  std::vector<int32_t> ids;
  for (int obj : objects) {
    if (static_cast<size_t>(obj) >= object_subplans_.size()) continue;
    const std::vector<int32_t>& list = object_subplans_[static_cast<size_t>(obj)];
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

template <typename ApplyFn>
double LayoutEvaluator::ScoreCore(const std::vector<int>& objects,
                                  const ApplyFn& apply, Scratch* scratch,
                                  bool restore, Memo* memo) const {
  DBLAYOUT_DCHECK(bound_);
  Scratch& s = *scratch;
  ++s.epoch;

  // Affected sub-plans: the union of the moved objects' inverted-index
  // entries, deduped by epoch stamp; their statements are stamped for the
  // fold to re-fold.
  s.affected.clear();
  for (int obj : objects) {
    if (static_cast<size_t>(obj) >= object_subplans_.size()) continue;
    for (int32_t id : object_subplans_[static_cast<size_t>(obj)]) {
      if (s.stamp[static_cast<size_t>(id)] == s.epoch) continue;
      s.stamp[static_cast<size_t>(id)] = s.epoch;
      s.affected.push_back(id);
      const auto st = static_cast<size_t>(flat_[static_cast<size_t>(id)].statement);
      s.statement_stamp[st] = s.epoch;
    }
  }

  const bool hit = memo != nullptr && MemoFresh(*memo, objects);
  if (hit) {
    DBLAYOUT_DCHECK_EQ(memo->costs.size(), s.affected.size());
    for (size_t k = 0; k < s.affected.size(); ++k) {
      s.override_cost[static_cast<size_t>(s.affected[k])] = memo->costs[k];
    }
  } else {
    ApplyScratchRows(objects, apply, &s);
    for (int32_t id : s.affected) {
      s.override_cost[static_cast<size_t>(id)] = cost_model_.SubplanCost(
          *flat_[static_cast<size_t>(id)].subplan, s.layout);
    }
    if (memo != nullptr) {
      memo->generation = generation_;
      memo->costs.resize(s.affected.size());
      for (size_t k = 0; k < s.affected.size(); ++k) {
        memo->costs[k] = s.override_cost[static_cast<size_t>(s.affected[k])];
      }
    }
    if (restore) RestoreScratchRows(objects, &s);
  }
  const double total = FoldTotal(&s);

#if DBLAYOUT_DCHECK_IS_ON()
  if (hit) {
    // Memo audit: re-cost the hit through the oracle; every cost and the
    // folded total must match the memoized ones bit for bit.
    ApplyScratchRows(objects, apply, &s);
    for (int32_t id : s.affected) {
      const double fresh = cost_model_.SubplanCost(
          *flat_[static_cast<size_t>(id)].subplan, s.layout);
      DBLAYOUT_DCHECK(std::bit_cast<uint64_t>(fresh) ==
                      std::bit_cast<uint64_t>(
                          s.override_cost[static_cast<size_t>(id)]));
      s.override_cost[static_cast<size_t>(id)] = fresh;
    }
    RestoreScratchRows(objects, &s);
    DBLAYOUT_DCHECK(std::bit_cast<uint64_t>(FoldTotal(&s)) ==
                    std::bit_cast<uint64_t>(total));
  }
#endif

  delta_evals_.fetch_add(1, std::memory_order_relaxed);
  cost_model_.NoteExternalWorkloadEvaluation();
  DBLAYOUT_OBS_COUNT("evaluator/delta_evals", 1);
  if (hit) {
    DBLAYOUT_OBS_COUNT("evaluator/memo_hits", 1);
  } else {
    DBLAYOUT_OBS_COUNT("evaluator/subplans_recosted",
                       static_cast<int64_t>(s.affected.size()));
  }
  return total;
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

double LayoutEvaluator::ScoreProportionalMove(const std::vector<int>& objects,
                                              const std::vector<int>& disks,
                                              Scratch* scratch, Memo* memo) const {
  return ScoreCore(
      objects,
      [&](Layout& l) {
        for (int i : objects) l.AssignProportional(i, disks, cost_model_.fleet());
      },
      scratch, /*restore=*/true, memo);
}

double LayoutEvaluator::ScoreRowsFromMove(const std::vector<int>& objects,
                                          const Layout& rows,
                                          Scratch* scratch) const {
  return ScoreCore(
      objects,
      [&](Layout& l) {
        for (int i : objects) {
          for (int j = 0; j < l.num_disks(); ++j) l.set_x(i, j, rows.x(i, j));
        }
      },
      scratch, /*restore=*/true, /*memo=*/nullptr);
}

template <typename ApplyFn>
double LayoutEvaluator::DeltaCore(const std::vector<int>& objects,
                                  const ApplyFn& apply) {
  staged_valid_ = false;
  const double total =
      ScoreCore(objects, apply, &staging_, /*restore=*/false, /*memo=*/nullptr);

  // Capture the candidate (rows, re-costed sub-plans, total) while the
  // staging scratch still holds the applied rows, then put the scratch back
  // in sync with the bound layout.
  const int m = layout_.num_disks();
  staged_objects_ = objects;
  staged_rows_.resize(objects.size() * static_cast<size_t>(m));
  for (size_t k = 0; k < objects.size(); ++k) {
    for (int j = 0; j < m; ++j) {
      staged_rows_[k * static_cast<size_t>(m) + static_cast<size_t>(j)] =
          staging_.layout.x(objects[k], j);
    }
  }
  staged_affected_.assign(staging_.affected.begin(), staging_.affected.end());
  staged_costs_.resize(staged_affected_.size());
  for (size_t a = 0; a < staged_affected_.size(); ++a) {
    staged_costs_[a] =
        staging_.override_cost[static_cast<size_t>(staged_affected_[a])];
  }
  staged_total_ = total;
  staged_valid_ = true;
  RestoreScratchRows(objects, &staging_);
  return total;
}

double LayoutEvaluator::DeltaForMove(int object,
                                     const std::vector<double>& new_fractions) {
  DBLAYOUT_CHECK(static_cast<int>(new_fractions.size()) == layout_.num_disks());
  const std::vector<int> objects = {object};
  return DeltaCore(objects, [&](Layout& l) {
    for (int j = 0; j < l.num_disks(); ++j) {
      l.set_x(object, j, new_fractions[static_cast<size_t>(j)]);
    }
  });
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
    subplan_cost_[static_cast<size_t>(staged_affected_[a])] = staged_costs_[a];
  }
  total_ = staged_total_;
  ++generation_;
  for (int32_t id : staged_affected_) {
    const FlatSubplan& fs = flat_[static_cast<size_t>(id)];
    // Re-fold the statement from the installed costs: the term the staged
    // total was folded from.
    const auto st = static_cast<size_t>(fs.statement);
    statement_term_[st] = StatementTerm(st, nullptr);
    // Memo staleness: every object of a re-costed sub-plan may now price
    // differently when it moves.
    for (const ObjectAccess& a : fs.subplan->accesses) {
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
  // The cached statement terms must fold to exactly the cached total.
  DBLAYOUT_DCHECK(std::bit_cast<uint64_t>(FoldTotal(nullptr)) ==
                  std::bit_cast<uint64_t>(total_));
#endif
}

}  // namespace dblayout
