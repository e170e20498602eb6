// The scope-aware dblayout check rules, built on the ProgramModel
// (scope_parser.h) and TaintAnalysis layers:
//
//   - unannotated-mutex-field: annotation completeness for classes that own
//     a mutex (DBLAYOUT_GUARDED_BY, common/mutex.h). Whether annotated
//     fields are accessed under their lock is Clang's -Wthread-safety's job;
//     it can only check the fields that carry an annotation;
//   - determinism-taint: interprocedural clock/env/entropy reachability
//     from the determinism-critical entry layers.
//
// DESIGN.md §11 maps each rule to the guarantee it protects.

#include <set>
#include <string>
#include <vector>

#include "common/strutil.h"
#include "staticcheck/staticcheck.h"

namespace dblayout::staticcheck {
namespace {

const std::string& DisplayName(const FunctionDef& fn) {
  return fn.qualified_name.empty() ? fn.name : fn.qualified_name;
}

// --- unannotated-mutex-field ------------------------------------------------

/// A class that declares its own mutex has opted into the lock-discipline
/// contract: every other mutable field must either carry
/// DBLAYOUT_GUARDED_BY(...) or be self-synchronizing (atomic, a mutex or
/// condvar itself, or const). Unannotated fields are where the next data
/// race hides — annotate them or justify inline why they need no lock.
class UnannotatedMutexFieldRule : public CheckRule {
 public:
  const char* id() const override { return "unannotated-mutex-field"; }
  const char* summary() const override {
    return "every mutable field of a mutex-holding class needs "
           "DBLAYOUT_GUARDED_BY (or to be atomic/const/a sync primitive)";
  }
  LintSeverity severity() const override { return LintSeverity::kWarning; }
  void Check(const SourceFile& file, const CheckContext& ctx,
             std::vector<Diagnostic>* out) const override {
    const FileModel* fm = ctx.program.File(file.path);
    if (fm == nullptr) return;
    for (const ClassModel& cls : fm->classes) {
      if (!cls.has_mutex_member()) continue;
      for (const FieldDecl& f : cls.fields) {
        if (f.is_mutex || f.is_condvar || f.is_atomic || f.is_const) continue;
        if (!f.guarded_by.empty()) continue;
        out->push_back(MakeDiag(
            id(), severity(), f.line,
            StrFormat("field '%s' of mutex-holding class '%s' has no "
                      "DBLAYOUT_GUARDED_BY annotation",
                      f.name.c_str(), cls.name.c_str()),
            "annotate `DBLAYOUT_GUARDED_BY(<mutex>)`, make the field "
            "atomic/const, or suppress with the reason it is unshared"));
      }
    }
  }
};

// --- determinism-taint ------------------------------------------------------

/// Interprocedural nondeterminism gate. Direct clock/env/entropy reads in an
/// entry-layer file (src/layout/, src/graph/, src/resilience/) are reported
/// at the read; calls from entry-layer functions into *carrier* functions the
/// taint pass marked (transitively reaching such a read through files that
/// are neither allowlisted nor entry-layer) are reported at the call with the
/// full call path. Replaces the v1 per-site wall-clock/env-read rules: a
/// clock read in the obs layer is infrastructure, the same read reachable
/// from the cost model is a reproducibility bug.
class DeterminismTaintRule : public CheckRule {
 public:
  const char* id() const override { return "determinism-taint"; }
  const char* summary() const override {
    return "cost-model/search/partition entry points must not reach "
           "clock/env/entropy reads, directly or through callees";
  }
  LintSeverity severity() const override { return LintSeverity::kWarning; }
  void Check(const SourceFile& file, const CheckContext& ctx,
             std::vector<Diagnostic>* out) const override {
    if (!PathMatchesAny(file.path, ctx.options.taint_entry_prefixes)) return;
    const FileModel* fm = ctx.program.File(file.path);
    if (fm == nullptr) return;
    for (const FunctionDef& fn : fm->functions) {
      for (const TaintSource& ts : fn.taints) {
        out->push_back(MakeDiag(
            id(), severity(), ts.line,
            StrFormat("nondeterministic input '%s' read in '%s'",
                      ts.what.c_str(), DisplayName(fn).c_str()),
            "inject the value (deadline, seed, setting) through parameters, "
            "or suppress with the reason the dependence is contractual"));
      }
      std::set<std::string> reported;  // one finding per callee per function
      for (const CallSite& c : fn.calls) {
        if (reported.count(c.callee) > 0) continue;
        const TaintedFunction* hit = nullptr;
        for (size_t ti : ResolveCall(ctx.program, c)) {
          hit = ctx.taint.Find(ti);
          if (hit != nullptr) break;
        }
        if (hit == nullptr) continue;
        reported.insert(c.callee);
        std::string path;
        for (const std::string& step : hit->path) {
          if (!path.empty()) path += " -> ";
          path += step;
        }
        out->push_back(MakeDiag(
            id(), severity(), c.line,
            StrFormat("call to '%s' from '%s' reaches nondeterministic input "
                      "'%s' (call path: %s)",
                      c.callee.c_str(), DisplayName(fn).c_str(),
                      hit->source.c_str(), path.c_str()),
            "make the callee take the value as a parameter, or move the read "
            "behind the obs layer"));
      }
    }
  }
};

}  // namespace

std::vector<std::unique_ptr<CheckRule>> ScopedCheckRules() {
  std::vector<std::unique_ptr<CheckRule>> rules;
  rules.push_back(std::make_unique<UnannotatedMutexFieldRule>());
  rules.push_back(std::make_unique<DeterminismTaintRule>());
  return rules;
}

}  // namespace dblayout::staticcheck
